// Storage engine: CRC32C vectors, WAL framing / rotation / sync policies /
// torn-tail truncation sweep / corruption rejection / fault injection,
// checkpoint + manifest files, DurableBackend recovery edge cases, KeyLog,
// and durable-mode LdsCluster / StoreService restart-recovery end to end.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "lds/cluster.h"
#include "storage/backend.h"
#include "storage/checkpoint.h"
#include "storage/crc32c.h"
#include "storage/fsutil.h"
#include "storage/manifest.h"
#include "storage/wal.h"
#include "store/store_service.h"
#include "store_test_util.h"

namespace lds::storage {
namespace {

namespace fs = std::filesystem;

/// A unique empty directory under the system temp dir, removed on scope
/// exit.  Every test gets its own so parallel ctest runs never collide.
struct ScopedDir {
  explicit ScopedDir(const char* tag) {
    static std::atomic<int> counter{0};
    path = (fs::temp_directory_path() /
            ("lds_storage_test_" + std::to_string(::getpid()) + "_" + tag +
             "_" + std::to_string(counter.fetch_add(1))))
               .string();
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScopedDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

Bytes bytes_of(const char* s) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(s);
  return Bytes(p, p + std::strlen(s));
}

// ---- CRC32C -----------------------------------------------------------------

TEST(Crc32c, KnownVectors) {
  // The standard CRC-32C check value (RFC 3720 B.4) plus companions; these
  // pin the polynomial/reflection/final-xor constants of the implementation.
  EXPECT_EQ(crc32c(bytes_of("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c(bytes_of("The quick brown fox jumps over the lazy dog")),
            0x22620404u);
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
  const Bytes zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  Rng rng(11);
  const Bytes data = rng.bytes(1000);
  const std::uint32_t whole = crc32c(data);
  for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                  std::size_t{499}, std::size_t{1000}}) {
    std::uint32_t crc = crc32c_extend(0, data.data(), split);
    crc = crc32c_extend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

// ---- Wal --------------------------------------------------------------------

std::vector<Bytes> replay_all(Wal& wal, std::uint64_t floor = 0) {
  std::vector<Bytes> records;
  const Status st =
      wal.replay(floor, [&](const std::uint8_t* payload, std::size_t len) {
        records.emplace_back(payload, payload + len);
      });
  EXPECT_TRUE(st.ok()) << st.to_string();
  return records;
}

TEST(Wal, RoundTripAcrossReopen) {
  ScopedDir dir("wal_roundtrip");
  Rng rng(1);
  std::vector<Bytes> written;
  {
    auto wal = Wal::open(dir.path, DurabilityPolicy{});
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 20; ++i) {
      written.push_back(rng.bytes(1 + static_cast<std::size_t>(i) * 7));
      ASSERT_TRUE(wal.value()->append(written.back()).ok());
    }
  }
  auto wal = Wal::open(dir.path, DurabilityPolicy{});
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(replay_all(*wal.value()), written);
  EXPECT_EQ(wal.value()->stats().replayed_records, 20u);
}

TEST(Wal, EveryOpenStartsAFreshSegment) {
  ScopedDir dir("wal_fresh");
  for (std::uint64_t expect_seq = 1; expect_seq <= 3; ++expect_seq) {
    auto wal = Wal::open(dir.path, DurabilityPolicy{});
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(wal.value()->current_segment(), expect_seq);
    ASSERT_TRUE(wal.value()->append(bytes_of("x")).ok());
  }
}

TEST(Wal, RotationSplitsSegmentsAndDropThroughDeletesThem) {
  ScopedDir dir("wal_rotate");
  DurabilityPolicy policy;
  policy.segment_bytes = 64;  // force rotation every few records
  auto wal = Wal::open(dir.path, policy);
  ASSERT_TRUE(wal.ok());
  std::vector<Bytes> written;
  for (int i = 0; i < 16; ++i) {
    written.push_back(Bytes(24, static_cast<std::uint8_t>(i)));
    ASSERT_TRUE(wal.value()->append(written.back()).ok());
  }
  EXPECT_GT(wal.value()->stats().rotations, 2u);
  EXPECT_EQ(replay_all(*wal.value()), written);

  // Dropping through the last sealed segment leaves only the current one.
  const std::uint64_t current = wal.value()->current_segment();
  ASSERT_TRUE(wal.value()->drop_through(current - 1).ok());
  std::size_t segment_files = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    (void)e;
    ++segment_files;
  }
  EXPECT_EQ(segment_files, 1u);
}

TEST(Wal, SyncPolicyControlsFdatasyncCadence) {
  {
    ScopedDir dir("wal_sync_always");
    DurabilityPolicy policy;
    policy.sync = SyncPolicy::Always;
    auto wal = Wal::open(dir.path, policy);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(wal.value()->append(Bytes(100, 1)).ok());
    }
    EXPECT_EQ(wal.value()->stats().syncs, 8u);
  }
  {
    ScopedDir dir("wal_sync_group");
    DurabilityPolicy policy;
    policy.sync = SyncPolicy::GroupCommit;
    policy.group_commit_bytes = 4 * 108;  // 4 frames of (8 + 100) bytes
    auto wal = Wal::open(dir.path, policy);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(wal.value()->append(Bytes(100, 1)).ok());
    }
    EXPECT_EQ(wal.value()->stats().syncs, 2u);
  }
  {
    ScopedDir dir("wal_sync_never");
    DurabilityPolicy policy;
    policy.sync = SyncPolicy::Never;
    auto wal = Wal::open(dir.path, policy);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(wal.value()->append(Bytes(100, 1)).ok());
    }
    EXPECT_EQ(wal.value()->stats().syncs, 0u);
    ASSERT_TRUE(wal.value()->sync().ok());  // explicit flush
    EXPECT_EQ(wal.value()->stats().syncs, 1u);
  }
}

/// Crash-tail sweep in the test_codec style: truncate a healthy segment at
/// EVERY byte offset; replay must succeed at each, returning exactly the
/// records whose frames fit entirely below the cut.
TEST(Wal, TornTailToleratedAtEveryTruncationOffset) {
  ScopedDir dir("wal_torn_src");
  const std::vector<std::size_t> lens{1, 5, 17, 2, 40};
  std::vector<Bytes> written;
  Rng rng(2);
  {
    auto wal = Wal::open(dir.path, DurabilityPolicy{});
    ASSERT_TRUE(wal.ok());
    for (const std::size_t len : lens) {
      written.push_back(rng.bytes(len));
      ASSERT_TRUE(wal.value()->append(written.back()).ok());
    }
  }
  Bytes segment;
  ASSERT_TRUE(
      read_file_bytes(dir.path + "/wal-000001.log", &segment).ok());

  // Frame boundaries: records_below(cut) = frames wholly within [0, cut).
  std::vector<std::size_t> frame_end;
  std::size_t off = 0;
  for (const std::size_t len : lens) {
    off += 8 + len;
    frame_end.push_back(off);
  }
  ASSERT_EQ(off, segment.size());

  for (std::size_t cut = 0; cut <= segment.size(); ++cut) {
    ScopedDir trial("wal_torn_trial");
    {
      std::ofstream f(trial.path + "/wal-000001.log", std::ios::binary);
      f.write(reinterpret_cast<const char*>(segment.data()),
              static_cast<std::streamsize>(cut));
    }
    auto wal = Wal::open(trial.path, DurabilityPolicy{});
    ASSERT_TRUE(wal.ok()) << "cut " << cut;
    std::size_t expect = 0;
    while (expect < frame_end.size() && frame_end[expect] <= cut) ++expect;
    const auto records = replay_all(*wal.value());
    ASSERT_EQ(records.size(), expect) << "cut " << cut;
    for (std::size_t i = 0; i < expect; ++i) {
      EXPECT_EQ(records[i], written[i]) << "cut " << cut;
    }
    const bool at_boundary =
        cut == 0 || (expect > 0 && frame_end[expect - 1] == cut);
    if (!at_boundary) {
      EXPECT_GT(wal.value()->stats().torn_tail_bytes, 0u) << "cut " << cut;
    }
  }
}

TEST(Wal, ZeroLengthFrameIsEndOfSegment) {
  // File-system pre-allocation can leave zero bytes after the real tail;
  // a zero length field must read as end-of-segment, not as a record.
  ScopedDir dir("wal_zeros");
  {
    auto wal = Wal::open(dir.path, DurabilityPolicy{});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->append(bytes_of("alive")).ok());
  }
  {
    std::ofstream f(dir.path + "/wal-000001.log",
                    std::ios::binary | std::ios::app);
    const char zeros[16] = {};
    f.write(zeros, sizeof(zeros));
  }
  auto wal = Wal::open(dir.path, DurabilityPolicy{});
  ASSERT_TRUE(wal.ok());
  const auto records = replay_all(*wal.value());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], bytes_of("alive"));
}

TEST(Wal, CorruptCrcMidLogIsRejected) {
  ScopedDir dir("wal_corrupt");
  {
    auto wal = Wal::open(dir.path, DurabilityPolicy{});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->append(Bytes(32, 7)).ok());
    ASSERT_TRUE(wal.value()->append(Bytes(32, 8)).ok());
  }
  const std::string seg = dir.path + "/wal-000001.log";
  Bytes data;
  ASSERT_TRUE(read_file_bytes(seg, &data).ok());
  data[10] ^= 0xFF;  // payload byte of the FIRST record: not a torn tail
  ASSERT_TRUE(atomic_write_file(seg, data).ok());

  auto wal = Wal::open(dir.path, DurabilityPolicy{});
  ASSERT_TRUE(wal.ok());
  const Status st = wal.value()->replay(0, [](const std::uint8_t*,
                                              std::size_t) {});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.to_string();
}

TEST(Wal, InjectedAppendFailurePoisons) {
  ScopedDir dir("wal_fault_append");
  auto wal = Wal::open(dir.path, DurabilityPolicy{});
  ASSERT_TRUE(wal.ok());
  WalFaults faults;
  faults.fail_append_after = 1;  // fail the SECOND append from now
  wal.value()->inject_faults(faults);
  ASSERT_TRUE(wal.value()->append(bytes_of("first")).ok());
  EXPECT_EQ(wal.value()->append(bytes_of("second")).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(wal.value()->poisoned());
  // Poison is sticky: later appends fail without touching the disk.
  EXPECT_EQ(wal.value()->append(bytes_of("third")).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(wal.value()->stats().appends, 1u);
}

TEST(Wal, InjectedShortWriteLeavesTornRecord) {
  ScopedDir dir("wal_fault_short");
  {
    auto wal = Wal::open(dir.path, DurabilityPolicy{});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->append(bytes_of("whole")).ok());
    WalFaults faults;
    faults.short_write_next = true;
    wal.value()->inject_faults(faults);
    EXPECT_EQ(wal.value()->append(Bytes(64, 9)).code(),
              StatusCode::kUnavailable);
    EXPECT_TRUE(wal.value()->poisoned());
  }
  // The torn frame reads exactly like a crash tail: earlier records
  // survive, the torn one is discarded.
  auto wal = Wal::open(dir.path, DurabilityPolicy{});
  ASSERT_TRUE(wal.ok());
  const auto records = replay_all(*wal.value());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], bytes_of("whole"));
  EXPECT_GT(wal.value()->stats().torn_tail_bytes, 0u);
}

TEST(Wal, InjectedFsyncFailurePoisons) {
  ScopedDir dir("wal_fault_fsync");
  DurabilityPolicy policy;
  policy.sync = SyncPolicy::Always;
  auto wal = Wal::open(dir.path, policy);
  ASSERT_TRUE(wal.ok());
  WalFaults faults;
  faults.fail_fsync_next = true;
  wal.value()->inject_faults(faults);
  EXPECT_EQ(wal.value()->append(bytes_of("v")).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(wal.value()->poisoned());
  EXPECT_EQ(wal.value()->sync().code(), StatusCode::kUnavailable);
}

// ---- Checkpoint -------------------------------------------------------------

TEST(Checkpoint, RoundTrip) {
  ScopedDir dir("ckpt_roundtrip");
  CheckpointData data;
  data.wal_floor = 42;
  data.entries.push_back({7, Tag{3, 1}, Bytes{1, 2, 3}});
  data.entries.push_back({9, Tag{5, 2}, Bytes{}});
  ASSERT_TRUE(write_checkpoint(dir.path, data).ok());

  auto loaded = read_checkpoint(dir.path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(loaded.value()->wal_floor, 42u);
  ASSERT_EQ(loaded.value()->entries.size(), 2u);
  EXPECT_EQ(loaded.value()->entries[0].obj, 7u);
  EXPECT_EQ(loaded.value()->entries[0].tag, (Tag{3, 1}));
  EXPECT_EQ(loaded.value()->entries[0].element, (Bytes{1, 2, 3}));
  EXPECT_EQ(loaded.value()->entries[1].obj, 9u);
  EXPECT_TRUE(loaded.value()->entries[1].element.empty());
}

TEST(Checkpoint, AbsentIsOkAndEmpty) {
  ScopedDir dir("ckpt_absent");
  auto loaded = read_checkpoint(dir.path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().has_value());
}

TEST(Checkpoint, CorruptFileIsRejected) {
  ScopedDir dir("ckpt_corrupt");
  CheckpointData data;
  data.wal_floor = 1;
  data.entries.push_back({1, Tag{1, 1}, Bytes(16, 5)});
  ASSERT_TRUE(write_checkpoint(dir.path, data).ok());
  Bytes raw;
  ASSERT_TRUE(read_file_bytes(dir.path + "/CHECKPOINT", &raw).ok());
  raw[raw.size() / 2] ^= 0x55;
  ASSERT_TRUE(atomic_write_file(dir.path + "/CHECKPOINT", raw).ok());
  EXPECT_EQ(read_checkpoint(dir.path).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- Manifest ---------------------------------------------------------------

TEST(Manifest, VerifyOrWriteThenMatchingRestart) {
  ScopedDir dir("manifest_ok");
  Manifest mf;
  mf.set("format", "test-v1");
  mf.set("n2", std::uint64_t{8});
  ASSERT_TRUE(mf.verify_or_write(dir.path).ok());  // first run: writes
  ASSERT_TRUE(mf.verify_or_write(dir.path).ok());  // restart: matches

  auto loaded = Manifest::load(dir.path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(loaded.value()->get("n2"), std::optional<std::string>("8"));
}

TEST(Manifest, AnyMismatchFailsFast) {
  ScopedDir dir("manifest_mismatch");
  Manifest mf;
  mf.set("format", "test-v1");
  mf.set("n2", std::uint64_t{8});
  ASSERT_TRUE(mf.verify_or_write(dir.path).ok());

  Manifest changed = mf;
  changed.set("n2", std::uint64_t{10});  // differing value
  const Status st = changed.verify_or_write(dir.path);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("n2"), std::string::npos) << st.to_string();

  Manifest extra = mf;
  extra.set("code", "rs");  // key absent from the stored manifest
  EXPECT_EQ(extra.verify_or_write(dir.path).code(),
            StatusCode::kInvalidArgument);

  Manifest missing;
  missing.set("format", "test-v1");  // stored has n2, we do not
  EXPECT_EQ(missing.verify_or_write(dir.path).code(),
            StatusCode::kInvalidArgument);
}

TEST(Manifest, CorruptFileIsRejected) {
  ScopedDir dir("manifest_corrupt");
  Manifest mf;
  mf.set("format", "test-v1");
  ASSERT_TRUE(mf.verify_or_write(dir.path).ok());
  Bytes raw;
  ASSERT_TRUE(read_file_bytes(dir.path + "/MANIFEST", &raw).ok());
  raw.back() ^= 0x01;  // break the trailing CRC
  ASSERT_TRUE(atomic_write_file(dir.path + "/MANIFEST", raw).ok());
  EXPECT_EQ(Manifest::load(dir.path).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- DurableBackend ---------------------------------------------------------

std::unique_ptr<DurableBackend> open_backend(const std::string& dir,
                                             DurabilityPolicy policy = {}) {
  auto be = DurableBackend::open(dir, policy);
  EXPECT_TRUE(be.ok()) << be.status().to_string();
  return std::move(be).value();
}

TEST(DurableBackend, EmptyDirRecoversNothing) {
  ScopedDir dir("be_empty");
  auto be = open_backend(dir.path);
  EXPECT_TRUE(be->recovered().empty());
  EXPECT_TRUE(be->recovered_versions().empty());
}

TEST(DurableBackend, WalOnlyRecovery) {
  ScopedDir dir("be_walonly");
  {
    auto be = open_backend(dir.path);
    ASSERT_TRUE(be->put(1, Tag{1, 1}, Bytes{10}).ok());
    ASSERT_TRUE(be->put(2, Tag{1, 1}, Bytes{20}).ok());
    ASSERT_TRUE(be->put(1, Tag{2, 1}, Bytes{11}).ok());
  }
  auto be = open_backend(dir.path);
  ASSERT_EQ(be->recovered().size(), 2u);
  EXPECT_EQ(be->recovered().at(1).tag, (Tag{2, 1}));
  EXPECT_EQ(be->recovered().at(1).element, Bytes{11});
  EXPECT_EQ(be->recovered().at(2).tag, (Tag{1, 1}));
  // Overwritten versions survive for the cluster recovery sweep.
  ASSERT_EQ(be->recovered_versions().size(), 3u);
  EXPECT_EQ(be->recovered_versions()[0].tag, (Tag{1, 1}));
  EXPECT_EQ(be->recovered_versions()[2].tag, (Tag{2, 1}));
}

TEST(DurableBackend, ReplayIsLastRecordWins) {
  // The recovery sweep may DOWNGRADE a divergent unacknowledged tag; that
  // downgrade is a later record with a smaller tag and must win replay.
  ScopedDir dir("be_lastwins");
  {
    auto be = open_backend(dir.path);
    ASSERT_TRUE(be->put(1, Tag{5, 2}, Bytes{50}).ok());
    ASSERT_TRUE(be->put(1, Tag{3, 1}, Bytes{30}).ok());
  }
  auto be = open_backend(dir.path);
  EXPECT_EQ(be->recovered().at(1).tag, (Tag{3, 1}));
  EXPECT_EQ(be->recovered().at(1).element, Bytes{30});
}

TEST(DurableBackend, ForgetTombstoneErasesAllVersions) {
  ScopedDir dir("be_forget");
  {
    auto be = open_backend(dir.path);
    ASSERT_TRUE(be->put(1, Tag{1, 1}, Bytes{1}).ok());
    ASSERT_TRUE(be->put(1, Tag{2, 1}, Bytes{2}).ok());
    ASSERT_TRUE(be->put(3, Tag{1, 1}, Bytes{3}).ok());
    ASSERT_TRUE(be->forget(1).ok());
  }
  auto be = open_backend(dir.path);
  EXPECT_EQ(be->recovered().count(1), 0u);
  EXPECT_EQ(be->recovered().count(3), 1u);
  for (const auto& v : be->recovered_versions()) EXPECT_NE(v.obj, 1u);
}

TEST(DurableBackend, CheckpointTruncatesWalAndRecoveryMerges) {
  ScopedDir dir("be_ckpt");
  std::map<ObjectId, Backend::Entry> live;
  {
    auto be = open_backend(dir.path);
    be->set_snapshot_source([&](const Backend::SnapshotSink& sink) {
      for (const auto& [obj, e] : live) sink(obj, e.tag, e.element);
    });
    for (ObjectId obj = 1; obj <= 4; ++obj) {
      live[obj] = {Tag{1, 1}, Bytes(64, static_cast<std::uint8_t>(obj))};
      ASSERT_TRUE(be->put(obj, live[obj].tag, live[obj].element).ok());
    }
    ASSERT_TRUE(be->checkpoint_now().ok());
    // Post-checkpoint tail: one more write that lives only in the WAL.
    live[9] = {Tag{2, 3}, Bytes{99}};
    ASSERT_TRUE(be->put(9, live[9].tag, live[9].element).ok());
  }
  {
    auto be = open_backend(dir.path);
    ASSERT_EQ(be->recovered().size(), 5u);
    for (const auto& [obj, e] : live) {
      EXPECT_EQ(be->recovered().at(obj).tag, e.tag) << "obj " << obj;
      EXPECT_EQ(be->recovered().at(obj).element, e.element) << "obj " << obj;
    }
    // The checkpoint subsumed the pre-checkpoint appends: only the tail
    // record replays from the log.
    EXPECT_EQ(be->wal_stats().replayed_records, 1u);
  }
}

TEST(DurableBackend, CheckpointOnlyRecovery) {
  ScopedDir dir("be_ckptonly");
  {
    auto be = open_backend(dir.path);
    be->set_snapshot_source([](const Backend::SnapshotSink& sink) {
      sink(5, Tag{4, 2}, Bytes{42});
    });
    ASSERT_TRUE(be->put(5, Tag{4, 2}, Bytes{42}).ok());
    ASSERT_TRUE(be->checkpoint_now().ok());
  }
  auto be = open_backend(dir.path);
  ASSERT_EQ(be->recovered().size(), 1u);
  EXPECT_EQ(be->recovered().at(5).tag, (Tag{4, 2}));
  EXPECT_EQ(be->wal_stats().replayed_records, 0u);
}

TEST(DurableBackend, DoubleRecoveryIsIdempotent) {
  ScopedDir dir("be_double");
  {
    auto be = open_backend(dir.path);
    ASSERT_TRUE(be->put(1, Tag{1, 1}, Bytes{7}).ok());
    ASSERT_TRUE(be->put(2, Tag{1, 2}, Bytes{8}).ok());
  }
  std::map<ObjectId, Tag> first;
  {
    auto be = open_backend(dir.path);  // recover, write nothing
    for (const auto& [obj, e] : be->recovered()) first[obj] = e.tag;
  }
  auto be = open_backend(dir.path);  // recover again
  ASSERT_EQ(be->recovered().size(), first.size());
  for (const auto& [obj, e] : be->recovered()) {
    EXPECT_EQ(e.tag, first.at(obj)) << "obj " << obj;
  }
}

TEST(DurableBackend, PoisonedAfterInjectedFailure) {
  ScopedDir dir("be_poison");
  auto be = open_backend(dir.path);
  WalFaults faults;
  faults.fail_fsync_next = true;
  be->inject_faults(faults);
  EXPECT_EQ(be->put(1, Tag{1, 1}, Bytes{1}).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(be->poisoned());
  EXPECT_EQ(be->put(2, Tag{1, 1}, Bytes{2}).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(be->forget(1).code(), StatusCode::kUnavailable);
  EXPECT_EQ(be->checkpoint_now().code(), StatusCode::kUnavailable);
}

TEST(DurableBackend, CheckpointRequiresSnapshotSource) {
  ScopedDir dir("be_nosnap");
  auto be = open_backend(dir.path);
  EXPECT_EQ(be->checkpoint_now().code(), StatusCode::kInvalidArgument);
}

// ---- KeyLog -----------------------------------------------------------------

TEST(KeyLog, RecoversKeysInInternOrder) {
  ScopedDir dir("keylog");
  {
    auto log = KeyLog::open(dir.path, DurabilityPolicy{});
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log.value()->append("alpha").ok());
    ASSERT_TRUE(log.value()->append("beta").ok());
    ASSERT_TRUE(log.value()->append("gamma").ok());
  }
  auto log = KeyLog::open(dir.path, DurabilityPolicy{});
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log.value()->recovered(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
}

TEST(KeyLog, RejectsEmptyKey) {
  ScopedDir dir("keylog_empty");
  auto log = KeyLog::open(dir.path, DurabilityPolicy{});
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log.value()->append("").code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace lds::storage

// ---- durable LdsCluster / StoreService -------------------------------------

namespace lds::core {
namespace {

LdsCluster::Options durable_options(const std::string& data_dir) {
  LdsCluster::Options opt;
  opt.cfg.n1 = 6;
  opt.cfg.f1 = 1;  // k = 4
  opt.cfg.n2 = 8;
  opt.cfg.f2 = 2;  // d = 4
  opt.cfg.initial_value = Bytes{};
  opt.writers = 2;
  opt.readers = 2;
  opt.data_dir = data_dir;
  return opt;
}

TEST(DurableCluster, WritesSurviveRestart) {
  storage::ScopedDir dir("cluster_restart");
  Rng rng(5);
  std::map<ObjectId, std::pair<Tag, Bytes>> expect;
  {
    LdsCluster c(durable_options(dir.path));
    EXPECT_TRUE(c.recovered_objects().empty());  // fresh data_dir
    for (ObjectId obj = 0; obj < 3; ++obj) {
      const Bytes v = rng.bytes(120 + obj * 13);
      const Tag t = c.write_sync(obj % 2, obj, v);
      expect[obj] = {t, v};
    }
    c.settle();
  }
  LdsCluster c(durable_options(dir.path));
  ASSERT_EQ(c.recovered_objects().size(), 3u);
  for (const auto& [obj, tag] : c.recovered_objects()) {
    EXPECT_EQ(tag, expect.at(obj).first) << "obj " << obj;
  }
  for (const auto& [obj, tv] : expect) {
    auto [rt, rv] = c.read_sync(0, obj);
    EXPECT_EQ(rt, tv.first) << "obj " << obj;
    EXPECT_EQ(rv, tv.second) << "obj " << obj;
  }
  // New writes continue above the recovered tags.
  const Tag t = c.write_sync(0, 0, rng.bytes(64));
  EXPECT_GT(t, expect.at(0).first);
  EXPECT_TRUE(c.history().check_atomicity({}).ok);
}

TEST(DurableCluster, RecoveryIsIdempotentAcrossRestarts) {
  storage::ScopedDir dir("cluster_idempotent");
  Tag wt;
  Bytes v;
  {
    LdsCluster c(durable_options(dir.path));
    Rng rng(6);
    v = rng.bytes(200);
    wt = c.write_sync(0, 0, v);
    c.settle();
  }
  for (int restart = 0; restart < 2; ++restart) {
    LdsCluster c(durable_options(dir.path));
    ASSERT_EQ(c.recovered_objects().size(), 1u);
    EXPECT_EQ(c.recovered_objects()[0].second, wt) << "restart " << restart;
    auto [rt, rv] = c.read_sync(0, 0);
    EXPECT_EQ(rt, wt);
    EXPECT_EQ(rv, v);
  }
}

TEST(DurableCluster, DivergentUnackedTagIsDowngradedToCertifiedTag) {
  // Model a SIGKILL that left ONE server holding a newer, never-certified
  // tag: the sweep must pick the certified tag (>= k decodable copies) and
  // downgrade the divergent server, and the downgrade must stick across a
  // further restart (last-record-wins replay).
  storage::ScopedDir dir("cluster_divergent");
  Tag wt;
  Bytes v;
  {
    LdsCluster c(durable_options(dir.path));
    Rng rng(7);
    v = rng.bytes(160);
    wt = c.write_sync(0, 0, v);
    c.settle();
  }
  const Tag divergent{wt.z + 1, 2};
  {
    // Plant the divergent tag directly in server 0's backend, as an
    // interrupted write-to-L2 offload would have.
    auto be = storage::DurableBackend::open(dir.path + "/l2-0",
                                            storage::DurabilityPolicy{});
    ASSERT_TRUE(be.ok());
    const Bytes junk(be.value()->recovered().at(0).element.size(), 0xAB);
    ASSERT_TRUE(be.value()->put(0, divergent, junk).ok());
  }
  for (int restart = 0; restart < 2; ++restart) {
    LdsCluster c(durable_options(dir.path));
    ASSERT_EQ(c.recovered_objects().size(), 1u) << "restart " << restart;
    EXPECT_EQ(c.recovered_objects()[0].second, wt) << "restart " << restart;
    for (std::size_t i = 0; i < c.ctx().cfg.n2; ++i) {
      EXPECT_EQ(c.l2(i).stored_tag(0), wt) << "server " << i;
    }
    auto [rt, rv] = c.read_sync(0, 0);
    EXPECT_EQ(rt, wt);
    EXPECT_EQ(rv, v);
  }
}

TEST(DurableCluster, AckedWriteSurvivesCheckpointOnItsOwnPut) {
  // checkpoint_bytes = 1: every put crosses the threshold, so each L2
  // checkpoints right after persisting the element.  The snapshot must
  // already list that element, because the checkpoint drops the WAL
  // segment holding its record.
  storage::ScopedDir dir("cluster_ckpt_own_put");
  auto opt = durable_options(dir.path);
  opt.durability.checkpoint_bytes = 1;
  Rng rng(9);
  Tag acked;
  Bytes v;
  {
    LdsCluster c(opt);
    c.write_sync(0, 0, rng.bytes(96));
    v = rng.bytes(96);
    acked = c.write_sync(0, 0, v);
    c.settle();
  }
  LdsCluster c(opt);
  ASSERT_EQ(c.recovered_objects().size(), 1u);
  EXPECT_EQ(c.recovered_objects()[0].second, acked);
  auto [rt, rv] = c.read_sync(0, 0);
  EXPECT_EQ(rt, acked);
  EXPECT_EQ(rv, v);
}

TEST(DurableCluster, RecoveryThenRepairStaysVerifierClean) {
  storage::ScopedDir dir("cluster_repair");
  Tag wt;
  Bytes v;
  {
    LdsCluster c(durable_options(dir.path));
    Rng rng(8);
    v = rng.bytes(180);
    wt = c.write_sync(0, 0, v);
    c.settle();
  }
  {
    LdsCluster c(durable_options(dir.path));
    c.replace_l2(1);  // durable replace: wipes l2-1 and reopens it empty
    std::optional<Tag> repaired;
    c.l2(1).repair_object(0, [&](std::optional<Tag> t) { repaired = t; });
    c.settle();
    ASSERT_TRUE(repaired.has_value());
    EXPECT_EQ(*repaired, wt);
    EXPECT_EQ(c.l2(1).stored_tag(0), wt);
    auto [rt, rv] = c.read_sync(0, 0);
    EXPECT_EQ(rt, wt);
    EXPECT_EQ(rv, v);
    EXPECT_TRUE(c.history().check_atomicity({}).ok);
  }
  // The repaired element was re-persisted: another restart still recovers.
  LdsCluster c(durable_options(dir.path));
  EXPECT_EQ(c.l2(1).stored_tag(0), wt);
  auto [rt, rv] = c.read_sync(0, 0);
  EXPECT_EQ(rt, wt);
  EXPECT_EQ(rv, v);
}

TEST(DurableClusterDeathTest, GeometryManifestMismatchAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  storage::ScopedDir dir("cluster_manifest");
  { LdsCluster c(durable_options(dir.path)); }
  auto opt = durable_options(dir.path);
  opt.cfg.n2 = 10;  // disagrees with the persisted MANIFEST
  EXPECT_DEATH({ LdsCluster c(opt); }, "manifest mismatch");
}

}  // namespace
}  // namespace lds::core

namespace lds::store {
namespace {

StoreOptions durable_store_options(const std::string& data_dir) {
  StoreOptions opt;
  opt.shards = 2;
  opt.writers_per_shard = 2;
  opt.readers_per_shard = 2;
  opt.seed = 9;
  opt.data_dir = data_dir;
  return opt;
}

TEST(DurableStore, PutsSurviveServiceRestart) {
  storage::ScopedDir dir("store_restart");
  std::map<std::string, Bytes> expect;
  {
    StoreService svc(durable_store_options(dir.path));
    for (int i = 0; i < 6; ++i) {
      const std::string key = "key-" + std::to_string(i);
      const Bytes v(40 + i, static_cast<std::uint8_t>(i + 1));
      const auto put = svc.put_sync(key, v);
      ASSERT_TRUE(put.status.ok()) << put.status.to_string();
      expect[key] = v;
    }
    svc.quiesce();
  }
  StoreService svc(durable_store_options(dir.path));
  for (const auto& [key, v] : expect) {
    const auto get = svc.get_sync(key);
    ASSERT_TRUE(get.status.ok()) << key << ": " << get.status.to_string();
    EXPECT_EQ(get.value, v) << key;
  }
  // Overwrites after recovery behave normally.
  const auto put = svc.put_sync("key-0", Bytes{99});
  ASSERT_TRUE(put.status.ok()) << put.status.to_string();
  const auto get = svc.get_sync("key-0");
  ASSERT_TRUE(get.status.ok());
  EXPECT_EQ(get.value, Bytes{99});
  svc.quiesce();
  expect_all_histories_clean(svc);
}

TEST(DurableStoreDeathTest, ShardCountManifestMismatchAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  storage::ScopedDir dir("store_manifest");
  { StoreService svc(durable_store_options(dir.path)); }
  auto opt = durable_store_options(dir.path);
  opt.shards = 3;  // ShardRouter placement depends on this: must fail fast
  EXPECT_DEATH({ StoreService svc(opt); }, "manifest mismatch");
}

}  // namespace
}  // namespace lds::store
