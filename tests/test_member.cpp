// The member subsystem (src/member): view wire/persistence round-trips with
// hostile-input sweeps, member-frame codec coverage, epoch fencing between
// two live fabrics (stale and future envelopes both dropped, with the right
// notifications), the conflicting-activation death test, and an in-binary
// integration of the whole tentpole — a StoreService whose L2 quorum spans a
// joined PeerHost over real loopback TCP, with a runtime move back home.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "lds/heartbeat.h"
#include "member/controller.h"
#include "member/fabric.h"
#include "member/peer.h"
#include "member/view.h"
#include "member/wire.h"
#include "net/codec.h"
#include "net/latency.h"
#include "storage/fsutil.h"
#include "store/store_service.h"

namespace lds::member {
namespace {

using Clock = std::chrono::steady_clock;

View sample_view() {
  View v;
  v.epoch = 3;
  v.n1 = 6;
  v.f1 = 1;
  v.n2 = 8;
  v.f2 = 2;
  v.code = codes::BackendKind::PmMbr;
  v.processes[0] = Endpoint{"127.0.0.1", 7000};
  v.processes[1] = Endpoint{"127.0.0.1", 7001};
  v.processes[2] = Endpoint{"10.1.2.3", 7002};
  v.placement[30004] = 1;
  v.placement[30005] = 1;
  v.placement[20001] = 2;
  return v;
}

// ---- View wire form ----------------------------------------------------------

TEST(MemberView, WireRoundTrip) {
  const View v = sample_view();
  const Bytes b = v.encode_bytes();
  const auto r = View::decode_bytes(b);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  const View& d = r.value();
  EXPECT_EQ(d.epoch, v.epoch);
  EXPECT_TRUE(d.same_geometry(v));
  EXPECT_EQ(d.processes, v.processes);
  EXPECT_EQ(d.placement, v.placement);
  EXPECT_EQ(d.encode_bytes(), b);  // re-encode identity
  EXPECT_EQ(d.process_of(30004), 1u);
  EXPECT_EQ(d.process_of(30000), kCoordinatorProcess);  // unlisted -> 0
}

TEST(MemberView, RejectsTruncationAtEveryLength) {
  const Bytes b = sample_view().encode_bytes();
  for (std::size_t len = 0; len < b.size(); ++len) {
    Bytes t(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(len));
    const auto r = View::decode_bytes(t);
    EXPECT_FALSE(r.ok()) << "accepted truncation to " << len << " bytes";
  }
}

TEST(MemberView, RejectsUnknownVersionAndBackend) {
  Bytes b = sample_view().encode_bytes();
  Bytes bad = b;
  bad[0] = 99;  // version byte
  EXPECT_FALSE(View::decode_bytes(bad).ok());

  // Corrupt the code-backend name blob (follows ver + epoch + 4 geometry
  // words + its own length prefix): an unknown backend must reject, not
  // default.
  bad = b;
  bad[1 + 8 + 16 + 4] ^= 0xff;
  EXPECT_FALSE(View::decode_bytes(bad).ok());
}

// ---- View persistence (manifest machinery) -----------------------------------

TEST(MemberView, SaveLoadRoundTrip) {
  const std::string dir = ::testing::TempDir() + "member_view_rt";
  ASSERT_TRUE(storage::wipe_dir(dir).ok());
  const View v = sample_view();
  ASSERT_TRUE(v.save(dir).ok());
  const auto r = View::load(dir);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  ASSERT_TRUE(r.value().has_value());
  EXPECT_EQ(r.value()->epoch, v.epoch);
  EXPECT_TRUE(r.value()->same_geometry(v));
  EXPECT_EQ(r.value()->processes, v.processes);
  EXPECT_EQ(r.value()->placement, v.placement);

  // A newer epoch overwrites in place.
  View v2 = v;
  v2.epoch = 9;
  ASSERT_TRUE(v2.save(dir).ok());
  EXPECT_EQ(View::load(dir).value()->epoch, 9u);
}

TEST(MemberView, LoadMissingIsOkAndEmpty) {
  const std::string dir = ::testing::TempDir() + "member_view_none";
  ASSERT_TRUE(storage::wipe_dir(dir).ok());
  const auto r = View::load(dir);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().has_value());
}

TEST(MemberView, LoadRejectsCorruptAndTruncatedFile) {
  const std::string dir = ::testing::TempDir() + "member_view_bad";
  ASSERT_TRUE(storage::wipe_dir(dir).ok());
  ASSERT_TRUE(sample_view().save(dir).ok());
  const std::string path = dir + "/" + kViewFileName;
  Bytes orig;
  ASSERT_TRUE(storage::read_file_bytes(path, &orig).ok());

  // Truncations: every shortened prefix must fail the manifest's guard.
  for (const double frac : {0.0, 0.25, 0.5, 0.9}) {
    const auto len = static_cast<std::size_t>(
        static_cast<double>(orig.size()) * frac);
    Bytes t(orig.begin(), orig.begin() + static_cast<std::ptrdiff_t>(len));
    ASSERT_TRUE(storage::atomic_write_file(
                    path, std::string(t.begin(), t.end())).ok());
    EXPECT_FALSE(View::load(dir).ok()) << "accepted truncation to " << len;
  }

  // Single-byte corruption anywhere must fail (CRC-guarded).
  Rng rng(7);
  for (int i = 0; i < 16; ++i) {
    Bytes bad = orig;
    bad[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(bad.size()) - 1))] ^= 0x40;
    ASSERT_TRUE(storage::atomic_write_file(
                    path, std::string(bad.begin(), bad.end())).ok());
    EXPECT_FALSE(View::load(dir).ok()) << "accepted corrupt byte (iter "
                                       << i << ")";
  }
}

// ---- member frame codec ------------------------------------------------------

std::vector<net::MessagePtr> sample_member_frames() {
  register_member_wire();
  const View v = sample_view();
  return {
      MemberMessage::make(Hello{2, 5, 7002}),
      MemberMessage::make(Envelope{5, 20001, 30004}),
      MemberMessage::make(StaleEpoch{6}),
      MemberMessage::make(JoinRequest{7002, {30004, 30005}}),
      MemberMessage::make(ViewPropose{v.encode_bytes()}),
      MemberMessage::make(ViewAck{5, true}),
      MemberMessage::make(ViewAck{5, false}),
      MemberMessage::make(ViewActivate{5}),
      MemberMessage::make(ViewFetch{}),
      MemberMessage::make(SyncL2{5, 4, {0, 1, 2, 7}}),
      MemberMessage::make(SyncDone{5, 4, 3, 1}),
  };
}

TEST(MemberWire, RoundTripEveryType) {
  for (const auto& m : sample_member_frames()) {
    const Bytes wire = net::codec::encode(*m).to_bytes();
    net::MessagePtr back;
    std::size_t consumed = 0;
    const Status s =
        net::codec::decode(wire.data(), wire.size(), &back, &consumed);
    ASSERT_TRUE(s.ok()) << m->type_name() << ": " << s.to_string();
    EXPECT_EQ(consumed, wire.size());
    // Re-encode identity: the decoded message serializes byte-for-byte.
    EXPECT_EQ(net::codec::encode(*back).to_bytes(), wire) << m->type_name();
  }
}

TEST(MemberWire, RejectsTruncationAtEveryLength) {
  for (const auto& m : sample_member_frames()) {
    const Bytes wire = net::codec::encode(*m).to_bytes();
    for (std::size_t len = 0; len < wire.size(); ++len) {
      Bytes t(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
      // Re-patch the length prefix so the truncation hits the body parse.
      if (len >= net::codec::kLenPrefixBytes) {
        const auto n =
            static_cast<std::uint32_t>(len - net::codec::kLenPrefixBytes);
        std::memcpy(t.data(), &n, 4);
      }
      net::MessagePtr out;
      const Status s = net::codec::decode(t, &out);
      EXPECT_FALSE(s.ok()) << m->type_name() << " accepted truncation to "
                           << len;
      EXPECT_TRUE(s.is(StatusCode::kInvalidArgument)) << m->type_name();
    }
  }
}

// ---- epoch fencing between two live fabrics ----------------------------------

struct CaptureNode final : net::Node {
  CaptureNode(net::Network& net, NodeId id)
      : net::Node(net, id, Role::ServerL2) {}
  std::mutex mu;
  std::condition_variable cv;
  int delivered = 0;
  void on_message(NodeId, const net::MessagePtr&) override {
    std::lock_guard<std::mutex> lk(mu);
    ++delivered;
    cv.notify_all();
  }
  bool wait_delivered(int want, double timeout_s) {
    std::unique_lock<std::mutex> lk(mu);
    return cv.wait_for(lk, std::chrono::duration<double>(timeout_s),
                       [&] { return delivered >= want; });
  }
};

net::ParallelEngine::Options one_lane() {
  net::ParallelEngine::Options o;
  o.lanes = 1;
  return o;
}

/// One in-process "member process": engine + network + fabric, bound.
struct FabricHost {
  net::ParallelEngine engine{one_lane()};
  net::Network net{engine, 0, std::make_unique<net::FixedLatency>(0.1, 0.1,
                                                                  0.1), 1};
  Fabric fabric;

  // Control frames surfaced to the host, by variant index.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::size_t> control;

  explicit FabricHost(ProcessId self) {
    fabric.set_self(self);
    fabric.set_control_handler(
        [this](NodeId, ProcessId, const MemberBody& body) {
          std::lock_guard<std::mutex> lk(mu);
          control.push_back(body.index());
          cv.notify_all();
        });
    fabric.bind(&net, &engine, 0);
  }
  ~FabricHost() {
    fabric.stop();
    engine.stop();
  }
  bool wait_control(std::size_t variant_index, double timeout_s) {
    std::unique_lock<std::mutex> lk(mu);
    return cv.wait_for(lk, std::chrono::duration<double>(timeout_s), [&] {
      for (const auto i : control) {
        if (i == variant_index) return true;
      }
      return false;
    });
  }
};

TEST(MemberFabric, EpochFencingStaleAndFuture) {
  FabricHost a(0);
  FabricHost b(1);
  ASSERT_TRUE(a.fabric.listen(0).ok());
  ASSERT_TRUE(b.fabric.listen(0).ok());

  // Epoch-1 view: node 30001 lives on A; both processes listed.
  View v1;
  v1.epoch = 1;
  v1.n1 = 6;
  v1.f1 = 1;
  v1.n2 = 8;
  v1.f2 = 2;
  v1.processes[0] = Endpoint{"127.0.0.1", a.fabric.port()};
  v1.processes[1] = Endpoint{"127.0.0.1", b.fabric.port()};
  a.fabric.set_initial_view(v1);
  b.fabric.set_initial_view(v1);
  b.fabric.register_peer(0, Endpoint{"127.0.0.1", a.fabric.port()});

  CaptureNode sink(a.net, 30001);
  a.engine.start();
  b.engine.start();

  // Same epoch: the enveloped frame is forwarded to A's node.
  b.fabric.send_remote(20001, 30001,
                       std::make_shared<core::HeartbeatPing>(1));
  ASSERT_TRUE(sink.wait_delivered(1, 5.0));
  EXPECT_EQ(a.fabric.stats().frames_forwarded, 1u);
  EXPECT_EQ(a.fabric.stats().stale_drops, 0u);

  // A moves to epoch 2; B (still at 1) sends -> fenced as STALE at A, and
  // B is nacked with StaleEpoch (variant index 2).
  View v2 = v1;
  v2.epoch = 2;
  ASSERT_TRUE(a.fabric.propose(v2));
  a.fabric.activate(2);
  b.fabric.send_remote(20001, 30001,
                       std::make_shared<core::HeartbeatPing>(2));
  ASSERT_TRUE(b.wait_control(2, 5.0)) << "no StaleEpoch nack reached B";
  EXPECT_EQ(a.fabric.stats().stale_drops, 1u);
  EXPECT_EQ(a.fabric.stats().frames_forwarded, 1u);  // nothing new delivered

  // B leapfrogs to epoch 3; its envelope is FUTURE at A: dropped, and A's
  // host is told through the control handler (Envelope, variant index 1).
  View v3 = v1;
  v3.epoch = 3;
  ASSERT_TRUE(b.fabric.propose(v3));
  b.fabric.activate(3);
  b.fabric.send_remote(20001, 30001,
                       std::make_shared<core::HeartbeatPing>(3));
  ASSERT_TRUE(a.wait_control(1, 5.0)) << "A never learned it is behind";
  EXPECT_EQ(a.fabric.stats().future_drops, 1u);
  EXPECT_EQ(a.fabric.stats().frames_forwarded, 1u);
  EXPECT_EQ(sink.delivered, 1);

  // Propose/activate sanity: stale or geometry-changing views are refused.
  EXPECT_FALSE(a.fabric.propose(v1)) << "re-proposed an old epoch";
  View bad_geom = v1;
  bad_geom.epoch = 9;
  bad_geom.n2 = 10;
  EXPECT_FALSE(a.fabric.propose(bad_geom)) << "accepted a geometry change";
}

using MemberFabricDeathTest = ::testing::Test;

TEST(MemberFabricDeathTest, ConflictingEpochActivationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Fabric f;
  View v1;
  v1.epoch = 1;
  v1.n1 = 6;
  v1.f1 = 1;
  v1.n2 = 8;
  v1.f2 = 2;
  v1.processes[0] = Endpoint{"127.0.0.1", 1};
  f.set_initial_view(v1);
  // No pending view: activating any epoch is a coordinator logic error.
  EXPECT_DEATH(f.activate(5), "conflicting epoch activation");
}

// ---- in-binary integration: one quorum spanning two "processes" --------------

TEST(MemberIntegration, StoreSpansPeerAndMovesBack) {
  Fabric fabric;
  ASSERT_TRUE(fabric.listen(0).ok());

  store::StoreOptions sopt;
  sopt.shards = 1;
  sopt.engine_mode = net::EngineMode::Parallel;
  sopt.engine_threads = 1;
  sopt.batch_window = 0.0;
  sopt.seed = 11;
  sopt.fabric = &fabric;
  store::StoreService svc(sopt);
  EXPECT_EQ(fabric.epoch(), 1u);  // all-local bootstrap view

  // Seed some state BEFORE the peer joins: the join's state-sync must
  // regenerate it onto the peer's freshly adopted (empty) L2 servers.
  for (int i = 0; i < 8; ++i) {
    const auto r = svc.put_sync("key-" + std::to_string(i % 4),
                                Value(Bytes(64, static_cast<std::uint8_t>(i))));
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  }

  PeerHost::Options po;
  po.join = Endpoint{"127.0.0.1", fabric.port()};
  po.claims = {30006, 30007};
  po.seed = 12;
  PeerHost peer(po);
  ASSERT_TRUE(peer.start().ok());

  const auto t0 = Clock::now();
  while (fabric.epoch() < 2 &&
         std::chrono::duration<double>(Clock::now() - t0).count() < 30.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GE(fabric.epoch(), 2u) << "join never activated";
  EXPECT_EQ(peer.local_l2().size(), 2u);

  // The L2 quorum now spans processes: every op crosses the loopback.
  for (int i = 0; i < 12; ++i) {
    const std::string key = "key-" + std::to_string(i % 4);
    const auto p = svc.put_sync(key, Value(Bytes(64, static_cast<std::uint8_t>(i))));
    ASSERT_TRUE(p.status.ok()) << p.status.to_string();
    const auto g = svc.get_sync(key);
    ASSERT_TRUE(g.status.ok()) << g.status.to_string();
  }

  // Runtime move: pull both L2 servers home (the admin path lds_stress's
  // controller drives over TCP, minus the RPC hop).
  std::promise<std::pair<Status, std::uint64_t>> moved;
  svc.admin_reconfig(1, {6, 7}, "", 0,
                     [&](Status st, std::uint64_t epoch) {
                       moved.set_value({std::move(st), epoch});
                     });
  auto fut = moved.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  const auto [mst, mepoch] = fut.get();
  ASSERT_TRUE(mst.ok()) << mst.to_string();
  EXPECT_GE(mepoch, 3u);
  EXPECT_EQ(fabric.epoch(), mepoch);

  // The move home regenerated L2s 6 and 7 on the head: each holds every key
  // written before the move at a written tag, not the (t0, c0) an adopted
  // server starts from.  Server state is lane-confined: read it there.
  std::promise<std::vector<Tag>> home_tags;
  svc.engine().post(svc.shard_lane(0), [&] {
    std::vector<Tag> tags;
    core::LdsCluster& c = *svc.shard_lds(0);
    for (ObjectId obj = 0; obj < svc.shard_objects(0); ++obj) {
      for (const std::size_t i : {6, 7}) tags.push_back(c.l2(i).stored_tag(obj));
    }
    home_tags.set_value(std::move(tags));
  });
  const std::vector<Tag> tags = home_tags.get_future().get();
  EXPECT_EQ(tags.size(), 4u * 2);  // key-0 .. key-3 on both servers
  for (const Tag& t : tags) EXPECT_GT(t, kTag0);

  for (int i = 0; i < 8; ++i) {
    const std::string key = "key-" + std::to_string(i % 4);
    const auto g = svc.get_sync(key);
    ASSERT_TRUE(g.status.ok()) << g.status.to_string();
    const auto p = svc.put_sync(key, Value(Bytes(64, 0xAB)));
    ASSERT_TRUE(p.status.ok()) << p.status.to_string();
  }

  // Epoch query through the same admin seam.
  std::promise<std::uint64_t> q;
  svc.admin_reconfig(0, {}, "", 0,
                     [&](Status st, std::uint64_t epoch) {
                       ASSERT_TRUE(st.ok());
                       q.set_value(epoch);
                     });
  EXPECT_EQ(q.get_future().get(), fabric.epoch());

  const auto& h = svc.shard_history(0);
  EXPECT_TRUE(h.all_complete());
  const auto a = h.check_atomicity(Bytes{});
  EXPECT_TRUE(a.ok) << a.violation;

  peer.stop();
}

}  // namespace
}  // namespace lds::member
