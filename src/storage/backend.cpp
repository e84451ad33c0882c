#include "storage/backend.h"

#include <utility>

#include "net/codec.h"
#include "storage/checkpoint.h"

namespace lds::storage {

namespace {

enum RecordKind : std::uint8_t { kPut = 1, kForget = 2 };

Bytes encode_put(ObjectId obj, Tag tag, const Bytes& element) {
  net::codec::Writer w(24 + element.size());
  w.u8(kPut);
  w.u32(obj);
  w.tag(tag);
  w.blob(element);
  return std::move(w).take();
}

Bytes encode_forget(ObjectId obj) {
  net::codec::Writer w(8);
  w.u8(kForget);
  w.u32(obj);
  return std::move(w).take();
}

}  // namespace

Result<std::unique_ptr<DurableBackend>> DurableBackend::open(
    std::string dir, DurabilityPolicy policy) {
  auto be =
      std::unique_ptr<DurableBackend>(new DurableBackend(dir, policy));
  auto ckpt = read_checkpoint(dir);
  if (!ckpt.ok()) return ckpt.status();
  std::uint64_t floor = 0;
  if (ckpt.value().has_value()) {
    floor = ckpt.value()->wal_floor;
    for (auto& e : ckpt.value()->entries) {
      be->versions_.push_back(VersionedEntry{e.obj, e.tag, e.element});
      be->recovered_[e.obj] = Entry{e.tag, std::move(e.element)};
    }
  }
  auto wal = Wal::open(std::move(dir), policy);
  if (!wal.ok()) return wal.status();
  be->wal_ = std::move(wal).value();
  Status corrupt = Status::Ok();
  auto st = be->wal_->replay(
      floor, [&](const std::uint8_t* payload, std::size_t len) {
        if (!corrupt.ok()) return;
        net::codec::Reader r(payload, len);
        std::uint8_t kind = 0;
        std::uint32_t obj = 0;
        if (!r.u8(&kind) || !r.u32(&obj)) {
          corrupt = Status::InvalidArgument("backend: malformed wal record");
          return;
        }
        if (kind == kForget) {
          be->recovered_.erase(obj);
          // A tombstone models disk replacement: resurrecting any pre-forget
          // version during a cluster recovery sweep would be wrong too.
          std::erase_if(be->versions_, [obj](const VersionedEntry& v) {
            return v.obj == obj;
          });
          return;
        }
        if (kind != kPut) {
          corrupt = Status::InvalidArgument("backend: unknown wal record");
          return;
        }
        Tag tag;
        Bytes element;
        if (!r.tag(&tag) || !r.blob(&element) || !r.exhausted()) {
          corrupt = Status::InvalidArgument("backend: malformed put record");
          return;
        }
        // Last-record-wins.  The normal store path is tag-monotone per
        // object, where this equals newer-wins; the one deliberate
        // exception is the cluster recovery sweep, which may DOWNGRADE a
        // server holding a divergent unacknowledged tag to the chosen
        // recovery tag — that downgrade must stick across the next restart.
        be->versions_.push_back(VersionedEntry{obj, tag, element});
        be->recovered_[obj] = Entry{tag, std::move(element)};
      });
  if (!st.ok()) return st;
  if (!corrupt.ok()) return corrupt;
  return be;
}

Status DurableBackend::put(ObjectId obj, Tag tag, const Bytes& element) {
  const Bytes rec = encode_put(obj, tag, element);
  if (auto st = wal_->append(rec); !st.ok()) return st;
  bytes_since_checkpoint_ += rec.size();
  return Status::Ok();
}

Status DurableBackend::checkpoint_if_due() {
  if (bytes_since_checkpoint_ < policy_.checkpoint_bytes || !snapshot_) {
    return Status::Ok();
  }
  return checkpoint_now();
}

Status DurableBackend::forget(ObjectId obj) {
  return wal_->append(encode_forget(obj));
}

Status DurableBackend::checkpoint_now() {
  if (wal_->poisoned()) return wal_->poison_status();
  if (!snapshot_) {
    return Status::InvalidArgument("backend: no snapshot source installed");
  }
  if (auto st = wal_->sync(); !st.ok()) return st;
  const std::uint64_t sealed_through = wal_->current_segment();
  if (auto st = wal_->rotate(); !st.ok()) return st;
  CheckpointData data;
  data.wal_floor = sealed_through + 1;
  snapshot_([&](ObjectId obj, const Tag& tag, const Bytes& element) {
    // (t0, c0) defaults are derivable from the code; persisting them would
    // only bloat the snapshot.
    if (tag == kTag0) return;
    data.entries.push_back(CheckpointData::Entry{obj, tag, element});
  });
  if (auto st = write_checkpoint(dir_, data); !st.ok()) return st;
  bytes_since_checkpoint_ = 0;
  // Segments the snapshot subsumes; a crash before this delete is covered
  // by the floor at recovery.
  return wal_->drop_through(sealed_through);
}

// ---- KeyLog -----------------------------------------------------------------

Result<std::unique_ptr<KeyLog>> KeyLog::open(std::string dir,
                                             DurabilityPolicy policy) {
  // Key bindings are always synced: a lost binding would shift every later
  // ObjectId on the next restart.
  policy.sync = SyncPolicy::Always;
  auto wal = Wal::open(std::move(dir), policy);
  if (!wal.ok()) return wal.status();
  auto log = std::unique_ptr<KeyLog>(new KeyLog(std::move(wal).value()));
  auto st = log->wal_->replay(
      0, [&](const std::uint8_t* payload, std::size_t len) {
        log->recovered_.emplace_back(reinterpret_cast<const char*>(payload),
                                     len);
      });
  if (!st.ok()) return st;
  return log;
}

Status KeyLog::append(const std::string& key) {
  if (key.empty()) {
    // A zero-length frame is the WAL's end-of-segment sentinel; the store
    // rejects empty keys long before this, but never write one.
    return Status::InvalidArgument("keylog: empty key");
  }
  return wal_->append(reinterpret_cast<const std::uint8_t*>(key.data()),
                      key.size());
}

}  // namespace lds::storage
