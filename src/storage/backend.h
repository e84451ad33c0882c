// storage::Backend — the durability seam of ServerL2.
//
// An L2 server owns at most one Backend.  RAM-only deployments own none
// (the default: nothing changes for simulation workloads).  A durable
// server calls put()/forget() synchronously inside its store path, BEFORE
// acknowledging the write — an AckCodeElem therefore certifies that the
// element survives SIGKILL under SyncPolicy::Always.
//
// DurableBackend composes the two persistent structures:
//   * a Wal of Put/Forget records (`u8 kind | u32 obj | tag | u32 len |
//     element`), replayed newest-tag-wins;
//   * a Checkpoint snapshot that bounds replay work, written through the
//     rotate/snapshot/drop protocol documented in checkpoint.h.  The
//     snapshot body comes from a SnapshotSource the owning server installs
//     (its live element map), so a checkpoint never blocks on replaying the
//     log it is about to truncate.
//
// Any I/O failure — injected or real — poisons the backend: every later
// put() returns Unavailable and the server stops acknowledging writes,
// turning a disk that may have lost data into an ordinary server failure
// the f2/repair machinery already handles.
//
// KeyLog is a sibling structure for the store layer: an append-only log of
// interned keys whose record *ordinal* is the key's ObjectId, making the
// key -> object binding stable across restarts.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/wal.h"

namespace lds::storage {

class Backend {
 public:
  struct Entry {
    Tag tag;
    Bytes element;
  };

  /// Enumerates the owner's live (obj, tag, element) map for a checkpoint.
  using SnapshotSink =
      std::function<void(ObjectId, const Tag&, const Bytes&)>;
  using SnapshotSource = std::function<void(const SnapshotSink&)>;

  virtual ~Backend() = default;

  /// State recovered at open (checkpoint + WAL replay, last-record-wins);
  /// the owning server adopts it in its constructor.  Ordered so recovery
  /// sweeps are deterministic.
  virtual const std::map<ObjectId, Entry>& recovered() const = 0;

  /// EVERY surviving (obj, tag, element) record — checkpoint entries plus
  /// each WAL put, in replay order.  The cluster-level recovery sweep needs
  /// overwritten versions too: at SIGKILL each server holds only its newest
  /// tag, and with enough distinct in-flight tags no single tag may have k
  /// live copies — but a tag that was certified durable still has >= k
  /// copies HERE unless checkpoint truncation dropped them (see README
  /// "Durability" for the bound).
  struct VersionedEntry {
    ObjectId obj = 0;
    Tag tag;
    Bytes element;
  };
  virtual const std::vector<VersionedEntry>& recovered_versions() const = 0;

  /// Install the live snapshot enumerator (enables checkpointing).
  virtual void set_snapshot_source(SnapshotSource source) = 0;

  /// Persist one element, durable per policy on Ok.  Unavailable once
  /// poisoned.  Never checkpoints: the snapshot lists the owner's live map,
  /// which holds the element only after put returns.
  virtual Status put(ObjectId obj, Tag tag, const Bytes& element) = 0;

  /// Checkpoint when DurabilityPolicy::checkpoint_bytes of WAL accumulated
  /// since the last one.  The owner calls it after applying a put to its
  /// live map, so the snapshot covers the records the checkpoint drops.
  virtual Status checkpoint_if_due() = 0;

  /// Persist a tombstone (forget_object).
  virtual Status forget(ObjectId obj) = 0;

  /// Force a checkpoint now (tests, bench, clean shutdown).
  virtual Status checkpoint_now() = 0;

  /// Flush unsynced WAL appends (GroupCommit/Never clean shutdown).
  virtual Status sync() = 0;

  virtual bool poisoned() const = 0;

  /// Fault-injection passthrough to the underlying WAL (tests).
  virtual void inject_faults(const WalFaults& faults) = 0;

  virtual const WalStats& wal_stats() const = 0;
};

class DurableBackend final : public Backend {
 public:
  /// Open (creating `dir` if needed) and recover: load CHECKPOINT, replay
  /// WAL segments >= its floor.  InvalidArgument on corruption.
  static Result<std::unique_ptr<DurableBackend>> open(std::string dir,
                                                      DurabilityPolicy policy);

  const std::map<ObjectId, Entry>& recovered() const override {
    return recovered_;
  }
  const std::vector<VersionedEntry>& recovered_versions() const override {
    return versions_;
  }
  void set_snapshot_source(SnapshotSource source) override {
    snapshot_ = std::move(source);
  }
  Status put(ObjectId obj, Tag tag, const Bytes& element) override;
  Status checkpoint_if_due() override;
  Status forget(ObjectId obj) override;
  Status checkpoint_now() override;
  Status sync() override { return wal_->sync(); }
  bool poisoned() const override { return wal_->poisoned(); }
  void inject_faults(const WalFaults& faults) override {
    wal_->inject_faults(faults);
  }
  const WalStats& wal_stats() const override { return wal_->stats(); }

  const std::string& dir() const { return dir_; }

 private:
  DurableBackend(std::string dir, DurabilityPolicy policy)
      : dir_(std::move(dir)), policy_(policy) {}

  std::string dir_;
  DurabilityPolicy policy_;
  std::unique_ptr<Wal> wal_;
  std::map<ObjectId, Entry> recovered_;
  std::vector<VersionedEntry> versions_;
  SnapshotSource snapshot_;
  std::uint64_t bytes_since_checkpoint_ = 0;
};

/// Append-only durable log of interned keys (store layer).  The i-th
/// surviving record is the key bound to ObjectId i; replay at startup
/// reproduces the exact intern order of every previous incarnation.
class KeyLog {
 public:
  static Result<std::unique_ptr<KeyLog>> open(std::string dir,
                                              DurabilityPolicy policy);

  /// Keys recovered at open, in ObjectId order.
  const std::vector<std::string>& recovered() const { return recovered_; }

  /// Persist one newly interned key (always fdatasynced: losing a key
  /// binding would re-number every later object on restart).
  Status append(const std::string& key);

  bool poisoned() const { return wal_->poisoned(); }

 private:
  explicit KeyLog(std::unique_ptr<Wal> wal) : wal_(std::move(wal)) {}

  std::unique_ptr<Wal> wal_;
  std::vector<std::string> recovered_;
};

}  // namespace lds::storage
