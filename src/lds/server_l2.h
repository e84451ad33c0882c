// The L2 (back-end) server automaton: Fig. 3 of the paper, plus the repair
// extension the paper lists as future work ("extend the framework to carry
// out repair of erasure-coded servers in L2", Section VI).
//
// Per object, an L2 server stores exactly one (tag, coded-element) pair,
// initially (t0, c0) where c0 is its coded element of the initial value v0.
// Fig. 3 actions:
//   write-to-L2-resp:      keep the incoming element iff its tag is newer,
//                          and ACK either way;
//   regenerate-from-L2-resp: compute helper data for the requesting
//                          coordinate from the locally stored element (needs
//                          only that coordinate's index) and send it back
//                          with the local tag.
//
// Repair extension: a replacement server regenerates its own coordinate by
// sending QUERY-CODE-ELEM (the exact message of Fig. 2/3 - the helper does
// not care whether an L1 server or an L2 peer is asking) to its n2 - 1 L2
// peers, waiting for f2 + d - 1 responses, and running the MBR repair on the
// highest tag with >= d helpers on a common tag.  A concurrent write-to-L2
// can make a round fail (no d-common-tag subset); the repair retries until
// it succeeds, mirroring how the paper's L1 regeneration falls back on
// later commits.  Quorum intersection makes a quiescent round succeed:
// among any f2 + d - 1 peer responses, at least d carry the last completed
// write's tag (n2 = 2 f2 + d).
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "lds/context.h"
#include "lds/heartbeat.h"
#include "lds/messages.h"
#include "net/network.h"
#include "storage/backend.h"

namespace lds::core {

class ServerL2 final : public net::Node {
 public:
  /// `index` is this server's position in L2; its code coordinate is
  /// n1 + index.  `backend` is the optional durability seam: when set, the
  /// server adopts the backend's recovered state, persists every element
  /// BEFORE acknowledging it, and stops acknowledging once the backend is
  /// poisoned.  Null (the default) keeps the original RAM-only behavior.
  ServerL2(net::Network& net, std::shared_ptr<const LdsContext> ctx,
           std::size_t index,
           std::unique_ptr<storage::Backend> backend = nullptr);
  ~ServerL2() override;

  std::size_t index() const { return index_; }
  int code_index() const { return static_cast<int>(ctx_->cfg.n1 + index_); }

  void on_message(NodeId from, const net::MessagePtr& msg) override;

  /// Repair extension: regenerate this server's (tag, element) pair for one
  /// object from its L2 peers.  `done(tag)` fires with the repaired tag when
  /// a round succeeds; failed rounds (concurrent write-to-L2 in flight)
  /// retry automatically up to `max_rounds`, after which `done(nullopt)`
  /// reports failure - in a correct deployment that indicates more than f2
  /// back-end failures.
  using RepairCallback = std::function<void(std::optional<Tag>)>;
  void repair_object(ObjectId obj, RepairCallback done = {},
                     int max_rounds = 16);

  /// Drop all local state for one object (models a disk-replacement /
  /// restart-from-empty scenario before repair_object is called).
  void forget_object(ObjectId obj);

  // ---- durability ----------------------------------------------------------

  /// Cluster recovery sync: adopt (tag, element) directly (no messages),
  /// persisting it if a backend is attached.  Construction-time only.
  void recovery_store(ObjectId obj, Tag tag, Value element);

  /// Objects with explicit local state (recovered or written; excludes
  /// untouched objects whose (t0, c0) default is derivable).
  std::vector<ObjectId> stored_objects() const;

  /// The durability seam, null for RAM-only servers (tests, bench).
  storage::Backend* storage_backend() { return backend_.get(); }

  // ---- introspection -------------------------------------------------------
  Tag stored_tag(ObjectId obj) const;
  const Bytes& stored_element(ObjectId obj) const;
  std::uint64_t stored_bytes() const { return stored_bytes_; }

 private:
  struct ObjectState {
    Tag tag = kTag0;
    Value element;  ///< shared with the offload message that delivered it
  };

  struct Repair {
    RepairCallback done;
    int rounds_left = 0;
    std::vector<TaggedHelper> helpers;  // this round's responses so far
  };

  ObjectState& object(ObjectId obj);
  const ObjectState& object(ObjectId obj) const;
  /// Persist (durable mode), apply in RAM, then checkpoint if one is due.
  /// False = the backend refused the put or the checkpoint (poisoned /
  /// injected fault); the caller must not acknowledge.
  bool store(ObjectId obj, Tag tag, Value element);
  /// Durable mode: tell every L1 server this element is durable here.
  void broadcast_durable_ack(ObjectId obj, Tag tag);

  void start_repair_round(ObjectId obj);
  void finish_repair_round(ObjectId obj, OpId op);

  std::shared_ptr<const LdsContext> ctx_;
  std::size_t index_;
  std::unique_ptr<storage::Backend> backend_;
  // Lazily materialized per-object state; mutable so that const
  // introspection can materialize the initial (t0, c0).
  mutable std::unordered_map<ObjectId, ObjectState> objects_;
  mutable std::uint64_t stored_bytes_ = 0;
  std::unordered_map<OpId, ObjectId> repair_ops_;  // op -> object
  std::unordered_map<ObjectId, Repair> repairs_;
  std::uint32_t repair_seq_ = 0;
};

}  // namespace lds::core
