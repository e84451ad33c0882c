// The L1 (edge) server automaton: all nine actions of Fig. 2 of the paper.
//
// Per-object state (the paper describes a single object; a multi-object
// deployment runs independent instances, which we realize as per-ObjectId
// state on the same node):
//
//   L   - the temporary list of (tag, value-or-bot) pairs, initially
//         {(t0, bot)};
//   Gamma - registered outstanding readers (reader, read-op, treq);
//   tc  - the committed tag, initially t0;
//   commitCounter / writeCounter / readCounter - per-tag and per-read
//         counters backing the broadcast-resp, write-to-L2-complete and
//         regenerate-from-L2-complete actions;
//   K   - helper-data accumulator for in-flight regenerations, keyed by the
//         read operation id.
//
// The tag table.  L and every per-tag counter and flag live in one vector
// of TagRecords per object, sorted by tag: the entry in L (present flag and
// value or bot), the originating write op (set when PUT-DATA arrives), the
// COMMIT-TAG and ACK-CODE-ELEM counts, and the writer-acked and
// offload-sent flags.  A lookup touches one contiguous buffer, and once the
// vector has capacity a write allocates nothing here.
//
// Retirement keeps the table bounded by the writes in flight (Lemma V.5
// bounds the values; this bounds the metadata too).  After every action
// that can move tc or settle a tag, the records below tc that no later
// message can observe are erased:
//   - a tag not in L (it can never enter L again: keys enter only above tc);
//   - a tag in L whose PUT-DATA has arrived and whose writer has been acked
//     (no second PUT-DATA comes, and every later COMMIT-TAG would find the
//     ack already sent);
//   - in durable mode, only tags at or below the durability watermark (an
//     ACK-CODE-ELEM above it may still move the watermark).
// Every value below tc is already bot, so retiring frees no storage.  Two
// records stay on purpose: (t0, bot) and tc's key, which get-tag reads (the
// largest key in L is never below tc), so a quiescent object holds two.  So
// does an entry a valueless PUT-TAG added before its PUT-DATA arrived: a
// COMMIT-TAG quorum may ack that write here, and a record retired early
// would let the late PUT-DATA ack it a second time.  (The tag that
// recover_committed seeds is such an entry too: one more record per
// recovered object.)
//
// A COMMIT-TAG for a tag below tc with no record is a no-op, and so is an
// ACK-CODE-ELEM (in durable mode only at or below the watermark).  Such a
// tag is not in L, or its writer is acked and its value is already bot, so
// the message could only bump a count that no later action reads: skipping
// it changes no reply, ack or offload.
//
// The broadcast primitive (Section III, from [17]) is folded into this node:
// on the *first* receipt of a COMMIT-TAG instance, a server belonging to the
// fixed relay set S_{f1+1} forwards the message it received to all of L1
// before consuming it; every server consumes each instance exactly once
// (dedup by bcast_id, see BroadcastDedup).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "lds/context.h"
#include "lds/messages.h"
#include "net/network.h"

namespace lds::core {

/// Exactly-once filter for COMMIT-TAG broadcast ids, in memory bounded by
/// the broadcasts in flight instead of by every broadcast ever seen.  An id
/// is (origin << 32) | seq, and each origin numbers its broadcasts 0, 1, 2,
/// ...  Per origin the filter keeps a floor (every seq below it has been
/// consumed) and the consumed seqs above the floor, which arrived out of
/// order.  consume() answers exactly as a set of every consumed id would.
class BroadcastDedup {
 public:
  /// True on the first receipt of `id` (the caller consumes it), false on
  /// every later one.
  bool consume(std::uint64_t id);

  /// Consumed ids held above their origin's floor: the out-of-order window.
  std::size_t window() const { return window_; }
  /// Origins whose broadcasts have been seen.
  std::size_t origins() const { return origins_.size(); }

 private:
  struct Origin {
    std::uint64_t floor = 0;           ///< every seq below it was consumed
    std::vector<std::uint32_t> above;  ///< consumed seqs above floor, sorted
  };
  std::unordered_map<std::uint32_t, Origin> origins_;
  std::size_t window_ = 0;
};

class ServerL1 final : public net::Node {
 public:
  /// `index` is this server's position in L1 (== its code coordinate).
  ServerL1(net::Network& net, std::shared_ptr<const LdsContext> ctx,
           std::size_t index);

  std::size_t index() const { return index_; }

  void on_message(NodeId from, const net::MessagePtr& msg) override;

  /// Durable-recovery seeding (cluster construction, before any traffic):
  /// initialize this object as if write `t` committed and offloaded — list
  /// {(t0, bot), (t, bot)}, tc = t, durable watermark t.  Guarantees every
  /// post-restart write tag exceeds t and every read returns at least t.
  void recover_committed(ObjectId obj, Tag t);

  // ---- introspection for tests and the storage meter -----------------------

  /// Committed tag tc of one object (t0 if the object was never touched).
  Tag committed_tag(ObjectId obj) const;
  /// Tags present in the list L (keys; values may be bot).
  std::vector<Tag> list_tags(ObjectId obj) const;
  /// Records in the object's tag table: L's keys plus tags not in L whose
  /// counters are still live (1 if the object was never touched).
  std::size_t tag_records(ObjectId obj) const;
  /// True iff the list holds an actual value for `t`.
  bool has_value(ObjectId obj, Tag t) const;
  /// Number of registered readers of one object.
  std::size_t registered_readers(ObjectId obj) const;
  /// Total bytes of values currently held for all objects (temporary cost).
  std::uint64_t stored_value_bytes() const { return value_bytes_; }
  /// The COMMIT-TAG dedup state.
  const BroadcastDedup& bcast_dedup() const { return seen_bcasts_; }

 private:
  struct GammaEntry {
    NodeId reader = kNoNode;
    OpId op = kNoOp;
    Tag treq;
  };

  struct Regen {
    NodeId reader = kNoNode;
    Tag treq;
    std::vector<TaggedHelper> helpers;  // the responses received so far
  };

  /// Durable mode: an ACK held back until the tag's offload is L2-durable.
  struct DeferredAck {
    NodeId to = kNoNode;
    OpId op = kNoOp;
    bool put_tag = false;  ///< PutTagAck (reader) vs WriteAck (writer)
  };

  /// One tag's row of the tag table (see the file comment).
  struct TagRecord {
    explicit TagRecord(Tag t, bool listed = false) : tag(t), in_list(listed) {}

    Tag tag;
    /// The entry in L: `in_list` says (tag, *) is in L, and `value` is its
    /// value, nullopt for bot.  Values are shared handles: the entry
    /// references the same buffer the PUT-DATA message (and every peer
    /// server's entry) carries.
    bool in_list = false;
    std::optional<Value> value;
    OpId op = kNoOp;  ///< originating write op; set when PUT-DATA arrives
    std::uint32_t commits = 0;  ///< COMMIT-TAG instances consumed
    std::uint32_t l2_acks = 0;  ///< ACK-CODE-ELEMs received
    bool acked = false;         ///< writer-ACK sent (or deferred)
    bool offload_sent = false;  ///< write-to-L2 launched from here
  };

  struct ObjectState {
    std::vector<TagRecord> tags;  // sorted by tag
    Tag tc = kTag0;
    std::vector<GammaEntry> gamma;
    std::unordered_map<OpId, Regen> regen;  // K, keyed by read op
    // Durable mode only: the local durability watermark (max tag whose
    // offload reached an l2_quorum of acks here) and the acks waiting for
    // the watermark to pass their tag.
    Tag durable_tag = kTag0;
    std::multimap<Tag, DeferredAck> deferred;
  };

  ObjectState& object(ObjectId obj);

  /// The record of `t`, or nullptr.
  static TagRecord* find(ObjectState& st, Tag t);
  /// The record of `t`, inserted in tag order if absent.  Inserting moves
  /// the other records, so no caller keeps a record reference across it.
  static TagRecord& record(ObjectState& st, Tag t);
  /// Erase the records below tc that no later message can observe (the
  /// retirement rule in the file comment).
  void retire(ObjectState& st);

  /// Send WriteAck now, or defer it (durable mode, tag not yet durable).
  /// Marks the tag acked either way.
  void ack_writer(ObjectState& st, TagRecord& r, ObjectId obj, OpId op,
                  NodeId writer);
  /// Send every deferred ack whose tag is now <= the durable watermark.
  void flush_deferred(ObjectState& st, ObjectId obj);

  // Fig. 2 actions.
  void get_tag_resp(ObjectId obj, OpId op, NodeId writer);
  void put_data_resp(ObjectId obj, OpId op, NodeId writer, const PutData& m);
  void broadcast_resp(ObjectId obj, OpId op, const CommitTag& m);
  void write_to_l2(ObjectId obj, OpId op, TagRecord& r, const Value& value);
  void write_to_l2_complete(ObjectId obj, const AckCodeElem& m);
  void get_committed_tag_resp(ObjectId obj, OpId op, NodeId reader);
  void get_data_resp(ObjectId obj, OpId op, NodeId reader, const QueryData& m);
  void regenerate_from_l2(ObjectState& st, ObjectId obj, OpId op,
                          NodeId reader, Tag treq);
  void regenerate_complete(ObjectId obj, OpId op, const SendHelperElem& m,
                           NodeId from);
  void put_tag_resp(ObjectId obj, OpId op, NodeId reader, const PutTag& m);

  // Shared commit machinery: advance tc to r's tag, serve registered readers
  // whose treq <= tc with (t_served, value), garbage-collect values below
  // tc, and offload to L2.  Used by broadcast-resp and put-tag-resp.
  void commit_tag(ObjectState& st, ObjectId obj, OpId op, TagRecord& r);

  /// Serve and unregister every gamma entry with treq <= t (value known).
  void serve_registered(ObjectState& st, ObjectId obj, Tag t,
                        const Value& value);

  /// Replace (t', v) with (t', bot) for every t' < tc (Fig. 2 lines 18, 65),
  /// after tc advanced from `old_tc`.
  void garbage_collect(ObjectState& st, Tag old_tc);

  // L mutation helpers that keep the storage gauge consistent.
  void list_put(TagRecord& r, std::optional<Value> v);
  void list_blank(TagRecord& r);

  void bcast_commit(ObjectId obj, OpId op, Tag tag);

  std::shared_ptr<const LdsContext> ctx_;
  std::size_t index_;
  std::unordered_map<ObjectId, ObjectState> objects_;
  BroadcastDedup seen_bcasts_;
  std::uint32_t bcast_seq_ = 0;
  std::uint64_t value_bytes_ = 0;
};

}  // namespace lds::core
