// The reader automaton: Fig. 1 (right) of the paper.
//
//   get-committed-tag: QUERY-COMM-TAG to all of L1; await f1 + k committed
//                      tags; treq = their max.
//   get-data         : QUERY-DATA (treq) to all of L1; await responses from
//                      f1 + k *distinct* servers such that at least one is a
//                      (tag, value) pair, or at least k are (tag,
//                      coded-element) pairs on a common tag (>= treq); in the
//                      latter case decode through C1.  Servers may respond
//                      more than once (a nack first, a value later when a
//                      commit serves the registered reader) - candidates
//                      accumulate until both conditions hold.  Return the
//                      candidate with the highest tag.
//   put-tag          : PUT-TAG (tr) to all of L1; await f1 + k ACKs; return.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "lds/context.h"
#include "lds/messages.h"
#include "net/network.h"

namespace lds::core {

/// Consistency level of read operations.  Atomic is the paper's LDS; Regular
/// is the Section-VI extension: the put-tag phase is skipped, trading the
/// monotone-reads guarantee for one fewer round trip (2 tau1) and no
/// write-back traffic.  The erasure-code machinery is untouched - that is
/// the modularity claim of the paper.
enum class ReadConsistency : std::uint8_t { Atomic, Regular };

class Reader final : public net::Node {
 public:
  /// The returned value is a shared handle; lambdas taking `const Bytes&`
  /// (or `Bytes`, at the cost of one copy) keep working via Value's
  /// implicit view conversion.
  using Callback = std::function<void(Tag, Value)>;

  Reader(net::Network& net, std::shared_ptr<const LdsContext> ctx, NodeId id,
         History* history = nullptr,
         ReadConsistency consistency = ReadConsistency::Atomic);

  /// Invoke a read (asynchronous; `cb` fires at the response step with the
  /// returned tag and value).  Requires no operation in progress.
  void read(ObjectId obj, Callback cb = {});

  /// Tag-only validation round: run ONLY the get-committed-tag phase and
  /// return (treq, empty Value).  Because treq is the max committed tag over
  /// an f1 + k quorum, it is >= the tag of any read/write that completed
  /// before this call started — exactly the currency check a client-side
  /// cache needs.  No reader registration happens during QUERY-COMM-TAG, so
  /// no cleanup round is required, and the operation is not a history read
  /// (it returns no value; the caller decides what to serve).
  void read_tag(ObjectId obj, Callback cb = {});

  bool busy() const { return phase_ != Phase::Idle; }
  std::uint32_t ops_started() const { return seq_; }

  void on_message(NodeId from, const net::MessagePtr& msg) override;

 private:
  enum class Phase { Idle, GetCommittedTag, GetData, PutTag };

  void send_to_l1(const LdsBody& body);
  void start(ObjectId obj, Callback cb, bool tag_only);
  /// Check the get-data completion condition; if met, enter put-tag.
  void maybe_finish_get_data();

  void finish();

  std::shared_ptr<const LdsContext> ctx_;
  History* history_;
  ReadConsistency consistency_;

  Phase phase_ = Phase::Idle;
  bool tag_only_ = false;
  std::uint32_t seq_ = 0;
  OpId op_ = kNoOp;
  ObjectId obj_ = 0;
  Callback cb_;
  std::size_t history_index_ = 0;

  Tag treq_;
  ResponderSet responders_;
  // Value candidates: best (max-tag) (tag, value) seen so far.
  bool have_value_ = false;
  Tag best_value_tag_;
  Value best_value_;
  // Coded candidates per tag: (code coordinate, element) lists, the
  // elements shared with the messages that carried them.
  std::map<Tag, std::vector<codes::IndexedBytes>> coded_;

  Tag result_tag_;
  Value result_value_;
};

}  // namespace lds::core
