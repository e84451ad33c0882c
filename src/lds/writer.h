// The writer automaton: Fig. 1 (left) of the paper.
//
//   get-tag : QUERY-TAG to all of L1; await f1 + k TAG-RESPs; pick max t.
//   put-data: tw = (t.z + 1, w); PUT-DATA (tw, v) to all of L1; await
//             f1 + k WRITE-ACKs; terminate.
//
// Clients are well-formed: a new operation may only be issued after the
// previous one completed (enforced with LDS_REQUIRE).
#pragma once

#include <functional>

#include "lds/context.h"
#include "lds/messages.h"
#include "net/network.h"

namespace lds::core {

class Writer final : public net::Node {
 public:
  using Callback = std::function<void(Tag)>;

  Writer(net::Network& net, std::shared_ptr<const LdsContext> ctx, NodeId id,
         History* history = nullptr);

  /// Invoke a write operation (asynchronous; `cb` fires at the response
  /// step).  Requires no operation in progress.  The value is an immutable
  /// shared handle; Bytes arguments convert (moving, not copying).
  void write(ObjectId obj, Value value, Callback cb = {});

  bool busy() const { return phase_ != Phase::Idle; }
  std::uint32_t ops_started() const { return seq_; }

  void on_message(NodeId from, const net::MessagePtr& msg) override;

 private:
  enum class Phase { Idle, GetTag, PutData };

  void send_to_l1(const LdsBody& body);

  std::shared_ptr<const LdsContext> ctx_;
  History* history_;

  Phase phase_ = Phase::Idle;
  std::uint32_t seq_ = 0;
  OpId op_ = kNoOp;
  ObjectId obj_ = 0;
  Value value_;
  Callback cb_;
  std::size_t history_index_ = 0;
  Tag max_tag_;
  Tag write_tag_;
  ResponderSet responders_;
};

}  // namespace lds::core
