// Multi-writer multi-reader ABD: the classic replication-based atomic
// register emulation of Attiya-Bar-Noy-Dolev (the paper's reference [3]),
// run on the same simulated network substrate as LDS.
//
// This is the single-layer replication baseline of the paper's introduction
// and of the Remark-2 comparison: write cost n, read cost 2n (query + full
// value write-back), storage cost n per object - against LDS's Theta(n1)
// writes, Theta(1) contention-free reads and Theta(1) permanent storage.
//
// Protocol (majority quorums, q = floor(n/2) + 1, tolerates f < n/2):
//   write: query all for tags, await majority, pick max t;
//          update all with ((t.z + 1, w), v), await majority ACKs.
//   read : query all for (tag, value), await majority, pick max (t, v);
//          write back (t, v) to all, await majority ACKs; return v.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <variant>
#include <vector>

#include "baselines/single_layer.h"
#include "common/slice.h"
#include "lds/history.h"
#include "net/codec.h"
#include "net/network.h"

namespace lds::baselines {

using core::History;
using core::OpKind;

// ---- wire protocol ----------------------------------------------------------

struct AbdQuery {
  static constexpr const char* kName = "ABD-QUERY";
  bool want_value = false;  ///< readers need (tag, value); writers only tags
  static void wire(auto& m, auto& w) { w.flag(m.want_value); }
};
struct AbdQueryResp {
  static constexpr const char* kName = "ABD-QUERY-RESP";
  Tag tag;
  Value value;  ///< empty when only the tag was requested
  static void wire(auto& m, auto& w) {
    w.tag(m.tag);
    w.payload(m.value);
  }
};
struct AbdUpdate {
  static constexpr const char* kName = "ABD-UPDATE";
  Tag tag;
  Value value;
  static void wire(auto& m, auto& w) {
    w.tag(m.tag);
    w.payload(m.value);
  }
};
struct AbdUpdateAck {
  static constexpr const char* kName = "ABD-UPDATE-ACK";
  Tag tag;
  static void wire(auto& m, auto& w) { w.tag(m.tag); }
};

/// Alternative order frozen: the wire codec (net/codec.h) uses the variant
/// index as the frame's type id.  Append, never reorder.
using AbdBody = std::variant<AbdQuery, AbdQueryResp, AbdUpdate, AbdUpdateAck>;

class AbdMessage final : public net::codec::SchemaPayload<AbdMessage> {
 public:
  AbdMessage(ObjectId obj, OpId op, AbdBody body)
      : obj_(obj), op_(op), body_(std::move(body)) {}

  ObjectId obj() const { return obj_; }
  OpId op() const override { return op_; }
  const AbdBody& body() const { return body_; }

  static net::MessagePtr make(ObjectId obj, OpId op, AbdBody body) {
    return std::make_shared<AbdMessage>(obj, op, std::move(body));
  }

 private:
  ObjectId obj_;
  OpId op_;
  AbdBody body_;
};

// ---- processes --------------------------------------------------------------

struct AbdContext {
  std::size_t n = 0;
  std::size_t f = 0;
  Bytes initial_value{};
  std::vector<NodeId> server_ids;

  std::size_t quorum() const { return n / 2 + 1; }
};

class AbdServer final : public net::Node {
 public:
  AbdServer(net::Network& net, std::shared_ptr<const AbdContext> ctx,
            std::size_t index);

  void on_message(NodeId from, const net::MessagePtr& msg) override;

  Tag stored_tag(ObjectId obj) const;
  std::uint64_t stored_bytes() const { return stored_bytes_; }

 private:
  struct ObjectState {
    Tag tag = kTag0;
    Value value;  ///< shared handle; replicas reference one buffer
  };
  ObjectState& object(ObjectId obj);

  std::shared_ptr<const AbdContext> ctx_;
  std::unordered_map<ObjectId, ObjectState> objects_;
  std::uint64_t stored_bytes_ = 0;
};

class AbdClient final : public net::Node {
 public:
  using WriteCallback = std::function<void(Tag)>;
  using ReadCallback = std::function<void(Tag, Value)>;

  AbdClient(net::Network& net, std::shared_ptr<const AbdContext> ctx,
            NodeId id, Role role, History* history = nullptr);

  void write(ObjectId obj, Value value, WriteCallback cb = {});
  void read(ObjectId obj, ReadCallback cb = {});
  bool busy() const { return phase_ != Phase::Idle; }

  void on_message(NodeId from, const net::MessagePtr& msg) override;

 private:
  enum class Phase { Idle, Query, Update };

  void broadcast(const AbdBody& body);
  void finish(Tag tag);

  std::shared_ptr<const AbdContext> ctx_;
  History* history_;

  Phase phase_ = Phase::Idle;
  bool is_write_ = false;
  std::uint32_t seq_ = 0;
  OpId op_ = kNoOp;
  ObjectId obj_ = 0;
  Value value_;
  WriteCallback wcb_;
  ReadCallback rcb_;
  std::size_t history_index_ = 0;
  Tag max_tag_;
  Value max_value_;
  Tag update_tag_;
  ResponderSet responders_;
};

// ---- harness ----------------------------------------------------------------

class AbdCluster final
    : public SingleLayerCluster<AbdContext, AbdServer, AbdClient> {
 public:
  struct Options {
    std::size_t n = 5;
    std::size_t f = 2;
    std::size_t writers = 1;
    std::size_t readers = 1;
    Bytes initial_value{};
    double tau1 = 1.0;
    std::uint64_t seed = 1;
    bool exponential_latency = false;
    /// Execution engine + lane (see net/engine.h and
    /// LdsCluster::Options::engine); null = own a single-lane SimEngine.
    net::Engine* engine = nullptr;
    std::size_t lane = 0;
  };

  explicit AbdCluster(const Options& opt);
};

}  // namespace lds::baselines
