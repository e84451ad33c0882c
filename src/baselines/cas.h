// CAS - Coded Atomic Storage (Cadambe, Lynch, Medard, Musial; the paper's
// reference [6]): the single-layer erasure-coded atomic register emulation
// that LDS's related-work section positions itself against.
//
// One layer of n servers storing Reed-Solomon coded elements (alpha = B/k),
// quorums of size q = ceil((n + k) / 2) so that any two quorums intersect in
// at least k servers; tolerates f <= (n - k) / 2 crashes.
//
// Protocol (three-phase writes, two-phase-plus-finalize reads):
//   write: query   - max *finalized* tag from a quorum; t_w = (z + 1, w).
//          pre     - send (t_w, coded element c_i, 'pre') to every server;
//                    await q acks.
//          fin     - send (t_w, 'fin') to every server; await q acks.
//   read : query   - max finalized tag t_r from a quorum.
//          fin     - send (t_r, 'fin') to every server; each responds with
//                    its coded element for t_r if it holds one (else a bare
//                    ack); await q responses; quorum intersection guarantees
//                    >= k elements; decode and return.
//
// This implementation is the *plain* CAS: servers keep every pre-written
// version (the unbounded-history cost that CASGC later bounded, and that
// LDS's two-layer design eliminates by keeping exactly one version in L2).
// The storage gauge exposes that growth for the baseline benches.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <variant>
#include <vector>

#include "baselines/single_layer.h"
#include "codes/striped.h"
#include "common/slice.h"
#include "lds/history.h"
#include "net/network.h"

namespace lds::baselines {

using core::History;
using core::OpKind;

// ---- wire protocol -----------------------------------------------------------

struct CasQuery {};
struct CasQueryResp {
  Tag fin_tag;
};
struct CasPreWrite {
  Tag tag;
  Bytes element;
};
struct CasPreAck {
  Tag tag;
};
struct CasFinalize {
  Tag tag;
  /// Readers ask servers to return their coded element of `tag`; writers
  /// only need the label recorded.
  bool want_element = false;
};
/// Finalize response; for readers it carries the server's coded element of
/// the finalized tag when available (has_element distinguishes an empty
/// element from "not stored").
struct CasFinAck {
  Tag tag;
  bool has_element = false;
  Bytes element;
};

/// Alternative order frozen: the wire codec (net/codec.h) uses the variant
/// index as the frame's type id.  Append, never reorder.
using CasBody = std::variant<CasQuery, CasQueryResp, CasPreWrite, CasPreAck,
                             CasFinalize, CasFinAck>;

class CasMessage final : public net::Payload {
 public:
  CasMessage(ObjectId obj, OpId op, CasBody body)
      : obj_(obj), op_(op), body_(std::move(body)) {}

  ObjectId obj() const { return obj_; }
  OpId op() const override { return op_; }
  const CasBody& body() const { return body_; }

  std::uint64_t data_bytes() const override;
  /// Exact: codec frame size minus the data payload (defined in cas.cpp).
  std::uint64_t meta_bytes() const override;
  const char* type_name() const override;

  static net::MessagePtr make(ObjectId obj, OpId op, CasBody body) {
    return std::make_shared<CasMessage>(obj, op, std::move(body));
  }

 private:
  ObjectId obj_;
  OpId op_;
  CasBody body_;
};

// ---- processes -----------------------------------------------------------------

struct CasContext {
  std::size_t n = 0;
  std::size_t k = 0;
  Bytes initial_value{};
  std::vector<NodeId> server_ids;
  std::shared_ptr<codes::StripedCode> code;  // RS, striped

  /// q = ceil((n + k) / 2): any two quorums share >= k servers.
  std::size_t quorum() const { return (n + k + 1) / 2; }
  /// Maximum crash failures: f <= (n - k) / 2.
  std::size_t max_failures() const { return (n - k) / 2; }
};

std::shared_ptr<CasContext> make_cas_context(std::size_t n, std::size_t k,
                                             Bytes initial_value);

class CasServer final : public net::Node {
 public:
  CasServer(net::Network& net, std::shared_ptr<const CasContext> ctx,
            std::size_t index);

  void on_message(NodeId from, const net::MessagePtr& msg) override;

  /// Bytes of coded elements currently held (all versions - CAS keeps
  /// history; see the header comment).
  std::uint64_t stored_bytes() const { return stored_bytes_; }
  std::size_t versions(ObjectId obj) const;
  Tag max_finalized(ObjectId obj) const;

 private:
  struct ObjectState {
    std::map<Tag, Bytes> elements;  // pre-written coded elements
    std::set<Tag> finalized;        // tags with a 'fin' label
    bool initialized = false;
  };
  ObjectState& object(ObjectId obj);

  std::shared_ptr<const CasContext> ctx_;
  std::size_t index_;
  std::unordered_map<ObjectId, ObjectState> objects_;
  std::uint64_t stored_bytes_ = 0;
};

class CasClient final : public net::Node {
 public:
  using WriteCallback = std::function<void(Tag)>;
  using ReadCallback = std::function<void(Tag, Value)>;

  CasClient(net::Network& net, std::shared_ptr<const CasContext> ctx,
            NodeId id, Role role, History* history = nullptr);

  void write(ObjectId obj, Value value, WriteCallback cb = {});
  void read(ObjectId obj, ReadCallback cb = {});
  bool busy() const { return phase_ != Phase::Idle; }

  void on_message(NodeId from, const net::MessagePtr& msg) override;

 private:
  enum class Phase { Idle, Query, Pre, Fin };

  void broadcast(const CasBody& body);
  void enter_fin();
  void finish();

  std::shared_ptr<const CasContext> ctx_;
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
  Tag op_tag_;
  ResponderSet responders_;
  std::vector<codes::IndexedBytes> read_elements_;
  std::unordered_map<NodeId, int> server_index_;
};

// ---- harness --------------------------------------------------------------------

class CasCluster final
    : public SingleLayerCluster<CasContext, CasServer, CasClient> {
 public:
  struct Options {
    std::size_t n = 9;
    std::size_t k = 5;  // f = 2
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

  explicit CasCluster(const Options& opt);
};

}  // namespace lds::baselines
