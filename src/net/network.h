// Nodes and the reliable point-to-point network.
//
// Model (paper, Section II-a): processes crash-fail; communication is via
// reliable point-to-point links - as long as the destination is non-faulty,
// any message placed in a channel is eventually delivered, even if the
// *sender* crashes after sending.  We realize this by scheduling the delivery
// event at send time; a delivery to a crashed node is silently dropped, and a
// crashed node never sends again.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/cost.h"
#include "net/engine.h"
#include "net/latency.h"
#include "net/sim.h"

namespace lds::net {

/// Abstract wire payload.  Protocol modules (lds, baselines) define concrete
/// payload types; the network only needs sizes for cost accounting and the
/// OpId for attribution.
class Payload {
 public:
  virtual ~Payload() = default;
  virtual std::uint64_t data_bytes() const = 0;
  virtual std::uint64_t meta_bytes() const = 0;
  virtual const char* type_name() const = 0;
  virtual OpId op() const { return kNoOp; }
};

using MessagePtr = std::shared_ptr<const Payload>;

class Network;
class Transport;  // net/transport.h: the message-delivery seam

/// A process.  Subclasses implement on_message(); the constructor registers
/// the node with the network and the destructor detaches it.
class Node {
 public:
  Node(Network& net, NodeId id, Role role);
  virtual ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  Role role() const { return role_; }
  bool crashed() const { return crashed_; }

  /// Crash-fail this node: it stops executing steps for the rest of the
  /// execution (messages to it are dropped, messages from it are suppressed).
  void crash() { crashed_ = true; }

  virtual void on_message(NodeId from, const MessagePtr& msg) = 0;

 protected:
  /// Send helper for subclasses; no-op if this node has crashed.
  void send(NodeId to, MessagePtr msg);

  Network& net_;

 private:
  NodeId id_;
  Role role_;
  bool crashed_ = false;
};

class Network {
 public:
  /// A network lives on one engine lane: its clock, latency sampling RNG and
  /// cost tracker are all lane-local, so two networks on different lanes of
  /// a ParallelEngine never contend.
  Network(Engine& engine, std::size_t lane, std::unique_ptr<LatencyModel> latency,
          std::uint64_t seed = 1);
  ~Network();  // out-of-line: Transport is only forward-declared here

  Simulator& sim() { return sim_; }
  CostTracker& costs() { return costs_; }
  const CostTracker& costs() const { return costs_; }
  Rng& rng() { return rng_; }

  /// Place a message in the (from -> to) channel.  Cost is accounted here,
  /// at send time, from the payload's exact wire sizes (net/codec.h); the
  /// transport then moves the message.  Unknown destinations are allowed
  /// (the message is dropped at delivery) so that nodes can be torn down
  /// mid-simulation in tests.
  void send(NodeId from, Role from_role, NodeId to, MessagePtr msg);

  /// The delivery seam (default: InProcTransport — zero-copy, deterministic;
  /// see net/transport.h).  Replace before any traffic flows.
  Transport& transport() { return *transport_; }
  void set_transport(std::unique_ptr<Transport> t);
  /// Deliver into a local node after `delay`: the InProcTransport path, and
  /// the entry point a remote transport uses when a frame arrives for a
  /// node attached here.  Must run on the network's lane.
  void deliver_local(NodeId from, NodeId to, MessagePtr msg, SimTime delay);

  /// Crash a node by id (no-op if unknown).
  void crash(NodeId id);

  Node* find(NodeId id) const;

  std::uint64_t messages_sent() const { return messages_sent_; }

  /// Test hook: observe every delivery just before the destination handles
  /// it.  Used by fault-injection tests to crash nodes at adversarial points.
  using DeliveryObserver =
      std::function<void(NodeId from, NodeId to, const Payload&)>;
  void set_delivery_observer(DeliveryObserver obs) {
    observer_ = std::move(obs);
  }

 private:
  friend class Node;
  void attach(Node* node);
  void detach(NodeId id);

  Simulator& sim_;
  std::unique_ptr<LatencyModel> latency_;
  std::unique_ptr<Transport> transport_;
  Rng rng_;
  CostTracker costs_;
  std::unordered_map<NodeId, Node*> nodes_;
  std::unordered_map<NodeId, Role> roles_;  // survives detach, for links
  std::uint64_t messages_sent_ = 0;
  DeliveryObserver observer_;
};

}  // namespace lds::net
