#include "net/network.h"

#include "net/transport.h"

namespace lds::net {

Node::Node(Network& net, NodeId id, Role role)
    : net_(net), id_(id), role_(role) {
  net_.attach(this);
}

Node::~Node() { net_.detach(id_); }

void Node::send(NodeId to, MessagePtr msg) {
  if (crashed_) return;  // a crashed process executes no further steps
  net_.send(id_, role_, to, std::move(msg));
}

Network::Network(Engine& engine, std::size_t lane,
                 std::unique_ptr<LatencyModel> latency, std::uint64_t seed)
    : sim_(engine.lane_sim(lane)),
      latency_(std::move(latency)),
      transport_(std::make_unique<InProcTransport>(*this)),
      rng_(seed) {
  LDS_REQUIRE(latency_ != nullptr, "Network: null latency model");
}

Network::~Network() = default;

void Network::set_transport(std::unique_ptr<Transport> t) {
  LDS_REQUIRE(t != nullptr, "Network::set_transport: null transport");
  transport_ = std::move(t);
}

void Network::attach(Node* node) {
  LDS_REQUIRE(node != nullptr, "Network::attach: null node");
  auto [it, inserted] = nodes_.emplace(node->id(), node);
  // Id reuse (crash-and-replace, see LdsCluster::replace_l2) requires the
  // old instance to detach before the replacement attaches; attaching two
  // live nodes under one id would silently misroute messages.
  LDS_REQUIRE(inserted, "Network::attach: node id already attached");
  roles_[node->id()] = node->role();
}

void Network::detach(NodeId id) { nodes_.erase(id); }

void Network::send(NodeId from, Role from_role, NodeId to, MessagePtr msg) {
  LDS_REQUIRE(msg != nullptr, "Network::send: null message");
  ++messages_sent_;

  Role to_role = Role::Other;
  if (auto it = roles_.find(to); it != roles_.end()) to_role = it->second;
  const LinkClass link = classify_link(from_role, to_role);
  costs_.record(link, msg->op(), msg->data_bytes(), msg->meta_bytes());

  const SimTime delay = latency_->sample(link, rng_);
  transport_->deliver(from, to, std::move(msg), delay);
}

void Network::deliver_local(NodeId from, NodeId to, MessagePtr msg,
                            SimTime delay) {
  sim_.deliver_after(delay, this, from, to, std::move(msg));
}

void Network::deliver_now(NodeId from, NodeId to, const MessagePtr& msg) {
  Node* dest = find(to);
  if (dest == nullptr || dest->crashed()) return;  // reliable-iff-alive
  if (observer_) observer_(from, to, *msg);
  if (dest->crashed()) return;  // observer may have crashed it
  dest->on_message(from, msg);
}

void Network::crash(NodeId id) {
  if (Node* n = find(id)) n->crash();
}

Node* Network::find(NodeId id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second;
}

}  // namespace lds::net
