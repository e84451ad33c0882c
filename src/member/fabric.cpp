#include "member/fabric.h"

#include <chrono>
#include <future>
#include <thread>

#include "common/assert.h"

namespace lds::member {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Fabric::Fabric(Options opt) : opt_(std::move(opt)), transport_(opt_.transport) {
  register_member_wire();
  transport_.set_disconnect_handler([this](NodeId conn) { on_disconnect(conn); });
}

Fabric::~Fabric() { stop(); }

Status Fabric::listen(std::uint16_t port) {
  return transport_.listen(
      port, [this](NodeId conn, net::MessagePtr msg) { on_frame(conn, msg); });
}

void Fabric::bind(net::Network* net, net::Engine* engine, std::size_t lane) {
  std::lock_guard<std::mutex> lk(mu_);
  net_ = net;
  engine_ = engine;
  lane_ = lane;
}

void Fabric::set_view_change_hook(ViewChangeHook h) {
  std::lock_guard<std::mutex> lk(mu_);
  view_hook_ = std::move(h);
}

void Fabric::set_control_handler(ControlHandler h) {
  std::lock_guard<std::mutex> lk(mu_);
  control_ = std::move(h);
}

std::uint64_t Fabric::epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return active_.epoch;
}

View Fabric::view() const {
  std::lock_guard<std::mutex> lk(mu_);
  return active_;
}

void Fabric::set_initial_view(View v) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    LDS_REQUIRE(active_.epoch == 0,
                "Fabric::set_initial_view: a view is already active");
    LDS_REQUIRE(v.epoch > 0, "Fabric::set_initial_view: epoch must be > 0");
    active_ = std::move(v);
    for (const auto& [pid, ep] : active_.processes) {
      if (pid != self()) peers_[pid].ep = ep;
    }
    if (!opt_.view_dir.empty()) {
      const Status st = active_.save(opt_.view_dir);
      LDS_REQUIRE(st.ok(),
                  ("Fabric: persist view: " + std::string(st.message()))
                      .c_str());
    }
  }
}

bool Fabric::propose(View v) {
  std::lock_guard<std::mutex> lk(mu_);
  if (v.epoch <= active_.epoch) return false;
  if (active_.epoch > 0 && !active_.same_geometry(v)) return false;
  // A joiner has no process id until a view names its endpoint: claim the
  // entry matching our member port (loopback deployment, ports are unique).
  if (self() == kNoProcess) {
    for (const auto& [pid, ep] : v.processes) {
      if (ep.port == transport_.port()) set_self(pid);
    }
  }
  pending_ = std::move(v);
  return true;
}

void Fabric::activate(std::uint64_t e, bool wait_for_hook) {
  View prev, next;
  ViewChangeHook hook;
  {
    std::lock_guard<std::mutex> lk(mu_);
    LDS_REQUIRE(pending_.has_value() && pending_->epoch == e,
                "Fabric::activate: conflicting epoch activation "
                "(no matching proposed view)");
    prev = active_;
    active_ = std::move(*pending_);
    pending_.reset();
    next = active_;
    for (const auto& [pid, ep] : active_.processes) {
      if (pid != self()) peers_[pid].ep = ep;
    }
    hook = view_hook_;
    if (!opt_.view_dir.empty()) {
      const Status st = active_.save(opt_.view_dir);
      LDS_REQUIRE(st.ok(),
                  ("Fabric: persist view: " + std::string(st.message()))
                      .c_str());
    }
  }
  if (hook) run_hook(std::move(prev), std::move(next), wait_for_hook);
}

void Fabric::run_hook(View prev, View next, bool wait) {
  net::Engine* engine;
  std::size_t lane;
  ViewChangeHook hook;
  {
    std::lock_guard<std::mutex> lk(mu_);
    engine = engine_;
    lane = lane_;
    hook = view_hook_;
  }
  if (engine == nullptr || !hook) return;
  auto done = std::make_shared<std::promise<void>>();
  auto fut = done->get_future();
  engine->post(lane, [hook = std::move(hook), prev = std::move(prev),
                      next = std::move(next), done]() mutable {
    hook(prev, next);
    done->set_value();
  });
  if (wait) {
    // Bounded: a progress thread waiting here must never deadlock against a
    // lane blocked on that thread's own backlog drain (see header note).
    fut.wait_for(std::chrono::seconds(5));
  }
}

bool Fabric::local(NodeId node) const {
  std::lock_guard<std::mutex> lk(mu_);
  return active_.process_of(node) == self();
}

void Fabric::register_peer(ProcessId id, Endpoint ep) {
  std::lock_guard<std::mutex> lk(mu_);
  peers_[id].ep = std::move(ep);
}

void Fabric::note_conn(ProcessId id, NodeId conn) {
  std::lock_guard<std::mutex> lk(mu_);
  peers_[id].conn = conn;
  conn_to_process_[conn] = id;
}

ProcessId Fabric::process_of_conn(NodeId conn) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = conn_to_process_.find(conn);
  return it == conn_to_process_.end() ? kNoProcess : it->second;
}

NodeId Fabric::ensure_conn(ProcessId p) {
  Endpoint ep;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = peers_.find(p);
    if (it == peers_.end() || it->second.ep.port == 0) return kNoNode;
    if (it->second.conn != kNoNode) return it->second.conn;
    if (now_s() < it->second.last_dial_fail + opt_.reconnect_backoff_s) {
      return kNoNode;  // backoff window: treat the peer as down
    }
    ep = it->second.ep;
  }
  std::lock_guard<std::mutex> dial(dial_mu_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = peers_.find(p);
    if (it != peers_.end() && it->second.conn != kNoNode) {
      return it->second.conn;  // another thread dialed while we waited
    }
  }
  NodeId conn = kNoNode;
  const Status st = transport_.connect(
      ep.host, ep.port,
      [this](NodeId c, net::MessagePtr msg) { on_frame(c, msg); }, &conn);
  std::uint64_t e;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!st.ok()) {
      peers_[p].last_dial_fail = now_s();
      return kNoNode;
    }
    peers_[p].conn = conn;
    peers_[p].last_dial_fail = -1e18;
    conn_to_process_[conn] = p;
    e = active_.epoch;
  }
  transport_.deliver(
      0, conn, MemberMessage::make(Hello{self(), e, transport_.port()}), 0);
  return conn;
}

Status Fabric::send_control(ProcessId to, MemberBody body) {
  const NodeId conn = ensure_conn(to);
  if (conn == kNoNode) {
    return Status::Unavailable("member: process " + std::to_string(to) +
                               " unreachable");
  }
  transport_.deliver(0, conn, MemberMessage::make(std::move(body)), 0);
  return Status::Ok();
}

void Fabric::send_control_conn(NodeId conn, MemberBody body) {
  transport_.deliver(0, conn, MemberMessage::make(std::move(body)), 0);
}

void Fabric::send_remote(NodeId from, NodeId to, net::MessagePtr msg) {
  ProcessId p;
  std::uint64_t e;
  {
    std::lock_guard<std::mutex> lk(mu_);
    e = active_.epoch;
    p = active_.process_of(to);
  }
  if (p == self()) return;  // raced a view flip; the frame is simply lost
  const NodeId conn = ensure_conn(p);
  if (conn == kNoNode) {
    remote_drops_.fetch_add(1, std::memory_order_relaxed);
    return;  // unreachable peer == crashed node: drop at delivery
  }
  // The envelope and its protocol frame must be adjacent on the wire;
  // send_mu_ keeps concurrent pairs from interleaving.  Control frames do
  // not take this lock — the receiver skips member frames when matching an
  // envelope to its protocol frame, so interleaved control traffic is safe.
  std::lock_guard<std::mutex> lk(send_mu_);
  transport_.deliver(0, conn, MemberMessage::make(Envelope{e, from, to}), 0);
  transport_.deliver(0, conn, std::move(msg), 0);
  envelopes_sent_.fetch_add(1, std::memory_order_relaxed);
}

bool Fabric::quiesce_sends(double timeout_s) {
  const double deadline = now_s() + timeout_s;
  while (true) {
    std::vector<NodeId> conns;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (const auto& [pid, peer] : peers_) {
        if (peer.conn != kNoNode) conns.push_back(peer.conn);
      }
    }
    bool clear = true;
    for (const NodeId c : conns) {
      if (transport_.backlog_bytes(c) > 0) clear = false;
    }
    if (clear) return true;
    if (now_s() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Fabric::Stats Fabric::stats() const {
  Stats s;
  s.envelopes_sent = envelopes_sent_.load();
  s.envelopes_received = envelopes_received_.load();
  s.frames_forwarded = frames_forwarded_.load();
  s.remote_drops = remote_drops_.load();
  s.stale_drops = stale_drops_.load();
  s.future_drops = future_drops_.load();
  s.unpaired_drops = unpaired_drops_.load();
  return s;
}

// ---- receive path ------------------------------------------------------------

void Fabric::on_frame(NodeId conn, net::MessagePtr msg) {
  const auto* mm = dynamic_cast<const MemberMessage*>(msg.get());
  if (mm == nullptr) {
    handle_protocol(conn, std::move(msg));
    return;
  }
  const MemberBody& body = mm->body();
  if (const auto* h = std::get_if<Hello>(&body)) {
    std::lock_guard<std::mutex> lk(mu_);
    if (h->process != kNoProcess) {
      peers_[h->process].ep = Endpoint{"127.0.0.1", h->listen_port};
      if (peers_[h->process].conn == kNoNode) peers_[h->process].conn = conn;
      conn_to_process_[conn] = h->process;
    }
    return;
  }
  if (const auto* env = std::get_if<Envelope>(&body)) {
    handle_envelope(conn, *env);
    return;
  }
  if (const auto* p = std::get_if<ViewPropose>(&body)) {
    handle_view_propose(conn, *p);
    return;
  }
  if (const auto* a = std::get_if<ViewActivate>(&body)) {
    handle_view_activate(conn, *a);
    return;
  }
  ControlHandler control;
  {
    std::lock_guard<std::mutex> lk(mu_);
    control = control_;
  }
  if (control) control(conn, process_of_conn(conn), body);
}

void Fabric::handle_envelope(NodeId conn, const Envelope& env) {
  envelopes_received_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t active_epoch;
  {
    std::lock_guard<std::mutex> lk(mu_);
    active_epoch = active_.epoch;
    RxState& st = rx_[conn];
    if (env.epoch == active_epoch) {
      st.env = env;
      st.has_envelope = true;
      st.drop_next = false;
      return;
    }
    st.has_envelope = false;
    st.drop_next = true;  // fence the paired protocol frame
  }
  if (env.epoch < active_epoch) {
    stale_drops_.fetch_add(1, std::memory_order_relaxed);
    send_control_conn(conn, StaleEpoch{active_epoch});
    return;
  }
  // The SENDER is ahead: we are the stale one.  Tell the host so it can
  // ViewFetch the current view from the coordinator.
  future_drops_.fetch_add(1, std::memory_order_relaxed);
  ControlHandler control;
  {
    std::lock_guard<std::mutex> lk(mu_);
    control = control_;
  }
  if (control) control(conn, process_of_conn(conn), MemberBody(env));
}

void Fabric::handle_protocol(NodeId conn, net::MessagePtr msg) {
  Envelope env;
  net::Network* net;
  net::Engine* engine;
  std::size_t lane;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = rx_.find(conn);
    if (it == rx_.end() || (!it->second.has_envelope && !it->second.drop_next)) {
      unpaired_drops_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (it->second.drop_next) {
      it->second.drop_next = false;  // fenced pair (already counted)
      return;
    }
    env = it->second.env;
    it->second.has_envelope = false;
    net = net_;
    engine = engine_;
    lane = lane_;
  }
  if (net == nullptr || engine == nullptr) {
    unpaired_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  frames_forwarded_.fetch_add(1, std::memory_order_relaxed);
  engine->post(lane, [net, env, m = std::move(msg)]() mutable {
    net->deliver_local(env.from, env.to, std::move(m), 0);
  });
}

void Fabric::handle_view_propose(NodeId conn, const ViewPropose& p) {
  auto decoded = View::decode_bytes(p.view);
  bool ok = false;
  std::uint64_t e = 0;
  if (decoded.ok()) {
    View v = std::move(decoded).value();
    e = v.epoch;
    std::uint64_t active_epoch;
    {
      std::lock_guard<std::mutex> lk(mu_);
      active_epoch = active_.epoch;
    }
    if (e == active_epoch) {
      ok = true;  // idempotent resend of the active view (ViewFetch path)
    } else {
      ok = propose(std::move(v));
    }
  }
  send_control_conn(conn, ViewAck{e, ok});
}

void Fabric::handle_view_activate(NodeId conn, const ViewActivate& a) {
  bool have_pending = false;
  bool already_active = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    already_active = active_.epoch == a.epoch;
    have_pending = pending_.has_value() && pending_->epoch == a.epoch;
  }
  if (already_active) {
    send_control_conn(conn, ViewAck{a.epoch, true});
    return;
  }
  if (have_pending) {
    // Wait for the surgery hook before acking: once the coordinator has our
    // ack it will resume traffic under the new epoch, and our servers must
    // exist by then.  (Hooks do not send through the fabric, so waiting on
    // a progress thread is safe; see header note.)
    activate(a.epoch, /*wait_for_hook=*/true);
    send_control_conn(conn, ViewAck{a.epoch, true});
    return;
  }
  // Activation for an epoch we never saw proposed: nack, and surface to the
  // host as a catch-up signal (it should ViewFetch).
  send_control_conn(conn, ViewAck{a.epoch, false});
  ControlHandler control;
  {
    std::lock_guard<std::mutex> lk(mu_);
    control = control_;
  }
  if (control) control(conn, process_of_conn(conn), MemberBody(a));
}

void Fabric::on_disconnect(NodeId conn) {
  std::lock_guard<std::mutex> lk(mu_);
  rx_.erase(conn);
  const auto it = conn_to_process_.find(conn);
  if (it != conn_to_process_.end()) {
    const auto pit = peers_.find(it->second);
    if (pit != peers_.end() && pit->second.conn == conn) {
      pit->second.conn = kNoNode;
    }
    conn_to_process_.erase(it);
  }
}

}  // namespace lds::member
