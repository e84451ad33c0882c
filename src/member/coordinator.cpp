#include "member/coordinator.h"

#include <chrono>
#include <future>

#include "common/assert.h"
#include "lds/cluster.h"

namespace lds::member {

namespace {

bool valid_claim(const View& v, NodeId node) {
  if (node >= core::kL1IdBase && node < core::kL1IdBase + static_cast<NodeId>(v.n1)) {
    return true;
  }
  return node >= core::kL2IdBase &&
         node < core::kL2IdBase + static_cast<NodeId>(v.n2);
}

}  // namespace

Coordinator::Coordinator(Fabric& fabric, Hooks hooks, Timeouts timeouts)
    : fabric_(fabric), hooks_(std::move(hooks)), to_(timeouts) {
  fabric_.set_control_handler(
      [this](NodeId conn, ProcessId from, const MemberBody& body) {
        on_control(conn, from, body);
      });
  worker_ = std::thread([this] { worker(); });
}

Coordinator::~Coordinator() { stop(); }

void Coordinator::stop() {
  std::deque<Op> dropped;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return;
    stopping_ = true;
    dropped.swap(queue_);
  }
  cv_.notify_all();
  ack_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  for (Op& op : dropped) {
    if (op.done) op.done(Status::Unavailable("coordinator stopping"), 0);
  }
}

void Coordinator::move_l2(std::vector<std::uint32_t> indices, std::string host,
                          std::uint16_t port, MoveCallback done) {
  Op op;
  op.kind = Op::Kind::Move;
  op.indices = std::move(indices);
  op.host = std::move(host);
  op.port = port;
  op.done = std::move(done);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) {
      if (op.done) op.done(Status::Unavailable("coordinator stopping"), 0);
      return;
    }
    queue_.push_back(std::move(op));
  }
  cv_.notify_all();
}

// ---- control intake (fabric progress threads) --------------------------------

void Coordinator::on_control(NodeId conn, ProcessId from,
                             const MemberBody& body) {
  if (const auto* join = std::get_if<JoinRequest>(&body)) {
    Op op;
    op.kind = Op::Kind::Join;
    op.conn = conn;
    op.listen_port = join->listen_port;
    op.claims = join->claims;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopping_) return;
      queue_.push_back(std::move(op));
    }
    cv_.notify_all();
    return;
  }
  if (std::holds_alternative<ViewFetch>(body)) {
    Op op;
    op.kind = Op::Kind::Fetch;
    op.conn = conn;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopping_) return;
      queue_.push_back(std::move(op));
    }
    cv_.notify_all();
    return;
  }
  if (const auto* ack = std::get_if<ViewAck>(&body)) {
    std::lock_guard<std::mutex> lk(ack_mu_);
    if (ack->epoch == ack_epoch_ && from != kNoProcess) {
      (ack->ok ? acked_ : nacked_).insert(from);
      ack_cv_.notify_all();
    }
    return;
  }
  if (const auto* done = std::get_if<SyncDone>(&body)) {
    std::lock_guard<std::mutex> lk(ack_mu_);
    sync_done_.push_back(*done);
    ack_cv_.notify_all();
    return;
  }
  // StaleEpoch / Envelope-catch-up signals target lagging peers, not the
  // coordinator (the authoritative epoch); nothing to do here.
}

// ---- worker ------------------------------------------------------------------

void Coordinator::worker() {
  for (;;) {
    Op op;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping
      op = std::move(queue_.front());
      queue_.pop_front();
    }
    switch (op.kind) {
      case Op::Kind::Join: run_join(std::move(op)); break;
      case Op::Kind::Move: run_move(std::move(op)); break;
      case Op::Kind::Fetch: run_fetch(std::move(op)); break;
    }
  }
}

ProcessId Coordinator::process_for_endpoint(const View& v,
                                            const std::string& host,
                                            std::uint16_t port) const {
  for (const auto& [pid, ep] : v.processes) {
    if (ep.port == port && (host.empty() || ep.host == host)) return pid;
  }
  return kNoProcess;
}

void Coordinator::run_join(Op op) {
  const View active = fabric_.view();
  const Endpoint ep{"127.0.0.1", op.listen_port};
  // Re-joining endpoint (a restarted peer) keeps its process id; otherwise
  // allocate the next one.  The coordinator itself is process 0.
  ProcessId pid = process_for_endpoint(active, ep.host, ep.port);
  if (pid == kNoProcess) {
    pid = 1;
    for (const auto& [p, unused] : active.processes) {
      pid = std::max(pid, p + 1);
    }
  }
  fabric_.register_peer(pid, ep);
  fabric_.note_conn(pid, op.conn);
  View next = active;
  ++next.epoch;
  next.processes[pid] = ep;
  for (const NodeId node : op.claims) {
    if (valid_claim(next, node)) next.placement[node] = pid;
  }
  if (const Status st = apply_change(next); !st.ok()) return;
  // A (re)joined process starts empty no matter what it hosted before, so
  // every claimed L2 resyncs unconditionally.
  for (const NodeId node : op.claims) {
    if (node >= core::kL2IdBase &&
        node < core::kL2IdBase + static_cast<NodeId>(next.n2)) {
      sync_l2(next, static_cast<std::uint32_t>(node - core::kL2IdBase));
    }
  }
}

void Coordinator::run_move(Op op) {
  const View active = fabric_.view();
  ProcessId target = fabric_.self();
  if (!op.host.empty()) {
    target = process_for_endpoint(active, op.host, op.port);
    if (target == kNoProcess) {
      if (op.done) {
        op.done(Status::InvalidArgument("no member process at " + op.host +
                                        ":" + std::to_string(op.port)),
                active.epoch);
      }
      return;
    }
  }
  for (const std::uint32_t idx : op.indices) {
    if (idx >= active.n2) {
      if (op.done) {
        op.done(Status::InvalidArgument("L2 index " + std::to_string(idx) +
                                        " out of range"),
                active.epoch);
      }
      return;
    }
  }
  View next = active;
  ++next.epoch;
  for (const std::uint32_t idx : op.indices) {
    const NodeId node = core::kL2IdBase + static_cast<NodeId>(idx);
    if (target == fabric_.self() && target == kCoordinatorProcess) {
      next.placement.erase(node);  // unlisted nodes live on the head
    } else {
      next.placement[node] = target;
    }
  }
  if (const Status st = apply_change(next); !st.ok()) {
    if (op.done) op.done(st, fabric_.epoch());
    return;
  }
  for (const std::uint32_t idx : op.indices) sync_l2(next, idx);
  if (op.done) op.done(Status::Ok(), next.epoch);
}

void Coordinator::run_fetch(Op op) {
  // Replay the active view to a lagging peer: an idempotent propose (acked
  // as such) followed by its activation.
  const View active = fabric_.view();
  if (active.epoch == 0) return;
  fabric_.send_control_conn(op.conn, ViewPropose{active.encode_bytes()});
  fabric_.send_control_conn(op.conn, ViewActivate{active.epoch});
}

// ---- the change protocol -----------------------------------------------------

Status Coordinator::apply_change(View next) {
  const std::uint64_t e = next.epoch;
  std::set<ProcessId> others;
  for (const auto& [pid, ep] : next.processes) {
    if (pid != fabric_.self()) others.insert(pid);
  }
  const Bytes encoded = next.encode_bytes();
  if (!fabric_.propose(std::move(next))) {
    return Status::InvalidArgument(
        "view rejected (not newer than active, or geometry change)");
  }
  begin_ack_wait(e);
  for (const ProcessId p : others) {
    (void)fabric_.send_control(p, ViewPropose{encoded});
  }
  // Dead peers time out; the change proceeds without them (they catch up via
  // ViewFetch when they return, and their servers count toward f1/f2 until
  // then).
  (void)wait_acks(e, others, to_.propose_ack_s);

  // Quiesce: no client op may straddle the epoch flip.  An op dispatched
  // under the old epoch whose quorum needs a server that moved could
  // otherwise wait forever on fenced frames.
  if (hooks_.pause) hooks_.pause();
  if (hooks_.drain) (void)hooks_.drain(to_.drain_s);
  (void)fabric_.quiesce_sends(to_.quiesce_s);

  begin_ack_wait(e);
  fabric_.activate(e, /*wait_for_hook=*/true);
  for (const ProcessId p : others) {
    (void)fabric_.send_control(p, ViewActivate{e});
  }
  // Load-bearing for liveness: once a live peer acked activation it serves
  // the new epoch, so resumed traffic only ever loses the servers of
  // genuinely dead processes (bounded by the deployment's f1/f2 budget).
  (void)wait_acks(e, others, to_.activate_ack_s);
  if (hooks_.resume) hooks_.resume();
  return Status::Ok();
}

void Coordinator::sync_l2(const View& v, std::uint32_t index) {
  const NodeId node = core::kL2IdBase + static_cast<NodeId>(index);
  const ProcessId owner = v.process_of(node);
  if (owner == fabric_.self()) {
    if (!hooks_.repair_local) return;
    auto done = std::make_shared<std::promise<void>>();
    auto fut = done->get_future();
    hooks_.repair_local(index,
                        [done](std::uint32_t, std::uint32_t) mutable {
                          done->set_value();
                        });
    (void)fut.wait_for(std::chrono::duration<double>(to_.sync_s));
    return;
  }
  std::vector<ObjectId> objects;
  if (hooks_.objects) objects = hooks_.objects();
  if (!fabric_.send_control(owner, SyncL2{v.epoch, index, std::move(objects)})
           .ok()) {
    return;  // unreachable peer: it resyncs via ViewFetch + repair later
  }
  (void)wait_sync_done(v.epoch, index, to_.sync_s);
}

// ---- ack collection ----------------------------------------------------------

void Coordinator::begin_ack_wait(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lk(ack_mu_);
  ack_epoch_ = epoch;
  acked_.clear();
  nacked_.clear();
  sync_done_.clear();
}

std::set<ProcessId> Coordinator::wait_acks(std::uint64_t epoch,
                                           const std::set<ProcessId>& procs,
                                           double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::duration<double>(timeout_s));
  std::unique_lock<std::mutex> lk(ack_mu_);
  ack_cv_.wait_until(lk, deadline, [&] {
    if (ack_epoch_ != epoch) return true;  // superseded
    for (const ProcessId p : procs) {
      if (acked_.count(p) == 0 && nacked_.count(p) == 0) return false;
    }
    return true;
  });
  return acked_;
}

std::optional<SyncDone> Coordinator::wait_sync_done(std::uint64_t epoch,
                                                    std::uint32_t index,
                                                    double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::duration<double>(timeout_s));
  std::unique_lock<std::mutex> lk(ack_mu_);
  std::optional<SyncDone> found;
  ack_cv_.wait_until(lk, deadline, [&] {
    for (const SyncDone& d : sync_done_) {
      if (d.epoch == epoch && d.l2_index == index) {
        found = d;
        return true;
      }
    }
    return false;
  });
  return found;
}

}  // namespace lds::member
