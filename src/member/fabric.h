// member::Fabric — the per-process membership runtime: one TcpTransport on
// the member port, the active/pending View, the peer connection table, and
// the envelope pairing that moves protocol frames between processes.
//
// Remote delivery (the tentpole seam): install a RemoteTransport (below) on
// a Network via set_transport and every Network::send whose destination the
// active view places on ANOTHER process is routed here — encoded by the
// ordinary codec, prefixed with an epoch-tagged Envelope member frame, and
// written to the peer's connection.  Destinations placed locally fall back
// to Network::deliver_local with the sampled delay, byte-for-byte the
// in-process path.  On receive, the paired frames are re-joined and posted
// onto the bound Network's engine lane, so remote messages enter a node's
// on_message exactly like local ones.
//
// Loss model: an unreachable peer (dead, not yet joined, backlogged past its
// deadline) drops the frame — precisely Network's drop-at-delivery semantics
// for crashed nodes, which the LDS protocol already tolerates up to f1/f2
// per layer.  Reconnection is on-demand with a short backoff.
//
// Epoch fencing: every envelope names the sender's active epoch.  A receiver
// drops pairs under any OTHER epoch: older -> StaleEpoch nack (the sender
// should ViewFetch), newer -> the receiver itself is behind (its host is
// told through the control handler so it can ViewFetch).  Stale-view
// messages therefore never reach a server under the wrong configuration.
//
// Threading: control/view state is mutex-guarded; the transport handler runs
// on progress threads; forwarded protocol frames run on the bound engine
// lane.  View-change hooks run on the bound lane and MUST NOT send through
// the fabric synchronously (activation can wait on hook completion from a
// progress thread).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "common/types.h"
#include "member/view.h"
#include "member/wire.h"
#include "net/engine.h"
#include "net/network.h"
#include "net/transport.h"

namespace lds::member {

class Fabric {
 public:
  struct Options {
    /// Where the active view persists as VIEW (empty = not persisted).
    std::string view_dir;
    /// Seconds a failed dial suppresses re-dialing the same process.
    double reconnect_backoff_s = 0.1;
    net::TcpTransport::Options transport;
  };

  struct Stats {
    std::uint64_t envelopes_sent = 0;
    std::uint64_t envelopes_received = 0;
    std::uint64_t frames_forwarded = 0;  ///< protocol frames delivered here
    std::uint64_t remote_drops = 0;      ///< sends with no reachable peer
    std::uint64_t stale_drops = 0;       ///< pairs fenced: older epoch
    std::uint64_t future_drops = 0;      ///< pairs fenced: newer epoch
    std::uint64_t unpaired_drops = 0;    ///< protocol frame with no envelope
  };

  /// Runs on the bound engine lane when the active view flips; apply the
  /// placement diff (construct/destroy local servers) here.
  using ViewChangeHook =
      std::function<void(const View& prev, const View& next)>;
  /// Control frames the fabric does not consume itself (JoinRequest,
  /// ViewAck, ViewFetch, SyncL2, SyncDone, StaleEpoch) are handed to the
  /// host on a transport progress thread.  An Envelope delivered here means
  /// "a peer is at a NEWER epoch than us" — fetch the current view.
  using ControlHandler =
      std::function<void(NodeId conn, ProcessId from, const MemberBody& body)>;

  Fabric() : Fabric(Options{}) {}
  explicit Fabric(Options opt);
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Bind 127.0.0.1:`port` (0 = ephemeral) and start accepting members.
  Status listen(std::uint16_t port);
  std::uint16_t port() const { return transport_.port(); }
  bool listening() const {
    return transport_.port() != 0 && !transport_.stopped();
  }
  void stop() { transport_.stop(); }

  /// This process's id in the view (0 = coordinator; joiners learn theirs
  /// from the first proposed view naming their endpoint).
  void set_self(ProcessId id) { self_.store(id, std::memory_order_release); }
  ProcessId self() const { return self_.load(std::memory_order_acquire); }

  /// Bind the protocol Network this process hosts.  Must happen before any
  /// protocol traffic flows (deployments bind between cluster construction
  /// and engine start).
  void bind(net::Network* net, net::Engine* engine, std::size_t lane);

  void set_view_change_hook(ViewChangeHook h);
  void set_control_handler(ControlHandler h);

  // ---- views ----------------------------------------------------------------

  std::uint64_t epoch() const;
  View view() const;

  /// Bootstrap only (active epoch still 0): install `v` without running the
  /// view-change hook — deployments construct their servers directly from
  /// this view.  Persists when a view_dir is configured.
  void set_initial_view(View v);

  /// Stage `v` as the pending view.  False when `v` is not newer than the
  /// active view or changes the deployment geometry.
  bool propose(View v);

  /// Flip the pending view with epoch `e` to active, persist it, and run
  /// the view-change hook on the bound lane.  Aborts (LDS_REQUIRE) when no
  /// matching pending view exists — activating an epoch that was never
  /// proposed is a coordinator logic error, not an input error (remote
  /// ViewActivate frames are validated gracefully before reaching here).
  /// `wait_for_hook` blocks until the lane ran the hook (bounded wait; see
  /// threading note above).
  void activate(std::uint64_t e, bool wait_for_hook = true);

  /// True when the active view places `node` on this process.
  bool local(NodeId node) const;

  // ---- peers ----------------------------------------------------------------

  /// Remember how to dial process `id` (idempotent; later views refresh it).
  void register_peer(ProcessId id, Endpoint ep);
  /// Bind an already-open connection to a process (e.g. the conn a
  /// JoinRequest arrived on becomes the joiner's connection).
  void note_conn(ProcessId id, NodeId conn);

  /// Send a control frame to a process, dialing on demand.  Unavailable
  /// when the process has no endpoint or the dial fails (backoff applies).
  Status send_control(ProcessId to, MemberBody body);
  /// Reply on a specific connection (progress-thread handlers).
  void send_control_conn(NodeId conn, MemberBody body);

  // ---- remote protocol delivery (RemoteTransport calls this) -----------------

  void send_remote(NodeId from, NodeId to, net::MessagePtr msg);

  /// Coordinator quiesce step: wait until every peer connection's send
  /// backlog drained (all proposed-epoch traffic is on the peer's side of
  /// the wire).  False on timeout.
  bool quiesce_sends(double timeout_s);

  Stats stats() const;
  net::TcpTransport& transport() { return transport_; }

 private:
  struct Peer {
    Endpoint ep;
    NodeId conn = kNoNode;
    double last_dial_fail = -1e18;  ///< steady-clock seconds
  };
  struct RxState {
    Envelope env;
    bool has_envelope = false;
    bool drop_next = false;  ///< fence the paired protocol frame
  };

  void on_frame(NodeId conn, net::MessagePtr msg);
  void on_disconnect(NodeId conn);
  void handle_envelope(NodeId conn, const Envelope& env);
  void handle_protocol(NodeId conn, net::MessagePtr msg);
  void handle_view_propose(NodeId conn, const ViewPropose& p);
  void handle_view_activate(NodeId conn, const ViewActivate& a);
  /// mu_ must NOT be held.  Returns kNoNode on failure.
  NodeId ensure_conn(ProcessId p);
  ProcessId process_of_conn(NodeId conn) const;
  /// Run the view-change hook for prev -> next on the bound lane.
  void run_hook(View prev, View next, bool wait);

  Options opt_;
  net::TcpTransport transport_;
  std::atomic<ProcessId> self_{kCoordinatorProcess};

  mutable std::mutex mu_;
  View active_;                   ///< epoch 0 until a view is installed
  std::optional<View> pending_;
  std::unordered_map<ProcessId, Peer> peers_;
  std::unordered_map<NodeId, ProcessId> conn_to_process_;
  std::unordered_map<NodeId, RxState> rx_;
  ViewChangeHook view_hook_;
  ControlHandler control_;
  net::Network* net_ = nullptr;
  net::Engine* engine_ = nullptr;
  std::size_t lane_ = 0;

  std::mutex dial_mu_;  ///< serializes outbound dials (blocking connect)
  std::mutex send_mu_;  ///< keeps envelope+frame pairs contiguous per conn

  std::atomic<std::uint64_t> envelopes_sent_{0}, envelopes_received_{0};
  std::atomic<std::uint64_t> frames_forwarded_{0}, remote_drops_{0};
  std::atomic<std::uint64_t> stale_drops_{0}, future_drops_{0};
  std::atomic<std::uint64_t> unpaired_drops_{0};
};

/// The Network transport that makes one LdsCluster span processes: local
/// destinations take the ordinary in-process path (sampled delay intact);
/// destinations the view places elsewhere ride the fabric.
class RemoteTransport final : public net::Transport {
 public:
  RemoteTransport(Fabric& fabric, net::Network& net)
      : fabric_(fabric), net_(net) {}

  const char* name() const override { return "member-remote"; }
  bool deterministic() const override { return false; }
  void deliver(NodeId from, NodeId to, net::MessagePtr msg,
               net::SimTime delay) override {
    if (fabric_.local(to)) {
      net_.deliver_local(from, to, std::move(msg), delay);
    } else {
      fabric_.send_remote(from, to, std::move(msg));
    }
  }

 private:
  Fabric& fabric_;
  net::Network& net_;
};

}  // namespace lds::member
