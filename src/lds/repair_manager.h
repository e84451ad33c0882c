// Automated back-end repair: failure detection + repair orchestration.
//
// The paper's Section-VI future work asks for repair of erasure-coded L2
// servers; ServerL2::repair_object gives the mechanism, this module adds
// the policy layer a deployment needs:
//
//   * a heartbeat-based failure detector for L2 servers (sound under the
//     bounded-latency model of Section V-A: a server is suspected only
//     after `suspect_after` time units without a heartbeat response, so
//     with fixed delays <= tau2 a timeout > 2 tau2 + period never falsely
//     suspects an alive server);
//   * an orchestrator that, upon suspicion, asks the host environment to
//     replace the server (LdsCluster::replace_l2) and then regenerates every
//     registered object on the replacement (regenerate_objects).
//
// The manager is itself a node on the simulated network, so its messages
// ride the same channels and cost accounting as everything else (heartbeats
// are pure meta-data).
#pragma once

#include <atomic>
#include <functional>
#include <set>
#include <unordered_map>

#include "lds/context.h"
#include "lds/heartbeat.h"
#include "lds/messages.h"
#include "lds/server_l2.h"
#include "net/network.h"

namespace lds::core {

class RepairManager final : public net::Node {
 public:
  struct Options {
    double heartbeat_period = 5.0;  ///< ping interval (tau1 units)
    double suspect_after = 25.0;    ///< silence before declaring a crash
    /// Optional concurrency gate (store::RepairScheduler): consulted with
    /// the victim's index before the replacement is requested; while it
    /// returns false the manager re-asks every 2 time units.
    /// `release_slot` fires when that server's repair finishes.
    std::function<bool(std::size_t)> acquire_slot;
    std::function<void(std::size_t)> release_slot;
    /// Fires once per repaired server, after every tracked object has been
    /// regenerated on its replacement.
    std::function<void(std::size_t)> on_server_repaired;
  };

  /// `replace` is the environment hook that swaps in a fresh server process
  /// for L2 index i under the same id (LdsCluster::replace_l2).
  using ReplaceFn = std::function<void(std::size_t l2_index)>;

  RepairManager(net::Network& net, std::shared_ptr<const LdsContext> ctx,
                Options opt, ReplaceFn replace);

  /// Register an object for repair coverage (typically every object the
  /// deployment serves).
  void track_object(ObjectId obj) { objects_.insert(obj); }

  /// Start the heartbeat loop.
  void start();
  void stop() { running_ = false; }

  void on_message(NodeId from, const net::MessagePtr& msg) override;

  // ---- introspection --------------------------------------------------------
  // Counters are atomics mirroring lane-local state so that a store-level
  // quiescence poll (store::RepairScheduler::quiet) may read them from
  // another thread while this manager's lane keeps executing.
  std::size_t suspected_count() const {
    return suspected_size_.load(std::memory_order_acquire);
  }
  bool is_suspected(std::size_t l2_index) const {
    return suspected_.contains(l2_index);  // lane-local readers only
  }
  /// Object repairs attempted / converged / failed-and-retried, counted
  /// when each server's regeneration finishes.
  std::size_t repairs_started() const {
    return repairs_completed() + repairs_failed();
  }
  std::size_t repairs_completed() const {
    return repairs_completed_.load(std::memory_order_relaxed);
  }
  std::size_t repairs_failed() const {
    return repairs_failed_.load(std::memory_order_relaxed);
  }

 private:
  void tick();
  void suspect(std::size_t l2_index);
  /// Claim a budget slot (retrying while the gate refuses), then replace
  /// the server and regenerate its objects.
  void begin_repair(std::size_t l2_index);

  std::shared_ptr<const LdsContext> ctx_;
  Options opt_;
  ReplaceFn replace_;
  bool running_ = false;
  std::uint64_t seq_ = 0;
  std::set<ObjectId> objects_;
  std::unordered_map<std::size_t, net::SimTime> last_seen_;  // by L2 index
  std::set<std::size_t> suspected_;
  std::atomic<std::size_t> suspected_size_{0};  // == suspected_.size()
  std::atomic<std::size_t> repairs_completed_{0};
  std::atomic<std::size_t> repairs_failed_{0};
};

}  // namespace lds::core
