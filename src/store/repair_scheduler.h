// Background repair scheduling across the shards of a store service.
//
// Each LDS shard gets its own core::RepairManager (heartbeat failure
// detection + replace-and-regenerate orchestration, riding the shard's own
// simulated network).  The scheduler adds the cross-shard policy a
// deployment needs: a budget of concurrently running server repairs
// (regeneration reads d helper elements, so unbounded repair concurrency
// would starve foreground traffic), per-shard veto hooks so the service's
// failure-budget accounting stays sound even under false suspicion, and
// aggregate introspection/metrics for the harness and benches.
//
// Thread-safety: the budget and aggregate counters are mutex-guarded and the
// per-manager introspection it sums is atomic, because under a
// ParallelEngine each manager runs on its shard's lane.  The budget is kept
// per engine lane, so repair admission never makes one lane wait on
// another's backlog; under a SimEngine every shard is on lane 0 and shares
// one budget.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "lds/cluster.h"
#include "lds/repair_manager.h"
#include "store/metrics.h"

namespace lds::store {

class RepairScheduler {
 public:
  struct Options {
    /// Cap on servers being repaired at once, per engine lane.
    std::size_t max_concurrent = 2;
    double heartbeat_period = 2.0;
    double suspect_after = 9.0;
  };

  RepairScheduler(Options opt, MetricsRegistry& metrics)
      : opt_(opt), metrics_(metrics) {}

  /// Route a shard's manager start/stop onto its execution lane (required
  /// under a ParallelEngine, where arming a heartbeat timer touches the
  /// lane's simulator).  Default: run inline.
  using Post = std::function<void(std::size_t shard, std::function<void()>)>;
  void set_post(Post post) { post_ = std::move(post); }

  /// Attach one LDS shard running on engine lane `lane`.  `may_replace(l2)`
  /// is the service's veto — e.g. "replacing this healthy-looking server
  /// would overdraw f2" on a false suspicion; `on_replaced(l2)` fires when
  /// the fresh (empty) replacement is installed; `on_repaired(l2)` when it
  /// holds every object again.  All three may be null and are invoked on the
  /// shard's lane.
  void attach_shard(std::size_t shard, core::LdsCluster& cluster,
                    std::function<bool(std::size_t)> may_replace = {},
                    std::function<void(std::size_t)> on_replaced = {},
                    std::function<void(std::size_t)> on_repaired = {},
                    std::size_t lane = 0);

  /// Register an object for repair coverage on its shard.  Must run on the
  /// shard's lane (or before the engine starts).
  void track_object(std::size_t shard, ObjectId obj);

  void start();
  void stop();

  std::size_t in_flight() const;
  std::size_t peak_in_flight() const;
  /// Object repairs attempted, across shards (servers fully restored are
  /// the registry's `repairs_completed` counter).
  std::size_t object_rounds_started() const;
  /// Servers currently suspected (crashed, under repair, or queued for the
  /// budget) across shards.
  std::size_t suspected() const;
  /// True when no repair work is pending anywhere.  Safe to poll from a
  /// driving thread while lanes run.
  bool quiet() const { return suspected() == 0 && in_flight() == 0; }

  bool has_shard(std::size_t shard) const {
    return managers_.contains(shard);
  }

 private:
  Options opt_;
  MetricsRegistry& metrics_;
  Post post_;
  std::map<std::size_t, std::unique_ptr<core::RepairManager>> managers_;
  mutable std::mutex mu_;  ///< guards the budget accounting below
  std::map<std::size_t, std::size_t> in_flight_by_lane_;
  std::size_t in_flight_total_ = 0;
  std::size_t peak_in_flight_ = 0;
};

}  // namespace lds::store
