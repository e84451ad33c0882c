// core::Cluster: what every simulated register deployment shares — LDS
// (lds/cluster.h) and the single-layer ABD and CAS baselines (baselines/).
//
// The base owns the execution lane (the caller's engine lane, else one owned
// SimEngine), the Network built from the latency model the subclass supplies,
// and the operation History.  Subclasses own the servers and clients they
// build on net(); derived members die first, so every Node detaches from a
// live Network.  The store and the stress harness drive any protocol through
// write/read, fault_layers and crash, and pick victims with FailureBudget.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/slice.h"
#include "lds/history.h"
#include "net/engine.h"
#include "net/latency.h"
#include "net/network.h"

namespace lds::core {

/// One crash-fault layer: `n` servers, at most `f` of them down at a time.
struct FaultLayer {
  std::size_t n = 0;
  std::size_t f = 0;
};

class Cluster {
 public:
  using WriteCallback = std::function<void(Tag)>;
  using ReadCallback = std::function<void(Tag, Value)>;

  virtual ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  net::Engine& engine() { return *engine_; }
  net::Simulator& sim() { return *sim_; }
  net::Network& net() { return *net_; }
  History& history() { return history_; }
  const History& history() const { return history_; }

  /// Invoke an operation now on client `writer` / `reader` (one operation
  /// at a time per client); `cb` fires when it completes.
  virtual void write(std::size_t writer, ObjectId obj, Value value,
                     WriteCallback cb = {}) = 0;
  virtual void read(std::size_t reader, ObjectId obj,
                    ReadCallback cb = {}) = 0;
  /// Crash-fault layers with their budgets: L1 then L2 for LDS, the one
  /// layer of servers for ABD and CAS.
  virtual std::vector<FaultLayer> fault_layers() const = 0;
  virtual void crash(std::size_t layer, std::size_t index) = 0;

  /// Invoke an operation now and run the lane until it completes (aborts if
  /// the lane drains first).
  Tag write_sync(std::size_t writer, ObjectId obj, Value value);
  std::pair<Tag, Value> read_sync(std::size_t reader, ObjectId obj);

 protected:
  /// A null `engine` means one owned single-lane SimEngine seeded with
  /// `seed` (lane 0); otherwise the engine must outlive the cluster.  The
  /// Network samples `latency` with `seed`.
  Cluster(net::Engine* engine, std::size_t lane, std::uint64_t seed,
          std::unique_ptr<net::LatencyModel> latency);

 private:
  std::unique_ptr<net::SimEngine> owned_engine_;
  net::Engine* engine_ = nullptr;
  net::Simulator* sim_ = nullptr;
  std::unique_ptr<net::Network> net_;
  History history_;
};

/// Which servers of each fault layer are down.  The flags belong to the
/// cluster's lane; the per-layer counts are atomic so other threads may poll
/// them.
class FailureBudget {
 public:
  struct Victim {
    std::size_t layer = 0;
    std::size_t index = 0;
  };

  FailureBudget() = default;
  explicit FailureBudget(std::vector<FaultLayer> layers);

  /// Mark a healthy server down and return it; nullopt when every budget is
  /// spent.  With two open layers a fair coin picks one (heads: the
  /// second); the victim is uniform over the layer's healthy servers.
  std::optional<Victim> pick(Rng& rng);

  bool has_room(std::size_t layer) const {
    return down_count(layer) < layers_.at(layer).f;
  }
  bool down(std::size_t layer, std::size_t index) const {
    return down_.at(layer).at(index);
  }
  void mark_down(std::size_t layer, std::size_t index);
  /// Return a down server's slot (no-op when it is up).
  void mark_up(std::size_t layer, std::size_t index);
  std::size_t down_count(std::size_t layer) const {
    return counts_[layer].load(std::memory_order_acquire);
  }

 private:
  std::vector<FaultLayer> layers_;
  std::vector<std::vector<bool>> down_;
  std::unique_ptr<std::atomic<std::size_t>[]> counts_;
};

}  // namespace lds::core
