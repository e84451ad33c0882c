// LdsCluster: one simulated LDS deployment wired end to end.
//
// On top of what every core::Cluster owns (lane, network, history), it owns
// both server layers, a pool of writer and reader clients and the storage
// meter.  This is the primary entry point of the library: examples, tests
// and benches build a cluster, schedule operations (synchronously or at
// chosen simulation times) and then inspect history, costs and storage.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "lds/cluster_base.h"
#include "lds/context.h"
#include "lds/reader.h"
#include "lds/server_l1.h"
#include "lds/server_l2.h"
#include "lds/writer.h"
#include "storage/backend.h"

namespace lds::core {

class LdsCluster final : public Cluster {
 public:
  enum class LatencyKind { Fixed, Uniform, Exponential };
  /// Fault layers (fault_layers(), crash()): L1 then L2.
  static constexpr std::size_t kL1 = 0;
  static constexpr std::size_t kL2 = 1;

  struct Options {
    LdsConfig cfg;
    std::size_t writers = 1;
    std::size_t readers = 1;
    /// Link delays (see latency.h); the simulation time unit is tau1.
    double tau1 = 1.0;
    double tau0 = 1.0;
    double tau2 = 10.0;
    LatencyKind latency = LatencyKind::Fixed;
    /// For Uniform: lower bound as a fraction of the class delay.
    double uniform_lo_frac = 0.1;
    std::uint64_t seed = 1;
    /// Consistency level of this cluster's readers (Atomic = the paper's
    /// LDS; Regular = the Section-VI extension without put-tag).
    ReadConsistency read_consistency = ReadConsistency::Atomic;
    /// Additional dedicated Regular-consistency readers (the store's
    /// ReadMode::Regular pool); 0 = none.  Their ids follow the atomic
    /// readers' block.  Histories mixing regular reads must be verified
    /// with History::check_regularity.
    std::size_t regular_readers = 0;
    /// Execution engine + lane this cluster schedules onto (see
    /// net/engine.h).  When null, the cluster owns a single-lane SimEngine.
    /// Under a ParallelEngine the whole cluster is confined to `lane`.
    /// The engine must outlive the cluster.
    net::Engine* engine = nullptr;
    std::size_t lane = 0;
    /// Durable L2 mode: when non-empty, every L2 server opens a
    /// storage::DurableBackend under `<data_dir>/l2-<i>`, the cluster
    /// verifies a geometry MANIFEST against any previous incarnation, L1
    /// acks switch to durable timing (ctx.durable_acks), and construction
    /// runs the crash-recovery sweep (see recover_from_storage).  Empty
    /// (the default) keeps the cluster RAM-only and bit-identical to the
    /// pre-durability behavior.
    std::string data_dir;
    storage::DurabilityPolicy durability;
    /// Multi-process deployment (member subsystem): server indices whose
    /// NodeIds the membership view places in ANOTHER process.  Those servers
    /// are not constructed here — their ids stay addressable (the replaced
    /// transport routes frames to the hosting process) and the local slots
    /// hold nullptr until adopt_l1/adopt_l2 moves them home.  Requires a
    /// transport_factory; incompatible with durable mode (RAM-only for now).
    std::set<std::size_t> remote_l1;
    std::set<std::size_t> remote_l2;
    /// Replace the Network's transport right after construction (before any
    /// traffic): the member fabric installs its RemoteTransport here.
    std::function<std::unique_ptr<net::Transport>(net::Network&)>
        transport_factory;
  };

  explicit LdsCluster(Options opt);

  void write(std::size_t writer, ObjectId obj, Value value,
             WriteCallback cb = {}) override;
  void read(std::size_t reader, ObjectId obj, ReadCallback cb = {}) override;
  std::vector<FaultLayer> fault_layers() const override {
    return {{opt_.cfg.n1, opt_.cfg.f1}, {opt_.cfg.n2, opt_.cfg.f2}};
  }
  void crash(std::size_t layer, std::size_t index) override;

  StorageMeter& meter() { return meter_; }
  const LdsContext& ctx() const { return *ctx_; }
  std::shared_ptr<const LdsContext> ctx_ptr() const { return ctx_; }
  const Options& options() const { return opt_; }

  Writer& writer(std::size_t i) { return *writers_.at(i); }
  Reader& reader(std::size_t i) { return *readers_.at(i); }
  Reader& regular_reader(std::size_t i) { return *regular_readers_.at(i); }
  ServerL1& l1(std::size_t j);
  ServerL2& l2(std::size_t i);
  std::size_t num_writers() const { return writers_.size(); }
  std::size_t num_readers() const { return readers_.size(); }

  /// True when server j/i is constructed in THIS process (false for slots a
  /// membership view places elsewhere).
  bool l1_local(std::size_t j) const { return l1_.at(j) != nullptr; }
  bool l2_local(std::size_t i) const { return l2_.at(i) != nullptr; }

  /// Membership surgery (view-change hooks; must run on the cluster's lane).
  /// release: destruct the local server — its id detaches from the Network
  /// and frames route to the process the new view places it in.  adopt: the
  /// mirror image — construct a FRESH server under the id (state-sync via
  /// regenerate_objects follows, exactly the replace_l2 id-reuse path).
  void release_l1(std::size_t j);
  void release_l2(std::size_t i);
  ServerL1& adopt_l1(std::size_t j);
  ServerL2& adopt_l2(std::size_t i);

  void crash_l1(std::size_t j) { l1(j).crash(); }
  void crash_l2(std::size_t i) { l2(i).crash(); }

  /// Repair extension (paper, Section VI future work): replace L2 server i
  /// with a fresh, empty process under the same id, returning the
  /// replacement.  This is the ONE id-reuse helper — both the store's repair
  /// path (store::RepairScheduler via core::RepairManager) and ad-hoc churn
  /// (harness, tests) must go through it.  Run regenerate_objects (or, for
  /// one object, l2(i).repair_object) afterwards to rebuild its contents
  /// from the surviving peers.
  ServerL2& replace_l2(std::size_t i);

  /// Objects the construction-time recovery sweep restored (durable mode;
  /// empty on a fresh data_dir or in RAM mode), with the tag each recovered
  /// to.  Their synthetic writes are already in history().
  const std::vector<std::pair<ObjectId, Tag>>& recovered_objects() const {
    return recovered_objects_;
  }

  /// Schedule an operation invocation at simulation time t (>= now).
  void write_at(net::SimTime t, std::size_t writer_idx, ObjectId obj,
                Value value, Writer::Callback cb = {});
  void read_at(net::SimTime t, std::size_t reader_idx, ObjectId obj,
               Reader::Callback cb = {});

  /// Run the lane until no events remain; returns events executed.  The
  /// lane's queue is shared: on an engine lane that hosts other clusters
  /// (e.g. a store's shards), this drains theirs too.
  std::size_t settle(std::size_t max_events = SIZE_MAX) {
    return sim().run(max_events);
  }

 private:
  std::string l2_dir(std::size_t i) const;
  /// Open the DurableBackend for L2 server i (aborts on I/O failure: a
  /// cluster that cannot recover its own storage must not serve).
  std::unique_ptr<storage::Backend> open_l2_backend(std::size_t i);
  /// Durable-mode construction step: pick, per surviving object, the newest
  /// tag with >= k decodable coded elements across all backends' recovered
  /// versions, force every L2 server to exactly that (tag, element), seed
  /// every L1 with it as the committed tag, and record a synthetic completed
  /// write in history() so the checkers treat the recovered state as the
  /// legitimate past it is.
  void recover_from_storage();

  Options opt_;
  std::shared_ptr<LdsContext> ctx_;
  StorageMeter meter_;
  std::vector<std::unique_ptr<ServerL1>> l1_;
  std::vector<std::unique_ptr<ServerL2>> l2_;
  std::vector<std::unique_ptr<Writer>> writers_;
  std::vector<std::unique_ptr<Reader>> readers_;
  std::vector<std::unique_ptr<Reader>> regular_readers_;
  std::vector<std::pair<ObjectId, Tag>> recovered_objects_;
};

/// Node-id layout used by LdsCluster (stable, documented for tests):
/// writers get 1..W, readers 10000+i, L1 servers 20000+j, L2 30000+i.
inline constexpr NodeId kReaderIdBase = 10000;
inline constexpr NodeId kL1IdBase = 20000;
inline constexpr NodeId kL2IdBase = 30000;

}  // namespace lds::core
