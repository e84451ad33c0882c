// StoreService: a multi-object, multi-shard store fronting many independent
// cluster instances behind one client API.
//
// Layering (ROADMAP north star "sharding, batching, async, caching"):
//
//   store::Client (store/client.h) — deadlines, retries, multi-key
//        │                            gathers, Status sync API
//   put/get/put_if (string keys, async callbacks or sync wrappers;
//        │          Status + Version results, zero-copy Value payloads)
//        │
//   ShardRouter ── consistent-hash ring: key -> shard; shard -> engine lane
//        │
//   per-shard write batching ── queued puts to the same shard coalesce into
//        │                      one dispatch window; same-key puts collapse
//        │                      to the last value (absorbed puts complete
//        │                      with the surviving write's tag), bounded by
//        │                      an admission limit
//   shard clusters ── each shard owns one core::Cluster: an LdsCluster (L2
//        │            code via codes::factory) or an ABD / CAS baseline,
//        │            scheduled onto ONE lane of the service's execution
//        │            engine (net/engine.h)
//   RepairScheduler ── background heartbeat detection + regeneration of
//                      crashed L2 servers under a concurrent-repair budget
//
// MetricsRegistry threads through every path (router, batching, repair);
// snapshot with metrics().to_json().
//
// Execution model (Options::engine_mode):
//
//   * Deterministic — every shard on one SimEngine lane; operations overlap
//     in *simulated* time, runs are bit-reproducible for a fixed seed, and
//     scale-out across OS threads uses one service instance per thread (the
//     pre-engine behavior, unchanged).
//   * Parallel — a ParallelEngine with one worker event loop per shard
//     group; client calls are thread-safe, callbacks fire on the owning
//     shard's lane, and throughput scales with lanes.  Runs are not
//     reproducible (OS scheduling interleaves lanes); correctness is
//     checked per shard against the recorded History with the existing
//     atomicity/freshness verifiers — each shard's history uses its own
//     lane's monotonic clock, which is exactly the per-domain premise those
//     checkers already have.
//
// Coalescing stays linearizable in both modes because an absorbed put
// orders immediately before the surviving same-key write and no read ever
// observes its value.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "codes/factory.h"
#include "common/rng.h"
#include "common/slice.h"
#include "common/status.h"
#include "lds/cluster.h"
#include "lds/cluster_base.h"
#include "net/engine.h"
#include "storage/manifest.h"
#include "store/metrics.h"
#include "store/repair_scheduler.h"
#include "store/shard_router.h"

namespace lds::member {
class Coordinator;  // member/coordinator.h: the head's view-change driver
class Fabric;       // member/fabric.h: per-process membership runtime
struct View;        // member/view.h: epoch + node->process placement
}  // namespace lds::member

namespace lds::store {

class RemoteServer;  // store/remote.h: serves remote store::Clients over TCP

enum class ShardProtocol { Lds, Abd, Cas };

const char* protocol_name(ShardProtocol p);

/// Per-shard backend choice: protocol, L2 erasure code (LDS only, built via
/// codes::factory inside LdsConfig), and geometry.
struct ShardBackend {
  ShardProtocol protocol = ShardProtocol::Lds;
  codes::BackendKind code = codes::BackendKind::PmMbr;
  std::size_t n1 = 6, f1 = 1, n2 = 8, f2 = 2;  ///< LDS geometry
  std::size_t n = 9, f = 2;                    ///< ABD / CAS geometry
};

struct StoreOptions {
  std::size_t shards = 4;
  /// Client pool per shard: writers bound batch-dispatch concurrency,
  /// readers bound concurrent gets.
  std::size_t writers_per_shard = 4;
  std::size_t readers_per_shard = 4;
  /// Backend for every shard, unless overridden per shard index.
  ShardBackend backend;
  std::vector<ShardBackend> shard_overrides;
  /// Put coalescing window in simulated time; 0 dispatches immediately.
  double batch_window = 0.5;
  /// Flush an open window early once this many puts are queued.
  std::size_t max_batch = 32;
  /// Admission limit: reject puts while a shard has this many in flight.
  std::size_t admission_limit = 1024;
  std::size_t vnodes = 64;
  bool exponential_latency = false;
  double tau1 = 1.0, tau0 = 1.0, tau2 = 3.0;
  std::uint64_t seed = 1;
  /// Execution engine (see net/engine.h): Deterministic = one simulated
  /// time base, bit-reproducible; Parallel = one worker event loop per
  /// shard group, wall-clock scale-out.
  net::EngineMode engine_mode = net::EngineMode::Deterministic;
  /// Parallel lanes; 0 = min(shards, hardware threads).
  std::size_t engine_threads = 0;
  /// Regular-consistency readers per LDS shard (ReadMode::Regular pool);
  /// 0 = regular reads are not provisioned and return InvalidArgument.
  std::size_t regular_readers_per_shard = 0;
  /// Background repair (LDS shards): heartbeat detection + regeneration.
  /// In Parallel mode the scheduler's budget is scoped per lane.
  bool enable_repair = true;
  RepairScheduler::Options repair;
  /// Durable mode: when non-empty, every shard persists under
  /// `<data_dir>/shard-<s>` — its LdsCluster opens per-L2 WAL+checkpoint
  /// backends and recovers on construction, and the shard's key→ObjectId
  /// intern table is persisted in an always-synced KeyLog (record ordinal =
  /// ObjectId), so keys keep their objects across restarts.  A top-level
  /// MANIFEST pins shards/vnodes (routing stability); a mismatched restart
  /// aborts rather than scatter keys.  Requires every shard to be LDS.
  std::string data_dir;
  storage::DurabilityPolicy durability;
  /// Multi-process membership (member subsystem): a LISTENING Fabric whose
  /// view may place this service's L1/L2 servers in other processes.  The
  /// service installs the fabric's RemoteTransport on its shard cluster,
  /// applies view changes (placement surgery on the shard lane) and owns a
  /// member::Coordinator driving joins and moves.  Requires Parallel mode,
  /// exactly one LDS shard, no data_dir (remote placement is RAM-only for
  /// now); the repair scheduler is disabled (reconfiguration state-sync
  /// replaces it).  The fabric must outlive the service; the service's
  /// destructor stops it.
  member::Fabric* fabric = nullptr;
};

/// Per-read consistency choice.  Atomic is the paper's LDS (linearizable);
/// Regular skips the put-tag write-back (Section VI extension, LDS shards
/// only) — one round trip fewer, but reads are no longer mutually monotone,
/// so histories containing regular reads must be verified with
/// History::check_regularity, not check_atomicity.  TagOnly (LDS shards
/// only) runs just the get-committed-tag quorum phase and returns the
/// committed tag with an EMPTY value: the client read cache's validation
/// round.  The returned tag is >= the tag of any operation that completed
/// before the round started, so "cached version == returned tag" certifies
/// the cached value is still current.
enum class ReadMode : std::uint8_t { Atomic, Regular, TagOnly };

/// Outcome of a put.  `status` is the verdict (see common/status.h for the
/// taxonomy); `tag` is the raw token behind the typed `version`.
struct PutResult {
  Status status;
  Tag tag;
  Version version;
  /// True when this put was absorbed by a newer same-key put of the same
  /// batch window: the write is durable, but `version` is the SURVIVOR's —
  /// a read of the key returns the survivor's value, not this one.  The
  /// remote bench uses this to record only linearization-visible writes.
  bool coalesced = false;

  PutResult() = default;
  static PutResult success(Tag t) {
    PutResult r;
    r.tag = t;
    r.version = Version(t);
    return r;
  }
  static PutResult failure(Status s) {
    PutResult r;
    r.status = std::move(s);
    return r;
  }
};

/// Outcome of a get.  The value is a shared handle onto the buffer the
/// protocol delivered — no copy between the cluster callback and the caller.
struct GetResult {
  Status status;
  Tag tag;
  Version version;
  Value value;

  GetResult() = default;
  static GetResult success(Tag t, Value v) {
    GetResult r;
    r.tag = t;
    r.version = Version(t);
    r.value = std::move(v);
    return r;
  }
  static GetResult failure(Status s) {
    GetResult r;
    r.status = std::move(s);
    return r;
  }
};

/// One entry of a multi_put.
struct KeyValue {
  std::string key;
  Value value;
};

class StoreService {
 public:
  using PutCallback = std::function<void(const PutResult&)>;
  using GetCallback = std::function<void(const GetResult&)>;

  explicit StoreService(StoreOptions opt);
  ~StoreService();

  /// The top-level storage manifest a durable service pins at
  /// `opt.data_dir/MANIFEST`.  Exposed so a daemon can pre-check an
  /// existing data_dir (verify_or_write) and turn a mismatch into a clean
  /// InvalidArgument exit instead of the constructor's abort.
  static storage::Manifest storage_manifest(const StoreOptions& opt);

  // ---- async client API -----------------------------------------------------
  // Deterministic mode: call from the owning thread; callbacks fire inline
  // while the simulator runs.  Parallel mode: thread-safe; callbacks fire on
  // the destination shard's engine lane.  store::Client (store/client.h) is
  // the documented entry point layered on these: it adds per-op deadlines,
  // retry policies and Status-returning sync wrappers.
  /// Queue a put; the callback fires with the new Version when the write —
  /// possibly coalesced with later same-key puts of the same batch — is
  /// durable, or immediately with AdmissionReject when over the limit.
  void put(const std::string& key, Value value, PutCallback cb = {});
  /// Read a key.  Keys never written on their shard complete immediately
  /// with NotFound (and are NOT interned, so probing reads cannot grow
  /// per-shard state).  ReadMode::Regular requires an LDS shard and
  /// regular_readers_per_shard > 0, else InvalidArgument.
  /// ReadMode::TagOnly requires an LDS shard; it completes with the
  /// committed tag and an empty Value (the cache validation round).
  void get(const std::string& key, GetCallback cb = {},
           ReadMode mode = ReadMode::Atomic);
  /// Conditional put: commits iff the key's current version equals
  /// `expected` (optimistic concurrency — tags strictly increase, so there
  /// is no ABA).  Mismatch completes with Aborted carrying the observed
  /// version; like any CAS it may also abort *spuriously* when a same-key
  /// write is in flight or committed during the verification read (the
  /// guard that prevents a verified-stale commit from silently overwriting
  /// an intervening write) — callers treat Aborted as "re-read and retry".
  /// A never-written key verifies against Version(kTag0).  Bypasses the
  /// coalescing window: a conditional put is never absorbed and always
  /// gets its own tag.
  void put_if(const std::string& key, Value value, Version expected,
              PutCallback cb = {});

  // ---- sync wrappers --------------------------------------------------------
  // Deterministic: drive the simulator until completion.  Parallel: block
  // the calling thread until the lanes complete the operation.
  PutResult put_sync(const std::string& key, Value value);
  GetResult get_sync(const std::string& key,
                     ReadMode mode = ReadMode::Atomic);

  // ---- remote serving --------------------------------------------------------
  /// Serve remote store::Clients (store/remote.h) on 127.0.0.1:`port`
  /// (0 = ephemeral; read back with listen_port()).  Requires
  /// EngineMode::Parallel — the request handler submits from the transport's
  /// event-loop thread, which only the parallel client API tolerates —
  /// else InvalidArgument.  InvalidArgument while already listening;
  /// listen() after stop_listening() starts a fresh server.  Not
  /// deterministic (see net/transport.h).
  ///
  /// ListenOptions tunes the serving transport without dragging
  /// net/transport.h into this header; net_threads maps to
  /// TcpTransport::Options::progress_threads (connections shard across
  /// them round-robin).
  struct ListenOptions {
    std::size_t net_threads = 1;
  };
  Status listen(std::uint16_t port);
  Status listen(std::uint16_t port, ListenOptions lo);
  /// The bound port after a successful listen(); 0 when not listening.
  std::uint16_t listen_port() const;
  /// Drop every remote connection and stop accepting; in-flight operations
  /// complete inside the service, their replies are dropped.  Idempotent.
  void stop_listening();

  // ---- operations & introspection -------------------------------------------
  net::Engine& engine() { return *engine_; }
  bool parallel() const { return parallel_; }
  /// Lane-0 simulator (Deterministic mode's single time base).  Under a
  /// parallel engine, prefer engine().lane_sim(shard_lane(s)) and the lane
  /// discipline documented in net/engine.h.
  net::Simulator& sim() { return engine_->lane_sim(0); }
  std::size_t shard_lane(std::size_t s) const { return shards_.at(s)->lane; }
  /// Const: the service's shard set is fixed at construction, so letting
  /// callers mutate ring membership would desync routing from shards_.
  const ShardRouter& router() const { return router_; }
  MetricsRegistry& metrics() { return metrics_; }
  RepairScheduler* repair() { return repair_.get(); }
  const StoreOptions& options() const { return opt_; }
  std::size_t num_shards() const { return shards_.size(); }
  ShardProtocol shard_protocol(std::size_t s) const {
    return shards_.at(s)->spec.protocol;
  }
  /// The shard's LDS cluster (nullptr for ABD/CAS shards).  Quiescent-lane
  /// introspection only (storage meters, cost accounting, direct crash
  /// injection in tests).
  core::LdsCluster* shard_lds(std::size_t s) { return shards_.at(s)->lds; }
  /// The shard's recorded operation history (for the linearizability
  /// checkers); absorbed puts never reach it by design.  Stable only while
  /// the shard's lane is quiescent (e.g. after quiesce()).
  const core::History& shard_history(std::size_t s) const {
    return shards_.at(s)->cluster->history();
  }
  /// Keys currently interned on one shard (quiescent lanes only).
  std::size_t shard_objects(std::size_t s) const {
    return shards_.at(s)->objects.size();
  }
  /// Client ops accepted but not yet called back.
  std::size_t outstanding() const {
    return outstanding_.load(std::memory_order_acquire);
  }

  /// Inject one server crash on `shard` within its failure budget (L1/L2
  /// for LDS, servers for ABD/CAS).  Crashed LDS L2 servers are detected
  /// and rebuilt by the repair scheduler when enabled, returning their
  /// budget slot.  Returns false when the budget is exhausted.  In Parallel
  /// mode this blocks on the shard's lane; never call it from a callback
  /// (use inject_crash_async there).
  bool inject_crash(std::size_t shard, Rng& rng);
  /// Fire-and-forget variant safe from any thread or lane: runs the
  /// injection on the shard's lane with a derived Rng(seed); `done` (may be
  /// null) fires on that lane with the budget verdict.
  void inject_crash_async(std::size_t shard, std::uint64_t seed,
                          std::function<void(bool)> done = {});

  // ---- membership (Options::fabric) ------------------------------------------
  /// The coordinator driving joins/moves; null without a fabric.
  member::Coordinator* coordinator() { return coordinator_.get(); }
  /// Admin entry point behind RemoteReconfig (store/remote.h): op 0 reports
  /// the epoch, op 1 moves `l2_indices` to the member process at host:port
  /// (empty host = back here).  `done(status, epoch)` fires on the
  /// coordinator's worker thread once state-sync completed.
  void admin_reconfig(std::uint8_t op, std::vector<std::uint32_t> l2_indices,
                      std::string host, std::uint16_t port,
                      std::function<void(Status, std::uint64_t)> done);
  /// View-change quiesce seams (the coordinator's hooks; public for tests).
  /// pause stops handing queued ops to cluster clients — accepted ops keep
  /// queueing; drain waits until every DISPATCHED op completed (all client
  /// pools idle); resume re-opens dispatch and pumps the queues.
  void pause_dispatch();
  bool drain_dispatched(double timeout_s);
  void resume_dispatch();

  /// True when no client op or queued injection is in flight and (with
  /// repair enabled) every injected L2 crash has been repaired.  Safe to
  /// poll from the driving thread in Parallel mode.
  bool idle() const;
  /// Run the engine until idle() — and, when given, until the caller's
  /// `drained` predicate also holds (a closed-loop driver passes "no more
  /// ops queued", since outstanding() is momentarily zero between its ops) —
  /// then stop heartbeats and drain the remaining events.  Aborts if the
  /// execution stalls with work still pending.  In Parallel mode `drained`
  /// is polled from this thread and must read only thread-safe state.
  void quiesce(const std::function<bool()>& drained = {});

 private:
  struct PendingPut {
    ObjectId obj = 0;
    Value value;                            ///< shared handle, never copied
    std::vector<PutCallback> cbs;           ///< surviving + absorbed puts
    std::vector<net::SimTime> submitted;    ///< one per callback
  };
  struct PendingGet {
    ObjectId obj = 0;
    GetCallback cb;
    net::SimTime submitted = 0;
    ReadMode mode = ReadMode::Atomic;
    /// put_if verification read: the op's outstanding/admission slots and
    /// engine hold belong to the enclosing conditional put, so completion
    /// must not touch them (the final verdict does).
    bool internal = false;
  };

  struct Shard {
    ShardBackend spec;
    std::size_t lane = 0;               ///< engine lane this shard runs on
    net::Simulator* sim = nullptr;      ///< == engine->lane_sim(lane)
    std::unique_ptr<core::Cluster> cluster;
    /// The same cluster, typed, on LDS shards (null otherwise): only for
    /// LDS-only features (TagOnly/Regular reads, repair, fabric surgery,
    /// per-layer crash counters).
    core::LdsCluster* lds = nullptr;
    /// Crash budget over the cluster's fault layers; its per-layer down
    /// counts are atomic so the idle() poll can read them cross-thread.
    core::FailureBudget budget;
    /// Durable mode: persisted key→ObjectId bindings (null in RAM mode).
    std::unique_ptr<storage::KeyLog> keylog;
    std::unordered_map<std::string, ObjectId> objects;
    /// Conditional-put guards (lane-local): cluster writes currently in the
    /// window / queue / dispatched per object, and the newest tag a
    /// completed put committed.  put_if aborts when either shows a write
    /// the verification read may not have observed.
    std::unordered_map<ObjectId, std::size_t> writes_in_flight;
    std::unordered_map<ObjectId, Tag> last_committed;
    // Batching state (lane-local).
    std::vector<PendingPut> window;  ///< open batch (coalesced as it fills)
    std::size_t window_puts = 0;     ///< puts in the window incl. absorbed
    bool window_open = false;
    /// Bumped on every flush so a stale timer (its window already flushed
    /// early by max_batch) cannot flush the next window prematurely.
    std::uint64_t window_epoch = 0;
    std::deque<PendingPut> put_queue;  ///< flushed, awaiting a writer
    std::deque<PendingGet> get_queue;
    /// ReadMode::Regular runs on its own reader pool + queue so a burst of
    /// regular reads never starves atomic ones (and vice versa).
    std::deque<PendingGet> regular_get_queue;
    std::vector<std::size_t> free_writers;
    std::vector<std::size_t> free_readers;
    std::vector<std::size_t> free_regular_readers;
    /// Admission accounting; atomic because admission happens on the
    /// submitting thread while completion happens on the lane.
    std::atomic<std::size_t> puts_in_flight{0};
  };

  /// Bind `key` to a shard-local ObjectId, persisting the binding first in
  /// durable mode.  Unavailable when the keylog cannot persist it (poisoned
  /// disk): a put that cannot durably name its object must not proceed.
  Result<ObjectId> intern(Shard& sh, std::size_t shard_idx,
                          const std::string& key);
  void enqueue_put(std::size_t shard_idx, const std::string& key, Value value,
                   PutCallback cb);
  void enqueue_get(std::size_t shard_idx, const std::string& key,
                   GetCallback cb, ReadMode mode);
  void enqueue_put_if(std::size_t shard_idx, const std::string& key,
                      Value value, Version expected, PutCallback cb);
  void flush_window(std::size_t shard_idx);
  void pump_puts(std::size_t shard_idx);
  void pump_gets(std::size_t shard_idx);
  void dispatch_put(std::size_t shard_idx, std::size_t writer, PendingPut p);
  void dispatch_get(std::size_t shard_idx, std::size_t reader, PendingGet g);
  /// Release one admission slot + the outstanding gauge and complete `cb`
  /// with `r` (gauges drop before the callback, as in dispatch_put).
  void finish_put(std::size_t shard_idx, const PutCallback& cb,
                  const PutResult& r);
  bool inject_crash_on_lane(std::size_t shard, Rng& rng);
  /// Membership plumbing (Options::fabric; all act on shard 0).
  void apply_member_view(const member::View& prev, const member::View& next);
  std::vector<ObjectId> member_objects();
  /// Every ObjectId interned on `sh` (on its lane).
  static std::vector<ObjectId> object_ids(const Shard& sh);

  StoreOptions opt_;
  bool parallel_ = false;
  std::unique_ptr<net::Engine> engine_;
  MetricsRegistry metrics_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<RepairScheduler> repair_;
  std::unique_ptr<RemoteServer> remote_;
  /// Stopped servers kept alive until the engine drains: reply callbacks of
  /// requests still completing in the service reference them (see listen()).
  std::vector<std::unique_ptr<RemoteServer>> retired_remotes_;
  std::unique_ptr<member::Coordinator> coordinator_;
  /// View-change quiesce: pump_puts/pump_gets stop dispatching while set
  /// (checked on the shard lanes; accepted ops keep queueing).
  std::atomic<bool> dispatch_paused_{false};
  std::atomic<std::size_t> outstanding_{0};
  std::atomic<std::size_t> pending_injections_{0};
};

}  // namespace lds::store
