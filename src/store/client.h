// store::Client — the documented client entry point of the LDS store.
//
// A thin facade over StoreService that adds the cross-cutting per-operation
// concerns the service itself keeps out of its hot path:
//
//   * OpOptions::deadline — an engine-clock budget per logical operation.
//     The client arms a timer ON THE KEY'S SHARD LANE (Engine::after_here),
//     so expiry is lane-safe in both Deterministic and Parallel modes: the
//     timer, the completion callback and any retry all run on one lane and
//     race only through the op's settled flag.  When the timer wins, the
//     caller gets DeadlineExceeded; the underlying protocol op (if any) is
//     left to finish and its late result is dropped.
//   * OpOptions::retry — bounded retries with exponential backoff for
//     transient AdmissionReject failures, scheduled in engine time so a
//     deterministic run replays bit-identically.
//   * OpOptions::read_mode — Atomic (default) or Regular consistency
//     (Section VI extension; LDS shards with a provisioned regular pool).
//   * Typed versions — puts return the Version they committed; gets return
//     the Version they observed; put_if_version commits only against an
//     expected Version (Aborted on mismatch).
//   * Status-returning sync wrappers — Result<Version> / Result<
//     VersionedValue> in the RocksDB Status idiom (common/status.h).
//   * Read cache (opt-in, CacheOptions) — atomic-mode gets consult an LRU
//     of (key -> Version, zero-copy Value).  A hit costs one TAG-ONLY
//     validation round (ReadMode::TagOnly: the LDS committed-tag quorum
//     phase, no value bytes on the wire); version match serves the cached
//     Value, mismatch falls through to a full get and refreshes the entry.
//     The client's own puts update the entry (or invalidate it when the put
//     coalesced or a put_if_version aborted).  Hits stay linearizable:
//     the validation tag is >= any operation that completed before the
//     round began.  CacheOptions::ttl > 0 additionally serves entries with
//     NO round until the ttl expires — opt-in bounded staleness (reads may
//     lag other clients' writes by up to ttl; this client's OWN writes
//     still invalidate/update immediately), default off.  Cache counters
//     (cache_hits/misses/validation_rounds/invalidations,
//     wire_value_bytes_saved, ...) land in metrics().
//
// Remote-connect mode (Client::connect): the same API over a pool of TCP
// connections to a served StoreService (store/remote.h, tools/lds_served.cpp).
// Every entry point, in both modes, runs one nonblocking op core; the modes
// differ only where leaving the address space forces it.
// OpOptions::deadline and RetryPolicy backoffs are wall-clock SECONDS
// (engine time does not exist on this side of the socket), and nothing is
// deterministic.  put/get/put_if_version/multi_* run the core, wait for it
// on one cell and invoke their callback on the calling thread before they
// return.  ReadMode still applies (the mode rides the request).  multi_get/
// multi_put pipeline their sub-operations concurrently across the pool — a
// batch costs one round trip — and the completion-queue API below
// (async_put/async_get/async_put_if + CompletionQueue) submits without
// blocking at all: completions surface on the transport's progress threads,
// deadlines on its timer thread, retries without occupying a caller thread.
//
// Values are zero-copy handles end to end: the buffer a caller puts is the
// buffer the batch window queues, the writer fans out, and the L1 servers
// store (common/slice.h).
//
// Thread-safety follows the service: Deterministic mode is single-threaded
// with inline callbacks; Parallel mode accepts calls from any thread and
// fires callbacks on the owning shard's lane.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/transport.h"
#include "store/cache.h"
#include "store/metrics.h"
#include "store/store_service.h"

namespace lds::store {

class RemoteSession;  // store/remote.h

/// Bounded retry with exponential backoff, in engine-time units.  Only
/// transient failures retry (today: AdmissionReject); semantic outcomes
/// (NotFound, Aborted) and expired deadlines never do.
struct RetryPolicy {
  std::size_t max_attempts = 1;  ///< total attempts; 1 = no retry
  double backoff = 0.5;          ///< delay before the first retry
  double backoff_multiplier = 2.0;

  bool retriable(const Status& s) const {
    return s.is(StatusCode::kAdmissionReject);
  }
};

/// Per-operation options.  Defaults mean: no deadline, no retry, atomic
/// reads — i.e. exactly the raw StoreService behavior.
struct OpOptions {
  /// Engine-clock budget for the whole operation, every retry and cache
  /// validation round included; 0 = unbounded.  Expiry completes the op
  /// with DeadlineExceeded.
  double deadline = 0;
  RetryPolicy retry;
  ReadMode read_mode = ReadMode::Atomic;
};

/// A get's payload with the version that produced it.
struct VersionedValue {
  Version version;
  Value value;
};

/// One finished async operation, retrieved from a CompletionQueue.  `kind`
/// selects which result field is meaningful.
struct Completion {
  enum class Kind : std::uint8_t { Put, Get, PutIf };
  std::uint64_t handle = 0;  ///< what async_put/async_get returned
  Kind kind = Kind::Put;
  std::string key;
  PutResult put;  ///< Kind::Put / Kind::PutIf
  GetResult get;  ///< Kind::Get
};

/// Where async operations complete.  Producers are the client's transport
/// progress threads; any number of consumer threads may poll/wait/drain.
/// An operation is OUTSTANDING from submission until its completion event
/// is retrieved — so `while (cq.outstanding() > 0) cq.wait(&c);` drains a
/// pipeline exactly.
class CompletionQueue {
 public:
  /// Ready events plus operations still in flight.
  std::size_t outstanding() const {
    std::lock_guard<std::mutex> lk(mu_);
    return inflight_ + ready_.size();
  }

  /// Nonblocking: pop one ready completion.  False when none is ready.
  bool poll(Completion* out) {
    std::lock_guard<std::mutex> lk(mu_);
    return pop_locked(out);
  }

  /// Block until a completion is ready and pop it.  `timeout_s` bounds the
  /// wait (0 = unbounded).  Returns false on timeout — or immediately when
  /// nothing is outstanding (a wait with no producers cannot complete).
  bool wait(Completion* out, double timeout_s = 0) {
    std::unique_lock<std::mutex> lk(mu_);
    const auto ready = [&] { return !ready_.empty() || inflight_ == 0; };
    if (timeout_s > 0) {
      if (!cv_.wait_for(lk, std::chrono::duration<double>(timeout_s), ready)) {
        return false;
      }
    } else {
      cv_.wait(lk, ready);
    }
    return pop_locked(out);
  }

  /// Nonblocking: append every ready completion to `*out`; returns how many.
  std::size_t drain(std::vector<Completion>* out) {
    std::lock_guard<std::mutex> lk(mu_);
    const std::size_t n = ready_.size();
    for (auto& c : ready_) out->push_back(std::move(c));
    ready_.clear();
    return n;
  }

 private:
  friend class Client;

  void start() {
    std::lock_guard<std::mutex> lk(mu_);
    ++inflight_;
  }
  void push(Completion c) {
    std::lock_guard<std::mutex> lk(mu_);
    --inflight_;
    ready_.push_back(std::move(c));
    cv_.notify_all();
  }
  bool pop_locked(Completion* out) {
    if (ready_.empty()) return false;
    *out = std::move(ready_.front());
    ready_.pop_front();
    return true;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Completion> ready_;
  std::size_t inflight_ = 0;
};

class Client {
 public:
  using PutCallback = StoreService::PutCallback;
  using GetCallback = StoreService::GetCallback;
  using MultiGetCallback = std::function<void(std::vector<GetResult>)>;
  using MultiPutCallback = std::function<void(std::vector<PutResult>)>;

  /// The service must outlive the client.  `cache` opts into the client-
  /// side read cache (default: disabled — byte-identical to the uncached
  /// client).
  explicit Client(StoreService& service, CacheOptions cache = {});
  ~Client();

  /// Remote-connect tuning.  Defaults reproduce the classic single-
  /// connection client.
  struct ConnectOptions {
    /// TCP connections in the pool; async operations and multi_get/
    /// multi_put fan out across them round-robin.
    std::size_t connections = 1;
    /// Per-connection transport knobs (progress threads, recv pool,
    /// backlog watermarks, ... — see net::TcpTransport::Options).
    net::TcpTransport::Options transport;
    /// Client-side read cache (see the header note); default disabled.
    CacheOptions cache;
  };

  /// Remote-connect mode: a client whose operations travel over TCP to a
  /// served StoreService at host:port (see the header note for the semantic
  /// differences).  Returns nullptr on connection failure, with the reason
  /// in `*status` when non-null.
  static std::unique_ptr<Client> connect(const std::string& host,
                                         std::uint16_t port,
                                         Status* status = nullptr);
  static std::unique_ptr<Client> connect(const std::string& host,
                                         std::uint16_t port, Status* status,
                                         ConnectOptions copts);
  bool remote() const { return !remotes_.empty(); }

  // ---- async API ------------------------------------------------------------
  void put(const std::string& key, Value value, PutCallback cb,
           OpOptions opts = {});
  void get(const std::string& key, GetCallback cb, OpOptions opts = {});
  /// Conditional put: commits iff the key's current version equals
  /// `expected` (Aborted otherwise, carrying the observed version).  A
  /// never-written key matches Version(kTag0) — "create if absent".
  void put_if_version(const std::string& key, Value value, Version expected,
                      PutCallback cb, OpOptions opts = {});
  /// Scatter-gather over shards; results in input order; an empty input
  /// fires the callback once with an empty vector.  `opts` apply to each
  /// sub-operation independently.
  void multi_get(std::vector<std::string> keys, MultiGetCallback cb,
                 OpOptions opts = {});
  void multi_put(std::vector<KeyValue> entries, MultiPutCallback cb,
                 OpOptions opts = {});

  // ---- completion-queue API --------------------------------------------------
  // Submit without blocking; the result arrives in completions() (or the
  // given callback) once the operation finishes.  Remote mode: the request
  // is pipelined onto a pool connection and the submitting thread returns
  // as soon as the frame is queued (it may block only at the transport's
  // backlog watermark).  Local mode: rides the normal lane-async path.
  // OpOptions::deadline and retry apply per operation; expiry/cancellation
  // complete the op with DeadlineExceeded/Unavailable like the sync API.

  /// The queue async completions land on (when submitted without callback).
  CompletionQueue& completions() { return cq_; }

  std::uint64_t async_put(const std::string& key, Value value,
                          OpOptions opts = {});
  std::uint64_t async_get(const std::string& key, OpOptions opts = {});
  std::uint64_t async_put_if(const std::string& key, Value value,
                             Version expected, OpOptions opts = {});

  /// Callback-style variants: `cb` fires on a transport progress thread
  /// (remote) or the key's shard lane (local) instead of the queue.
  std::uint64_t async_put(const std::string& key, Value value, PutCallback cb,
                          OpOptions opts = {});
  std::uint64_t async_get(const std::string& key, GetCallback cb,
                          OpOptions opts = {});
  std::uint64_t async_put_if(const std::string& key, Value value,
                             Version expected, PutCallback cb,
                             OpOptions opts = {});

  // ---- sync wrappers (Status idiom) -----------------------------------------
  // Deterministic mode drives the simulator until the op settles; Parallel
  // mode blocks the calling thread.
  Result<Version> put_sync(const std::string& key, Value value,
                           OpOptions opts = {});
  Result<VersionedValue> get_sync(const std::string& key, OpOptions opts = {});
  Result<Version> put_if_version_sync(const std::string& key, Value value,
                                      Version expected, OpOptions opts = {});
  std::vector<GetResult> multi_get_sync(std::vector<std::string> keys,
                                        OpOptions opts = {});
  std::vector<PutResult> multi_put_sync(std::vector<KeyValue> entries,
                                        OpOptions opts = {});

  // ---- lifecycle ------------------------------------------------------------
  /// After close(), every new operation completes immediately with
  /// Unavailable.  Remote mode also drops the pool's connections, which
  /// CANCELS in-flight async operations: each pending completion is
  /// delivered with Unavailable (local in-flight operations are
  /// unaffected).  Idempotent, thread-safe.
  void close();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Local mode only (remote clients have no in-process service).
  StoreService& service() { return *svc_; }

  // ---- read cache -----------------------------------------------------------
  /// Client-side counters: cache_hits, cache_ttl_hits, cache_misses,
  /// cache_validation_rounds, cache_stale_validations, cache_invalidations,
  /// cache_disabled, wire_value_bytes_saved.  Empty registry when the cache
  /// was never enabled.
  const MetricsRegistry& metrics() const { return client_metrics_; }
  bool cache_enabled() const { return cache_ != nullptr; }
  /// Entries currently cached (0 when disabled).
  std::size_t cache_size() const { return cache_ ? cache_->size() : 0; }

 private:
  /// One settle-once operation, local or remote (see client.cpp).
  template <typename R>
  struct Op;

  Client(std::vector<std::unique_ptr<RemoteSession>> remotes,
         CacheOptions cache);

  std::size_t lane_of_key(const std::string& key) const {
    return svc_->shard_lane(svc_->router().shard_of(key));
  }
  /// Round-robin over the connection pool (remote mode only).
  RemoteSession& pick();

  /// The op cores: every entry point runs one of these, in both modes.
  /// Nonblocking; `cb` (may be null) fires exactly once.
  void submit_put(const std::string& key, Value value, PutCallback cb,
                  OpOptions opts);
  void submit_get(const std::string& key, GetCallback cb, OpOptions opts);
  void submit_put_if(const std::string& key, Value value, Version expected,
                     PutCallback cb, OpOptions opts);
  /// Start `op` and run `body` in its context.  Local: on the key's shard
  /// lane, after arming the op's one deadline timer there.  Remote: on the
  /// calling thread, with the op pinned to one pooled connection and its
  /// wall-clock budget started.
  template <typename R, typename Body>
  void begin(const std::string& key, std::shared_ptr<Op<R>> op, Body body);
  /// One attempt of a put or put_if_version (the op's `req`).
  void attempt_put(const std::shared_ptr<Op<PutResult>>& op);
  /// Settle the op, or retry a transient failure after its backoff (lane
  /// timer locally, session timer remotely, so no caller thread sleeps).
  void settle_attempt(const std::shared_ptr<Op<PutResult>>& op,
                      const PutResult& r);
  /// One read round of `op` in `mode`: `then` sees its result unless the op
  /// already settled.  Local rounds run under the op's one lane timer;
  /// remote rounds get what is left of the op's budget.
  void read_round(const std::string& key,
                  const std::shared_ptr<Op<GetResult>>& op, ReadMode mode,
                  GetCallback then);

  // ---- read-cache internals (all no-ops when cache_ is null) ----------------
  /// Whether this (already prechecked) get should consult the cache.
  bool cache_applies(ReadMode mode) const {
    return cache_ != nullptr && mode == ReadMode::Atomic &&
           cache_usable_.load(std::memory_order_acquire);
  }
  /// Cache-consulting get: TTL hit / validation round / fill round, all
  /// under one deadline.
  void cached_get(const std::string& key, std::shared_ptr<Op<GetResult>> op);
  /// Full read round that refreshes the cache entry on success.
  void fill_round(const std::string& key,
                  const std::shared_ptr<Op<GetResult>>& op);
  /// Fold a put outcome into the cache (update on commit, invalidate on
  /// coalesce/abort) and forward to `cb`.  Identity when the cache is off.
  PutCallback wrap_put_cb(const std::string& key, const Value& value,
                          PutCallback cb);
  /// Freshness clock: engine time under the deterministic engine (so TTL
  /// tests replay bit-identically), wall clock otherwise.
  double cache_now() const;

  StoreService* svc_ = nullptr;  ///< local mode
  std::vector<std::unique_ptr<RemoteSession>> remotes_;  ///< remote pool
  std::atomic<std::size_t> rr_{0};  ///< round-robin cursor over remotes_
  CompletionQueue cq_;
  std::atomic<std::uint64_t> next_handle_{1};
  std::atomic<bool> closed_{false};
  std::unique_ptr<ReadCache> cache_;  ///< null = cache disabled
  /// Cleared permanently when the service answers a tag-only round with
  /// InvalidArgument (non-LDS shards): every later get takes the raw path.
  std::atomic<bool> cache_usable_{true};
  MetricsRegistry client_metrics_;
};

}  // namespace lds::store
