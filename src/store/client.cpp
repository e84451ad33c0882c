#include "store/client.h"

#include <algorithm>
#include <chrono>

#include "common/assert.h"
#include "common/format.h"
#include "store/async_util.h"
#include "store/remote.h"

namespace lds::store {

namespace {

std::string deadline_msg(double deadline) {
  return "deadline " + fmt_double(deadline) + " expired";
}

/// The sync wait's engine: the deterministic engine spins its simulator;
/// null (remote mode) blocks on the cell, as Parallel lanes do.
net::Engine* engine_of(StoreService* svc) {
  return svc != nullptr ? &svc->engine() : nullptr;
}

/// The callback contract of put/get/put_if_version/multi_*: local mode
/// hands `cb` to the core, so it fires where the op completes; remote mode
/// runs the core to completion on one cell and fires `cb` on the calling
/// thread before returning.
template <typename R, typename Cb, typename Core>
void with_callback(bool remote, Cb cb, Core&& core) {
  if (!remote) {
    core(std::move(cb));
    return;
  }
  R r = detail::run_op_sync<R>(nullptr, "remote op", core);
  if (cb) cb(std::move(r));
}

}  // namespace

// ---- lifecycle / remote mode ------------------------------------------------

Client::Client(StoreService& service, CacheOptions cache) : svc_(&service) {
  if (cache.enabled && cache.capacity > 0) {
    cache_ = std::make_unique<ReadCache>(cache);
  }
}

Client::Client(std::vector<std::unique_ptr<RemoteSession>> remotes,
               CacheOptions cache)
    : remotes_(std::move(remotes)) {
  if (cache.enabled && cache.capacity > 0) {
    cache_ = std::make_unique<ReadCache>(cache);
  }
}

Client::~Client() {
  // Close before members die: cancelled async completions push into cq_,
  // which outlives the sessions only while `this` is still whole.
  close();
}

void Client::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  // Dropping the pool fails every in-flight remote op with Unavailable;
  // their completions drain through cq_ / their callbacks as usual.
  for (auto& s : remotes_) s->close();
}

std::unique_ptr<Client> Client::connect(const std::string& host,
                                        std::uint16_t port, Status* status) {
  return connect(host, port, status, ConnectOptions());
}

std::unique_ptr<Client> Client::connect(const std::string& host,
                                        std::uint16_t port, Status* status,
                                        ConnectOptions copts) {
  if (copts.connections == 0) copts.connections = 1;
  std::vector<std::unique_ptr<RemoteSession>> sessions;
  sessions.reserve(copts.connections);
  for (std::size_t i = 0; i < copts.connections; ++i) {
    auto s = RemoteSession::open(host, port, status, copts.transport);
    if (s == nullptr) return nullptr;  // *status carries the reason
    sessions.push_back(std::move(s));
  }
  return std::unique_ptr<Client>(new Client(std::move(sessions), copts.cache));
}

RemoteSession& Client::pick() {
  return *remotes_[rr_.fetch_add(1, std::memory_order_relaxed) %
                   remotes_.size()];
}

// ---- the op core ------------------------------------------------------------

/// One logical operation, local or remote.  It settles exactly once — with
/// its result, its deadline or a cancellation, whichever comes first — and
/// only that first settle reaches `cb`.  Local ops run every step after the
/// lane hop on the key's shard lane; a remote op's steps run on the caller,
/// the transport's progress and timer threads, or a closing thread, which
/// is why `settled` is atomic.
template <typename R>
struct Client::Op {
  Op(std::function<void(const R&)> done, OpOptions o)
      : cb(std::move(done)), opts(o), backoff(o.retry.backoff) {}

  std::atomic<bool> settled{false};
  std::function<void(const R&)> cb;
  OpOptions opts;
  /// Puts: what every attempt sends (RemotePut or RemotePutIf) — over the
  /// wire in remote mode, to the service in local mode.  The value is a
  /// shared handle, so a retry re-sends a refcount, not a payload copy.
  RemoteBody req;
  std::size_t attempt = 1;  ///< puts: attempts sent so far
  double backoff;           ///< puts: delay before the next retry
  RemoteSession* sess = nullptr;                ///< remote: the op's connection
  std::chrono::steady_clock::time_point start;  ///< remote: budget origin

  bool done() const { return settled.load(std::memory_order_acquire); }
  void finish(const R& r) {
    if (settled.exchange(true, std::memory_order_acq_rel)) return;
    if (cb) cb(r);
  }
  /// The prechecks every op runs once, on the caller's thread.
  bool admitted(bool client_closed, const std::string& key) {
    if (client_closed) {
      finish(R::failure(Status::Unavailable("client closed")));
    } else if (key.empty()) {
      finish(R::failure(Status::InvalidArgument("empty key")));
    }
    return !done();
  }
  /// Remote: the seconds left of the op's wall-clock budget in `*left`
  /// (0 = unbounded).  Settles the op with DeadlineExceeded and returns
  /// false once the budget is spent.
  bool budget(double* left) {
    *left = 0;
    if (opts.deadline <= 0) return true;
    *left = opts.deadline - std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    if (*left > 0) return true;
    expire();
    return false;
  }
  void expire() {
    finish(R::failure(Status::DeadlineExceeded(deadline_msg(opts.deadline))));
  }
};

template <typename R, typename Body>
void Client::begin(const std::string& key, std::shared_ptr<Op<R>> op,
                   Body body) {
  if (remote()) {
    // Every round and retry rides one connection and gets only what is
    // left of one wall-clock budget.
    op->sess = &pick();
    op->start = std::chrono::steady_clock::now();
    body();
    return;
  }
  // Hop to the shard's lane first: the deadline timer must be armed with
  // after_here on the lane whose clock the operation runs against.  It is
  // the op's only timer — it covers every round and retry.
  svc_->engine().post(lane_of_key(key), [this, op = std::move(op),
                                         body = std::move(body)]() mutable {
    if (op->opts.deadline > 0) {
      svc_->engine().after_here(op->opts.deadline, [op] { op->expire(); });
    }
    body();
  });
}

// ---- async submission cores --------------------------------------------------

void Client::submit_put(const std::string& key, Value value, PutCallback cb,
                        OpOptions opts) {
  if (cache_ != nullptr) cb = wrap_put_cb(key, value, std::move(cb));
  auto op = std::make_shared<Op<PutResult>>(std::move(cb), opts);
  if (!op->admitted(closed(), key)) return;
  op->req = RemotePut{key, std::move(value)};
  begin(key, op, [this, op] { attempt_put(op); });
}

void Client::submit_put_if(const std::string& key, Value value,
                           Version expected, PutCallback cb, OpOptions opts) {
  if (cache_ != nullptr) cb = wrap_put_cb(key, value, std::move(cb));
  auto op = std::make_shared<Op<PutResult>>(std::move(cb), opts);
  if (!op->admitted(closed(), key)) return;
  op->req = RemotePutIf{key, std::move(value), expected};
  begin(key, op, [this, op] { attempt_put(op); });
}

void Client::submit_get(const std::string& key, GetCallback cb,
                        OpOptions opts) {
  auto op = std::make_shared<Op<GetResult>>(std::move(cb), opts);
  if (!op->admitted(closed(), key)) return;
  if (cache_applies(opts.read_mode)) {
    cached_get(key, std::move(op));
    return;
  }
  begin(key, op, [this, key, op] {
    read_round(key, op, op->opts.read_mode,
               [op](const GetResult& r) { op->finish(r); });
  });
}

// ---- completion-queue API ----------------------------------------------------

std::uint64_t Client::async_put(const std::string& key, Value value,
                                PutCallback cb, OpOptions opts) {
  LDS_REQUIRE(cb != nullptr, "Client::async_put: null callback");
  const std::uint64_t h = next_handle_.fetch_add(1, std::memory_order_relaxed);
  submit_put(key, std::move(value), std::move(cb), opts);
  return h;
}

std::uint64_t Client::async_get(const std::string& key, GetCallback cb,
                                OpOptions opts) {
  LDS_REQUIRE(cb != nullptr, "Client::async_get: null callback");
  const std::uint64_t h = next_handle_.fetch_add(1, std::memory_order_relaxed);
  submit_get(key, std::move(cb), opts);
  return h;
}

std::uint64_t Client::async_put_if(const std::string& key, Value value,
                                   Version expected, PutCallback cb,
                                   OpOptions opts) {
  LDS_REQUIRE(cb != nullptr, "Client::async_put_if: null callback");
  const std::uint64_t h = next_handle_.fetch_add(1, std::memory_order_relaxed);
  submit_put_if(key, std::move(value), expected, std::move(cb), opts);
  return h;
}

std::uint64_t Client::async_put(const std::string& key, Value value,
                                OpOptions opts) {
  const std::uint64_t h = next_handle_.fetch_add(1, std::memory_order_relaxed);
  cq_.start();
  submit_put(key, std::move(value),
             [this, h, key](const PutResult& r) {
               Completion c;
               c.handle = h;
               c.kind = Completion::Kind::Put;
               c.key = key;
               c.put = r;
               cq_.push(std::move(c));
             },
             opts);
  return h;
}

std::uint64_t Client::async_get(const std::string& key, OpOptions opts) {
  const std::uint64_t h = next_handle_.fetch_add(1, std::memory_order_relaxed);
  cq_.start();
  submit_get(key,
             [this, h, key](const GetResult& r) {
               Completion c;
               c.handle = h;
               c.kind = Completion::Kind::Get;
               c.key = key;
               c.get = r;
               cq_.push(std::move(c));
             },
             opts);
  return h;
}

std::uint64_t Client::async_put_if(const std::string& key, Value value,
                                   Version expected, OpOptions opts) {
  const std::uint64_t h = next_handle_.fetch_add(1, std::memory_order_relaxed);
  cq_.start();
  submit_put_if(key, std::move(value), expected,
                [this, h, key](const PutResult& r) {
                  Completion c;
                  c.handle = h;
                  c.kind = Completion::Kind::PutIf;
                  c.key = key;
                  c.put = r;
                  cq_.push(std::move(c));
                },
                opts);
  return h;
}

// ---- puts (plain and conditional share one deadline/retry driver) -----------

void Client::put(const std::string& key, Value value, PutCallback cb,
                 OpOptions opts) {
  with_callback<PutResult>(remote(), std::move(cb), [&](auto done) {
    submit_put(key, std::move(value), std::move(done), opts);
  });
}

void Client::put_if_version(const std::string& key, Value value,
                            Version expected, PutCallback cb, OpOptions opts) {
  with_callback<PutResult>(remote(), std::move(cb), [&](auto done) {
    submit_put_if(key, std::move(value), expected, std::move(done), opts);
  });
}

void Client::attempt_put(const std::shared_ptr<Op<PutResult>>& op) {
  auto done = [this, op](const PutResult& r) { settle_attempt(op, r); };
  if (!remote()) {
    if (const auto* c = std::get_if<RemotePutIf>(&op->req)) {
      svc_->put_if(c->key, c->value, c->expected, std::move(done));
    } else {
      const auto& p = std::get<RemotePut>(op->req);
      svc_->put(p.key, p.value, std::move(done));
    }
    return;
  }
  double budget = 0;
  if (!op->budget(&budget)) return;
  op->sess->async_call(RemoteBody(op->req), budget,
                       [done = std::move(done)](Status st, RemoteReply r) {
                         done(st.ok() ? to_put_result(r)
                                      : PutResult::failure(std::move(st)));
                       });
}

void Client::settle_attempt(const std::shared_ptr<Op<PutResult>>& op,
                            const PutResult& r) {
  if (op->done()) return;  // the deadline won; drop the late result
  const RetryPolicy& retry = op->opts.retry;
  if (r.status.ok() || !retry.retriable(r.status) ||
      op->attempt >= retry.max_attempts) {
    op->finish(r);
    return;
  }
  ++op->attempt;
  double delay = op->backoff;
  op->backoff *= retry.backoff_multiplier;
  auto again = [this, op] {
    if (!op->done()) attempt_put(op);
  };
  if (!remote()) {
    svc_->engine().after_here(delay, std::move(again));
    return;
  }
  // Never sleep past the deadline: the attempt after a capped backoff
  // reports DeadlineExceeded on time, not a backoff late.
  double left = 0;
  if (!op->budget(&left)) return;
  if (left > 0) delay = std::min(delay, left);
  if (!op->sess->after(delay, std::move(again))) {
    op->finish(PutResult::failure(Status::Unavailable("session closed")));
  }
}

// ---- gets -------------------------------------------------------------------

void Client::get(const std::string& key, GetCallback cb, OpOptions opts) {
  with_callback<GetResult>(remote(), std::move(cb), [&](auto done) {
    submit_get(key, std::move(done), opts);
  });
}

void Client::read_round(const std::string& key,
                        const std::shared_ptr<Op<GetResult>>& op,
                        ReadMode mode, GetCallback then) {
  if (!remote()) {
    svc_->get(
        key,
        [op, then = std::move(then)](const GetResult& r) {
          if (!op->done()) then(r);  // the deadline won; drop the late result
        },
        mode);
    return;
  }
  double budget = 0;
  if (!op->budget(&budget)) return;
  op->sess->async_call(RemoteGet{key, mode}, budget,
                       [then = std::move(then)](Status st, RemoteReply r) {
                         then(st.ok() ? to_get_result(r)
                                      : GetResult::failure(std::move(st)));
                       });
}

// ---- read cache -------------------------------------------------------------

double Client::cache_now() const {
  if (svc_ != nullptr && !svc_->parallel()) return svc_->sim().now();
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Client::cached_get(const std::string& key,
                        std::shared_ptr<Op<GetResult>> op) {
  auto entry = cache_->lookup(key);
  if (!entry.has_value()) {
    client_metrics_.counter("cache_misses").inc();
    begin(key, op, [this, key, op] { fill_round(key, op); });
    return;
  }
  if (cache_->options().ttl > 0 && cache_now() < entry->fresh_until) {
    // Opt-in bounded staleness: serve without any round until the ttl.
    client_metrics_.counter("cache_hits").inc();
    client_metrics_.counter("cache_ttl_hits").inc();
    client_metrics_.counter("wire_value_bytes_saved").inc(entry->value.size());
    op->finish(
        GetResult::success(entry->version.tag(), std::move(entry->value)));
    return;
  }
  // Validation round: a tag-only read under the op's deadline.  The
  // returned committed tag is >= any operation that completed before the
  // round started, so tag == cached version certifies currency.
  client_metrics_.counter("cache_validation_rounds").inc();
  begin(key, op, [this, key, op, cached = std::move(*entry)]() mutable {
    read_round(
        key, op, ReadMode::TagOnly,
        [this, key, op, cached = std::move(cached)](const GetResult& r) {
          if (r.status.ok()) {
            if (r.version == cached.version) {
              client_metrics_.counter("cache_hits").inc();
              client_metrics_.counter("wire_value_bytes_saved")
                  .inc(cached.value.size());
              cache_->revalidate(key, cached.version, cache_now());
              op->finish(GetResult::success(cached.version.tag(),
                                            cached.value));
              return;
            }
            // Stale entry: a full get refreshes it, on what is left of
            // the op's budget.
            client_metrics_.counter("cache_misses").inc();
            client_metrics_.counter("cache_stale_validations").inc();
            fill_round(key, op);
            return;
          }
          if (r.status.is(StatusCode::kInvalidArgument)) {
            // The shard cannot serve tag-only rounds (non-LDS protocol):
            // stop consulting the cache for good and serve the plain read.
            if (cache_usable_.exchange(false, std::memory_order_acq_rel)) {
              client_metrics_.counter("cache_disabled").inc();
            }
            read_round(key, op, op->opts.read_mode,
                       [op](const GetResult& g) { op->finish(g); });
            return;
          }
          if (r.status.is(StatusCode::kNotFound) && cache_->invalidate(key)) {
            client_metrics_.counter("cache_invalidations").inc();
          }
          op->finish(r);  // NotFound / DeadlineExceeded / ... propagate
        });
  });
}

void Client::fill_round(const std::string& key,
                        const std::shared_ptr<Op<GetResult>>& op) {
  read_round(key, op, op->opts.read_mode,
             [this, key, op](const GetResult& r) {
               if (r.status.ok()) {
                 cache_->update(key, r.version, r.value, cache_now());
               }
               op->finish(r);
             });
}

Client::PutCallback Client::wrap_put_cb(const std::string& key,
                                        const Value& value, PutCallback cb) {
  return [this, key, value, cb = std::move(cb)](const PutResult& r) {
    if (r.status.ok()) {
      if (r.coalesced) {
        // Durable, but a newer same-key put of the same batch window won:
        // a read returns the survivor's value, not ours.  Drop the entry.
        if (cache_->invalidate(key)) {
          client_metrics_.counter("cache_invalidations").inc();
        }
      } else {
        cache_->update(key, r.version, value, cache_now());
      }
    } else if (r.status.is(StatusCode::kAborted)) {
      // A conditional put lost against observed version r.version; the
      // entry is known stale but the winner's value is unknown.
      if (cache_->invalidate(key)) {
        client_metrics_.counter("cache_invalidations").inc();
      }
    }
    if (cb) cb(r);
  };
}

// ---- multi-key scatter-gather -----------------------------------------------

void Client::multi_get(std::vector<std::string> keys, MultiGetCallback cb,
                       OpOptions opts) {
  LDS_REQUIRE(cb != nullptr, "Client::multi_get: null callback");
  // Every sub-get is submitted before the first completes, so a remote
  // batch costs one round trip, not keys.size() of them.
  with_callback<std::vector<GetResult>>(remote(), std::move(cb),
                                        [&](auto done) {
    detail::scatter_gather<GetResult>(
        keys.size(), std::move(done), [&](std::size_t i, GetCallback sub) {
          submit_get(keys[i], std::move(sub), opts);
        });
  });
}

void Client::multi_put(std::vector<KeyValue> entries, MultiPutCallback cb,
                       OpOptions opts) {
  LDS_REQUIRE(cb != nullptr, "Client::multi_put: null callback");
  with_callback<std::vector<PutResult>>(remote(), std::move(cb),
                                        [&](auto done) {
    detail::scatter_gather<PutResult>(
        entries.size(), std::move(done), [&](std::size_t i, PutCallback sub) {
          submit_put(entries[i].key, std::move(entries[i].value),
                     std::move(sub), opts);
        });
  });
}

// ---- sync wrappers ----------------------------------------------------------

using detail::run_op_sync;

Result<Version> Client::put_sync(const std::string& key, Value value,
                                 OpOptions opts) {
  const PutResult r = run_op_sync<PutResult>(
      engine_of(svc_), "Client::put_sync: simulation drained before completion",
      [&](auto done) { put(key, std::move(value), std::move(done), opts); });
  if (!r.status.ok()) return r.status;
  return r.version;
}

Result<VersionedValue> Client::get_sync(const std::string& key,
                                        OpOptions opts) {
  const GetResult r = run_op_sync<GetResult>(
      engine_of(svc_), "Client::get_sync: simulation drained before completion",
      [&](auto done) { get(key, std::move(done), opts); });
  if (!r.status.ok()) return r.status;
  return VersionedValue{r.version, r.value};
}

Result<Version> Client::put_if_version_sync(const std::string& key,
                                            Value value, Version expected,
                                            OpOptions opts) {
  const PutResult r = run_op_sync<PutResult>(
      engine_of(svc_),
      "Client::put_if_version_sync: simulation drained before completion",
      [&](auto done) {
        put_if_version(key, std::move(value), expected, std::move(done), opts);
      });
  if (!r.status.ok()) return r.status;
  return r.version;
}

std::vector<GetResult> Client::multi_get_sync(std::vector<std::string> keys,
                                              OpOptions opts) {
  return run_op_sync<std::vector<GetResult>>(
      engine_of(svc_),
      "Client::multi_get_sync: simulation drained before completion",
      [&](auto done) { multi_get(std::move(keys), std::move(done), opts); });
}

std::vector<PutResult> Client::multi_put_sync(std::vector<KeyValue> entries,
                                              OpOptions opts) {
  return run_op_sync<std::vector<PutResult>>(
      engine_of(svc_),
      "Client::multi_put_sync: simulation drained before completion",
      [&](auto done) { multi_put(std::move(entries), std::move(done), opts); });
}

}  // namespace lds::store
