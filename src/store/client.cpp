#include "store/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/assert.h"
#include "common/format.h"
#include "store/async_util.h"
#include "store/remote.h"

namespace lds::store {

namespace {

std::string deadline_msg(double deadline) {
  return "deadline " + fmt_double(deadline) + " expired";
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

PutResult Client::remote_put_op(
    OpOptions opts, const std::function<PutResult(double)>& attempt) {
  // The engine-time deadline/retry driver, transliterated to wall-clock
  // seconds: one budget across all attempts, backoff slept between them.
  const auto start = std::chrono::steady_clock::now();
  const auto remaining = [&]() -> double {
    const double used =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return opts.deadline - used;
  };
  double backoff = opts.retry.backoff;
  for (std::size_t n = 1;; ++n) {
    double budget = 0;  // 0 = unbounded
    if (opts.deadline > 0) {
      budget = remaining();
      if (budget <= 0) {
        return PutResult::failure(
            Status::DeadlineExceeded(deadline_msg(opts.deadline)));
      }
    }
    PutResult r = attempt(budget);
    if (r.status.ok() || !opts.retry.retriable(r.status) ||
        n >= opts.retry.max_attempts) {
      return r;
    }
    // Never sleep past the deadline: the engine-time driver's timer fires
    // exactly at expiry, so the wall-clock driver caps the backoff at the
    // remaining budget (the loop top then reports DeadlineExceeded on
    // time, not a backoff late).
    double sleep_s = backoff;
    if (opts.deadline > 0) {
      const double rem = remaining();
      if (rem <= 0) {
        return PutResult::failure(
            Status::DeadlineExceeded(deadline_msg(opts.deadline)));
      }
      sleep_s = std::min(backoff, rem);
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
    backoff *= opts.retry.backoff_multiplier;
  }
}

/// One logical put (plain or conditional).  Everything that touches the op
/// after submission — deadline timer, retries, completion — runs on the
/// key's shard lane, so `settled` is the only cross-lane rendezvous (the
/// caller of a sync wrapper reads the result after its own synchronization).
struct Client::PutOp {
  std::atomic<bool> settled{false};
  PutCallback cb;

  /// First settle wins: returns true when this caller should complete.
  bool settle() { return !settled.exchange(true, std::memory_order_acq_rel); }
};

struct Client::GetOp {
  std::atomic<bool> settled{false};
  GetCallback cb;

  bool settle() { return !settled.exchange(true, std::memory_order_acq_rel); }
};

// ---- async remote attempt chain ---------------------------------------------

/// One async remote operation across its retries.  The request body is kept
/// for re-sending (Value copies are refcounted handles, not payload copies);
/// `done` fires exactly once with the final outcome.  Retries are scheduled
/// on the session's timer thread, so no caller thread ever sleeps.
struct Client::AsyncOp {
  RemoteSession* sess = nullptr;
  RemoteBody req;
  OpOptions opts;
  std::size_t attempt = 1;
  double backoff = 0;
  std::chrono::steady_clock::time_point start;
  std::function<void(Status, RemoteReply)> done;

  double remaining() const {
    const double used = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    return opts.deadline - used;
  }
};

void Client::remote_attempt(std::shared_ptr<AsyncOp> op) {
  double budget = 0;  // 0 = unbounded
  if (op->opts.deadline > 0) {
    budget = op->remaining();
    if (budget <= 0) {
      op->done(Status::DeadlineExceeded(deadline_msg(op->opts.deadline)),
               RemoteReply{});
      return;
    }
  }
  op->sess->async_call(
      RemoteBody(op->req), budget, [this, op](Status st, RemoteReply r) {
        const bool retriable =
            st.ok() &&
            op->opts.retry.retriable(Status::FromCode(r.code, r.message)) &&
            op->attempt < op->opts.retry.max_attempts;
        if (!retriable) {
          op->done(std::move(st), std::move(r));
          return;
        }
        ++op->attempt;
        double delay = op->backoff;
        op->backoff *= op->opts.retry.backoff_multiplier;
        if (op->opts.deadline > 0) {
          const double rem = op->remaining();
          if (rem <= 0) {
            op->done(
                Status::DeadlineExceeded(deadline_msg(op->opts.deadline)),
                RemoteReply{});
            return;
          }
          // Never sleep past the deadline; the attempt after the capped
          // backoff reports DeadlineExceeded on time.
          delay = std::min(delay, rem);
        }
        if (!op->sess->after(delay, [this, op] { remote_attempt(op); })) {
          op->done(Status::Unavailable("session closed"), RemoteReply{});
        }
      });
}

// ---- async submission cores --------------------------------------------------

void Client::submit_put(const std::string& key, Value value, PutCallback cb,
                        OpOptions opts) {
  if (cache_ != nullptr) cb = wrap_put_cb(key, value, std::move(cb));
  if (closed()) {
    cb(PutResult::failure(Status::Unavailable("client closed")));
    return;
  }
  if (key.empty()) {
    cb(PutResult::failure(Status::InvalidArgument("empty key")));
    return;
  }
  if (remote()) {
    auto op = std::make_shared<AsyncOp>();
    op->sess = &pick();
    op->req = RemotePut{key, std::move(value)};
    op->opts = opts;
    op->backoff = opts.retry.backoff;
    op->start = std::chrono::steady_clock::now();
    op->done = [cb = std::move(cb)](Status st, RemoteReply r) {
      cb(st.ok() ? to_put_result(r) : PutResult::failure(std::move(st)));
    };
    remote_attempt(std::move(op));
    return;
  }
  run_put_op(key, std::move(value), opts, std::move(cb),
             [this](const std::string& k, Value v,
                    StoreService::PutCallback pcb) {
               svc_->put(k, std::move(v), std::move(pcb));
             });
}

void Client::submit_put_if(const std::string& key, Value value,
                           Version expected, PutCallback cb, OpOptions opts) {
  if (cache_ != nullptr) cb = wrap_put_cb(key, value, std::move(cb));
  if (closed()) {
    cb(PutResult::failure(Status::Unavailable("client closed")));
    return;
  }
  if (key.empty()) {
    cb(PutResult::failure(Status::InvalidArgument("empty key")));
    return;
  }
  if (remote()) {
    auto op = std::make_shared<AsyncOp>();
    op->sess = &pick();
    op->req = RemotePutIf{key, std::move(value), expected};
    op->opts = opts;
    op->backoff = opts.retry.backoff;
    op->start = std::chrono::steady_clock::now();
    op->done = [cb = std::move(cb)](Status st, RemoteReply r) {
      cb(st.ok() ? to_put_result(r) : PutResult::failure(std::move(st)));
    };
    remote_attempt(std::move(op));
    return;
  }
  run_put_op(key, std::move(value), opts, std::move(cb),
             [this, expected](const std::string& k, Value v,
                              StoreService::PutCallback pcb) {
               svc_->put_if(k, std::move(v), expected, std::move(pcb));
             });
}

void Client::submit_get(const std::string& key, GetCallback cb,
                        OpOptions opts) {
  if (closed()) {
    cb(GetResult::failure(Status::Unavailable("client closed")));
    return;
  }
  if (key.empty()) {
    cb(GetResult::failure(Status::InvalidArgument("empty key")));
    return;
  }
  if (cache_applies(opts.read_mode)) {
    cached_get(key, std::move(cb), opts);
    return;
  }
  raw_get(key, std::move(cb), opts);
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
  if (cache_ != nullptr) cb = wrap_put_cb(key, value, std::move(cb));
  if (remote()) {
    PutResult r;
    if (closed()) {
      r = PutResult::failure(Status::Unavailable("client closed"));
    } else if (key.empty()) {
      r = PutResult::failure(Status::InvalidArgument("empty key"));
    } else {
      r = remote_put_op(opts, [&](double deadline_s) {
        return pick().put(key, value, deadline_s);
      });
    }
    if (cb) cb(r);
    return;
  }
  run_put_op(key, std::move(value), opts, std::move(cb),
             [this](const std::string& k, Value v,
                    StoreService::PutCallback pcb) {
               svc_->put(k, std::move(v), std::move(pcb));
             });
}

void Client::put_if_version(const std::string& key, Value value,
                            Version expected, PutCallback cb, OpOptions opts) {
  if (cache_ != nullptr) cb = wrap_put_cb(key, value, std::move(cb));
  if (remote()) {
    PutResult r;
    if (closed()) {
      r = PutResult::failure(Status::Unavailable("client closed"));
    } else if (key.empty()) {
      r = PutResult::failure(Status::InvalidArgument("empty key"));
    } else {
      r = remote_put_op(opts, [&](double deadline_s) {
        return pick().put_if(key, value, expected, deadline_s);
      });
    }
    if (cb) cb(r);
    return;
  }
  run_put_op(key, std::move(value), opts, std::move(cb),
             [this, expected](const std::string& k, Value v,
                              StoreService::PutCallback pcb) {
               svc_->put_if(k, std::move(v), expected, std::move(pcb));
             });
}

void Client::run_put_op(const std::string& key, Value value, OpOptions opts,
                        PutCallback cb, PutSubmit submit) {
  if (closed()) {
    if (cb) cb(PutResult::failure(Status::Unavailable("client closed")));
    return;
  }
  if (key.empty()) {
    if (cb) cb(PutResult::failure(Status::InvalidArgument("empty key")));
    return;
  }
  auto op = std::make_shared<PutOp>();
  op->cb = std::move(cb);
  const std::size_t lane = lane_of_key(key);
  // Hop to the shard's lane first: the deadline timer must be armed with
  // after_here on the lane whose clock the operation runs against.
  svc_->engine().post(lane, [this, key, value = std::move(value), opts, op,
                             submit = std::make_shared<PutSubmit>(
                                 std::move(submit))]() mutable {
    if (opts.deadline > 0) {
      svc_->engine().after_here(opts.deadline, [op, opts] {
        if (!op->settle()) return;
        if (op->cb) {
          op->cb(PutResult::failure(
              Status::DeadlineExceeded(deadline_msg(opts.deadline))));
        }
      });
    }
    attempt_put_op(key, std::move(value), opts, std::move(op), 1,
                   opts.retry.backoff, std::move(submit));
  });
}

void Client::attempt_put_op(const std::string& key, Value value,
                            OpOptions opts, std::shared_ptr<PutOp> op,
                            std::size_t attempt, double backoff,
                            std::shared_ptr<PutSubmit> submit) {
  // The value is a shared handle, so keeping a copy for a potential retry
  // costs a refcount, not a payload copy.
  (*submit)(key, value, [this, key, value, opts, op, attempt, backoff,
                         submit](const PutResult& r) mutable {
    if (op->settled.load(std::memory_order_acquire)) return;  // deadline won
    if (!r.status.ok() && opts.retry.retriable(r.status) &&
        attempt < opts.retry.max_attempts) {
      svc_->engine().after_here(backoff, [this, key, value = std::move(value),
                                          opts, op = std::move(op), attempt,
                                          backoff,
                                          submit = std::move(submit)]() mutable {
        if (op->settled.load(std::memory_order_acquire)) return;
        attempt_put_op(key, std::move(value), opts, std::move(op), attempt + 1,
                       backoff * opts.retry.backoff_multiplier,
                       std::move(submit));
      });
      return;
    }
    if (!op->settle()) return;
    if (op->cb) op->cb(r);
  });
}

// ---- gets -------------------------------------------------------------------

void Client::get(const std::string& key, GetCallback cb, OpOptions opts) {
  if (closed()) {
    if (cb) cb(GetResult::failure(Status::Unavailable("client closed")));
    return;
  }
  if (key.empty()) {
    if (cb) cb(GetResult::failure(Status::InvalidArgument("empty key")));
    return;
  }
  if (remote()) {
    if (cache_applies(opts.read_mode)) {
      // Preserve the documented blocking contract around the async cache
      // path (TTL hits complete inline; validation/fill rounds complete on
      // transport threads).
      GetResult out;
      std::mutex mu;
      std::condition_variable cv;
      bool done = false;
      cached_get(
          key,
          [&](const GetResult& r) {
            {
              std::lock_guard<std::mutex> lk(mu);
              out = r;
              done = true;
            }
            cv.notify_one();
          },
          opts);
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return done; });
      lk.unlock();
      if (cb) cb(out);
      return;
    }
    // Gets have no retriable failure; one blocking RPC under the deadline.
    const GetResult r = pick().get(key, opts.read_mode, opts.deadline);
    if (cb) cb(r);
    return;
  }
  if (cache_applies(opts.read_mode)) {
    cached_get(key, std::move(cb), opts);
    return;
  }
  local_get(key, std::move(cb), opts);
}

void Client::local_get(const std::string& key, GetCallback cb,
                       OpOptions opts) {
  auto op = std::make_shared<GetOp>();
  op->cb = std::move(cb);
  const std::size_t lane = lane_of_key(key);
  svc_->engine().post(lane, [this, key, opts, op]() mutable {
    if (opts.deadline > 0) {
      svc_->engine().after_here(opts.deadline, [op, opts] {
        if (!op->settle()) return;
        if (op->cb) {
          op->cb(GetResult::failure(
              Status::DeadlineExceeded(deadline_msg(opts.deadline))));
        }
      });
    }
    svc_->get(
        key,
        [op](const GetResult& r) {
          if (!op->settle()) return;  // deadline won; drop the late result
          if (op->cb) op->cb(r);
        },
        opts.read_mode);
  });
}

// ---- read cache -------------------------------------------------------------

void Client::raw_get(const std::string& key, GetCallback cb, OpOptions opts) {
  if (remote()) {
    // Gets have no retriable failure: one pipelined RPC under the deadline.
    pick().async_call(RemoteGet{key, opts.read_mode}, opts.deadline,
                      [cb = std::move(cb)](Status st, RemoteReply r) {
                        if (!cb) return;
                        cb(st.ok() ? to_get_result(r)
                                   : GetResult::failure(std::move(st)));
                      });
    return;
  }
  local_get(key, std::move(cb), opts);
}

double Client::cache_now() const {
  if (svc_ != nullptr && !svc_->parallel()) return svc_->sim().now();
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Client::cached_get(const std::string& key, GetCallback cb,
                        OpOptions opts) {
  auto entry = cache_->lookup(key);
  if (!entry.has_value()) {
    client_metrics_.counter("cache_misses").inc();
    fill_get(key, std::move(cb), opts);
    return;
  }
  if (cache_->options().ttl > 0 && cache_now() < entry->fresh_until) {
    // Opt-in bounded staleness: serve without any round until the ttl.
    client_metrics_.counter("cache_hits").inc();
    client_metrics_.counter("cache_ttl_hits").inc();
    client_metrics_.counter("wire_value_bytes_saved").inc(entry->value.size());
    if (cb) cb(GetResult::success(entry->version.tag(),
                                  std::move(entry->value)));
    return;
  }
  // Validation round: a tag-only read through the normal get path.  The
  // returned committed tag is >= any operation that completed before the
  // round started, so tag == cached version certifies currency.
  client_metrics_.counter("cache_validation_rounds").inc();
  OpOptions vopts = opts;
  vopts.read_mode = ReadMode::TagOnly;
  raw_get(
      key,
      [this, key, opts, cb = std::move(cb),
       cached = std::move(*entry)](const GetResult& r) mutable {
        if (r.status.ok()) {
          if (r.version == cached.version) {
            client_metrics_.counter("cache_hits").inc();
            client_metrics_.counter("wire_value_bytes_saved")
                .inc(cached.value.size());
            cache_->revalidate(key, cached.version, cache_now());
            if (cb) {
              cb(GetResult::success(cached.version.tag(),
                                    std::move(cached.value)));
            }
            return;
          }
          // Stale entry: fall through to a full get, which refreshes it.
          client_metrics_.counter("cache_misses").inc();
          client_metrics_.counter("cache_stale_validations").inc();
          fill_get(key, std::move(cb), opts);
          return;
        }
        if (r.status.is(StatusCode::kInvalidArgument)) {
          // The shard cannot serve tag-only rounds (non-LDS protocol):
          // stop consulting the cache for good and serve the plain read.
          if (cache_usable_.exchange(false, std::memory_order_acq_rel)) {
            client_metrics_.counter("cache_disabled").inc();
          }
          raw_get(key, std::move(cb), opts);
          return;
        }
        if (r.status.is(StatusCode::kNotFound) && cache_->invalidate(key)) {
          client_metrics_.counter("cache_invalidations").inc();
        }
        if (cb) cb(r);  // NotFound / DeadlineExceeded / ... propagate
      },
      vopts);
}

void Client::fill_get(const std::string& key, GetCallback cb, OpOptions opts) {
  raw_get(key,
          [this, key, cb = std::move(cb)](const GetResult& r) {
            if (r.status.ok()) {
              cache_->update(key, r.version, r.value, cache_now());
            }
            if (cb) cb(r);
          },
          opts);
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
  if (keys.empty()) {  // fire exactly once — an empty gather never completes
    cb({});
    return;
  }
  if (remote()) {
    // Concurrent fan-out over the connection pool: every sub-get is
    // pipelined before the first reply is awaited, so the batch costs one
    // round-trip, not keys.size() of them.  The callback still fires
    // inline on this thread (the documented remote contract).
    const std::size_t n = keys.size();
    std::vector<GetResult> results(n);
    std::mutex mu;
    std::condition_variable cv;
    std::size_t left = n;
    for (std::size_t i = 0; i < n; ++i) {
      submit_get(
          keys[i],
          [&, i](const GetResult& r) {
            std::lock_guard<std::mutex> lk(mu);
            results[i] = r;
            if (--left == 0) cv.notify_one();
          },
          opts);
    }
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return left == 0; });
    lk.unlock();
    cb(std::move(results));
    return;
  }
  auto gather = detail::make_gather<GetResult>(keys.size(), std::move(cb));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    get(keys[i],
        [gather, i](const GetResult& r) {
          detail::gather_finish(gather, i, r);
        },
        opts);
  }
}

void Client::multi_put(std::vector<KeyValue> entries, MultiPutCallback cb,
                       OpOptions opts) {
  LDS_REQUIRE(cb != nullptr, "Client::multi_put: null callback");
  if (entries.empty()) {
    cb({});
    return;
  }
  if (remote()) {
    const std::size_t n = entries.size();
    std::vector<PutResult> results(n);
    std::mutex mu;
    std::condition_variable cv;
    std::size_t left = n;
    for (std::size_t i = 0; i < n; ++i) {
      submit_put(
          entries[i].key, std::move(entries[i].value),
          [&, i](const PutResult& r) {
            std::lock_guard<std::mutex> lk(mu);
            results[i] = r;
            if (--left == 0) cv.notify_one();
          },
          opts);
    }
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return left == 0; });
    lk.unlock();
    cb(std::move(results));
    return;
  }
  auto gather = detail::make_gather<PutResult>(entries.size(), std::move(cb));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    put(entries[i].key, std::move(entries[i].value),
        [gather, i](const PutResult& r) {
          detail::gather_finish(gather, i, r);
        },
        opts);
  }
}

// ---- sync wrappers ----------------------------------------------------------

using detail::run_op_sync;

Result<Version> Client::put_sync(const std::string& key, Value value,
                                 OpOptions opts) {
  if (remote()) {
    // Remote async ops block inline, so the callback has fired by return.
    PutResult rr;
    put(key, std::move(value), [&rr](const PutResult& pr) { rr = pr; }, opts);
    if (!rr.status.ok()) return rr.status;
    return rr.version;
  }
  const PutResult r = run_op_sync<PutResult>(
      svc_->engine(), svc_->parallel(),
      "Client::put_sync: simulation drained before completion",
      [&](auto done) {
        put(key, std::move(value),
            [done = std::move(done)](const PutResult& pr) { done(pr); },
            opts);
      });
  if (!r.status.ok()) return r.status;
  return r.version;
}

Result<VersionedValue> Client::get_sync(const std::string& key,
                                        OpOptions opts) {
  if (remote()) {
    GetResult rr;
    get(key, [&rr](const GetResult& gr) { rr = gr; }, opts);
    if (!rr.status.ok()) return rr.status;
    return VersionedValue{rr.version, rr.value};
  }
  const GetResult r = run_op_sync<GetResult>(
      svc_->engine(), svc_->parallel(),
      "Client::get_sync: simulation drained before completion",
      [&](auto done) {
        get(key, [done = std::move(done)](const GetResult& gr) { done(gr); },
            opts);
      });
  if (!r.status.ok()) return r.status;
  return VersionedValue{r.version, r.value};
}

Result<Version> Client::put_if_version_sync(const std::string& key,
                                            Value value, Version expected,
                                            OpOptions opts) {
  if (remote()) {
    PutResult rr;
    put_if_version(key, std::move(value), expected,
                   [&rr](const PutResult& pr) { rr = pr; }, opts);
    if (!rr.status.ok()) return rr.status;
    return rr.version;
  }
  const PutResult r = run_op_sync<PutResult>(
      svc_->engine(), svc_->parallel(),
      "Client::put_if_version_sync: simulation drained before completion",
      [&](auto done) {
        put_if_version(
            key, std::move(value), expected,
            [done = std::move(done)](const PutResult& pr) { done(pr); }, opts);
      });
  if (!r.status.ok()) return r.status;
  return r.version;
}

std::vector<GetResult> Client::multi_get_sync(std::vector<std::string> keys,
                                              OpOptions opts) {
  if (remote()) {
    std::vector<GetResult> rr;
    multi_get(std::move(keys), [&rr](std::vector<GetResult> v) {
      rr = std::move(v);
    }, opts);
    return rr;
  }
  return run_op_sync<std::vector<GetResult>>(
      svc_->engine(), svc_->parallel(),
      "Client::multi_get_sync: simulation drained before completion",
      [&](auto done) { multi_get(std::move(keys), std::move(done), opts); });
}

std::vector<PutResult> Client::multi_put_sync(std::vector<KeyValue> entries,
                                              OpOptions opts) {
  if (remote()) {
    std::vector<PutResult> rr;
    multi_put(std::move(entries), [&rr](std::vector<PutResult> v) {
      rr = std::move(v);
    }, opts);
    return rr;
  }
  return run_op_sync<std::vector<PutResult>>(
      svc_->engine(), svc_->parallel(),
      "Client::multi_put_sync: simulation drained before completion",
      [&](auto done) { multi_put(std::move(entries), std::move(done), opts); });
}

}  // namespace lds::store
