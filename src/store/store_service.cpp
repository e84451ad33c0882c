#include "store/store_service.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "baselines/abd.h"
#include "baselines/cas.h"
#include "common/assert.h"
#include "lds/cluster.h"
#include "member/coordinator.h"
#include "member/fabric.h"
#include "storage/manifest.h"
#include "store/async_util.h"
#include "store/remote.h"

namespace lds::store {

const char* protocol_name(ShardProtocol p) {
  switch (p) {
    case ShardProtocol::Lds: return "lds";
    case ShardProtocol::Abd: return "abd";
    case ShardProtocol::Cas: return "cas";
  }
  return "?";
}

storage::Manifest StoreService::storage_manifest(const StoreOptions& opt) {
  // Routing is a pure function of (shards, vnodes): a restart with a
  // different split would silently look for keys on the wrong shard, so
  // pin both and fail fast on mismatch.  Geometry and code are pinned per
  // shard by each LdsCluster's own manifest in `shard-<s>/`.  v2 marks the
  // plane-major element layout, so an older data_dir is refused here.
  storage::Manifest mf;
  mf.set("format", "lds-store-v2");
  mf.set("shards", static_cast<std::uint64_t>(opt.shards));
  mf.set("vnodes", static_cast<std::uint64_t>(opt.vnodes));
  return mf;
}

StoreService::StoreService(StoreOptions opt)
    : opt_(std::move(opt)),
      parallel_(opt_.engine_mode == net::EngineMode::Parallel),
      metrics_(opt_.shards),
      router_(opt_.shards, ShardRouter::Options{opt_.vnodes,
                                                mix_seed(opt_.seed, 0)}) {
  LDS_REQUIRE(opt_.shards >= 1, "StoreService: need at least one shard");
  LDS_REQUIRE(opt_.writers_per_shard >= 1 && opt_.readers_per_shard >= 1,
              "StoreService: need writers and readers");
  LDS_REQUIRE(opt_.batch_window >= 0, "StoreService: negative batch window");
  LDS_REQUIRE(opt_.max_batch >= 1, "StoreService: max_batch must be >= 1");

  const bool durable = !opt_.data_dir.empty();
  if (durable) {
    auto st = storage_manifest(opt_).verify_or_write(opt_.data_dir);
    LDS_REQUIRE(st.ok(),
                ("StoreService: " + std::string(st.message())).c_str());
  }

  member::Fabric* fabric = opt_.fabric;
  if (fabric != nullptr) {
    LDS_REQUIRE(parallel_,
                "StoreService: membership fabric requires EngineMode::Parallel");
    LDS_REQUIRE(opt_.shards == 1,
                "StoreService: membership fabric requires exactly one shard");
    LDS_REQUIRE(!durable,
                "StoreService: membership fabric is RAM-only (no data_dir)");
    LDS_REQUIRE(fabric->listening(),
                "StoreService: fabric must be listening before construction");
    // Epoch-1 bootstrap: everything local.  A restarting daemon installs its
    // own successor view (persisted epoch + 1) before constructing the
    // service, in which case the fabric's epoch is already non-zero.
    if (fabric->epoch() == 0) {
      const ShardBackend& spec =
          opt_.shard_overrides.empty() ? opt_.backend : opt_.shard_overrides[0];
      LDS_REQUIRE(spec.protocol == ShardProtocol::Lds,
                  "StoreService: membership fabric requires an LDS shard");
      member::View v;
      v.epoch = 1;
      v.n1 = static_cast<std::uint32_t>(spec.n1);
      v.f1 = static_cast<std::uint32_t>(spec.f1);
      v.n2 = static_cast<std::uint32_t>(spec.n2);
      v.f2 = static_cast<std::uint32_t>(spec.f2);
      v.code = spec.code;
      v.processes[member::kCoordinatorProcess] =
          member::Endpoint{"127.0.0.1", fabric->port()};
      fabric->set_initial_view(std::move(v));
    }
  }

  if (parallel_) {
    net::ParallelEngine::Options eopt;
    const unsigned hw = std::thread::hardware_concurrency();
    eopt.lanes = opt_.engine_threads != 0
                     ? opt_.engine_threads
                     : std::min(opt_.shards,
                                static_cast<std::size_t>(hw == 0 ? 1 : hw));
    eopt.seed = opt_.seed;
    engine_ = std::make_unique<net::ParallelEngine>(eopt);
  } else {
    engine_ = std::make_unique<net::SimEngine>(opt_.seed);
  }
  router_.assign_lanes(engine_->lanes());

  bool any_lds = false;
  for (std::size_t s = 0; s < opt_.shards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->spec = s < opt_.shard_overrides.size() ? opt_.shard_overrides[s]
                                               : opt_.backend;
    sh->lane = router_.lane_of(s);
    sh->sim = &engine_->lane_sim(sh->lane);
    LDS_REQUIRE(!durable || sh->spec.protocol == ShardProtocol::Lds,
                "StoreService: data_dir requires every shard to be LDS");
    LDS_REQUIRE(fabric == nullptr || sh->spec.protocol == ShardProtocol::Lds,
                "StoreService: membership fabric requires an LDS shard");
    const std::uint64_t shard_seed = mix_seed(opt_.seed, s + 1);
    // The option fields ABD and CAS share.
    auto single_layer = [&](auto copt) {
      copt.n = sh->spec.n;
      copt.writers = opt_.writers_per_shard;
      copt.readers = opt_.readers_per_shard;
      copt.tau1 = opt_.tau1;
      copt.seed = shard_seed;
      copt.exponential_latency = opt_.exponential_latency;
      copt.engine = engine_.get();
      copt.lane = sh->lane;
      return copt;
    };
    // The one place a shard's protocol is chosen.
    switch (sh->spec.protocol) {
      case ShardProtocol::Lds: {
        any_lds = true;
        core::LdsCluster::Options copt;
        copt.cfg.n1 = sh->spec.n1;
        copt.cfg.f1 = sh->spec.f1;
        copt.cfg.n2 = sh->spec.n2;
        copt.cfg.f2 = sh->spec.f2;
        copt.cfg.backend = sh->spec.code;
        copt.writers = opt_.writers_per_shard;
        copt.readers = opt_.readers_per_shard;
        copt.regular_readers = opt_.regular_readers_per_shard;
        copt.latency = opt_.exponential_latency
                           ? core::LdsCluster::LatencyKind::Exponential
                           : core::LdsCluster::LatencyKind::Fixed;
        copt.tau1 = opt_.tau1;
        copt.tau0 = opt_.tau0;
        copt.tau2 = opt_.tau2;
        copt.seed = shard_seed;
        copt.engine = engine_.get();
        copt.lane = sh->lane;
        if (durable) {
          copt.data_dir = opt_.data_dir + "/shard-" + std::to_string(s);
          copt.durability = opt_.durability;
        }
        if (fabric != nullptr) {
          copt.transport_factory = [fabric](net::Network& n) {
            return std::unique_ptr<net::Transport>(
                std::make_unique<member::RemoteTransport>(*fabric, n));
          };
          const member::View v = fabric->view();
          for (std::size_t j = 0; j < sh->spec.n1; ++j) {
            const NodeId id = core::kL1IdBase + static_cast<NodeId>(j);
            if (v.process_of(id) != fabric->self()) copt.remote_l1.insert(j);
          }
          for (std::size_t i = 0; i < sh->spec.n2; ++i) {
            const NodeId id = core::kL2IdBase + static_cast<NodeId>(i);
            if (v.process_of(id) != fabric->self()) copt.remote_l2.insert(i);
          }
        }
        auto lds = std::make_unique<core::LdsCluster>(copt);
        sh->lds = lds.get();
        sh->cluster = std::move(lds);
        if (durable) {
          auto kl = storage::KeyLog::open(copt.data_dir + "/keys",
                                          opt_.durability);
          LDS_REQUIRE(kl.ok(), ("StoreService: open keylog for shard " +
                                std::to_string(s) + ": " +
                                kl.status().message())
                                   .c_str());
          sh->keylog = std::move(kl).value();
          // Replay reproduces the exact intern order of every previous
          // incarnation: the i-th surviving record IS ObjectId i.
          for (const std::string& key : sh->keylog->recovered()) {
            sh->objects.emplace(key, static_cast<ObjectId>(sh->objects.size()));
          }
        }
        break;
      }
      case ShardProtocol::Abd: {
        baselines::AbdCluster::Options copt;
        copt.f = sh->spec.f;
        sh->cluster =
            std::make_unique<baselines::AbdCluster>(single_layer(copt));
        break;
      }
      case ShardProtocol::Cas: {
        baselines::CasCluster::Options copt;
        copt.k = sh->spec.n - 2 * sh->spec.f;
        sh->cluster =
            std::make_unique<baselines::CasCluster>(single_layer(copt));
        break;
      }
    }
    sh->budget = core::FailureBudget(sh->cluster->fault_layers());
    for (std::size_t w = 0; w < opt_.writers_per_shard; ++w) {
      sh->free_writers.push_back(w);
    }
    for (std::size_t r = 0; r < opt_.readers_per_shard; ++r) {
      sh->free_readers.push_back(r);
    }
    if (sh->lds != nullptr) {
      for (std::size_t r = 0; r < opt_.regular_readers_per_shard; ++r) {
        sh->free_regular_readers.push_back(r);
      }
    }
    shards_.push_back(std::move(sh));
  }

  // Under a membership fabric the reconfiguration state-sync path owns L2
  // regeneration; the heartbeat-driven scheduler would race view surgery
  // (its "crashed" verdict cannot tell a moved server from a dead one).
  if (opt_.enable_repair && any_lds && fabric == nullptr) {
    repair_ = std::make_unique<RepairScheduler>(opt_.repair, metrics_);
    repair_->set_post([this](std::size_t shard, std::function<void()> fn) {
      engine_->post(shards_.at(shard)->lane, std::move(fn));
    });
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard* sh = shards_[s].get();
      if (sh->lds == nullptr) continue;
      // f2 = 0 means no crash budget at all: nothing can ever be injected,
      // and a (heavy-tail) false suspicion could never claim a slot, so a
      // manager would only risk deferring forever.  Leave it unmanaged.
      if (sh->spec.f2 == 0) continue;
      constexpr std::size_t kL2 = core::LdsCluster::kL2;
      repair_->attach_shard(
          s, *sh->lds,
          /*may_replace=*/
          [sh](std::size_t i) {
            // A victim we crashed already holds a budget slot; a false
            // suspicion may only proceed while the budget has room for the
            // healthy server's data to go briefly missing.
            return sh->budget.down(kL2, i) || sh->budget.has_room(kL2);
          },
          /*on_replaced=*/
          [this, s, sh](std::size_t i) {
            if (!sh->budget.down(kL2, i)) {
              sh->budget.mark_down(kL2, i);
              metrics_.counter("false_suspicions", s).inc();
            }
          },
          /*on_repaired=*/
          [sh](std::size_t i) { sh->budget.mark_up(kL2, i); },
          /*lane=*/sh->lane);
    }
    // Recovered objects never pass through intern(), so register them with
    // the repair scheduler here (a post-restart L2 crash must regenerate
    // them like any other object).
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard* sh = shards_[s].get();
      if (sh->keylog == nullptr || !repair_->has_shard(s)) continue;
      for (std::size_t o = 0; o < sh->objects.size(); ++o) {
        repair_->track_object(s, static_cast<ObjectId>(o));
      }
    }
    // Workers are not running yet, so arming the heartbeat timers via the
    // post hook lands them in the lanes' inboxes / queues race-free.
    repair_->start();
  }

  if (fabric != nullptr) {
    Shard* sh = shards_[0].get();
    fabric->bind(&sh->lds->net(), engine_.get(), sh->lane);
    fabric->set_view_change_hook(
        [this](const member::View& prev, const member::View& next) {
          apply_member_view(prev, next);
        });
    member::Coordinator::Hooks hooks;
    hooks.pause = [this] { pause_dispatch(); };
    hooks.drain = [this](double t) { return drain_dispatched(t); };
    hooks.resume = [this] { resume_dispatch(); };
    hooks.objects = [this] { return member_objects(); };
    hooks.repair_local =
        [this, sh](std::size_t i,
                   std::function<void(std::uint32_t, std::uint32_t)> done) {
          engine_->post(sh->lane, [sh, i, done = std::move(done)] {
            core::regenerate_objects(
                sh->lds->net(), sh->lds->ctx().l2_ids.at(i), object_ids(*sh),
                [done](core::RegenTally t) { done(t.repaired, t.missed); });
          });
        };
    coordinator_ =
        std::make_unique<member::Coordinator>(*fabric, std::move(hooks));
  }

  engine_->start();  // no-op in Deterministic mode
}

StoreService::~StoreService() {
  // Remote serving stops first (no new requests enter), then the engine
  // joins its lane workers.  In-flight completion callbacks that still try
  // to reply find the transport's connections gone and drop harmlessly —
  // the RemoteServer object itself outlives the drain (member destruction
  // order), so no callback dangles.
  stop_listening();
  if (opt_.fabric != nullptr) {
    // Member teardown order: the fabric's transport joins its progress
    // threads first (no more control frames or lane posts from the wire),
    // then the coordinator's worker — only then may the engine stop.
    opt_.fabric->stop();
    coordinator_.reset();
  }
  engine_->stop();  // join lane workers before shard state is destroyed
}

Status StoreService::listen(std::uint16_t port) {
  return listen(port, ListenOptions());
}

Status StoreService::listen(std::uint16_t port, ListenOptions lo) {
  if (remote_ != nullptr && remote_->listening()) {
    return Status::InvalidArgument("already listening on port " +
                                   std::to_string(remote_->port()));
  }
  // A stopped transport cannot restart, so listen-after-stop_listening gets
  // a fresh server.  The old one is RETIRED, not destroyed: reply callbacks
  // of requests still completing inside the service captured it, and they
  // must find a live object (whose stopped transport then drops the reply).
  // Retirees are freed in ~StoreService after the engine drains.
  if (remote_ != nullptr && remote_->stopped()) {
    retired_remotes_.push_back(std::move(remote_));
  }
  if (remote_ == nullptr) {
    net::TcpTransport::Options topt;
    topt.progress_threads = lo.net_threads == 0 ? 1 : lo.net_threads;
    remote_ = std::make_unique<RemoteServer>(*this, topt);
  }
  return remote_->listen(port);
}

std::uint16_t StoreService::listen_port() const {
  return remote_ == nullptr ? 0 : remote_->port();
}

void StoreService::stop_listening() {
  if (remote_ != nullptr) remote_->stop();
}

Result<ObjectId> StoreService::intern(Shard& sh, std::size_t shard_idx,
                                      const std::string& key) {
  auto it = sh.objects.find(key);
  if (it != sh.objects.end()) return it->second;
  // Persist-before-publish: the binding must survive before any write under
  // this id can (the record's ordinal is the id — losing it would renumber
  // every later object on the next restart).
  if (sh.keylog != nullptr) {
    if (auto st = sh.keylog->append(key); !st.ok()) {
      return Status::Unavailable("shard " + std::to_string(shard_idx) +
                                 " keylog: " + st.message());
    }
  }
  const auto obj = static_cast<ObjectId>(sh.objects.size());
  sh.objects.emplace(key, obj);
  metrics_.counter("objects_created", shard_idx).inc();
  if (repair_ && repair_->has_shard(shard_idx)) {
    repair_->track_object(shard_idx, obj);
  }
  return obj;
}

// ---- puts (batched) ---------------------------------------------------------

void StoreService::put(const std::string& key, Value value, PutCallback cb) {
  const std::size_t s = router_.shard_of(key);
  Shard& sh = *shards_[s];
  // Admission + liveness accounting happen on the submitting thread, so a
  // quiescence poll can never observe "idle" while an accepted op is still
  // sitting in an engine inbox.  Reserve-then-verify keeps the limit exact
  // under concurrent submitters (a plain check-then-add could overshoot).
  if (sh.puts_in_flight.fetch_add(1, std::memory_order_acq_rel) >=
      opt_.admission_limit) {
    sh.puts_in_flight.fetch_sub(1, std::memory_order_acq_rel);
    metrics_.counter("puts_rejected", s).inc();
    if (cb) {
      cb(PutResult::failure(Status::AdmissionReject(
          "shard " + std::to_string(s) + " at limit " +
          std::to_string(opt_.admission_limit))));
    }
    return;
  }
  metrics_.counter("puts", s).inc();
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  if (!parallel_) {
    // Straight through: SimEngine::post would only call the task inline, so
    // skip the std::function wrapping and key copy on the hot path.
    enqueue_put(s, key, std::move(value), std::move(cb));
    return;
  }
  engine_->hold(sh.lane);
  engine_->post(sh.lane, [this, s, key, value = std::move(value),
                          cb = std::move(cb)]() mutable {
    enqueue_put(s, key, std::move(value), std::move(cb));
  });
}

void StoreService::enqueue_put(std::size_t shard_idx, const std::string& key,
                               Value value, PutCallback cb) {
  Shard& sh = *shards_[shard_idx];
  auto interned = intern(sh, shard_idx, key);
  if (!interned.ok()) {
    metrics_.counter("puts_unavailable", shard_idx).inc();
    finish_put(shard_idx, cb, PutResult::failure(interned.status()));
    return;
  }
  const ObjectId obj = interned.value();

  // Coalesce with a queued same-key put of the open window: the newer value
  // wins and the absorbed put completes alongside it with the same tag.
  auto slot = std::find_if(sh.window.begin(), sh.window.end(),
                           [obj](const PendingPut& p) { return p.obj == obj; });
  if (slot != sh.window.end()) {
    slot->value = std::move(value);
    slot->cbs.push_back(std::move(cb));
    slot->submitted.push_back(sh.sim->now());
    metrics_.counter("puts_coalesced", shard_idx).inc();
  } else {
    PendingPut p;
    p.obj = obj;
    p.value = std::move(value);
    p.cbs.push_back(std::move(cb));
    p.submitted.push_back(sh.sim->now());
    sh.window.push_back(std::move(p));
    ++sh.writes_in_flight[obj];  // one per cluster write, not per client put
  }
  ++sh.window_puts;

  if (sh.window_puts >= opt_.max_batch || opt_.batch_window <= 0) {
    flush_window(shard_idx);
  } else if (!sh.window_open) {
    sh.window_open = true;
    sh.sim->after(opt_.batch_window,
                  [this, shard_idx, epoch = sh.window_epoch] {
                    if (shards_[shard_idx]->window_epoch == epoch) {
                      flush_window(shard_idx);
                    }
                  });
  }
}

void StoreService::flush_window(std::size_t shard_idx) {
  Shard& sh = *shards_[shard_idx];
  sh.window_open = false;
  ++sh.window_epoch;
  if (sh.window.empty()) return;
  metrics_.counter("batches", shard_idx).inc();
  metrics_.histogram("batch_size", shard_idx)
      .record(static_cast<double>(sh.window_puts));
  for (auto& p : sh.window) sh.put_queue.push_back(std::move(p));
  sh.window.clear();
  sh.window_puts = 0;
  pump_puts(shard_idx);
}

void StoreService::pump_puts(std::size_t shard_idx) {
  if (dispatch_paused_.load(std::memory_order_acquire)) return;
  Shard& sh = *shards_[shard_idx];
  while (!sh.put_queue.empty() && !sh.free_writers.empty()) {
    PendingPut p = std::move(sh.put_queue.front());
    sh.put_queue.pop_front();
    const std::size_t w = sh.free_writers.back();
    sh.free_writers.pop_back();
    dispatch_put(shard_idx, w, std::move(p));
  }
}

void StoreService::dispatch_put(std::size_t shard_idx, std::size_t writer,
                                PendingPut p) {
  Shard& sh = *shards_[shard_idx];
  Value value = std::move(p.value);
  auto done = [this, shard_idx, writer, obj = p.obj, cbs = std::move(p.cbs),
               submitted = std::move(p.submitted)](Tag tag) {
    Shard& done_sh = *shards_[shard_idx];
    auto& latency = metrics_.histogram("put_latency", shard_idx);
    const PutResult result = PutResult::success(tag);
    // Conditional-put guards: the committed tag becomes visible to later
    // verifications even when their read raced this write's completion.
    --done_sh.writes_in_flight[obj];
    Tag& committed = done_sh.last_committed[obj];
    if (tag > committed) committed = tag;
    // Gauges drop before the callbacks run: a callback may wake a sync
    // waiter (or poll outstanding()) and must see itself completed.
    done_sh.puts_in_flight.fetch_sub(cbs.size(), std::memory_order_acq_rel);
    outstanding_.fetch_sub(cbs.size(), std::memory_order_acq_rel);
    for (std::size_t i = 0; i < cbs.size(); ++i) {
      latency.record(done_sh.sim->now() - submitted[i]);
      if (cbs[i]) {
        // Coalescing keeps the LAST submitted value (newest wins), so every
        // earlier callback belongs to an absorbed put.
        PutResult r = result;
        r.coalesced = i + 1 < cbs.size();
        cbs[i](r);
      }
    }
    for (std::size_t i = 0; i < cbs.size(); ++i) {
      engine_->release(done_sh.lane);
    }
    done_sh.free_writers.push_back(writer);
    pump_puts(shard_idx);
  };
  sh.cluster->write(writer, p.obj, std::move(value), std::move(done));
}

// ---- gets -------------------------------------------------------------------

void StoreService::get(const std::string& key, GetCallback cb, ReadMode mode) {
  const std::size_t s = router_.shard_of(key);
  Shard& sh = *shards_[s];
  // Regular reads need an LDS shard with a provisioned pool; both are fixed
  // at construction, so this check is safe from any submitting thread.
  if (mode == ReadMode::Regular &&
      (sh.lds == nullptr || opt_.regular_readers_per_shard == 0)) {
    metrics_.counter("gets_invalid", s).inc();
    if (cb) {
      cb(GetResult::failure(Status::InvalidArgument(
          "regular reads not provisioned on shard " + std::to_string(s))));
    }
    return;
  }
  // Tag-only validation rounds are an LDS protocol feature (the committed-tag
  // quorum phase); other shard protocols have no equivalent, so the client
  // learns to stop trying via InvalidArgument.
  if (mode == ReadMode::TagOnly && sh.lds == nullptr) {
    metrics_.counter("gets_invalid", s).inc();
    if (cb) {
      cb(GetResult::failure(Status::InvalidArgument(
          "tag-only reads require an LDS shard (shard " + std::to_string(s) +
          ")")));
    }
    return;
  }
  metrics_.counter(mode == ReadMode::TagOnly ? "gets_tag_only" : "gets", s)
      .inc();
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  if (!parallel_) {
    enqueue_get(s, key, std::move(cb), mode);
    return;
  }
  engine_->hold(sh.lane);
  engine_->post(sh.lane, [this, s, key, cb = std::move(cb), mode]() mutable {
    enqueue_get(s, key, std::move(cb), mode);
  });
}

void StoreService::enqueue_get(std::size_t shard_idx, const std::string& key,
                               GetCallback cb, ReadMode mode) {
  Shard& sh = *shards_[shard_idx];
  const auto it = sh.objects.find(key);
  if (it == sh.objects.end()) {
    // Never written on this shard: NotFound without interning (probing reads
    // must not grow per-shard state) and without a cluster round trip.
    metrics_.counter("gets_not_found", shard_idx).inc();
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);  // before cb
    if (cb) {
      cb(GetResult::failure(Status::NotFound(
          "key never written on shard " + std::to_string(shard_idx))));
    }
    engine_->release(sh.lane);  // no-op under the deterministic engine
    return;
  }
  PendingGet g;
  g.obj = it->second;
  g.cb = std::move(cb);
  g.submitted = sh.sim->now();
  g.mode = mode;
  (mode == ReadMode::Regular ? sh.regular_get_queue : sh.get_queue)
      .push_back(std::move(g));
  pump_gets(shard_idx);
}

void StoreService::pump_gets(std::size_t shard_idx) {
  if (dispatch_paused_.load(std::memory_order_acquire)) return;
  Shard& sh = *shards_[shard_idx];
  while (!sh.get_queue.empty() && !sh.free_readers.empty()) {
    PendingGet g = std::move(sh.get_queue.front());
    sh.get_queue.pop_front();
    const std::size_t r = sh.free_readers.back();
    sh.free_readers.pop_back();
    dispatch_get(shard_idx, r, std::move(g));
  }
  while (!sh.regular_get_queue.empty() && !sh.free_regular_readers.empty()) {
    PendingGet g = std::move(sh.regular_get_queue.front());
    sh.regular_get_queue.pop_front();
    const std::size_t r = sh.free_regular_readers.back();
    sh.free_regular_readers.pop_back();
    dispatch_get(shard_idx, r, std::move(g));
  }
}

void StoreService::dispatch_get(std::size_t shard_idx, std::size_t reader,
                                PendingGet g) {
  Shard& sh = *shards_[shard_idx];
  const ObjectId obj = g.obj;
  const ReadMode mode = g.mode;
  const bool internal = g.internal;
  auto done = [this, shard_idx, reader, mode, internal, cb = std::move(g.cb),
               submitted = g.submitted](Tag tag, Value value) {
    Shard& done_sh = *shards_[shard_idx];
    if (!internal) {
      metrics_
          .histogram(
              mode == ReadMode::TagOnly ? "validate_latency" : "get_latency",
              shard_idx)
          .record(done_sh.sim->now() - submitted);
      // Gauge drops before the callback runs, as in dispatch_put.
      outstanding_.fetch_sub(1, std::memory_order_acq_rel);
    }
    if (cb) cb(GetResult::success(tag, std::move(value)));
    if (!internal) engine_->release(done_sh.lane);
    (mode == ReadMode::Regular ? done_sh.free_regular_readers
                               : done_sh.free_readers)
        .push_back(reader);
    pump_gets(shard_idx);
  };
  switch (mode) {
    case ReadMode::Atomic:
      sh.cluster->read(reader, obj, std::move(done));
      return;
    case ReadMode::Regular:
      sh.lds->regular_reader(reader).read(obj, std::move(done));
      return;
    case ReadMode::TagOnly:
      sh.lds->reader(reader).read_tag(obj, std::move(done));
      return;
  }
}

// ---- conditional puts -------------------------------------------------------

void StoreService::put_if(const std::string& key, Value value,
                          Version expected, PutCallback cb) {
  const std::size_t s = router_.shard_of(key);
  Shard& sh = *shards_[s];
  if (sh.puts_in_flight.fetch_add(1, std::memory_order_acq_rel) >=
      opt_.admission_limit) {
    sh.puts_in_flight.fetch_sub(1, std::memory_order_acq_rel);
    metrics_.counter("puts_rejected", s).inc();
    if (cb) {
      cb(PutResult::failure(Status::AdmissionReject(
          "shard " + std::to_string(s) + " at limit " +
          std::to_string(opt_.admission_limit))));
    }
    return;
  }
  metrics_.counter("puts_conditional", s).inc();
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  if (!parallel_) {
    enqueue_put_if(s, key, std::move(value), expected, std::move(cb));
    return;
  }
  engine_->hold(sh.lane);
  engine_->post(sh.lane, [this, s, key, value = std::move(value), expected,
                          cb = std::move(cb)]() mutable {
    enqueue_put_if(s, key, std::move(value), expected, std::move(cb));
  });
}

void StoreService::finish_put(std::size_t shard_idx, const PutCallback& cb,
                              const PutResult& r) {
  Shard& sh = *shards_[shard_idx];
  sh.puts_in_flight.fetch_sub(1, std::memory_order_acq_rel);
  outstanding_.fetch_sub(1, std::memory_order_acq_rel);
  if (cb) cb(r);
  engine_->release(sh.lane);
}

void StoreService::enqueue_put_if(std::size_t shard_idx,
                                  const std::string& key, Value value,
                                  Version expected, PutCallback cb) {
  Shard& sh = *shards_[shard_idx];
  const auto it = sh.objects.find(key);

  // Queue the (now verified) write directly: conditional puts bypass the
  // coalescing window so they are never absorbed and always return their
  // own tag.
  auto commit = [this, shard_idx](Value v, ObjectId obj, PutCallback pcb) {
    Shard& csh = *shards_[shard_idx];
    PendingPut p;
    p.obj = obj;
    p.value = std::move(v);
    p.cbs.push_back(std::move(pcb));
    p.submitted.push_back(csh.sim->now());
    csh.put_queue.push_back(std::move(p));
    ++csh.writes_in_flight[obj];  // later put_ifs must see this write
    pump_puts(shard_idx);
  };

  if (it == sh.objects.end()) {
    // A never-written key's register holds v0 at t0, so it verifies against
    // Version(kTag0).  (No real write ever carries t0: writers always bump
    // z, so this cannot collide with a committed version.)
    if (expected == Version(kTag0)) {
      auto interned = intern(sh, shard_idx, key);
      if (!interned.ok()) {
        metrics_.counter("puts_unavailable", shard_idx).inc();
        finish_put(shard_idx, cb, PutResult::failure(interned.status()));
        return;
      }
      commit(std::move(value), interned.value(), std::move(cb));
    } else {
      metrics_.counter("puts_aborted", shard_idx).inc();
      finish_put(shard_idx, cb,
                 PutResult::failure(Status::Aborted(
                     "expected version " + expected.to_string() +
                     ", key never written")));
    }
    return;
  }

  // Verification read through the shard's reader pool.  `internal` keeps the
  // put_if's own outstanding/admission slots in place until the final
  // verdict (the read is still a genuine protocol read and is recorded in
  // the shard history).
  PendingGet g;
  g.obj = it->second;
  g.submitted = sh.sim->now();
  g.mode = ReadMode::Atomic;
  g.internal = true;
  g.cb = [this, shard_idx, expected, value = std::move(value),
          cb = std::move(cb), commit,
          obj = it->second](const GetResult& r) mutable {
    Shard& vsh = *shards_[shard_idx];
    // Closing the verify-then-write window: a same-key write that is still
    // in flight — or that committed while the verification read was in
    // progress (the read only guarantees freshness against writes completed
    // before its invocation) — may not be reflected in r.tag, and blindly
    // committing would silently overwrite it.  Such writes force a
    // (possibly spurious) abort; anything arriving after this point is
    // concurrent with the conditional write, so either linearization is
    // valid and no lost update is possible.
    const auto in_flight = vsh.writes_in_flight.find(obj);
    const auto committed = vsh.last_committed.find(obj);
    const bool racing =
        (in_flight != vsh.writes_in_flight.end() && in_flight->second > 0) ||
        (committed != vsh.last_committed.end() &&
         committed->second > expected.tag());
    if (racing || Version(r.tag) != expected) {
      metrics_.counter("puts_aborted", shard_idx).inc();
      const Tag observed =
          committed != vsh.last_committed.end() && committed->second > r.tag
              ? committed->second
              : r.tag;
      PutResult abort = PutResult::failure(Status::Aborted(
          racing ? "concurrent write on the key (re-read and retry)"
                 : "expected version " + expected.to_string() +
                       ", observed " + Version(observed).to_string()));
      abort.tag = observed;  // surface the observed version for retry loops
      abort.version = Version(observed);
      finish_put(shard_idx, cb, abort);
      return;
    }
    commit(std::move(value), obj, std::move(cb));
  };
  sh.get_queue.push_back(std::move(g));
  pump_gets(shard_idx);
}

// ---- sync wrappers ----------------------------------------------------------

using detail::run_op_sync;

PutResult StoreService::put_sync(const std::string& key, Value value) {
  return run_op_sync<PutResult>(
      engine_.get(), "put_sync: simulation drained before completion",
      [&](auto done) {
        put(key, std::move(value),
            [done = std::move(done)](const PutResult& r) { done(r); });
      });
}

GetResult StoreService::get_sync(const std::string& key, ReadMode mode) {
  return run_op_sync<GetResult>(
      engine_.get(), "get_sync: simulation drained before completion",
      [&](auto done) {
        get(key, [done = std::move(done)](const GetResult& r) { done(r); },
            mode);
      });
}

PutResult StoreService::put_if_sync(const std::string& key, Value value,
                                    Version expected) {
  return run_op_sync<PutResult>(
      engine_.get(),
      "put_if_sync: simulation drained before completion", [&](auto done) {
        put_if(key, std::move(value), expected,
               [done = std::move(done)](const PutResult& r) { done(r); });
      });
}

// ---- crash injection & quiescence -------------------------------------------

bool StoreService::inject_crash_on_lane(std::size_t shard, Rng& rng) {
  Shard& sh = *shards_.at(shard);
  const auto victim = sh.budget.pick(rng);
  if (!victim.has_value()) return false;
  // One crash counter per LDS layer; ABD and CAS shards have one layer.
  static constexpr const char* kLdsCounter[] = {"crashes_l1", "crashes_l2"};
  metrics_
      .counter(sh.lds != nullptr ? kLdsCounter[victim->layer] : "crashes",
               shard)
      .inc();
  sh.cluster->crash(victim->layer, victim->index);
  return true;
}

bool StoreService::inject_crash(std::size_t shard, Rng& rng) {
  if (!parallel_) return inject_crash_on_lane(shard, rng);
  // Hop to the shard's lane and wait for the verdict.  The calling thread
  // blocks, so handing it our Rng reference is race-free.
  return run_op_sync<bool>(
      engine_.get(), "inject_crash: cannot stall",
      [&](auto done) {
        engine_->post(shards_.at(shard)->lane, [&, done = std::move(done)] {
          done(inject_crash_on_lane(shard, rng));
        });
      });
}

void StoreService::inject_crash_async(std::size_t shard, std::uint64_t seed,
                                      std::function<void(bool)> done) {
  pending_injections_.fetch_add(1, std::memory_order_acq_rel);
  engine_->post(shards_.at(shard)->lane,
                [this, shard, seed, done = std::move(done)] {
                  Rng rng(seed);
                  const bool r = inject_crash_on_lane(shard, rng);
                  pending_injections_.fetch_sub(1, std::memory_order_acq_rel);
                  if (done) done(r);
                });
}

bool StoreService::idle() const {
  if (outstanding_.load(std::memory_order_acquire) != 0) return false;
  if (pending_injections_.load(std::memory_order_acquire) != 0) return false;
  if (repair_ != nullptr) {
    if (!repair_->quiet()) return false;
    // Every injected (or falsely suspected) L2 outage must have healed.
    for (const auto& sh : shards_) {
      if (sh->lds != nullptr &&
          sh->budget.down_count(core::LdsCluster::kL2) > 0) {
        return false;
      }
    }
  }
  return true;
}

void StoreService::quiesce(const std::function<bool()>& drained) {
  // Re-arm the heartbeat loops: a previous quiesce stopped them, and crashes
  // injected since then still need detection (start() is idempotent).
  if (repair_ != nullptr) repair_->start();
  auto settled = [&] { return idle() && (!drained || drained()); };
  if (!parallel_) {
    // Safety valve: a healthy service reaches idle() in well under this many
    // events; hitting the cap means a liveness bug, so abort loudly.
    std::size_t guard = 100'000'000;
    net::Simulator& sim = engine_->lane_sim(0);
    while (!settled() && guard > 0 && sim.step()) {
      --guard;
    }
    LDS_REQUIRE(settled(), "StoreService::quiesce: stalled with work pending");
    if (repair_ != nullptr) repair_->stop();
    while (sim.step()) {
    }
    return;
  }
  const bool ok = engine_->drain_until(settled);
  LDS_REQUIRE(ok && settled(),
              "StoreService::quiesce: stalled with work pending");
  if (repair_ != nullptr) repair_->stop();  // posted to each shard's lane
  engine_->drain();
}

// ---- membership (Options::fabric) --------------------------------------------

void StoreService::admin_reconfig(
    std::uint8_t op, std::vector<std::uint32_t> l2_indices, std::string host,
    std::uint16_t port, std::function<void(Status, std::uint64_t)> done) {
  if (coordinator_ == nullptr) {
    if (done) {
      done(Status::InvalidArgument("service has no membership fabric"), 0);
    }
    return;
  }
  if (op == 0) {
    if (done) done(Status::Ok(), opt_.fabric->epoch());
    return;
  }
  if (op == 1) {
    coordinator_->move_l2(std::move(l2_indices), std::move(host), port,
                          [done = std::move(done)](Status st,
                                                   std::uint64_t epoch) {
                            if (done) done(std::move(st), epoch);
                          });
    return;
  }
  if (done) {
    done(Status::InvalidArgument("unknown reconfig op " + std::to_string(op)),
         0);
  }
}

void StoreService::pause_dispatch() {
  dispatch_paused_.store(true, std::memory_order_release);
}

void StoreService::resume_dispatch() {
  dispatch_paused_.store(false, std::memory_order_release);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    engine_->post(shards_[s]->lane, [this, s] {
      pump_puts(s);
      pump_gets(s);
    });
  }
}

bool StoreService::drain_dispatched(double timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  for (;;) {
    bool idle = true;
    for (std::size_t s = 0; s < shards_.size() && idle; ++s) {
      Shard* sh = shards_[s].get();
      auto done = std::make_shared<std::promise<bool>>();
      auto fut = done->get_future();
      engine_->post(sh->lane, [this, sh, done] {
        const std::size_t regular =
            sh->lds != nullptr ? opt_.regular_readers_per_shard : 0;
        done->set_value(sh->free_writers.size() == opt_.writers_per_shard &&
                        sh->free_readers.size() == opt_.readers_per_shard &&
                        sh->free_regular_readers.size() == regular);
      });
      if (fut.wait_for(std::chrono::seconds(5)) !=
          std::future_status::ready) {
        return false;
      }
      if (!fut.get()) idle = false;
    }
    if (idle) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void StoreService::apply_member_view(const member::View&,
                                     const member::View& next) {
  // Placement surgery, on shard 0's lane (the fabric's view-change hook).
  // Adopted L2s come up EMPTY; the coordinator's state-sync step repairs
  // them right after dispatch resumes.
  Shard& sh = *shards_[0];
  core::LdsCluster& c = *sh.lds;
  const member::ProcessId self = opt_.fabric->self();
  for (std::size_t j = 0; j < sh.spec.n1; ++j) {
    const NodeId id = core::kL1IdBase + static_cast<NodeId>(j);
    const bool mine = next.process_of(id) == self;
    if (mine && !c.l1_local(j)) {
      c.adopt_l1(j);
    } else if (!mine && c.l1_local(j)) {
      c.release_l1(j);
    }
  }
  for (std::size_t i = 0; i < sh.spec.n2; ++i) {
    const NodeId id = core::kL2IdBase + static_cast<NodeId>(i);
    const bool mine = next.process_of(id) == self;
    if (mine && !c.l2_local(i)) {
      c.adopt_l2(i);
    } else if (!mine && c.l2_local(i)) {
      c.release_l2(i);
    }
  }
}

std::vector<ObjectId> StoreService::object_ids(const Shard& sh) {
  std::vector<ObjectId> out;
  out.reserve(sh.objects.size());
  for (const auto& [key, obj] : sh.objects) out.push_back(obj);
  return out;
}

std::vector<ObjectId> StoreService::member_objects() {
  Shard* sh = shards_[0].get();
  auto done = std::make_shared<std::promise<std::vector<ObjectId>>>();
  auto fut = done->get_future();
  engine_->post(sh->lane, [sh, done] { done->set_value(object_ids(*sh)); });
  if (fut.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
    return {};
  }
  return fut.get();
}

}  // namespace lds::store
