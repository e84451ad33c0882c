#include "harness/stress.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "baselines/abd.h"
#include "baselines/cas.h"
#include "common/rng.h"
#include "harness/workload.h"
#include "lds/cluster.h"
#include "store/client.h"

namespace lds::harness {

using core::History;
using core::OpKind;
using core::OpRecord;

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::Lds: return "lds";
    case Backend::Abd: return "abd";
    case Backend::Cas: return "cas";
    case Backend::Store: return "store";
  }
  return "?";
}

std::optional<Backend> parse_backend(std::string_view name) {
  if (name == "lds") return Backend::Lds;
  if (name == "abd") return Backend::Abd;
  if (name == "cas") return Backend::Cas;
  if (name == "store") return Backend::Store;
  return std::nullopt;
}

// ---- SharedState -----------------------------------------------------------

void SharedState::report(ShardReport r) {
  std::lock_guard<std::mutex> lock(mu_);
  reports_.at(r.shard) = std::move(r);
}

// ---- independent freshness verifier ----------------------------------------

History::CheckResult verify_read_freshness(const History& h) {
  std::unordered_map<ObjectId, std::vector<OpRecord>> by_obj;
  for (const auto& op : h.ops()) {
    if (op.complete) by_obj[op.obj].push_back(op);
  }
  for (auto& [obj, ops] : by_obj) {
    for (const auto& r : ops) {
      if (r.kind != OpKind::Read) continue;
      Tag floor = kTag0;
      for (const auto& o : ops) {
        if (o.responded >= r.invoked) continue;  // not strictly before
        // Writes and prior reads both raise the freshness floor: atomicity
        // makes every completed operation's tag visible to later ops.
        floor = std::max(floor, o.tag);
      }
      if (r.tag < floor) {
        return {false, "stale read: op " + std::to_string(r.id) + " on obj " +
                           std::to_string(obj) + " returned tag " +
                           r.tag.to_string() + " < freshness floor " +
                           floor.to_string()};
      }
      for (const auto& w : ops) {
        if (w.kind == OpKind::Write && r.responded < w.invoked &&
            r.tag == w.tag) {
          return {false, "read " + std::to_string(r.id) +
                             " returned the tag of a write invoked after it"};
        }
      }
    }
  }
  return {true, {}};
}

// ---- per-shard execution ----------------------------------------------------

namespace {

/// Uniform closure over the three backends: issue an operation on a given
/// client index, or try to crash / repair a server.  The concrete cluster is
/// kept alive through `keepalive`.
struct ShardEnv {
  net::Simulator* sim = nullptr;
  /// One history per verification domain: a single cluster for lds/abd/cas,
  /// one per store shard for the store backend.
  std::vector<const History*> histories;
  std::function<void(std::size_t, ObjectId, Value, std::function<void()>)>
      write;
  std::function<void(std::size_t, ObjectId, std::function<void()>)> read;
  /// Injects one server crash if the failure budget allows; returns whether
  /// a crash was scheduled.
  std::function<bool(Rng&)> try_crash;
  std::size_t* repairs = nullptr;
  /// Store backend hooks: drain including background repair (instead of a
  /// plain run-to-empty, which a heartbeat loop never reaches; the argument
  /// tells the service when the closed loop has no ops left to issue),
  /// service-level liveness, and report enrichment (repairs, batches,
  /// coalescing).
  std::function<void(std::function<bool()>)> quiesce;
  std::function<std::size_t()> outstanding;
  std::function<void(ShardReport&)> fill_store_stats;
  std::shared_ptr<void> keepalive;
};

/// LDS, ABD or CAS: one cluster, driven through the protocol-neutral
/// core::Cluster surface.  try_crash picks a victim within `budget` (a fresh
/// one over the cluster's fault layers when null), crashes it after an
/// exponential delay, and hands the victim and that delay to `after_crash`
/// (LDS repair churn; it may draw from the same Rng).
using CrashHook =
    std::function<void(core::FailureBudget::Victim, double delay, Rng&)>;

ShardEnv make_cluster_env(std::shared_ptr<core::Cluster> cluster,
                          std::shared_ptr<core::FailureBudget> budget = {},
                          CrashHook after_crash = {}) {
  if (!budget) {
    budget = std::make_shared<core::FailureBudget>(cluster->fault_layers());
  }
  ShardEnv env;
  env.sim = &cluster->sim();
  env.histories.push_back(&cluster->history());
  env.write = [cluster](std::size_t w, ObjectId obj, Value v,
                        std::function<void()> done) {
    cluster->write(w, obj, std::move(v),
                   [done = std::move(done)](Tag) { done(); });
  };
  env.read = [cluster](std::size_t r, ObjectId obj,
                       std::function<void()> done) {
    cluster->read(r, obj,
                  [done = std::move(done)](Tag, const Value&) { done(); });
  };
  env.try_crash = [cluster, budget,
                   after_crash = std::move(after_crash)](Rng& rng) {
    const auto victim = budget->pick(rng);
    if (!victim.has_value()) return false;
    const double delay = rng.exponential(1.0);
    cluster->sim().after(delay, [cluster, v = *victim] {
      cluster->crash(v.layer, v.index);
    });
    if (after_crash) after_crash(*victim, delay, rng);
    return true;
  };
  env.keepalive = cluster;
  return env;
}

ShardEnv make_lds_env(const StressOptions& opt, std::uint64_t shard_seed) {
  core::LdsCluster::Options copt;
  copt.cfg.n1 = opt.n1;
  copt.cfg.f1 = opt.f1;
  copt.cfg.n2 = opt.n2;
  copt.cfg.f2 = opt.f2;
  copt.cfg.initial_value = Bytes{};
  copt.writers = opt.writers;
  copt.readers = opt.readers;
  copt.latency = opt.exponential_latency
                     ? core::LdsCluster::LatencyKind::Exponential
                     : core::LdsCluster::LatencyKind::Fixed;
  copt.tau1 = opt.tau1;
  copt.tau0 = opt.tau0;
  copt.tau2 = opt.tau2;
  copt.seed = mix_seed(shard_seed, 1);
  auto cluster = std::make_shared<core::LdsCluster>(copt);
  auto budget = std::make_shared<core::FailureBudget>(cluster->fault_layers());

  // Repair churn: replace the crashed server, then regenerate every object
  // in ascending order.  An L2 server holds its failure-budget slot from the
  // moment it is crashed until its replacement holds every object again
  // (under-repair servers answer with stale state, so they must count
  // against f2 like crashed ones).
  auto repairs_done = std::make_shared<std::size_t>(0);
  ShardEnv env = make_cluster_env(
      cluster, budget,
      [cluster, budget, repairs_done, rate = opt.repair_rate,
       objects = opt.objects](core::FailureBudget::Victim v, double delay,
                              Rng& rng) {
        const bool repair =
            v.layer == core::LdsCluster::kL2 && rng.bernoulli(rate);
        const double repair_delay = delay + 2.0 + rng.exponential(5.0);
        if (!repair) return;
        core::LdsCluster* c = cluster.get();
        core::FailureBudget* bp = budget.get();
        std::size_t* done = repairs_done.get();
        c->sim().after(repair_delay, [c, bp, done, objects, victim = v.index] {
          c->replace_l2(victim);
          std::vector<ObjectId> all(objects);
          std::iota(all.begin(), all.end(), ObjectId{0});
          core::regenerate_objects(c->net(), c->ctx().l2_ids[victim],
                                   std::move(all),
                                   [bp, done, victim](core::RegenTally) {
                                     bp->mark_up(core::LdsCluster::kL2, victim);
                                     ++*done;
                                   });
        });
      });
  env.repairs = repairs_done.get();
  return env;
}

/// The single-layer baselines: ABD with f < n/2, CAS with k = n - 2f.
std::shared_ptr<core::Cluster> make_baseline(const StressOptions& opt,
                                             std::uint64_t shard_seed) {
  auto single_layer = [&](auto copt) {
    copt.n = opt.n;
    copt.writers = opt.writers;
    copt.readers = opt.readers;
    copt.tau1 = opt.tau1;
    copt.seed = mix_seed(shard_seed, 1);
    copt.exponential_latency = opt.exponential_latency;
    return copt;
  };
  if (opt.backend == Backend::Abd) {
    baselines::AbdCluster::Options copt;
    copt.f = opt.f;
    return std::make_shared<baselines::AbdCluster>(single_layer(copt));
  }
  baselines::CasCluster::Options copt;
  copt.k = opt.n - 2 * opt.f;
  return std::make_shared<baselines::CasCluster>(single_layer(copt));
}

/// Project the stress options onto the shared workload model.  The
/// permutation seed is the shard seed, so a solo replay of one shard keeps
/// its hot-key layout.  An unparseable --value-dist falls back to the fixed
/// --value-size (validate_options rejects it before we get here).
WorkloadOptions workload_options(const StressOptions& opt,
                                 std::uint64_t seed) {
  WorkloadOptions w;
  w.keys = opt.objects;
  w.read_fraction = opt.read_fraction;
  w.zipf_theta = opt.zipf_theta;
  if (!opt.value_dist.empty()) {
    if (const auto d = ValueSizeDist::parse(opt.value_dist); d.has_value()) {
      w.value_dist = *d;
    }
  } else {
    w.value_dist.kind = ValueSizeDist::Kind::Fixed;
    w.value_dist.a = w.value_dist.b = opt.value_size;
  }
  w.tenants = opt.tenants;
  w.seed = seed;
  return w;
}

store::CacheOptions cache_options(const StressOptions& opt) {
  store::CacheOptions c;
  c.enabled = opt.client_cache;
  c.ttl = opt.cache_ttl;
  c.capacity = opt.cache_capacity;
  return c;
}

store::StoreOptions make_store_options(const StressOptions& opt,
                                       std::uint64_t shard_seed) {
  store::StoreOptions sopt;
  sopt.shards = opt.store_shards;
  sopt.writers_per_shard = opt.writers;
  sopt.readers_per_shard = opt.readers;
  sopt.backend.n1 = opt.n1;
  sopt.backend.f1 = opt.f1;
  sopt.backend.n2 = opt.n2;
  sopt.backend.f2 = opt.f2;
  sopt.batch_window = opt.batch_window;
  sopt.max_batch = opt.max_batch;
  sopt.exponential_latency = opt.exponential_latency;
  sopt.tau1 = opt.tau1;
  sopt.tau0 = opt.tau0;
  sopt.tau2 = opt.tau2;
  sopt.seed = mix_seed(shard_seed, 1);
  sopt.enable_repair = true;
  // With exponential (heavy-tailed) heartbeat delays a tight timeout would
  // fire constantly on alive servers; false suspicions are budget-gated and
  // safe, but keep them the exception rather than the steady state.
  sopt.repair.suspect_after =
      2 * sopt.repair.heartbeat_period + 8 * opt.tau2;
  return sopt;
}

ShardEnv make_store_env(const StressOptions& opt, std::uint64_t shard_seed,
                        const WorkloadModel* model) {
  const store::StoreOptions sopt = make_store_options(opt, shard_seed);
  auto service = std::make_shared<store::StoreService>(sopt);
  // All client traffic goes through the unified store::Client facade; the
  // raw service stays for introspection (histories, metrics, injection).
  // The read cache, when enabled, lives in this client and validates with
  // tag-only rounds.  `model` maps (client, object) to the tenant-prefixed
  // key name; it outlives the env (owned by run_shard's frame).
  auto client = std::make_shared<store::Client>(*service, cache_options(opt));

  ShardEnv env;
  env.sim = &service->sim();
  for (std::size_t s = 0; s < service->num_shards(); ++s) {
    env.histories.push_back(&service->shard_history(s));
  }
  env.write = [client, model](std::size_t w, ObjectId obj, Value v,
                              std::function<void()> done) {
    client->put(model->key_name(model->tenant_of_client(w), obj),
                std::move(v),
                [done = std::move(done)](const store::PutResult&) { done(); });
  };
  env.read = [client, model](std::size_t r, ObjectId obj,
                             std::function<void()> done) {
    client->get(model->key_name(model->tenant_of_client(r), obj),
                [done = std::move(done)](const store::GetResult&) { done(); });
  };
  env.try_crash = [service, shards = opt.store_shards](Rng& rng) {
    // Random starting shard, then first shard with remaining budget.
    const std::size_t start = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(shards) - 1));
    for (std::size_t i = 0; i < shards; ++i) {
      if (service->inject_crash((start + i) % shards, rng)) return true;
    }
    return false;
  };
  env.quiesce = [service](std::function<bool()> drained) {
    service->quiesce(std::move(drained));
  };
  env.outstanding = [service] { return service->outstanding(); };
  env.fill_store_stats = [service, client](ShardReport& rep) {
    rep.repairs = service->metrics().counter_total("repairs_completed");
    rep.batches = service->metrics().counter_total("batches");
    rep.coalesced = service->metrics().counter_total("puts_coalesced");
    rep.cache_hits = client->metrics().counter_total("cache_hits");
    rep.cache_misses = client->metrics().counter_total("cache_misses");
  };
  struct Keep {
    std::shared_ptr<store::StoreService> service;
    std::shared_ptr<store::Client> client;
  };
  env.keepalive = std::make_shared<Keep>(Keep{service, client});
  return env;
}

/// Client liveness, the paper's atomicity conditions and the independent
/// freshness checker over one history: clears each failing verdict in `rep`
/// and records the first violation, suffixed with `where`.
void verify_history(const History& history, const std::string& where,
                    ShardReport& rep) {
  if (!history.all_complete() && rep.liveness_ok) {
    rep.liveness_ok = false;
    rep.violation = "liveness: " + std::to_string(history.incomplete()) +
                    " ops never completed" + where;
  }
  const auto atomic_verdict = history.check_atomicity(Bytes{});
  if (!atomic_verdict.ok && rep.atomicity_ok) {
    rep.atomicity_ok = false;
    if (rep.violation.empty()) {
      rep.violation = "atomicity: " + atomic_verdict.violation + where;
    }
  }
  const auto fresh_verdict = verify_read_freshness(history);
  if (!fresh_verdict.ok && rep.freshness_ok) {
    rep.freshness_ok = false;
    if (rep.violation.empty()) {
      rep.violation = "freshness: " + fresh_verdict.violation + where;
    }
  }
}

/// db_stress ThreadState: everything one OS thread needs to run its shard.
struct ThreadState {
  std::size_t shard = 0;
  std::uint64_t seed = 0;  ///< per-shard derived seed
  StressOptions opt;
};

ShardReport run_shard(const ThreadState& ts) {
  const StressOptions& opt = ts.opt;
  ShardReport rep;
  rep.shard = ts.shard;
  rep.seed = ts.seed;
  auto rng = std::make_shared<Rng>(ts.seed);
  // Key popularity / value sizes / tenant naming; env closures hold a raw
  // pointer into this frame (they only run inside env.sim->run() below).
  const WorkloadModel model(workload_options(opt, ts.seed));

  ShardEnv env;
  switch (opt.backend) {
    case Backend::Lds: env = make_lds_env(opt, ts.seed); break;
    case Backend::Abd:
    case Backend::Cas:
      env = make_cluster_env(make_baseline(opt, ts.seed));
      break;
    case Backend::Store: env = make_store_env(opt, ts.seed, &model); break;
  }

  // Split this shard's ops into per-client closed-loop budgets.
  const std::size_t shard_ops =
      opt.ops / opt.threads + (ts.shard < opt.ops % opt.threads ? 1 : 0);
  std::size_t reads = static_cast<std::size_t>(
      static_cast<double>(shard_ops) * opt.read_fraction + 0.5);
  reads = std::min(reads, shard_ops);
  const std::size_t writes = shard_ops - reads;
  auto writes_left = std::make_shared<std::vector<std::size_t>>(opt.writers,
                                                                std::size_t{0});
  auto reads_left = std::make_shared<std::vector<std::size_t>>(opt.readers,
                                                               std::size_t{0});
  for (std::size_t i = 0; i < writes; ++i) ++(*writes_left)[i % opt.writers];
  for (std::size_t i = 0; i < reads; ++i) ++(*reads_left)[i % opt.readers];

  // After each completion: roll the crash dice, think, and issue the
  // client's next op — the closed loop keeps clients well-formed while ops
  // from different clients overlap freely in simulated time.  All closures
  // run inside env.sim->run() below, so capturing the stack-local
  // std::functions by reference is safe (same idiom as tests/test_lds_stress).
  std::function<void()> on_done;
  std::function<void(std::size_t)> write_next;
  std::function<void(std::size_t)> read_next;

  on_done = [rng, &env, &rep, opt]() {
    if (opt.crash_rate > 0 && rng->bernoulli(opt.crash_rate)) {
      if (env.try_crash(*rng)) ++rep.crashes;
    }
  };

  write_next = [writes_left, rng, &env, &rep, &model, &on_done,
                &write_next](std::size_t w) {
    if ((*writes_left)[w] == 0) return;
    --(*writes_left)[w];
    const auto obj = static_cast<ObjectId>(model.key_index(*rng));
    ++rep.writes;
    env.write(w, obj, rng->bytes(model.value_size(*rng)),
              [&env, rng, &on_done, &write_next, w] {
                on_done();
                env.sim->after(rng->exponential(1.0) + 1e-6,
                               [&write_next, w] { write_next(w); });
              });
  };
  read_next = [reads_left, rng, &env, &rep, &model, &on_done,
               &read_next](std::size_t r) {
    if ((*reads_left)[r] == 0) return;
    --(*reads_left)[r];
    const auto obj = static_cast<ObjectId>(model.key_index(*rng));
    ++rep.reads;
    env.read(r, obj, [&env, rng, &on_done, &read_next, r] {
      on_done();
      env.sim->after(rng->exponential(1.0) + 1e-6,
                     [&read_next, r] { read_next(r); });
    });
  };

  for (std::size_t w = 0; w < opt.writers; ++w) {
    env.sim->at(rng->uniform_real(0.0, 3.0),
                [&write_next, w] { write_next(w); });
  }
  for (std::size_t r = 0; r < opt.readers; ++r) {
    env.sim->at(rng->uniform_real(0.0, 6.0),
                [&read_next, r] { read_next(r); });
  }

  // A plain run-to-empty suffices for single-cluster backends; the store's
  // background repair loop needs its own quiescence protocol, told when the
  // closed loop has exhausted every client's op budget.
  if (env.quiesce) {
    env.quiesce([writes_left, reads_left] {
      for (const auto n : *writes_left) {
        if (n != 0) return false;
      }
      for (const auto n : *reads_left) {
        if (n != 0) return false;
      }
      return true;
    });
  } else {
    env.sim->run();
  }
  rep.sim_events = env.sim->events_executed();
  if (env.repairs != nullptr) rep.repairs = *env.repairs;
  if (env.fill_store_stats) env.fill_store_stats(rep);

  // Verify every history (per store shard for the store backend): client
  // liveness, the paper's atomicity conditions, and the independent
  // freshness reference checker.
  rep.liveness_ok = true;
  rep.atomicity_ok = true;
  rep.freshness_ok = true;
  const bool multi = env.histories.size() > 1;
  for (std::size_t h = 0; h < env.histories.size(); ++h) {
    verify_history(*env.histories[h],
                   multi ? " (store shard " + std::to_string(h) + ")" : "",
                   rep);
  }
  if (env.outstanding && env.outstanding() != 0 && rep.liveness_ok) {
    rep.liveness_ok = false;
    rep.violation = "liveness: " + std::to_string(env.outstanding()) +
                    " store ops never called back";
  }
  return rep;
}

// ---- parallel-engine store stress -------------------------------------------

/// --engine=parallel, store backend: ONE StoreService whose shards spread
/// over `threads` ParallelEngine lanes, driven by writer/reader chains that
/// issue their next op from the previous op's completion callback.  A
/// chain's Rng and budget hop lanes with the callbacks, but every hop
/// synchronizes through the engine, so chain state needs no locks; chains
/// share only atomic gauges.  Reports one ShardReport per *store* shard
/// (the verification domain), with counts recovered from the metrics
/// registry.
StressReport run_parallel_store(const StressOptions& opt,
                                std::uint64_t master_seed) {
  StressReport out;
  out.seed = master_seed;
  store::StoreOptions sopt = make_store_options(opt, master_seed);
  sopt.engine_mode = net::EngineMode::Parallel;
  sopt.engine_threads = opt.threads;
  store::StoreService svc(sopt);
  store::Client client(svc, cache_options(opt));
  const WorkloadModel model(workload_options(opt, master_seed));

  struct Chain {
    Rng rng{1};
    std::size_t left = 0;  ///< chain-serialized; hops lanes with the chain
    bool reader = false;
    std::size_t tenant = 0;
  };
  std::size_t reads = static_cast<std::size_t>(
      static_cast<double>(opt.ops) * opt.read_fraction + 0.5);
  reads = std::min(reads, opt.ops);
  const std::size_t writes = opt.ops - reads;
  std::vector<std::unique_ptr<Chain>> chains;
  for (std::size_t w = 0; w < opt.writers; ++w) {
    auto c = std::make_unique<Chain>();
    c->rng = Rng(mix_seed(master_seed, 100 + w));
    c->left = writes / opt.writers + (w < writes % opt.writers ? 1 : 0);
    c->tenant = model.tenant_of_client(w);
    chains.push_back(std::move(c));
  }
  for (std::size_t r = 0; r < opt.readers; ++r) {
    auto c = std::make_unique<Chain>();
    c->rng = Rng(mix_seed(master_seed, 200 + r));
    c->left = reads / opt.readers + (r < reads % opt.readers ? 1 : 0);
    c->reader = true;
    c->tenant = model.tenant_of_client(r);
    chains.push_back(std::move(c));
  }
  std::atomic<std::size_t> to_issue{opt.ops};

  // The closures below run on engine lanes while this frame blocks in
  // quiesce(), so capturing stack locals by reference is safe (same idiom
  // as run_shard's sim-driven closures).
  std::function<void(Chain*)> issue = [&](Chain* c) {
    if (c->left == 0) return;
    --c->left;
    to_issue.fetch_sub(1, std::memory_order_acq_rel);
    const auto obj = static_cast<ObjectId>(model.key_index(c->rng));
    const std::string key = model.key_name(c->tenant, obj);
    auto done = [&, c] {
      if (opt.crash_rate > 0 && c->rng.bernoulli(opt.crash_rate)) {
        const auto shard = static_cast<std::size_t>(c->rng.uniform_int(
            0, static_cast<std::int64_t>(opt.store_shards) - 1));
        // Fire-and-forget: the injection runs on the victim shard's lane
        // (counted in the service's idle() gauge); blocking here would
        // stall a lane on another lane mid-callback.
        svc.inject_crash_async(shard, c->rng.next_u64());
      }
      issue(c);
    };
    if (c->reader) {
      client.get(key, [done](const store::GetResult&) { done(); });
    } else {
      client.put(key, c->rng.bytes(model.value_size(c->rng)),
                 [done](const store::PutResult&) { done(); });
    }
  };
  for (auto& c : chains) issue(c.get());
  svc.quiesce([&] { return to_issue.load(std::memory_order_acquire) == 0; });

  const auto snap = svc.metrics().snapshot();
  auto shard_counter = [&](std::size_t s, const char* name) -> std::uint64_t {
    const auto& m = snap.shards.at(s).counters;
    const auto it = m.find(name);
    return it == m.end() ? 0 : it->second;
  };
  for (std::size_t s = 0; s < svc.num_shards(); ++s) {
    ShardReport rep;
    rep.shard = s;
    rep.seed = sopt.seed;
    rep.writes = shard_counter(s, "puts");
    rep.reads = shard_counter(s, "gets");
    rep.crashes = shard_counter(s, "crashes") +
                  shard_counter(s, "crashes_l1") +
                  shard_counter(s, "crashes_l2");
    rep.repairs = shard_counter(s, "repairs_completed");
    rep.batches = shard_counter(s, "batches");
    rep.coalesced = shard_counter(s, "puts_coalesced");
    // Engine-wide event total, reported once (lanes are shared by shards).
    rep.sim_events = s == 0 ? svc.engine().events_executed() : 0;
    // The client (and so the cache) spans shards; report its counters once.
    if (s == 0) {
      rep.cache_hits = client.metrics().counter_total("cache_hits");
      rep.cache_misses = client.metrics().counter_total("cache_misses");
    }

    rep.liveness_ok = true;
    rep.atomicity_ok = true;
    rep.freshness_ok = true;
    verify_history(svc.shard_history(s), "", rep);
    if (s == 0 && svc.outstanding() != 0) {
      rep.liveness_ok = false;
      rep.violation = "liveness: " + std::to_string(svc.outstanding()) +
                      " store ops never called back";
    }
    if (opt.verbose) {
      std::fprintf(stderr,
                   "[store shard %2zu] w=%zu r=%zu crashes=%zu repairs=%zu "
                   "%s%s%s\n",
                   rep.shard, rep.writes, rep.reads, rep.crashes, rep.repairs,
                   rep.ok() ? "OK" : "VIOLATION",
                   rep.violation.empty() ? "" : ": ",
                   rep.violation.c_str());
    }
    out.shards.push_back(std::move(rep));
  }
  return out;
}

}  // namespace

// ---- driver -----------------------------------------------------------------

std::size_t StressReport::total_writes() const {
  std::size_t n = 0;
  for (const auto& s : shards) n += s.writes;
  return n;
}
std::size_t StressReport::total_reads() const {
  std::size_t n = 0;
  for (const auto& s : shards) n += s.reads;
  return n;
}
std::size_t StressReport::total_crashes() const {
  std::size_t n = 0;
  for (const auto& s : shards) n += s.crashes;
  return n;
}
std::size_t StressReport::total_repairs() const {
  std::size_t n = 0;
  for (const auto& s : shards) n += s.repairs;
  return n;
}
std::size_t StressReport::total_batches() const {
  std::size_t n = 0;
  for (const auto& s : shards) n += s.batches;
  return n;
}
std::size_t StressReport::total_coalesced() const {
  std::size_t n = 0;
  for (const auto& s : shards) n += s.coalesced;
  return n;
}
std::size_t StressReport::total_cache_hits() const {
  std::size_t n = 0;
  for (const auto& s : shards) n += s.cache_hits;
  return n;
}
std::size_t StressReport::total_cache_misses() const {
  std::size_t n = 0;
  for (const auto& s : shards) n += s.cache_misses;
  return n;
}
std::size_t StressReport::violations() const {
  std::size_t n = 0;
  for (const auto& s : shards) n += s.ok() ? 0 : 1;
  return n;
}

std::optional<std::string> validate_options(const StressOptions& opt) {
  if (opt.threads == 0 || opt.threads > 1024)
    return "--threads must be in [1, 1024]";
  if (opt.writers == 0) return "--writers must be >= 1";
  if (opt.readers == 0) return "--readers must be >= 1";
  if (opt.objects == 0) return "--objects must be >= 1";
  // The negated >=/<= form also rejects NaN.
  if (!(opt.read_fraction >= 0.0 && opt.read_fraction <= 1.0))
    return "--read-fraction must be in [0, 1]";
  if (!(opt.crash_rate >= 0.0 && opt.crash_rate <= 1.0))
    return "--crash-rate must be in [0, 1]";
  if (!(opt.repair_rate >= 0.0 && opt.repair_rate <= 1.0))
    return "--repair-rate must be in [0, 1]";
  if (!(opt.zipf_theta >= 0.0 && opt.zipf_theta < 1.0))
    return "--zipf-theta must be in [0, 1) (0 = uniform)";
  if (!opt.value_dist.empty() &&
      !ValueSizeDist::parse(opt.value_dist).has_value())
    return "--value-dist must be fixed:N, uniform:LO:HI or "
           "bimodal:SMALL:LARGE:PCT";
  if (opt.tenants == 0) return "--tenants must be >= 1";
  if (opt.tenants > 1 && opt.backend != Backend::Store)
    return "--tenants > 1 requires --backend store (tenant key namespaces)";
  if (opt.client_cache && opt.backend != Backend::Store)
    return "--client-cache requires --backend store";
  if (opt.client_cache && opt.cache_capacity == 0)
    return "--cache-capacity must be >= 1";
  if (!(opt.cache_ttl >= 0.0)) return "--cache-ttl must be >= 0";
  if (opt.engine == net::EngineMode::Parallel && opt.backend != Backend::Store)
    return "--engine=parallel requires --backend store (single-cluster "
           "backends already scale one independent shard per OS thread)";
  if (opt.backend == Backend::Store) {
    if (opt.store_shards == 0 || opt.store_shards > 256)
      return "--shards must be in [1, 256]";
    if (!(opt.batch_window >= 0.0)) return "--batch-window must be >= 0";
    if (opt.max_batch == 0) return "--max-batch must be >= 1";
  }
  switch (opt.backend) {
    case Backend::Store:  // store shards are LDS clusters
    case Backend::Lds:
      // LdsConfig::validate()'s constraints, reported instead of aborted.
      if (opt.n1 < 1 || opt.n2 < 1) return "need n1 >= 1 and n2 >= 1";
      if (2 * opt.f1 >= opt.n1) return "need f1 < n1/2";
      if (3 * opt.f2 >= opt.n2) return "need f2 < n2/3";
      if (opt.n2 - 2 * opt.f2 < opt.n1 - 2 * opt.f1)
        return "need d = n2 - 2 f2 >= k = n1 - 2 f1 (MBR requires it)";
      if (opt.n1 + opt.n2 > 255) return "GF(256) bound: n1 + n2 <= 255";
      break;
    case Backend::Abd:
      if (opt.n < 1) return "need n >= 1";
      if (2 * opt.f >= opt.n) return "ABD tolerates f < n/2";
      break;
    case Backend::Cas:
      if (2 * opt.f >= opt.n || opt.n - 2 * opt.f < 1)
        return "CAS needs k = n - 2 f >= 1";
      if (opt.n > 255) return "GF(256) bound: n <= 255";
      break;
  }
  return std::nullopt;
}

StressReport run_stress(const StressOptions& opt) {
  StressReport out;
  out.seed = opt.seed != 0 ? opt.seed : entropy_seed();
  if (validate_options(opt).has_value()) {
    return out;  // empty => !ok()
  }
  if (opt.backend == Backend::Store &&
      opt.engine == net::EngineMode::Parallel) {
    return run_parallel_store(opt, out.seed);
  }

  SharedState shared(opt.threads);
  std::vector<std::thread> threads;
  threads.reserve(opt.threads);
  for (std::size_t t = 0; t < opt.threads; ++t) {
    ThreadState ts;
    ts.shard = t;
    // Single-thread runs use the master seed as the shard stream directly,
    // so "--threads 1 --ops <ops/threads> --seed <shard-seed>" replays one
    // shard of a multi-thread run bit-identically.
    ts.seed = opt.threads == 1 ? out.seed : mix_seed(out.seed, t);
    ts.opt = opt;
    threads.emplace_back([ts = std::move(ts), verbose = opt.verbose,
                          &shared] {
      ShardReport rep = run_shard(ts);
      if (verbose) {
        std::fprintf(stderr,
                     "[shard %2zu] seed=%llu w=%zu r=%zu crashes=%zu "
                     "repairs=%zu events=%llu %s%s%s\n",
                     rep.shard, static_cast<unsigned long long>(rep.seed),
                     rep.writes, rep.reads, rep.crashes, rep.repairs,
                     static_cast<unsigned long long>(rep.sim_events),
                     rep.ok() ? "OK" : "VIOLATION",
                     rep.violation.empty() ? "" : ": ",
                     rep.violation.c_str());
      }
      shared.report(std::move(rep));
    });
  }
  for (auto& th : threads) th.join();
  out.shards = shared.take_reports();
  return out;
}

std::string format_report(const StressOptions& opt, const StressReport& rep) {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "lds_stress: backend=%s engine=%s threads=%zu ops=%zu "
                "seed=%llu\n",
                backend_name(opt.backend), net::engine_mode_name(opt.engine),
                opt.threads, opt.ops,
                static_cast<unsigned long long>(rep.seed));
  out += line;
  std::snprintf(line, sizeof(line),
                "%-6s %-20s %8s %8s %8s %8s %10s  %s\n", "shard", "seed",
                "writes", "reads", "crashes", "repairs", "events", "verdict");
  out += line;
  for (const auto& s : rep.shards) {
    std::snprintf(line, sizeof(line),
                  "%-6zu %-20llu %8zu %8zu %8zu %8zu %10llu  %s\n", s.shard,
                  static_cast<unsigned long long>(s.seed), s.writes, s.reads,
                  s.crashes, s.repairs,
                  static_cast<unsigned long long>(s.sim_events),
                  s.ok() ? "ok" : s.violation.c_str());
    out += line;
  }
  if (opt.backend == Backend::Store) {
    std::snprintf(line, sizeof(line),
                  "store: %zu shards/service, %zu write batches, "
                  "%zu puts coalesced\n",
                  opt.store_shards, rep.total_batches(),
                  rep.total_coalesced());
    out += line;
  }
  if (opt.zipf_theta > 0.0 || opt.tenants > 1 || !opt.value_dist.empty() ||
      opt.client_cache) {
    std::snprintf(line, sizeof(line),
                  "workload: zipf-theta=%g tenants=%zu value-dist=%s "
                  "cache=%s",
                  opt.zipf_theta, opt.tenants,
                  opt.value_dist.empty()
                      ? ("fixed:" + std::to_string(opt.value_size)).c_str()
                      : opt.value_dist.c_str(),
                  opt.client_cache ? "on" : "off");
    out += line;
    if (opt.client_cache) {
      std::snprintf(line, sizeof(line), " (%zu hits / %zu misses)",
                    rep.total_cache_hits(), rep.total_cache_misses());
      out += line;
    }
    out += '\n';
  }
  std::snprintf(line, sizeof(line),
                "total: %zu writes, %zu reads, %zu crashes, %zu repairs, "
                "%zu violation(s) -> %s\n",
                rep.total_writes(), rep.total_reads(), rep.total_crashes(),
                rep.total_repairs(), rep.violations(),
                rep.ok() ? "PASS" : "FAIL");
  out += line;
  return out;
}

}  // namespace lds::harness
