// Execution-engine layer (net/engine.h): SimEngine semantics + determinism
// guarantee (same seed => byte-identical history and cost totals), and
// ParallelEngine scheduling + store correctness under crash/repair churn.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>
#include <string>

#include "harness/stress.h"
#include "lds/cluster.h"
#include "net/engine.h"
#include "store/client.h"

namespace lds {
namespace {

using net::EngineMode;
using net::ParallelEngine;
using net::SimEngine;

TEST(EngineMode, ParseAndName) {
  EXPECT_EQ(net::parse_engine_mode("sim"), EngineMode::Deterministic);
  EXPECT_EQ(net::parse_engine_mode("deterministic"),
            EngineMode::Deterministic);
  EXPECT_EQ(net::parse_engine_mode("parallel"), EngineMode::Parallel);
  EXPECT_FALSE(net::parse_engine_mode("warp").has_value());
  EXPECT_STREQ(net::engine_mode_name(EngineMode::Deterministic), "sim");
  EXPECT_STREQ(net::engine_mode_name(EngineMode::Parallel), "parallel");
}

TEST(SimEngine, PostRunsInlineAndAfterHereSchedules) {
  SimEngine e;
  EXPECT_TRUE(e.deterministic());
  EXPECT_EQ(e.lanes(), 1u);
  int ran = 0;
  e.post(0, [&] { ran = 1; });
  EXPECT_EQ(ran, 1);  // inline: the single lane is the caller
  e.after_here(2.0, [&] { ran = 2; });
  EXPECT_EQ(ran, 1);  // scheduled, not yet executed
  e.drain();
  EXPECT_EQ(ran, 2);
  EXPECT_GE(e.events_executed(), 1u);
}

TEST(SimEngine, DrainUntilStopsAtThePredicate) {
  SimEngine e;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    e.lane_sim(0).after(1.0 + i, [&] { ++fired; });
  }
  EXPECT_TRUE(e.drain_until([&] { return fired == 3; }));
  EXPECT_EQ(fired, 3);
  e.drain();
  EXPECT_EQ(fired, 10);
}

TEST(ParallelEngine, LaneTasksRunAndDrainBarriers) {
  ParallelEngine::Options eopt;
  eopt.lanes = 4;
  ParallelEngine e(eopt);
  ASSERT_EQ(e.lanes(), 4u);
  e.start();
  std::array<std::atomic<int>, 4> counts{};
  for (std::size_t lane = 0; lane < 4; ++lane) {
    for (int i = 0; i < 100; ++i) {
      e.post(lane, [&counts, lane] {
        counts[lane].fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  e.drain();
  for (const auto& c : counts) EXPECT_EQ(c.load(), 100);
}

TEST(ParallelEngine, AfterHereAndCrossLanePosts) {
  ParallelEngine::Options eopt;
  eopt.lanes = 2;
  ParallelEngine e(eopt);
  e.start();
  std::atomic<int> stage{0};
  e.post(0, [&] {
    // On lane 0: schedule on our own clock, then hop to lane 1.
    e.after_here(1.0, [&] {
      e.post(1, [&] { stage.fetch_add(1, std::memory_order_acq_rel); });
    });
  });
  e.drain();
  EXPECT_EQ(stage.load(), 1);
  EXPECT_GE(e.lane_sim(0).events_executed(), 1u);
}

TEST(ParallelEngine, LaneSeedsAreDistinctAndStable) {
  ParallelEngine::Options eopt;
  eopt.lanes = 4;
  eopt.seed = 99;
  ParallelEngine a(eopt);
  ParallelEngine b(eopt);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a.lane_seed(i), b.lane_seed(i));  // pure function of (seed, i)
    for (std::size_t j = i + 1; j < 4; ++j) {
      EXPECT_NE(a.lane_seed(i), a.lane_seed(j));
    }
  }
}

// ---- determinism guarantee (SimEngine) --------------------------------------

std::string serialize(const core::History& h) {
  std::string out;
  for (const auto& op : h.ops()) {
    out += std::to_string(op.id) + '|';
    out += op.kind == core::OpKind::Write ? 'w' : 'r';
    out += '|' + std::to_string(op.obj) + '|' + std::to_string(op.client);
    out += '|' + std::to_string(op.invoked) + '|' +
           std::to_string(op.responded);
    out += '|' + std::string(op.complete ? "1" : "0");
    out += '|' + op.tag.to_string() + '|';
    for (const auto b : op.value) out += std::to_string(b) + ',';
    out += '\n';
  }
  return out;
}

struct ClusterRun {
  std::string history;
  std::uint64_t messages = 0, data_bytes = 0, meta_bytes = 0, events = 0;

  bool operator==(const ClusterRun&) const = default;
};

/// A concurrent scripted workload (overlapping writes/reads, one crash) on
/// an LdsCluster owning a SimEngine, with heavy-tailed latencies.
ClusterRun run_cluster_workload(std::uint64_t seed) {
  core::LdsCluster::Options opt;
  opt.cfg.n1 = 6;
  opt.cfg.f1 = 1;
  opt.cfg.n2 = 8;
  opt.cfg.f2 = 2;
  opt.writers = 2;
  opt.readers = 2;
  opt.latency = core::LdsCluster::LatencyKind::Exponential;
  opt.seed = seed;
  core::LdsCluster c(opt);
  Rng rng(mix_seed(seed, 7));
  // Closed-loop chains (clients must be well-formed: one op at a time);
  // chains from different clients overlap freely in simulated time.
  std::array<std::size_t, 2> wleft{15, 15}, rleft{15, 15};
  std::function<void(std::size_t)> wnext = [&](std::size_t w) {
    if (wleft[w] == 0) return;
    --wleft[w];
    const auto obj = static_cast<ObjectId>(rng.uniform_int(0, 2));
    c.writer(w).write(obj, rng.bytes(16), [&, w](Tag) {
      c.sim().after(rng.exponential(1.0) + 1e-6, [&, w] { wnext(w); });
    });
  };
  std::function<void(std::size_t)> rnext = [&](std::size_t r) {
    if (rleft[r] == 0) return;
    --rleft[r];
    const auto obj = static_cast<ObjectId>(rng.uniform_int(0, 2));
    c.reader(r).read(obj, [&, r](Tag, Bytes) {
      c.sim().after(rng.exponential(1.0) + 1e-6, [&, r] { rnext(r); });
    });
  };
  for (std::size_t w = 0; w < 2; ++w) {
    c.sim().at(rng.uniform_real(0.0, 3.0), [&, w] { wnext(w); });
  }
  for (std::size_t r = 0; r < 2; ++r) {
    c.sim().at(rng.uniform_real(0.0, 6.0), [&, r] { rnext(r); });
  }
  c.sim().at(10.0, [&c] { c.crash_l2(0); });
  c.settle();
  const auto& total = c.net().costs().total();
  return ClusterRun{serialize(c.history()), total.messages, total.data_bytes,
                    total.meta_bytes, c.sim().events_executed()};
}

TEST(Determinism, SameSeedIsByteIdenticalAcrossSimEngineRuns) {
  const ClusterRun a = run_cluster_workload(1234);
  const ClusterRun b = run_cluster_workload(1234);
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a, b);
  // And the seed actually matters (different stream => different execution).
  const ClusterRun c = run_cluster_workload(4321);
  EXPECT_NE(a.history, c.history);
}

/// A closed-loop store workload in Deterministic mode; returns every shard
/// history plus the full metrics snapshot (latency histograms included — all
/// simulated time, so they must replay byte-identically too).
std::string run_store_workload(std::uint64_t seed) {
  store::StoreOptions sopt;
  sopt.shards = 3;
  sopt.seed = seed;
  sopt.engine_mode = EngineMode::Deterministic;
  store::StoreService svc(sopt);
  Rng rng(mix_seed(seed, 0xdead));
  std::size_t remaining = 300;
  std::function<void()> next = [&] {
    if (remaining == 0) return;
    --remaining;
    const std::string key = "key-" + std::to_string(rng.uniform_int(0, 15));
    if (rng.bernoulli(0.5)) {
      svc.get(key, [&](const store::GetResult&) { next(); });
    } else {
      svc.put(key, rng.bytes(32), [&](const store::PutResult&) { next(); });
    }
  };
  for (int c = 0; c < 8; ++c) {
    svc.sim().at(0.0, [&next] { next(); });
  }
  svc.quiesce([&] { return remaining == 0; });
  std::string out;
  for (std::size_t s = 0; s < svc.num_shards(); ++s) {
    out += serialize(svc.shard_history(s));
  }
  out += svc.metrics().to_json();
  return out;
}

TEST(Determinism, StoreServiceDeterministicModeIsReproducible) {
  EXPECT_EQ(run_store_workload(42), run_store_workload(42));
}

/// The unified client surface on top of the store: zero-copy Value handles,
/// tight deadlines that DO expire (racing the batch window), retry backoff
/// timers and conditional puts.  All client-side scheduling runs on the
/// engine clock, so the histories, the client-observed status sequence and
/// the metrics must replay byte-identically for one seed.
std::string run_client_workload(std::uint64_t seed) {
  store::StoreOptions sopt;
  sopt.shards = 2;
  sopt.seed = seed;
  sopt.batch_window = 4.0;     // wide window so 1.0-deadlines expire first
  sopt.admission_limit = 6;    // small enough that retries engage
  store::StoreService svc(sopt);
  store::Client client(svc);
  Rng rng(mix_seed(seed, 0xc11e));
  std::string statuses;
  std::size_t remaining = 200;
  std::function<void()> next = [&] {
    if (remaining == 0) return;
    --remaining;
    const std::string key = "key-" + std::to_string(rng.uniform_int(0, 7));
    store::OpOptions opts;
    if (rng.bernoulli(0.25)) opts.deadline = 1.0;  // expires inside the window
    opts.retry.max_attempts = 3;
    opts.retry.backoff = 2.0;
    auto record = [&statuses, &next](const Status& s) {
      statuses += status_code_name(s.code());
      statuses += ';';
      next();
    };
    if (rng.bernoulli(0.4)) {
      client.get(key,
                 [record](const store::GetResult& r) { record(r.status); },
                 opts);
    } else if (rng.bernoulli(0.15)) {
      client.put_if_version(
          key, rng.bytes(24), Version(kTag0),
          [record](const store::PutResult& r) { record(r.status); }, opts);
    } else {
      client.put(key, rng.bytes(24),
                 [record](const store::PutResult& r) { record(r.status); },
                 opts);
    }
  };
  for (int c = 0; c < 6; ++c) {
    svc.sim().at(0.0, [&next] { next(); });
  }
  svc.quiesce([&] { return remaining == 0; });
  std::string out = statuses + '\n';
  for (std::size_t s = 0; s < svc.num_shards(); ++s) {
    out += serialize(svc.shard_history(s));
  }
  out += svc.metrics().to_json();
  return out;
}

TEST(Determinism, ClientDeadlinesRetriesAndValuesAreReproducible) {
  const std::string a = run_client_workload(77);
  EXPECT_EQ(a, run_client_workload(77));
  // The workload really exercised the taxonomy, not just Ok.
  EXPECT_NE(a.find("DeadlineExceeded"), std::string::npos);
  EXPECT_NE(a.find("Ok"), std::string::npos);
  EXPECT_NE(a.find("Aborted"), std::string::npos);
  EXPECT_NE(run_client_workload(78), a);
}

// ---- ParallelEngine store correctness ---------------------------------------

TEST(ParallelStore, SyncWrappersRoundTrip) {
  store::StoreOptions sopt;
  sopt.shards = 4;
  sopt.engine_mode = EngineMode::Parallel;
  sopt.engine_threads = 2;
  sopt.seed = 5;
  store::StoreService svc(sopt);
  const auto put = svc.put_sync("alpha", Bytes{1, 2, 3});
  ASSERT_TRUE(put.status.ok());
  const auto get = svc.get_sync("alpha");
  ASSERT_TRUE(get.status.ok());
  EXPECT_EQ(get.value, (Bytes{1, 2, 3}));
  EXPECT_EQ(get.tag, put.tag);
  const auto multi = svc.multi_get_sync({"alpha", "beta"});
  ASSERT_EQ(multi.size(), 2u);
  EXPECT_EQ(multi[0].value, (Bytes{1, 2, 3}));
  // Unwritten keys report NotFound instead of interning + reading v0.
  EXPECT_TRUE(multi[1].status.is(StatusCode::kNotFound));
  EXPECT_FALSE(multi[1].status.ok());
  EXPECT_EQ(svc.outstanding(), 0u);
}

TEST(ParallelStore, ChurnedRunPassesAtomicityAndFreshnessVerifiers) {
  store::StoreOptions sopt;
  sopt.shards = 4;
  sopt.engine_mode = EngineMode::Parallel;
  sopt.engine_threads = 3;  // shards > lanes: lane sharing must stay safe
  sopt.seed = 77;
  sopt.exponential_latency = true;
  sopt.repair.suspect_after =
      2 * sopt.repair.heartbeat_period + 8 * sopt.tau2;
  store::StoreService svc(sopt);

  std::atomic<int> left{300};
  std::atomic<int> crash_budget{5};
  std::function<void(int)> issue = [&](int i) {
    const std::string key = "k" + std::to_string((i * 7) % 24);
    auto next = [&, i] {
      const int l = left.fetch_sub(1, std::memory_order_acq_rel);
      if (l > 240 && crash_budget.fetch_sub(1) > 0) {
        // Crash + heartbeat-driven repair churn under load.
        svc.inject_crash_async(static_cast<std::size_t>(i) % 4,
                               1000u + static_cast<std::uint64_t>(i));
      }
    };
    if (i % 3 == 0) {
      svc.get(key, [next](const store::GetResult&) { next(); });
    } else {
      svc.put(key, Bytes{static_cast<std::uint8_t>(i)},
              [next](const store::PutResult&) { next(); });
    }
  };
  for (int i = 0; i < 300; ++i) issue(i);
  svc.quiesce([&] { return left.load(std::memory_order_acquire) <= 0; });

  EXPECT_EQ(svc.outstanding(), 0u);
  EXPECT_TRUE(svc.idle());
  ASSERT_NE(svc.repair(), nullptr);
  EXPECT_TRUE(svc.repair()->quiet());
  for (std::size_t s = 0; s < svc.num_shards(); ++s) {
    const auto& h = svc.shard_history(s);
    EXPECT_TRUE(h.all_complete()) << "shard " << s;
    const auto atomicity = h.check_atomicity(Bytes{});
    EXPECT_TRUE(atomicity.ok) << "shard " << s << ": " << atomicity.violation;
    const auto freshness = harness::verify_read_freshness(h);
    EXPECT_TRUE(freshness.ok) << "shard " << s << ": " << freshness.violation;
  }
}

TEST(ParallelStore, StressHarnessParallelEngineRuns) {
  harness::StressOptions opt;
  opt.backend = harness::Backend::Store;
  opt.engine = EngineMode::Parallel;
  opt.threads = 2;
  opt.ops = 240;
  opt.store_shards = 4;
  opt.crash_rate = 0.05;
  opt.seed = 9;
  ASSERT_FALSE(harness::validate_options(opt).has_value());
  const auto report = harness::run_stress(opt);
  EXPECT_TRUE(report.ok()) << harness::format_report(opt, report);
  EXPECT_EQ(report.shards.size(), opt.store_shards);
  EXPECT_EQ(report.total_writes() + report.total_reads(), opt.ops);
}

TEST(ParallelStress, RequiresStoreBackend) {
  harness::StressOptions opt;
  opt.backend = harness::Backend::Lds;
  opt.engine = EngineMode::Parallel;
  EXPECT_TRUE(harness::validate_options(opt).has_value());
}

}  // namespace
}  // namespace lds
