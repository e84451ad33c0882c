// RepairScheduler + StoreService under fault injection: crashed L2 servers
// are detected by heartbeat, rebuilt under the global concurrency budget,
// failure-budget accounting survives false suspicion, and the service stays
// linearizable per shard through crash/repair churn under load.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "store/store_service.h"
#include "store_test_util.h"

namespace lds::store {
namespace {

TEST(StoreRepair, CrashedL2ServersAreRebuiltBeforeQuiesceReturns) {
  StoreOptions opt;
  opt.shards = 2;
  opt.seed = 5;
  StoreService svc(opt);
  Rng rng(9);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        svc.put_sync("k" + std::to_string(i), rng.bytes(48)).status.ok());
  }
  Rng crash_rng(2);
  std::size_t injected = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    // Exhaust each shard's full budget (f1 + f2 slots).
    while (svc.inject_crash(s, crash_rng)) ++injected;
  }
  EXPECT_EQ(injected, 2 * (1 + 2));  // default geometry: f1 = 1, f2 = 2
  svc.quiesce();

  ASSERT_NE(svc.repair(), nullptr);
  EXPECT_EQ(svc.metrics().counter_total("repairs_completed"),
            svc.metrics().counter_total("crashes_l2") +
                svc.metrics().counter_total("false_suspicions"));
  EXPECT_GT(svc.metrics().counter_total("repairs_completed"), 0u);
  EXPECT_EQ(svc.repair()->in_flight(), 0u);
  // Repaired slots returned to the budget: more crashes are injectable.
  EXPECT_TRUE(svc.inject_crash(0, crash_rng));
  svc.quiesce();
  // Data survives the full churn.
  EXPECT_TRUE(svc.get_sync("k3").status.ok());
  expect_all_histories_clean(svc);
}

TEST(StoreRepair, GlobalBudgetBoundsConcurrentRepairs) {
  StoreOptions opt;
  opt.shards = 4;
  opt.seed = 31;
  opt.repair.max_concurrent = 1;
  StoreService svc(opt);
  Rng rng(4);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        svc.put_sync("b" + std::to_string(i), rng.bytes(32)).status.ok());
  }
  // Two L2 crashes on every shard, near-simultaneously.
  Rng crash_rng(6);
  std::size_t l2_crashes = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    for (int c = 0; c < 3; ++c) {
      if (svc.inject_crash(s, crash_rng)) ++l2_crashes;
    }
  }
  svc.quiesce();
  EXPECT_EQ(svc.repair()->peak_in_flight(), 1u);
  EXPECT_EQ(svc.metrics().counter_total("repairs_completed"),
            svc.metrics().counter_total("crashes_l2") +
                svc.metrics().counter_total("false_suspicions"));
  expect_all_histories_clean(svc);
}

TEST(StoreRepair, RepairUnderLoadStaysLinearizablePerShard) {
  StoreOptions opt;
  opt.shards = 4;
  opt.exponential_latency = true;  // adversarial-ish message reordering
  opt.seed = 77;
  opt.batch_window = 0.5;
  opt.repair.suspect_after = 28.0;  // heavy-tailed pongs: rare false alarms
  StoreService svc(opt);
  Rng rng(12);

  std::size_t remaining = 300, done = 0, crashes = 0;
  std::function<void()> next = [&] {
    if (remaining == 0) return;
    --remaining;
    const std::string key = "load-" + std::to_string(rng.uniform_int(0, 7));
    auto after = [&] {
      ++done;
      // Crash dice on completion, like the stress harness.
      if (rng.bernoulli(0.08)) {
        for (std::size_t s = 0; s < 4; ++s) {
          if (svc.inject_crash(s, rng)) {
            ++crashes;
            break;
          }
        }
      }
      next();
    };
    if (rng.bernoulli(0.5)) {
      svc.get(key, [after](const GetResult& r) {
        // Gets racing the key's first put legitimately see NotFound.
        EXPECT_TRUE(r.status.ok() || r.status.is(StatusCode::kNotFound))
            << r.status.to_string();
        after();
      });
    } else {
      svc.put(key, rng.bytes(40), [after](const PutResult& r) {
        EXPECT_TRUE(r.status.ok());
        after();
      });
    }
  };
  for (int c = 0; c < 8; ++c) svc.sim().at(0.0, [&next] { next(); });
  svc.quiesce([&] { return remaining == 0; });

  EXPECT_EQ(done, 300u);
  EXPECT_GT(crashes, 0u);
  EXPECT_EQ(svc.outstanding(), 0u);
  // Every L2 outage healed; the budget never exceeded its cap.
  EXPECT_EQ(svc.metrics().counter_total("repairs_completed"),
            svc.metrics().counter_total("crashes_l2") +
                svc.metrics().counter_total("false_suspicions"));
  EXPECT_LE(svc.repair()->peak_in_flight(), opt.repair.max_concurrent);
  EXPECT_GT(svc.repair()->object_rounds_started(), 0u);
  expect_all_histories_clean(svc);
}

TEST(StoreRepair, DisabledRepairLeavesCrashesPermanentButSafe) {
  StoreOptions opt;
  opt.shards = 2;
  opt.enable_repair = false;
  opt.seed = 8;
  StoreService svc(opt);
  EXPECT_EQ(svc.repair(), nullptr);
  Rng rng(3);
  ASSERT_TRUE(svc.put_sync("x", rng.bytes(64)).status.ok());
  Rng crash_rng(5);
  std::size_t injected = 0;
  while (svc.inject_crash(0, crash_rng)) ++injected;
  EXPECT_EQ(injected, 1 + 2);  // f1 + f2, then the budget refuses
  EXPECT_FALSE(svc.inject_crash(0, crash_rng));
  // Reads still complete within the tolerated failure budget.
  EXPECT_TRUE(svc.get_sync("x").status.ok());
  svc.quiesce();
  expect_all_histories_clean(svc);
}

TEST(StoreRepair, MetricsCountRepairLifecycle) {
  StoreOptions opt;
  opt.shards = 1;
  opt.seed = 15;
  StoreService svc(opt);
  Rng rng(1);
  ASSERT_TRUE(svc.put_sync("m", rng.bytes(16)).status.ok());
  Rng crash_rng(7);
  // Force an L2 hit: keep injecting until one lands on L2.
  while (svc.metrics().counter_total("crashes_l2") == 0) {
    ASSERT_TRUE(svc.inject_crash(0, crash_rng));
  }
  svc.quiesce();
  EXPECT_GE(svc.metrics().counter_total("repairs_started"), 1u);
  EXPECT_GE(svc.metrics().counter_total("repairs_completed"), 1u);
  const auto json = svc.metrics().to_json();
  EXPECT_NE(json.find("\"repairs_completed\""), std::string::npos);
}

}  // namespace
}  // namespace lds::store
