// StoreService: put/get/multi_get round trips, write-batching correctness
// under concurrent writers (coalesced puts complete with the surviving tag
// and the shard histories stay linearizable), admission limits, per-shard
// backend mixing, and the metrics registry (histogram math + JSON snapshot).
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "store/client.h"
#include "store/metrics.h"
#include "store/store_service.h"
#include "store_test_util.h"

namespace lds::store {
namespace {

StoreOptions small_options(std::size_t shards) {
  StoreOptions opt;
  opt.shards = shards;
  opt.writers_per_shard = 2;
  opt.readers_per_shard = 2;
  opt.seed = 7;
  return opt;
}

TEST(StoreService, PutGetRoundTrip) {
  StoreService svc(small_options(2));
  const Bytes v{1, 2, 3, 4};
  const auto put = svc.put_sync("alpha", v);
  ASSERT_TRUE(put.status.ok()) << put.status.to_string();
  const auto get = svc.get_sync("alpha");
  ASSERT_TRUE(get.status.ok()) << get.status.to_string();
  EXPECT_EQ(get.value, v);
  EXPECT_EQ(get.tag, put.tag);
  EXPECT_EQ(svc.metrics().counter_total("puts"), 1u);
  EXPECT_EQ(svc.metrics().counter_total("gets"), 1u);
}

TEST(StoreService, SameKeyPutsCoalesceToOneWriteWithSurvivingTag) {
  auto opt = small_options(1);
  opt.batch_window = 5.0;  // wide window: all queued puts share one batch
  StoreService svc(opt);

  std::vector<PutResult> results(4);
  std::size_t done = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    svc.put("hot-key", Bytes{static_cast<std::uint8_t>(i)},
            [&results, &done, i](const PutResult& r) {
              results[i] = r;
              ++done;
            });
  }
  svc.quiesce();
  ASSERT_EQ(done, 4u);
  for (const auto& r : results) EXPECT_TRUE(r.status.ok());
  // All four completed with one tag: the single surviving cluster write.
  EXPECT_EQ(results[0].tag, results[3].tag);
  EXPECT_EQ(svc.metrics().counter_total("puts"), 4u);
  EXPECT_EQ(svc.metrics().counter_total("puts_coalesced"), 3u);
  EXPECT_EQ(svc.metrics().counter_total("batches"), 1u);

  // The last value won, and the shard history holds exactly one write.
  EXPECT_EQ(svc.get_sync("hot-key").value, Bytes{3});
  std::size_t writes = 0;
  for (const auto& op : svc.shard_history(0).ops()) {
    writes += op.kind == core::OpKind::Write ? 1 : 0;
  }
  EXPECT_EQ(writes, 1u);
  expect_all_histories_clean(svc);
}

TEST(StoreService, DistinctKeysInOneBatchAllMaterialize) {
  auto opt = small_options(1);
  opt.batch_window = 5.0;
  StoreService svc(opt);
  std::size_t done = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    svc.put("key-" + std::to_string(i), Bytes{static_cast<std::uint8_t>(i)},
            [&done](const PutResult& r) {
              EXPECT_TRUE(r.status.ok());
              ++done;
            });
  }
  svc.quiesce();
  EXPECT_EQ(done, 6u);
  EXPECT_EQ(svc.metrics().counter_total("puts_coalesced"), 0u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(svc.get_sync("key-" + std::to_string(i)).value,
              Bytes{static_cast<std::uint8_t>(i)});
  }
  expect_all_histories_clean(svc);
}

TEST(StoreService, BatchingUnderConcurrentWritersStaysLinearizable) {
  auto opt = small_options(2);
  opt.batch_window = 1.0;
  opt.exponential_latency = true;
  opt.seed = 21;
  StoreService svc(opt);
  Rng rng(5);

  // Closed-loop clients hammering a small keyspace so windows coalesce.
  std::size_t remaining = 200, done = 0;
  std::function<void()> next = [&] {
    if (remaining == 0) return;
    --remaining;
    const std::string key = "k" + std::to_string(rng.uniform_int(0, 3));
    if (rng.bernoulli(0.4)) {
      svc.get(key, [&](const GetResult& r) {
        // A racing get may beat the key's first put: NotFound, not an error.
        EXPECT_TRUE(r.status.ok() || r.status.is(StatusCode::kNotFound))
            << r.status.to_string();
        ++done;
        next();
      });
    } else {
      svc.put(key, rng.bytes(32), [&](const PutResult& r) {
        EXPECT_TRUE(r.status.ok());
        ++done;
        next();
      });
    }
  };
  for (int c = 0; c < 6; ++c) svc.sim().at(0.0, [&next] { next(); });
  svc.quiesce([&] { return remaining == 0; });

  EXPECT_EQ(done, 200u);
  EXPECT_EQ(svc.outstanding(), 0u);
  EXPECT_GT(svc.metrics().counter_total("puts_coalesced"), 0u);
  expect_all_histories_clean(svc);
}

TEST(StoreService, AdmissionLimitRejectsExcessPuts) {
  auto opt = small_options(1);
  opt.batch_window = 50.0;  // keep everything queued
  opt.admission_limit = 4;
  StoreService svc(opt);

  std::size_t accepted = 0, rejected = 0;
  for (std::size_t i = 0; i < 7; ++i) {
    svc.put("key-" + std::to_string(i), Bytes{1},
            [&](const PutResult& r) {
              if (r.status.ok()) {
                ++accepted;
              } else {
                ++rejected;
              }
            });
  }
  // Rejections are immediate; accepted puts complete at quiesce.
  EXPECT_EQ(rejected, 3u);
  EXPECT_EQ(svc.metrics().counter_total("puts_rejected"), 3u);
  svc.quiesce();
  EXPECT_EQ(accepted, 4u);
  expect_all_histories_clean(svc);
}

TEST(StoreService, MultiGetSpansShardsAndPreservesOrder) {
  StoreService svc(small_options(4));
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < 12; ++i) {
    keys.push_back("mg-" + std::to_string(i));
    ASSERT_TRUE(svc.put_sync(keys.back(), Bytes{static_cast<std::uint8_t>(i)})
                    .status.ok());
  }
  const auto results = Client(svc).multi_get_sync(keys);
  ASSERT_EQ(results.size(), keys.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].status.ok());
    EXPECT_EQ(results[i].value, Bytes{static_cast<std::uint8_t>(i)});
  }
  // The keys actually spread over multiple shards.
  std::size_t populated = 0;
  for (std::size_t s = 0; s < svc.num_shards(); ++s) {
    populated += svc.shard_objects(s) > 0 ? 1 : 0;
  }
  EXPECT_GT(populated, 1u);
}

TEST(StoreService, MixedBackendsPerShard) {
  auto opt = small_options(3);
  opt.shard_overrides.resize(3);
  opt.shard_overrides[0].protocol = ShardProtocol::Lds;
  opt.shard_overrides[1].protocol = ShardProtocol::Abd;
  opt.shard_overrides[2].protocol = ShardProtocol::Cas;
  StoreService svc(opt);
  EXPECT_EQ(svc.shard_protocol(0), ShardProtocol::Lds);
  EXPECT_EQ(svc.shard_protocol(1), ShardProtocol::Abd);
  EXPECT_EQ(svc.shard_protocol(2), ShardProtocol::Cas);

  Rng rng(3);
  std::map<std::string, Bytes> model;
  for (std::size_t i = 0; i < 60; ++i) {
    const std::string key = "mix-" + std::to_string(i);
    model[key] = rng.bytes(24);
    ASSERT_TRUE(svc.put_sync(key, model[key]).status.ok());
  }
  for (const auto& [key, value] : model) {
    EXPECT_EQ(svc.get_sync(key).value, value);
  }
  // Every protocol actually served traffic.
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_GT(svc.shard_objects(s), 0u) << "shard " << s;
  }
  svc.quiesce();
  expect_all_histories_clean(svc);
}

TEST(StoreService, CrashInjectionExhaustsEachProtocolsBudget) {
  auto opt = small_options(3);
  opt.shard_overrides.resize(3);
  opt.shard_overrides[0].protocol = ShardProtocol::Lds;
  opt.shard_overrides[1].protocol = ShardProtocol::Abd;
  opt.shard_overrides[2].protocol = ShardProtocol::Cas;
  StoreService svc(opt);

  Rng rng(11);
  std::map<std::string, Bytes> model;
  for (std::size_t i = 0; i < 30; ++i) {
    const std::string key = "crash-" + std::to_string(i);
    model[key] = rng.bytes(24);
    ASSERT_TRUE(svc.put_sync(key, model[key]).status.ok());
  }
  // Default geometry: LDS f1 + f2 = 1 + 2, ABD and CAS f = 2.  Nothing runs
  // between injections, so no L2 repair can return a slot mid-loop.
  const std::size_t budget[] = {3, 2, 2};
  Rng crash_rng(4);
  for (std::size_t s = 0; s < 3; ++s) {
    ASSERT_GT(svc.shard_objects(s), 0u) << "shard " << s;
    std::size_t injected = 0;
    while (svc.inject_crash(s, crash_rng)) ++injected;
    EXPECT_EQ(injected, budget[s]) << "shard " << s;
    EXPECT_FALSE(svc.inject_crash(s, crash_rng)) << "shard " << s;
  }
  const auto snap = svc.metrics().snapshot();
  auto counter = [&](std::size_t s, const char* name) -> std::uint64_t {
    const auto& m = snap.shards.at(s).counters;
    const auto it = m.find(name);
    return it == m.end() ? 0 : it->second;
  };
  EXPECT_EQ(counter(0, "crashes_l1") + counter(0, "crashes_l2"), 3u);
  EXPECT_EQ(counter(0, "crashes"), 0u);
  EXPECT_EQ(counter(1, "crashes"), 2u);
  EXPECT_EQ(counter(2, "crashes"), 2u);

  for (const auto& [key, value] : model) {
    const auto got = svc.get_sync(key);
    ASSERT_TRUE(got.status.ok()) << key << ": " << got.status.to_string();
    EXPECT_EQ(got.value, value) << key;
  }
  svc.quiesce();
  expect_all_histories_clean(svc);
}

TEST(StoreService, LdsCodeBackendIsSelectablePerShard) {
  auto opt = small_options(2);
  opt.shard_overrides.resize(2);
  opt.shard_overrides[0].code = codes::BackendKind::Rs;
  opt.shard_overrides[1].code = codes::BackendKind::Replication;
  StoreService svc(opt);
  for (std::size_t i = 0; i < 10; ++i) {
    const std::string key = "code-" + std::to_string(i);
    const Bytes v{static_cast<std::uint8_t>(i), 9, 9};
    ASSERT_TRUE(svc.put_sync(key, v).status.ok());
    EXPECT_EQ(svc.get_sync(key).value, v);
  }
}

TEST(StoreService, MetricsSnapshotIsJsonWithShardScopes) {
  StoreService svc(small_options(2));
  svc.put_sync("a", Bytes{1});
  svc.get_sync("a");
  const std::string json = svc.metrics().to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_NE(json.find("\"puts\":1"), std::string::npos);
  EXPECT_NE(json.find("\"put_latency\""), std::string::npos);
  EXPECT_NE(json.find("\"shards\":["), std::string::npos);
}

// ---- metrics primitives -----------------------------------------------------

TEST(Metrics, HistogramQuantilesTrackUniformData) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
  // Log-bucketed quantiles carry ~6% relative error.
  EXPECT_NEAR(h.percentile(0.5), 500.0, 50.0);
  EXPECT_NEAR(h.percentile(0.9), 900.0, 90.0);
  EXPECT_NEAR(h.percentile(0.99), 990.0, 99.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1000.0);
}

TEST(Metrics, HistogramHandlesSubUnitAndHugeValues) {
  Histogram h;
  h.record(0.001);
  h.record(0.25);
  h.record(1e12);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.percentile(0.5), 0.25, 0.05);
  EXPECT_DOUBLE_EQ(h.max(), 1e12);
  Histogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.percentile(0.5), 0.0);
}

TEST(Metrics, RegistryAggregatesAcrossShardScopes) {
  MetricsRegistry reg(3);
  reg.counter("ops").inc(5);
  reg.counter("ops", 0).inc(1);
  reg.counter("ops", 2).inc(2);
  EXPECT_EQ(reg.counter_total("ops"), 8u);
  EXPECT_EQ(reg.counter_total("absent"), 0u);
  const auto json = reg.to_json();
  EXPECT_NE(json.find("\"totals\":{\"ops\":8}"), std::string::npos);
}

}  // namespace
}  // namespace lds::store
