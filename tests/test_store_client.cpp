// store::Client — the unified client API: Status taxonomy (NotFound,
// AdmissionReject, DeadlineExceeded, Aborted, Unavailable, InvalidArgument),
// per-op deadlines enforced via the engine clock under injected crashes,
// retry policies, conditional puts (put_if_version), multi_put/multi_get
// edge cases, zero-copy Value plumbing, and the Regular read mode.
#include <gtest/gtest.h>

#include <atomic>

#include <string>
#include <vector>

#include "store/client.h"
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

// ---- Status-taxonomy round trips --------------------------------------------

TEST(StoreClient, PutGetRoundTripWithTypedVersions) {
  StoreService svc(small_options(2));
  Client client(svc);

  const auto put = client.put_sync("alpha", Bytes{1, 2, 3});
  ASSERT_TRUE(put.ok()) << put.status().to_string();
  EXPECT_TRUE(put.value().known());

  const auto get = client.get_sync("alpha");
  ASSERT_TRUE(get.ok()) << get.status().to_string();
  EXPECT_EQ(get.value().value, (Bytes{1, 2, 3}));
  EXPECT_EQ(get.value().version, put.value());
}

TEST(StoreClient, UnwrittenKeyIsNotFoundAndNeverInterned) {
  StoreService svc(small_options(2));
  Client client(svc);
  const auto get = client.get_sync("ghost");
  ASSERT_FALSE(get.ok());
  EXPECT_TRUE(get.status().is(StatusCode::kNotFound))
      << get.status().to_string();
  // Probing reads must not grow per-shard state.
  for (std::size_t s = 0; s < svc.num_shards(); ++s) {
    EXPECT_EQ(svc.shard_objects(s), 0u);
  }
  EXPECT_GE(svc.metrics().counter_total("gets_not_found"), 1u);
}

TEST(StoreClient, EmptyKeyIsInvalidArgument) {
  StoreService svc(small_options(1));
  Client client(svc);
  EXPECT_TRUE(client.get_sync("").status().is(StatusCode::kInvalidArgument));
  EXPECT_TRUE(client.put_sync("", Bytes{1})
                  .status()
                  .is(StatusCode::kInvalidArgument));
}

TEST(StoreClient, ClosedClientIsUnavailable) {
  StoreService svc(small_options(1));
  Client client(svc);
  ASSERT_TRUE(client.put_sync("k", Bytes{1}).ok());
  client.close();
  EXPECT_TRUE(client.closed());
  EXPECT_TRUE(client.get_sync("k").status().is(StatusCode::kUnavailable));
  EXPECT_TRUE(
      client.put_sync("k", Bytes{2}).status().is(StatusCode::kUnavailable));
  // The service itself is unaffected: a fresh client still works.
  Client reopened(svc);
  EXPECT_TRUE(reopened.get_sync("k").ok());
}

TEST(StoreClient, OverAdmissionIsAdmissionRejectStatus) {
  auto opt = small_options(1);
  opt.batch_window = 50.0;  // keep accepted puts queued
  opt.admission_limit = 2;
  StoreService svc(opt);
  Client client(svc);

  std::vector<Status> rejected;
  std::size_t accepted = 0;
  for (int i = 0; i < 5; ++i) {
    client.put("k" + std::to_string(i), Bytes{1},
               [&](const PutResult& r) {
                 if (r.status.ok()) {
                   ++accepted;
                 } else {
                   rejected.push_back(r.status);
                 }
               });
  }
  ASSERT_EQ(rejected.size(), 3u);  // rejections complete immediately
  for (const auto& s : rejected) {
    EXPECT_TRUE(s.is(StatusCode::kAdmissionReject)) << s.to_string();
    EXPECT_NE(s.message().find("limit"), std::string::npos);
  }
  svc.quiesce();
  EXPECT_EQ(accepted, 2u);
}

// ---- deadlines --------------------------------------------------------------

TEST(StoreClient, DeadlineExpiresUnderInjectedCrashes) {
  auto opt = small_options(1);
  opt.enable_repair = false;  // crashed servers stay down
  StoreService svc(opt);
  Client client(svc);
  ASSERT_TRUE(client.put_sync("k", Bytes{1}).ok());

  // Crash beyond the L1 budget (f1 = 1): the write quorum f1 + k = 5 of
  // n1 = 6 becomes unreachable, so ops stall forever — only the deadline
  // (an engine-clock task on the shard's lane) can complete them.
  auto* lds = svc.shard_lds(0);
  ASSERT_NE(lds, nullptr);
  lds->crash_l1(0);
  lds->crash_l1(1);

  OpOptions opts;
  opts.deadline = 25.0;
  const auto put = client.put_sync("k", Bytes{2}, opts);
  ASSERT_FALSE(put.ok());
  EXPECT_TRUE(put.status().is(StatusCode::kDeadlineExceeded))
      << put.status().to_string();

  const auto get = client.get_sync("k", opts);
  ASSERT_FALSE(get.ok());
  EXPECT_TRUE(get.status().is(StatusCode::kDeadlineExceeded));
  // The stalled ops keep the service non-idle; tear down without quiesce.
}

TEST(StoreClient, DeadlineExpiresOnParallelEngineLanes) {
  auto opt = small_options(2);
  opt.engine_mode = net::EngineMode::Parallel;
  opt.engine_threads = 2;
  opt.enable_repair = false;
  StoreService svc(opt);
  Client client(svc);
  ASSERT_TRUE(client.put_sync("k", Bytes{1}).ok());

  // Stall the key's shard the same way, via its own lane.
  const std::size_t shard = svc.router().shard_of("k");
  auto* lds = svc.shard_lds(shard);
  ASSERT_NE(lds, nullptr);
  std::atomic<bool> crashed{false};
  svc.engine().post(svc.shard_lane(shard), [&] {
    lds->crash_l1(0);
    lds->crash_l1(1);
    crashed.store(true, std::memory_order_release);
  });
  svc.engine().drain_until(
      [&] { return crashed.load(std::memory_order_acquire); });

  OpOptions opts;
  opts.deadline = 25.0;
  const auto put = client.put_sync("k", Bytes{2}, opts);
  ASSERT_FALSE(put.ok());
  EXPECT_TRUE(put.status().is(StatusCode::kDeadlineExceeded))
      << put.status().to_string();
}

TEST(StoreClient, GenerousDeadlineDoesNotFireOnHealthyOps) {
  StoreService svc(small_options(2));
  Client client(svc);
  OpOptions opts;
  opts.deadline = 10'000.0;
  ASSERT_TRUE(client.put_sync("k", Bytes{9}, opts).ok());
  const auto get = client.get_sync("k", opts);
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get.value().value, Bytes{9});
  svc.quiesce();  // leftover deadline timers drain as no-ops
  expect_all_histories_clean(svc);
}

// ---- retries ----------------------------------------------------------------

TEST(StoreClient, RetryPolicyRecoversFromAdmissionReject) {
  auto opt = small_options(1);
  opt.admission_limit = 1;
  opt.batch_window = 50.0;  // the first put holds its slot until the flush
  StoreService svc(opt);
  Client client(svc);

  bool first_done = false;
  client.put("hold", Bytes{1}, [&](const PutResult& r) {
    EXPECT_TRUE(r.status.ok());
    first_done = true;
  });

  OpOptions opts;
  opts.retry.max_attempts = 6;
  opts.retry.backoff = 30.0;
  PutResult second;
  bool second_done = false;
  client.put(
      "retry", Bytes{2},
      [&](const PutResult& r) {
        second = r;
        second_done = true;
      },
      opts);
  // Without retries this would have been rejected immediately.
  EXPECT_FALSE(second_done);

  svc.quiesce([&] { return first_done && second_done; });
  ASSERT_TRUE(second_done);
  EXPECT_TRUE(second.status.ok()) << second.status.to_string();
  EXPECT_GE(svc.metrics().counter_total("puts_rejected"), 1u);
  expect_all_histories_clean(svc);
}

TEST(StoreClient, RetriesExhaustedSurfaceTheLastReject) {
  auto opt = small_options(1);
  opt.admission_limit = 1;
  opt.batch_window = 1e6;  // the slot never frees within the test horizon
  StoreService svc(opt);
  Client client(svc);
  client.put("hold", Bytes{1}, {});

  OpOptions opts;
  opts.retry.max_attempts = 3;
  opts.retry.backoff = 1.0;
  const auto r = client.put_sync("again", Bytes{2}, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().is(StatusCode::kAdmissionReject));
  EXPECT_EQ(svc.metrics().counter_total("puts_rejected"), 3u);
}

// ---- conditional puts -------------------------------------------------------

TEST(StoreClient, PutIfVersionHappyPath) {
  StoreService svc(small_options(2));
  Client client(svc);
  const auto v1 = client.put_sync("doc", Bytes{1});
  ASSERT_TRUE(v1.ok());

  const auto v2 = client.put_if_version_sync("doc", Bytes{2}, v1.value());
  ASSERT_TRUE(v2.ok()) << v2.status().to_string();
  EXPECT_GT(v2.value(), v1.value());  // versions are totally ordered

  const auto get = client.get_sync("doc");
  EXPECT_EQ(get.value().value, Bytes{2});
  EXPECT_EQ(get.value().version, v2.value());
  svc.quiesce();
}

TEST(StoreClient, PutIfVersionMismatchAborts) {
  StoreService svc(small_options(2));
  Client client(svc);
  const auto v1 = client.put_sync("doc", Bytes{1});
  ASSERT_TRUE(client.put_if_version_sync("doc", Bytes{2}, v1.value()).ok());

  // Same expected version again: the first conditional put won; this one
  // must abort, not silently overwrite.
  const auto stale = client.put_if_version_sync("doc", Bytes{3}, v1.value());
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().is(StatusCode::kAborted))
      << stale.status().to_string();
  EXPECT_EQ(client.get_sync("doc").value().value, Bytes{2});
  EXPECT_GE(svc.metrics().counter_total("puts_aborted"), 1u);
  svc.quiesce();
  expect_all_histories_clean(svc);
}

TEST(StoreClient, PutIfVersionCreatesAbsentKeyAgainstT0) {
  StoreService svc(small_options(1));
  Client client(svc);
  // A never-written key's register holds v0 at t0.
  const auto created =
      client.put_if_version_sync("fresh", Bytes{7}, Version(kTag0));
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  EXPECT_EQ(client.get_sync("fresh").value().value, Bytes{7});

  // Against any other version an absent key aborts.
  const auto wrong = client.put_if_version_sync("absent", Bytes{1},
                                                Version(Tag{5, 1}));
  ASSERT_FALSE(wrong.ok());
  EXPECT_TRUE(wrong.status().is(StatusCode::kAborted));
  EXPECT_TRUE(client.get_sync("absent").status().is(StatusCode::kNotFound));
  svc.quiesce();
}

TEST(StoreClient, ConditionalPutNeverOverwritesARacingWrite) {
  auto opt = small_options(1);
  opt.batch_window = 5.0;  // window open while the conditional put arrives
  StoreService svc(opt);
  Client client(svc);
  const auto v1 = client.put_sync("hot", Bytes{1});

  // A plain put is sitting in the batch window when the conditional put
  // verifies.  Committing against v1 would silently overwrite it (the
  // classic verify-then-write lost update), so the guard must abort the
  // conditional put — never absorb it into the window, never report Ok.
  std::vector<PutResult> results(2);
  std::size_t done = 0;
  svc.put("hot", Bytes{2}, [&](const PutResult& r) {
    results[0] = r;
    ++done;
  });
  svc.put_if("hot", Bytes{3}, v1.value(), [&](const PutResult& r) {
    results[1] = r;
    ++done;
  });
  svc.quiesce();
  ASSERT_EQ(done, 2u);
  ASSERT_TRUE(results[0].status.ok());
  ASSERT_FALSE(results[1].status.ok());
  EXPECT_TRUE(results[1].status.is(StatusCode::kAborted))
      << results[1].status.to_string();
  EXPECT_EQ(svc.metrics().counter_total("puts_coalesced"), 0u);
  // The racing write survived; the CAS retry path (re-read, new expected
  // version) then succeeds with its own tag.
  const auto after = client.get_sync("hot");
  EXPECT_EQ(after.value().value, Bytes{2});
  const auto retry =
      client.put_if_version_sync("hot", Bytes{3}, after.value().version);
  ASSERT_TRUE(retry.ok()) << retry.status().to_string();
  EXPECT_NE(retry.value().tag(), results[0].tag);
  EXPECT_EQ(client.get_sync("hot").value().value, Bytes{3});
  svc.quiesce();
  expect_all_histories_clean(svc);
}

// ---- multi-key operations ---------------------------------------------------

TEST(StoreClient, EmptyMultiGetAndMultiPutFireExactlyOnce) {
  StoreService svc(small_options(2));
  Client client(svc);
  std::size_t get_fired = 0, put_fired = 0;
  client.multi_get({}, [&](std::vector<GetResult> r) {
    EXPECT_TRUE(r.empty());
    ++get_fired;
  });
  client.multi_put({}, [&](std::vector<PutResult> r) {
    EXPECT_TRUE(r.empty());
    ++put_fired;
  });
  EXPECT_EQ(get_fired, 1u);
  EXPECT_EQ(put_fired, 1u);
  // The sync wrappers must not hang on the empty gather either (this is the
  // quiesce-hang regression the gather guard exists for).
  EXPECT_TRUE(client.multi_get_sync({}).empty());
  EXPECT_TRUE(client.multi_put_sync({}).empty());
  svc.quiesce();
  EXPECT_EQ(svc.outstanding(), 0u);
}

TEST(StoreClient, MultiPutThenMultiGetSpansShardsInOrder) {
  StoreService svc(small_options(4));
  Client client(svc);
  std::vector<KeyValue> entries;
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < 12; ++i) {
    keys.push_back("mp-" + std::to_string(i));
    entries.push_back({keys.back(), Bytes{static_cast<std::uint8_t>(i)}});
  }
  const auto puts = client.multi_put_sync(std::move(entries));
  ASSERT_EQ(puts.size(), 12u);
  for (const auto& r : puts) {
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  }

  const auto gets = client.multi_get_sync(keys);
  ASSERT_EQ(gets.size(), 12u);
  for (std::size_t i = 0; i < gets.size(); ++i) {
    EXPECT_TRUE(gets[i].status.ok());
    EXPECT_EQ(gets[i].value, Bytes{static_cast<std::uint8_t>(i)});
    EXPECT_EQ(gets[i].version.tag(), puts[i].version.tag());
  }
  std::size_t populated = 0;
  for (std::size_t s = 0; s < svc.num_shards(); ++s) {
    populated += svc.shard_objects(s) > 0 ? 1 : 0;
  }
  EXPECT_GT(populated, 1u);
  svc.quiesce();
  expect_all_histories_clean(svc);
}

// ---- zero-copy value plumbing -----------------------------------------------

TEST(StoreClient, PutMovesHandlesNotPayloadCopies) {
  auto opt = small_options(1);
  opt.batch_window = 2.0;
  StoreService svc(opt);
  Client client(svc);

  const Value payload(Bytes(4096, 0xab));
  ASSERT_TRUE(client.put_sync("big", payload).ok());

  // The shard history's write record references the caller's buffer — the
  // payload moved through router -> batch window -> writer -> history as a
  // refcount, never as a byte copy.
  const auto& ops = svc.shard_history(0).ops();
  bool found = false;
  for (const auto& op : ops) {
    if (op.kind == core::OpKind::Write && op.complete) {
      EXPECT_TRUE(op.value.same_buffer(payload));
      found = true;
    }
  }
  EXPECT_TRUE(found);

  const auto get = client.get_sync("big");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get.value().value, payload);
  svc.quiesce();
}

// ---- read modes -------------------------------------------------------------

TEST(StoreClient, RegularReadModeUsesTheProvisionedPool) {
  auto opt = small_options(1);
  opt.regular_readers_per_shard = 2;
  StoreService svc(opt);
  Client client(svc);
  ASSERT_TRUE(client.put_sync("r", Bytes{1}).ok());

  OpOptions opts;
  opts.read_mode = ReadMode::Regular;
  const auto get = client.get_sync("r", opts);
  ASSERT_TRUE(get.ok()) << get.status().to_string();
  EXPECT_EQ(get.value().value, Bytes{1});
  svc.quiesce();
  // Histories mixing regular reads are verified with the regularity checker
  // (regular reads drop the mutual-monotonicity obligation).
  const auto verdict = svc.shard_history(0).check_regularity(Bytes{});
  EXPECT_TRUE(verdict.ok) << verdict.violation;
}

TEST(StoreClient, RegularReadModeWithoutPoolIsInvalidArgument) {
  StoreService svc(small_options(1));  // no regular pool provisioned
  Client client(svc);
  ASSERT_TRUE(client.put_sync("r", Bytes{1}).ok());
  OpOptions opts;
  opts.read_mode = ReadMode::Regular;
  const auto get = client.get_sync("r", opts);
  ASSERT_FALSE(get.ok());
  EXPECT_TRUE(get.status().is(StatusCode::kInvalidArgument))
      << get.status().to_string();
}

TEST(StoreClient, TagOnlyReadReturnsCommittedTagAndNoValueBytes) {
  StoreService svc(small_options(1));
  Client client(svc);
  const auto put = client.put_sync("k", Bytes{1, 2});
  ASSERT_TRUE(put.ok());

  OpOptions opts;
  opts.read_mode = ReadMode::TagOnly;
  const auto g = client.get_sync("k", opts);
  ASSERT_TRUE(g.ok()) << g.status().to_string();
  EXPECT_EQ(g.value().version.tag(), put.value().tag());
  EXPECT_TRUE(g.value().value.empty());
  EXPECT_GE(svc.metrics().counter_total("gets_tag_only"), 1u);
  EXPECT_EQ(svc.metrics().counter_total("gets"), 0u);
  svc.quiesce();
  // Tag-only reads carry no value and are not linearization-visible: the
  // shard history holds only the put.
  expect_all_histories_clean(svc);
}

// ---- client read cache ------------------------------------------------------

CacheOptions cache_opts(std::size_t capacity = 64, double ttl = 0.0) {
  CacheOptions c;
  c.enabled = true;
  c.capacity = capacity;
  c.ttl = ttl;
  return c;
}

TEST(StoreClientCache, ValidatedHitServesCachedValueWithoutValueBytes) {
  StoreService svc(small_options(2));
  Client client(svc, cache_opts());
  ASSERT_TRUE(client.cache_enabled());
  ASSERT_TRUE(client.put_sync("k", Bytes{1, 2, 3}).ok());
  EXPECT_EQ(client.cache_size(), 1u);  // write-through populated it

  const auto g = client.get_sync("k");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().value, (Bytes{1, 2, 3}));
  // Served from cache after one tag-only validation round: no full get
  // reached the server, and the 3 value bytes never crossed the boundary.
  EXPECT_EQ(client.metrics().counter_total("cache_hits"), 1u);
  EXPECT_EQ(client.metrics().counter_total("cache_validation_rounds"), 1u);
  EXPECT_EQ(client.metrics().counter_total("wire_value_bytes_saved"), 3u);
  EXPECT_GE(svc.metrics().counter_total("gets_tag_only"), 1u);
  EXPECT_EQ(svc.metrics().counter_total("gets"), 0u);
  svc.quiesce();
  expect_all_histories_clean(svc);
}

TEST(StoreClientCache, StaleVersionFallsThroughToFullReadAndRefreshes) {
  StoreService svc(small_options(2));
  Client cached(svc, cache_opts());
  Client other(svc);
  ASSERT_TRUE(cached.put_sync("k", Bytes{1}).ok());
  ASSERT_TRUE(other.put_sync("k", Bytes{2}).ok());  // cached entry now stale

  const auto g = cached.get_sync("k");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().value, Bytes{2});  // never the stale cached value
  EXPECT_EQ(cached.metrics().counter_total("cache_stale_validations"), 1u);
  EXPECT_EQ(cached.metrics().counter_total("cache_hits"), 0u);

  // The fallthrough refilled the entry: the next read validates and hits.
  const auto g2 = cached.get_sync("k");
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g2.value().value, Bytes{2});
  EXPECT_EQ(cached.metrics().counter_total("cache_hits"), 1u);
  svc.quiesce();
  expect_all_histories_clean(svc);
}

TEST(StoreClientCache, DeadlineCoversValidationAndFillRounds) {
  // A stale hit costs a tag-only validation round (2.0 sim units here) and
  // then a full get (12.0).  OpOptions::deadline budgets the whole op, so
  // 13.0 must expire during the fill round instead of restarting with it.
  StoreService svc(small_options(1));
  Client cached(svc, cache_opts());
  Client other(svc);
  ASSERT_TRUE(cached.put_sync("k", Bytes{1}).ok());
  ASSERT_TRUE(other.put_sync("k", Bytes{2}).ok());  // cached entry now stale

  OpOptions opts;
  opts.deadline = 13.0;
  const double t0 = svc.sim().now();
  const auto g = cached.get_sync("k", opts);
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().is(StatusCode::kDeadlineExceeded))
      << g.status().to_string();
  EXPECT_DOUBLE_EQ(svc.sim().now(), t0 + 13.0);
  EXPECT_EQ(cached.metrics().counter_total("cache_stale_validations"), 1u);
}

TEST(StoreClientCache, LocalWritesKeepTheCacheCurrent) {
  StoreService svc(small_options(1));
  Client client(svc, cache_opts());
  ASSERT_TRUE(client.put_sync("k", Bytes{1}).ok());
  ASSERT_TRUE(client.put_sync("k", Bytes{2}).ok());

  const auto g = client.get_sync("k");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().value, Bytes{2});
  EXPECT_EQ(client.metrics().counter_total("cache_hits"), 1u);
  EXPECT_EQ(client.metrics().counter_total("cache_stale_validations"), 0u);
  svc.quiesce();
}

TEST(StoreClientCache, AbortedConditionalPutInvalidatesTheEntry) {
  StoreService svc(small_options(1));
  Client client(svc, cache_opts());
  Client other(svc);
  const auto v1 = client.put_sync("doc", Bytes{1});
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(other.put_if_version_sync("doc", Bytes{2}, v1.value()).ok());

  // Our conditional put against the outdated v1 aborts; the local entry
  // (still v1) is no longer trustworthy and is dropped, not served.
  const auto stale = client.put_if_version_sync("doc", Bytes{3}, v1.value());
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().is(StatusCode::kAborted));
  EXPECT_GE(client.metrics().counter_total("cache_invalidations"), 1u);
  EXPECT_EQ(client.cache_size(), 0u);

  const auto g = client.get_sync("doc");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().value, Bytes{2});
  EXPECT_EQ(client.metrics().counter_total("cache_misses"), 1u);
  svc.quiesce();
  expect_all_histories_clean(svc);
}

TEST(StoreClientCache, TtlSkipsValidationUntilExpiry) {
  StoreService svc(small_options(1));
  Client client(svc, cache_opts(64, 5.0));
  ASSERT_TRUE(client.put_sync("k", Bytes{4}).ok());

  // Within the TTL: served locally, no round trip at all.
  const auto g1 = client.get_sync("k");
  ASSERT_TRUE(g1.ok());
  EXPECT_EQ(g1.value().value, Bytes{4});
  EXPECT_EQ(client.metrics().counter_total("cache_ttl_hits"), 1u);
  EXPECT_EQ(client.metrics().counter_total("cache_validation_rounds"), 0u);

  // Let the simulated clock pass the expiry: the next read validates again
  // (version unchanged, so still a hit) and restamps the freshness window.
  svc.sim().after(10.0, [] {});
  svc.quiesce();
  const auto g2 = client.get_sync("k");
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(client.metrics().counter_total("cache_validation_rounds"), 1u);
  EXPECT_EQ(client.metrics().counter_total("cache_hits"), 2u);
  EXPECT_EQ(svc.metrics().counter_total("gets"), 0u);  // never a full get
  svc.quiesce();
}

TEST(StoreClientCache, CapacityEvictsLeastRecentlyUsed) {
  StoreService svc(small_options(1));
  Client client(svc, cache_opts(2));
  ASSERT_TRUE(client.put_sync("a", Bytes{1}).ok());
  ASSERT_TRUE(client.put_sync("b", Bytes{2}).ok());
  ASSERT_TRUE(client.get_sync("a").ok());           // touch: "a" is MRU
  ASSERT_TRUE(client.put_sync("c", Bytes{3}).ok());  // evicts "b"
  EXPECT_EQ(client.cache_size(), 2u);

  const auto misses = client.metrics().counter_total("cache_misses");
  ASSERT_TRUE(client.get_sync("a").ok());  // survived the eviction
  EXPECT_EQ(client.metrics().counter_total("cache_misses"), misses);
  ASSERT_TRUE(client.get_sync("b").ok());  // evicted: miss, then refill
  EXPECT_EQ(client.metrics().counter_total("cache_misses"), misses + 1);
  svc.quiesce();
}

TEST(StoreClientCache, NonAtomicReadsBypassTheCache) {
  auto opt = small_options(1);
  opt.regular_readers_per_shard = 2;
  StoreService svc(opt);
  Client client(svc, cache_opts());
  ASSERT_TRUE(client.put_sync("r", Bytes{1}).ok());

  OpOptions opts;
  opts.read_mode = ReadMode::Regular;
  const auto g = client.get_sync("r", opts);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(client.metrics().counter_total("cache_hits"), 0u);
  EXPECT_EQ(client.metrics().counter_total("cache_validation_rounds"), 0u);
  EXPECT_GE(svc.metrics().counter_total("gets"), 1u);
  svc.quiesce();
}

TEST(StoreClientCache, DisabledCacheIsBitIdenticalToNoCacheClient) {
  // A client constructed with cache options left disabled must drive the
  // service exactly like a client that never heard of the cache: same op
  // results, same simulated event count.
  auto run = [](bool pass_disabled_options) {
    StoreService svc(small_options(2));
    Client client = pass_disabled_options ? Client(svc, CacheOptions{})
                                          : Client(svc);
    std::vector<Tag> tags;
    for (int k = 0; k < 3; ++k) {
      EXPECT_TRUE(client.put_sync("k" + std::to_string(k), Bytes{9}).ok());
    }
    for (int i = 0; i < 8; ++i) {
      const std::string key = "k" + std::to_string(i % 3);
      if (i % 2 == 0) {
        const auto p =
            client.put_sync(key, Bytes{static_cast<std::uint8_t>(i)});
        EXPECT_TRUE(p.ok());
        tags.push_back(p.value().tag());
      } else {
        const auto g = client.get_sync(key);
        EXPECT_TRUE(g.ok());
        tags.push_back(g.value().version.tag());
      }
    }
    svc.quiesce();
    EXPECT_FALSE(client.cache_enabled());
    return std::pair{tags, svc.sim().events_executed()};
  };
  const auto base = run(false);
  const auto disabled = run(true);
  EXPECT_EQ(base.first, disabled.first);
  EXPECT_EQ(base.second, disabled.second);
}

}  // namespace
}  // namespace lds::store
