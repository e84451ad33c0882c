// The Section-VI / Section-I extensions: L2 repair, regular-consistency
// reads, and the proxy-cache mode of the edge layer.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "lds/analysis.h"
#include "lds/cluster.h"

namespace lds::core {
namespace {

LdsCluster::Options base_options() {
  LdsCluster::Options opt;
  opt.cfg.n1 = 6;
  opt.cfg.f1 = 1;  // k = 4
  opt.cfg.n2 = 8;
  opt.cfg.f2 = 2;  // d = 4
  opt.writers = 2;
  opt.readers = 2;
  opt.tau2 = 4.0;
  return opt;
}

// ---- L2 repair --------------------------------------------------------------

TEST(L2Repair, RepairedServerMatchesPeers) {
  auto opt = base_options();
  LdsCluster c(opt);
  Rng rng(1);
  const Bytes v = rng.bytes(120);
  const Tag wt = c.write_sync(0, 0, v);
  c.settle();

  const Bytes expected = c.l2(3).stored_element(0);  // pre-crash content
  c.crash_l2(3);
  c.replace_l2(3);
  EXPECT_EQ(c.l2(3).stored_tag(0), kTag0);  // fresh replacement

  bool done = false;
  std::optional<Tag> repaired_tag;
  c.l2(3).repair_object(0, [&](std::optional<Tag> t) {
    done = true;
    repaired_tag = t;
  });
  c.settle();

  ASSERT_TRUE(done);
  ASSERT_TRUE(repaired_tag.has_value());
  EXPECT_EQ(*repaired_tag, wt);
  EXPECT_EQ(c.l2(3).stored_tag(0), wt);
  EXPECT_EQ(c.l2(3).stored_element(0), expected)
      << "exact repair: the replacement must hold byte-identical content";
}

TEST(L2Repair, RepairedServerServesSubsequentReads) {
  // The repaired coordinate must be *functionally* correct: crash f2 other
  // servers so that reads depend on the repaired one.
  auto opt = base_options();
  LdsCluster c(opt);
  Rng rng(2);
  const Bytes v = rng.bytes(200);
  const Tag wt = c.write_sync(0, 0, v);
  c.settle();

  c.crash_l2(0);
  c.replace_l2(0);
  bool done = false;
  c.l2(0).repair_object(0, [&](std::optional<Tag> t) {
    done = t.has_value();
  });
  c.settle();
  ASSERT_TRUE(done);

  // Now crash f2 = 2 *other* servers: regeneration needs d + f2 = 6 of the
  // 8 servers, so the repaired server participates in every helper quorum.
  c.crash_l2(5);
  c.crash_l2(6);
  auto [rt, rv] = c.read_sync(0, 0);
  EXPECT_EQ(rt, wt);
  EXPECT_EQ(rv, v);
  EXPECT_TRUE(c.history().check_atomicity({}).ok);
}

TEST(L2Repair, RepairRetriesThroughConcurrentWrite) {
  // Start a repair while a write's offload is still in flight; mixed tags
  // can fail a round, but the repair must converge once the write settles.
  auto opt = base_options();
  opt.tau2 = 8.0;
  LdsCluster c(opt);
  Rng rng(3);
  const Bytes v1 = rng.bytes(60);
  const Bytes v2 = rng.bytes(60);
  c.write_sync(0, 0, v1);
  c.settle();

  c.replace_l2(2);
  bool done = false;
  std::optional<Tag> tag;
  // Kick off a second write and the repair at the same time.
  c.write_at(c.sim().now() + 0.1, 1, 0, v2);
  c.l2(2).repair_object(0, [&](std::optional<Tag> t) {
    done = true;
    tag = t;
  });
  c.settle();

  ASSERT_TRUE(done);
  ASSERT_TRUE(tag.has_value());
  // The repaired tag is one of the two written tags - never older state -
  // and after quiescence the server converges on the newest write, holding
  // exactly the coded element the encoder would produce for its coordinate.
  EXPECT_GE(*tag, (Tag{1, 1}));
  EXPECT_EQ(c.l2(2).stored_tag(0), (Tag{2, 2}));
  EXPECT_EQ(c.l2(2).stored_element(0),
            c.ctx().code.encode_element(v2, c.l2(2).code_index()));
}

TEST(L2Repair, SecondRepairOfAnObjectJoinsTheOneInFlight) {
  // Two callers asking for the same object share one repair (two
  // regeneration loops cover one server when a move re-syncs an L2 on its
  // current owner while an earlier sync still runs).
  auto opt = base_options();
  LdsCluster c(opt);
  Rng rng(5);
  const Tag wt = c.write_sync(0, 0, rng.bytes(80));
  c.settle();
  c.replace_l2(4);
  std::vector<std::optional<Tag>> outcomes;
  for (int i = 0; i < 2; ++i) {
    c.l2(4).repair_object(0, [&](std::optional<Tag> t) {
      outcomes.push_back(t);
    });
  }
  c.settle();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0], std::optional<Tag>(wt));
  EXPECT_EQ(outcomes[1], std::optional<Tag>(wt));
  EXPECT_EQ(c.l2(4).stored_tag(0), wt);
}

TEST(L2Repair, UntouchedObjectRepairsToInitialState) {
  auto opt = base_options();
  opt.cfg.initial_value = Bytes{5, 5, 5, 5};
  LdsCluster c(opt);
  c.replace_l2(1);
  bool done = false;
  c.l2(1).repair_object(42, [&](std::optional<Tag> t) {
    done = t.has_value() && *t == kTag0;
  });
  c.settle();
  EXPECT_TRUE(done);
  EXPECT_EQ(c.l2(1).stored_element(42),
            c.ctx().initial_element(c.l2(1).code_index()));
}

// ---- regular consistency ------------------------------------------------------

TEST(RegularReads, RoundTripAndRegularityHolds) {
  auto opt = base_options();
  opt.read_consistency = ReadConsistency::Regular;
  LdsCluster c(opt);
  Rng rng(4);
  const Bytes v = rng.bytes(90);
  const Tag wt = c.write_sync(0, 0, v);
  c.settle();
  auto [rt, rv] = c.read_sync(0, 0);
  EXPECT_EQ(rt, wt);
  EXPECT_EQ(rv, v);
  EXPECT_TRUE(c.history().check_regularity({}).ok);
}

TEST(RegularReads, TwoRoundTripsCheaperThanAtomic) {
  // A regular quiescent read finishes one client round trip earlier:
  // 4 tau1 + 2 tau2 instead of 6 tau1 + 2 tau2.
  double durations[2] = {0, 0};
  int i = 0;
  for (auto consistency :
       {ReadConsistency::Atomic, ReadConsistency::Regular}) {
    auto opt = base_options();
    opt.read_consistency = consistency;
    LdsCluster c(opt);
    Rng rng(5);
    c.write_sync(0, 0, rng.bytes(50));
    c.settle();
    const double t0 = c.sim().now();
    c.read_sync(0, 0);
    durations[i++] = c.sim().now() - t0;
  }
  EXPECT_DOUBLE_EQ(durations[0] - durations[1], 2.0);  // 2 tau1 saved
}

TEST(RegularReads, NoGammaLeakWithoutPutTag) {
  // The UNREGISTER-READER message must clean up registrations that the
  // skipped put-tag phase would have removed.
  auto opt = base_options();
  opt.read_consistency = ReadConsistency::Regular;
  LdsCluster c(opt);
  Rng rng(6);
  c.write_sync(0, 0, rng.bytes(30));
  c.settle();
  c.read_sync(0, 0);  // regeneration path: the reader registers everywhere
  c.settle();
  for (std::size_t j = 0; j < opt.cfg.n1; ++j) {
    EXPECT_EQ(c.l1(j).registered_readers(0), 0u) << "server " << j;
  }
}

TEST(RegularReads, StressManySeedsStaysRegular) {
  for (int seed = 0; seed < 8; ++seed) {
    auto opt = base_options();
    opt.read_consistency = ReadConsistency::Regular;
    opt.latency = LdsCluster::LatencyKind::Exponential;
    opt.seed = static_cast<std::uint64_t>(seed) + 31;
    LdsCluster c(opt);
    Rng rng(static_cast<std::uint64_t>(seed));
    c.write_at(0.0, 0, 0, rng.bytes(40));
    c.write_at(0.5, 1, 0, rng.bytes(40));
    c.read_at(0.3, 0, 0);
    c.read_at(0.8, 1, 0);
    c.settle();
    EXPECT_TRUE(c.history().all_complete()) << "seed " << seed;
    const auto verdict = c.history().check_regularity({});
    EXPECT_TRUE(verdict.ok) << verdict.violation << " seed " << seed;
  }
}

// ---- proxy cache ---------------------------------------------------------------

TEST(ProxyCache, QuiescentReadServedFromEdge) {
  auto opt = base_options();
  opt.cfg.proxy_cache = true;
  LdsCluster c(opt);
  Rng rng(7);
  const Bytes v = rng.bytes(70);
  const Tag wt = c.write_sync(0, 0, v);
  c.settle();

  // The committed value stays cached in every L1 list.
  for (std::size_t j = 0; j < opt.cfg.n1; ++j) {
    EXPECT_TRUE(c.l1(j).has_value(0, wt)) << "server " << j;
  }

  // The read completes in 6 tau1 - no L1<->L2 round trip (2 tau2 = 8).
  const double t0 = c.sim().now();
  auto [rt, rv] = c.read_sync(0, 0);
  EXPECT_EQ(rv, v);
  EXPECT_DOUBLE_EQ(c.sim().now() - t0, 6.0);
}

TEST(ProxyCache, CacheFollowsLatestWrite) {
  auto opt = base_options();
  opt.cfg.proxy_cache = true;
  LdsCluster c(opt);
  Rng rng(8);
  c.write_sync(0, 0, rng.bytes(40));
  c.settle();
  const Bytes v2 = rng.bytes(40);
  const Tag t2 = c.write_sync(1, 0, v2);
  c.settle();
  auto [rt, rv] = c.read_sync(0, 0);
  EXPECT_EQ(rt, t2);
  EXPECT_EQ(rv, v2);
  // Only the newest value is cached; older ones were garbage-collected.
  for (std::size_t j = 0; j < opt.cfg.n1; ++j) {
    EXPECT_TRUE(c.l1(j).has_value(0, t2));
    EXPECT_FALSE(c.l1(j).has_value(0, Tag{1, 1}));
  }
  EXPECT_TRUE(c.history().check_atomicity({}).ok);
}

TEST(ProxyCache, StorageCostIsOneValuePerServerPerObject) {
  auto opt = base_options();
  opt.cfg.proxy_cache = true;
  LdsCluster c(opt);
  Rng rng(9);
  const std::size_t value_size = 100;
  c.write_sync(0, 0, rng.bytes(value_size));
  c.write_sync(0, 1, rng.bytes(value_size));
  c.settle();
  EXPECT_EQ(c.meter().l1_bytes(), opt.cfg.n1 * 2 * value_size);
}

TEST(ProxyCache, StaysAtomicUnderConcurrency) {
  for (int seed = 0; seed < 8; ++seed) {
    auto opt = base_options();
    opt.cfg.proxy_cache = true;
    opt.latency = LdsCluster::LatencyKind::Exponential;
    opt.seed = static_cast<std::uint64_t>(seed) + 77;
    LdsCluster c(opt);
    Rng rng(static_cast<std::uint64_t>(seed) + 7);
    c.write_at(0.0, 0, 0, rng.bytes(30));
    c.write_at(0.4, 1, 0, rng.bytes(30));
    c.read_at(0.2, 0, 0);
    c.read_at(0.9, 1, 0);
    c.settle();
    EXPECT_TRUE(c.history().all_complete()) << "seed " << seed;
    const auto verdict = c.history().check_atomicity({});
    EXPECT_TRUE(verdict.ok) << verdict.violation << " seed " << seed;
  }
}

}  // namespace
}  // namespace lds::core
