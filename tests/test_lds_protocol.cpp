// White-box protocol tests of the L1/L2 server automata: broadcast-primitive
// semantics, registered-reader service, garbage collection triggers, the
// put-tag proxy-commit paths, regeneration failure handling and internal-
// operation consistency (Lemma IV.4).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <ostream>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "lds/cluster.h"
#include "lds/messages.h"

namespace lds::core {
namespace {

LdsCluster::Options base_options() {
  LdsCluster::Options opt;
  opt.cfg.n1 = 6;
  opt.cfg.f1 = 1;  // k = 4, l1_quorum = 5
  opt.cfg.n2 = 8;
  opt.cfg.f2 = 2;  // d = 4, l2_quorum = 6
  opt.writers = 2;
  opt.readers = 2;
  opt.tau1 = 1.0;
  opt.tau0 = 1.0;
  opt.tau2 = 4.0;
  return opt;
}

TEST(Protocol, BroadcastConsumedExactlyOncePerServer) {
  // Count COMMIT-TAG deliveries vs distinct broadcast consumptions: each of
  // the n1 servers broadcasts once per PUT-DATA, every server must act on
  // each instance exactly once even though relays produce duplicates.
  auto opt = base_options();
  LdsCluster c(opt);
  Rng rng(1);

  std::map<std::uint64_t, int> deliveries;  // bcast_id -> count
  c.net().set_delivery_observer(
      [&](NodeId, NodeId, const net::Payload& p) {
        const auto* m = dynamic_cast<const LdsMessage*>(&p);
        if (m == nullptr) return;
        if (const auto* ct = std::get_if<CommitTag>(&m->body())) {
          ++deliveries[ct->bcast_id];
        }
      });
  c.write_sync(0, 0, rng.bytes(20));
  c.settle();

  // n1 broadcast instances (one per server that received PUT-DATA).
  EXPECT_EQ(deliveries.size(), opt.cfg.n1);
  for (const auto& [id, count] : deliveries) {
    // Each instance is delivered to the f1+1 relays plus n1 forwards per
    // relay; every server sees >= 1 copy and at most (f1+1) + 1 copies.
    EXPECT_GE(count, static_cast<int>(opt.cfg.n1));
    EXPECT_LE(count,
              static_cast<int>((opt.cfg.f1 + 1) * opt.cfg.n1 + opt.cfg.f1 + 1));
  }

  // Consumption exactly once: commitCounter-driven effects fired once per
  // server; indirectly visible as every server having committed the tag.
  for (std::size_t j = 0; j < opt.cfg.n1; ++j) {
    EXPECT_EQ(c.l1(j).committed_tag(0), (Tag{1, 1}));
  }
}

TEST(Protocol, BroadcastDedupConsumesShuffledIdsExactlyOnce) {
  // Three origins broadcast 2000 instances each.  Every instance arrives
  // one to three times, each copy at a time in [seq, seq + kWindow], so by
  // time t every seq below t - kWindow has arrived once: an origin holds at
  // most kWindow + 1 consumed seqs above its floor.
  constexpr std::uint32_t kSeqs = 2000;
  constexpr std::size_t kWindow = 16;
  const std::uint32_t origins[] = {kL1IdBase, kL1IdBase + 3, kL1IdBase + 5};
  Rng rng(5);
  std::vector<std::pair<double, std::uint64_t>> arrivals;  // (time, id)
  for (const std::uint32_t origin : origins) {
    for (std::uint32_t seq = 0; seq < kSeqs; ++seq) {
      const std::uint64_t id = (std::uint64_t{origin} << 32) | seq;
      for (auto copies = rng.uniform_int(1, 3); copies > 0; --copies) {
        arrivals.emplace_back(seq + rng.uniform_real(0, kWindow), id);
      }
    }
  }
  std::sort(arrivals.begin(), arrivals.end());

  BroadcastDedup dedup;
  std::set<std::uint64_t> consumed;
  std::size_t wrong = 0, widest = 0;
  for (const auto& [t, id] : arrivals) {
    if (dedup.consume(id) != consumed.insert(id).second) ++wrong;
    widest = std::max(widest, dedup.window());
  }
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(consumed.size(), std::size(origins) * kSeqs);
  EXPECT_LE(widest, std::size(origins) * (kWindow + 1));
  EXPECT_GT(widest, 0u) << "the stream was never out of order";
  EXPECT_EQ(dedup.window(), 0u);  // every floor caught up
  EXPECT_EQ(dedup.origins(), std::size(origins));
}

TEST(Protocol, BroadcastDedupStateDoesNotGrowWithWrites) {
  // One key written 10k times under heavy-tailed latency: the COMMIT-TAG
  // dedup holds one floor per origin plus the out-of-order window, however
  // many broadcasts each server has consumed.
  auto opt = base_options();
  opt.writers = 1;
  opt.readers = 1;
  opt.latency = LdsCluster::LatencyKind::Exponential;
  LdsCluster c(opt);
  Rng rng(6);
  const Value v = rng.bytes(8);
  std::size_t widest_first_1k = 0, widest = 0;
  for (int w = 1; w <= 10000; ++w) {
    c.write_sync(0, 0, v);
    for (std::size_t j = 0; j < opt.cfg.n1; ++j) {
      widest = std::max(widest, c.l1(j).bcast_dedup().window());
    }
    if (w == 1000) widest_first_1k = widest;
  }
  c.settle();
  EXPECT_GT(widest_first_1k, 0u) << "no broadcast arrived out of order";
  EXPECT_LE(widest, 2 * widest_first_1k);
  for (std::size_t j = 0; j < opt.cfg.n1; ++j) {
    EXPECT_EQ(c.l1(j).bcast_dedup().origins(), opt.cfg.n1);
    EXPECT_EQ(c.l1(j).bcast_dedup().window(), 0u) << "server " << j;
  }
}

TEST(Protocol, L1TagTableStaysWithinTheWritesInFlight) {
  // Two writers and two readers race on one key under heavy-tailed latency.
  // A write is in flight from its invocation until every L1 server has
  // received its PUT-DATA and its writer has received that server's
  // WriteAck.  A server's tag table holds t0, tc and at most one record per
  // write in flight: checked before every delivery over the first 1k
  // writes, and at a quiescent checkpoint after every round, where only t0
  // and tc remain.  No server acks a write twice, and once settled no L1
  // holds a value.
  auto opt = base_options();
  opt.latency = LdsCluster::LatencyKind::Exponential;
  opt.seed = 41;
  LdsCluster c(opt);
  Rng rng(41);
  const Value v = rng.bytes(8);
  constexpr int kRounds = 200;
  constexpr int kWritesPerRound = 50;  // per writer: 20k writes in all
  constexpr int kTrackedWrites = 1000;

  int started = 0, done = 0;
  std::size_t over_bound = 0, widest = 0, second_acks = 0;
  // tag -> (PUT-DATAs received by L1, WriteAcks received by the writer)
  std::map<Tag, std::pair<std::size_t, std::size_t>> tracked;
  std::set<std::pair<NodeId, Tag>> acks;
  c.net().set_delivery_observer(
      [&](NodeId from, NodeId, const net::Payload& p) {
        const auto* m = dynamic_cast<const LdsMessage*>(&p);
        if (m == nullptr) return;
        const bool tracking = started <= kTrackedWrites;
        if (tracking) {
          const auto in_flight = static_cast<std::size_t>(started - done);
          for (std::size_t j = 0; j < opt.cfg.n1; ++j) {
            const std::size_t records = c.l1(j).tag_records(0);
            widest = std::max(widest, records);
            if (records > 2 + in_flight) ++over_bound;
          }
        }
        std::size_t* count = nullptr;
        Tag tag;
        if (const auto* d = std::get_if<PutData>(&m->body())) {
          tag = d->tag;
          if (tracking) count = &tracked[tag].first;
        } else if (const auto* a = std::get_if<WriteAck>(&m->body())) {
          tag = a->tag;
          if (!acks.emplace(from, tag).second) ++second_acks;
          if (tracking) count = &tracked[tag].second;
        }
        if (count == nullptr) return;
        ++*count;
        const auto& [put_datas, write_acks] = tracked[tag];
        if (put_datas == opt.cfg.n1 && write_acks == opt.cfg.n1) {
          ++done;
          tracked.erase(tag);
        }
      });

  std::size_t over_quiescent = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::size_t writers_left = opt.writers;
    std::function<void(std::size_t, int)> write_next = [&](std::size_t w,
                                                           int left) {
      if (left == 0) {
        --writers_left;
        return;
      }
      ++started;
      c.writer(w).write(0, v, [&, w, left](Tag) {
        c.sim().after(rng.uniform_real(0.0, 1.0),
                      [&, w, left] { write_next(w, left - 1); });
      });
    };
    std::function<void(std::size_t)> read_next = [&](std::size_t r) {
      if (writers_left == 0) return;
      c.reader(r).read(0, [&, r](Tag, Bytes) {
        c.sim().after(rng.uniform_real(0.0, 1.0), [&, r] { read_next(r); });
      });
    };
    for (std::size_t w = 0; w < opt.writers; ++w) {
      c.sim().after(rng.uniform_real(0.0, 1.0),
                    [&, w] { write_next(w, kWritesPerRound); });
    }
    for (std::size_t r = 0; r < opt.readers; ++r) {
      c.sim().after(rng.uniform_real(0.0, 1.0), [&, r] { read_next(r); });
    }
    c.settle();
    for (std::size_t j = 0; j < opt.cfg.n1; ++j) {
      if (c.l1(j).tag_records(0) > 2) ++over_quiescent;
    }
  }

  EXPECT_EQ(started, kRounds * kWritesPerRound * static_cast<int>(opt.writers));
  EXPECT_EQ(over_bound, 0u) << "widest table " << widest;
  EXPECT_GT(widest, 2u) << "no write was ever in flight at a checked step";
  EXPECT_EQ(over_quiescent, 0u);
  EXPECT_EQ(second_acks, 0u);
  EXPECT_EQ(acks.size(), static_cast<std::size_t>(started) * opt.cfg.n1);
  for (std::size_t j = 0; j < opt.cfg.n1; ++j) {
    EXPECT_EQ(c.l1(j).stored_value_bytes(), 0u) << "server " << j;
  }
}

TEST(Protocol, RegenerationKeepsHelperAndCodedBuffersShared) {
  // A get that regenerates from L2: every L1 server repairs from the very
  // buffers its L2 helpers computed, and the reader decodes from the very
  // buffers the L1 servers regenerated.  The delivery observer keeps its
  // own handle on each payload; a handle's owners beyond it are the
  // server or reader that kept the buffer (the message itself is freed
  // once delivered).
  auto opt = base_options();
  LdsCluster c(opt);
  Rng rng(9);
  c.write_sync(0, 0, rng.bytes(5000));
  c.settle();  // offloaded: L1 keeps no value, so the get regenerates

  std::map<std::pair<NodeId, OpId>, std::vector<Value>> helpers;
  std::vector<Value> coded;
  std::size_t checked = 0, shared = 0;
  c.net().set_delivery_observer([&](NodeId, NodeId to, const net::Payload& p) {
    const auto* m = dynamic_cast<const LdsMessage*>(&p);
    if (m == nullptr) return;
    if (const auto* h = std::get_if<SendHelperElem>(&m->body())) {
      // Until this server's regeneration completes, it holds every earlier
      // helper of the read.
      auto& got = helpers[{to, m->op()}];
      if (got.size() < c.ctx().regen_wait()) {
        for (const Value& earlier : got) {
          ++checked;
          if (earlier.use_count() == 2) ++shared;
        }
      }
      got.push_back(h->helper);
    } else if (const auto* e = std::get_if<DataRespCoded>(&m->body())) {
      coded.push_back(e->element);
    }
  });
  c.read_sync(0, 0);
  c.settle();

  EXPECT_EQ(checked, opt.cfg.n1 * (c.ctx().regen_wait() - 1) *
                         c.ctx().regen_wait() / 2);
  EXPECT_EQ(shared, checked);
  // The reader keeps the coded elements it decoded from until its next op.
  ASSERT_GE(coded.size(), opt.cfg.k());
  const auto kept =
      std::count_if(coded.begin(), coded.end(),
                    [](const Value& e) { return e.use_count() == 2; });
  EXPECT_GE(static_cast<std::size_t>(kept), opt.cfg.k());
}

TEST(Protocol, RegisteredReaderServedByLaterCommit) {
  // A reader that finds no value and no regenerable tag gets registered in
  // Gamma; when the concurrent write commits, the server serves the reader
  // from the broadcast-resp action (Fig. 2 line 17).
  auto opt = base_options();
  opt.tau2 = 50.0;  // L2 is very slow: regeneration cannot finish first
  LdsCluster c(opt);
  Rng rng(2);

  const Bytes v = rng.bytes(64);
  bool read_done = false;
  Tag read_tag;
  // Start the write and the read together; the read's get-data arrives
  // while the write is uncommitted, forcing registration.
  c.write_at(0.0, 0, 0, v);
  c.read_at(0.0, 0, 0);

  c.sim().run_until(20.0);  // well before any L2 round trip (2*50)
  const auto ops = c.history().completed_ops(0);
  for (const auto& op : ops) {
    if (op.kind == OpKind::Read) {
      read_done = true;
      read_tag = op.tag;
    }
  }
  EXPECT_TRUE(read_done)
      << "read should be served from L1 temporary storage without waiting "
         "for the slow L2 round trip";
  EXPECT_EQ(read_tag, (Tag{1, 1}));
  c.settle();
  EXPECT_TRUE(c.history().check_atomicity({}).ok);
}

TEST(Protocol, WriterAckRequiresCommitQuorum) {
  // A server that adds (t, v) to its list must not ACK until it has seen
  // f1 + k COMMIT-TAG broadcasts (Fig. 2 line 13).  With all L1->L1 links
  // stalled... we cannot stall reliable links, but we can check the timing:
  // the earliest possible ACK is 2 tau1 + 2 tau0 after the write started
  // (get-tag round trip is 2 tau1; put-data tau1; broadcast 2 tau0; ack
  // tau1) => write duration exactly 4 tau1 + 2 tau0 under fixed delays.
  auto opt = base_options();
  LdsCluster c(opt);
  Rng rng(3);
  const double t0 = c.sim().now();
  c.write_sync(0, 0, rng.bytes(16));
  EXPECT_DOUBLE_EQ(c.sim().now() - t0, 4 * opt.tau1 + 2 * opt.tau0);
}

TEST(Protocol, StaleWriteTagAckedImmediately) {
  // A PUT-DATA whose tag is already below the server's committed tag is
  // ACKed without being stored (Fig. 2 lines 9-10).  Construct it by
  // letting writer 2 obtain a tag, then having writer 1 write twice before
  // writer 2's put-data lands.  Simpler deterministic variant: replay of an
  // old tag cannot resurrect old state - after two writes, no server's list
  // holds a value for tag (1, w1).
  auto opt = base_options();
  LdsCluster c(opt);
  Rng rng(4);
  const Tag t1 = c.write_sync(0, 0, rng.bytes(16));
  const Tag t2 = c.write_sync(1, 0, rng.bytes(16));
  EXPECT_GT(t2, t1);
  c.settle();
  for (std::size_t j = 0; j < opt.cfg.n1; ++j) {
    EXPECT_FALSE(c.l1(j).has_value(0, t1));
    EXPECT_GE(c.l1(j).committed_tag(0), t2);
  }
}

TEST(Protocol, GarbageCollectionBlanksOldValuesAndRetiresOldTags) {
  // Fig. 2 lines 18, 27: values below tc are blanked.  The tag table then
  // retires t1's key: its writer is acked and its PUT-DATA has arrived, and
  // get-tag reads only the largest key, which is never below tc.
  auto opt = base_options();
  LdsCluster c(opt);
  Rng rng(5);
  const Tag t1 = c.write_sync(0, 0, rng.bytes(16));
  const Tag t2 = c.write_sync(0, 0, rng.bytes(16));
  c.settle();
  for (std::size_t j = 0; j < opt.cfg.n1; ++j) {
    const auto tags = c.l1(j).list_tags(0);
    EXPECT_EQ(std::find(tags.begin(), tags.end(), t1), tags.end());
    EXPECT_NE(std::find(tags.begin(), tags.end(), t2), tags.end());
    EXPECT_FALSE(c.l1(j).has_value(0, t1));
    EXPECT_FALSE(c.l1(j).has_value(0, t2));  // offloaded to L2 and GC'd
  }
  std::vector<Tag> tag_resps;
  c.net().set_delivery_observer([&](NodeId, NodeId, const net::Payload& p) {
    const auto* m = dynamic_cast<const LdsMessage*>(&p);
    if (m == nullptr) return;
    if (const auto* r = std::get_if<TagResp>(&m->body())) {
      tag_resps.push_back(r->tag);
    }
  });
  c.write_sync(1, 0, rng.bytes(16));
  ASSERT_FALSE(tag_resps.empty());
  for (const Tag& t : tag_resps) EXPECT_GE(t, t2);
}

TEST(Protocol, L2StoresExactlyOneTagPerObject) {
  // Fig. 3: an L2 server keeps a single (tag, element) pair and only moves
  // it forward.
  auto opt = base_options();
  LdsCluster c(opt);
  Rng rng(6);
  const Tag t1 = c.write_sync(0, 0, rng.bytes(40));
  c.settle();
  const Tag t2 = c.write_sync(1, 0, rng.bytes(40));
  c.settle();
  EXPECT_GT(t2, t1);
  for (std::size_t i = 0; i < opt.cfg.n2; ++i) {
    EXPECT_EQ(c.l2(i).stored_tag(0), t2);
  }
}

TEST(Protocol, InternalReadSeesCompletedInternalWrite) {
  // Lemma IV.4 at the system level: once a write settles (write-to-L2
  // completed by some server), any regeneration returns a tag >= that
  // write's tag - the read cannot travel back in time.
  auto opt = base_options();
  LdsCluster c(opt);
  Rng rng(7);
  const Tag t1 = c.write_sync(0, 0, rng.bytes(64));
  c.settle();
  for (int round = 0; round < 3; ++round) {
    auto [rt, rv] = c.read_sync(round % 2, 0);
    EXPECT_GE(rt, t1);
  }
  EXPECT_TRUE(c.history().check_atomicity({}).ok);
}

TEST(Protocol, ReaderUnregisteredAfterPutTag) {
  // Fig. 2 line 53: the put-tag phase removes the reader's registration.
  auto opt = base_options();
  LdsCluster c(opt);
  Rng rng(8);
  c.write_sync(0, 0, rng.bytes(32));
  c.settle();
  c.read_sync(0, 0);
  c.settle();
  for (std::size_t j = 0; j < opt.cfg.n1; ++j) {
    EXPECT_EQ(c.l1(j).registered_readers(0), 0u)
        << "server " << j << " leaked a Gamma registration";
  }
}

TEST(Protocol, ReadCostExcludesMetaData) {
  // Section II-d: meta-data (tags, counters) must not pollute the
  // normalized costs; check that a read's data bytes are entirely
  // explainable by value/element/helper payloads.
  auto opt = base_options();
  LdsCluster c(opt);
  Rng rng(9);
  const std::size_t value_size = 3000;
  c.write_sync(0, 0, rng.bytes(value_size));
  c.settle();
  const OpId read_op = make_op_id(kReaderIdBase, 1);
  c.read_sync(0, 0);
  const auto bucket = c.net().costs().by_op(read_op);
  EXPECT_GT(bucket.meta_bytes, 0u);
  // Regeneration: n1 * n2 helpers + n1 coded elements; every byte of data
  // is a multiple of the helper/element sizes (no tag bytes leaked in).
  const std::size_t helper = c.ctx().code.helper_size(value_size);
  const std::size_t elem =
      c.ctx().code.element_size(value_size);
  EXPECT_EQ(bucket.data_bytes % helper, 0u)
      << "helper=" << helper << " elem=" << elem;
}

// ---- boundary geometries ----------------------------------------------------

// Edge values of (n1, f1, n2, f2) under the paper's constraints
// n1 = 2 f1 + k (k >= 1), n2 = 2 f2 + d (d >= k), f1 < n1/2, f2 < n2/3:
// minimal layers, k = 1 (maximal edge tolerance), f2 = 0 (d = n2, maximal
// regeneration degree), f1 = 0, and both layers at their tolerance caps.
struct Geometry {
  std::size_t n1, f1, n2, f2;
  friend std::ostream& operator<<(std::ostream& os, const Geometry& g) {
    return os << "n1=" << g.n1 << " f1=" << g.f1 << " n2=" << g.n2
              << " f2=" << g.f2;
  }
};

class ProtocolBoundary : public ::testing::TestWithParam<Geometry> {
 protected:
  LdsCluster::Options options() const {
    const Geometry& g = GetParam();
    auto opt = base_options();
    opt.cfg.n1 = g.n1;
    opt.cfg.f1 = g.f1;
    opt.cfg.n2 = g.n2;
    opt.cfg.f2 = g.f2;
    return opt;
  }
};

TEST_P(ProtocolBoundary, SequentialRoundTripsReturnLatestValue) {
  auto opt = options();
  opt.cfg.validate();  // the geometry itself must be legal
  LdsCluster c(opt);
  Rng rng(17);
  Tag last = kTag0;
  for (int i = 0; i < 3; ++i) {
    const Bytes v = rng.bytes(48 + 16 * static_cast<std::size_t>(i));
    const Tag t = c.write_sync(i % 2, 0, v);
    EXPECT_GT(t, last);
    last = t;
    auto [rt, rv] = c.read_sync(i % 2, 0);
    EXPECT_EQ(rt, t);
    EXPECT_EQ(rv, v);
  }
  c.settle();
  EXPECT_TRUE(c.history().check_atomicity({}).ok);
}

TEST_P(ProtocolBoundary, ConcurrentOpsUnderFullCrashBudgetStayAtomic) {
  auto opt = options();
  opt.latency = LdsCluster::LatencyKind::Exponential;
  opt.seed = 23;
  LdsCluster c(opt);
  Rng rng(23);

  // Two writers and two readers in closed loops, overlapping in sim time.
  std::function<void(std::size_t, int)> write_next;
  std::function<void(std::size_t, int)> read_next;
  write_next = [&](std::size_t w, int left) {
    if (left == 0) return;
    c.writer(w).write(0, rng.bytes(32), [&, w, left](Tag) {
      c.sim().after(0.5, [&, w, left] { write_next(w, left - 1); });
    });
  };
  read_next = [&](std::size_t r, int left) {
    if (left == 0) return;
    c.reader(r).read(0, [&, r, left](Tag, Bytes) {
      c.sim().after(0.5, [&, r, left] { read_next(r, left - 1); });
    });
  };
  for (std::size_t w = 0; w < opt.writers; ++w) {
    c.sim().at(rng.uniform_real(0.0, 2.0), [&, w] { write_next(w, 4); });
  }
  for (std::size_t r = 0; r < opt.readers; ++r) {
    c.sim().at(rng.uniform_real(0.0, 4.0), [&, r] { read_next(r, 4); });
  }
  // Spend the full failure budget of both layers mid-run.
  for (std::size_t i = 0; i < opt.cfg.f1; ++i) {
    c.sim().at(rng.uniform_real(0.5, 10.0), [&, i] { c.crash_l1(i); });
  }
  for (std::size_t i = 0; i < opt.cfg.f2; ++i) {
    c.sim().at(rng.uniform_real(0.5, 10.0), [&, i] { c.crash_l2(i); });
  }
  c.settle();

  EXPECT_TRUE(c.history().all_complete())
      << c.history().incomplete() << " ops incomplete";
  const auto verdict = c.history().check_atomicity({});
  EXPECT_TRUE(verdict.ok) << verdict.violation;
}

INSTANTIATE_TEST_SUITE_P(
    BoundaryGeometries, ProtocolBoundary,
    ::testing::Values(Geometry{1, 0, 1, 0},    // minimal: k = d = 1
                      Geometry{3, 1, 3, 0},    // k = 1; f2 = 0 => d = n2
                      Geometry{5, 2, 4, 0},    // max f1 for n1 = 5; d = n2
                      Geometry{4, 0, 6, 1},    // f1 = 0: k = n1 = 4, d = 4
                      Geometry{7, 3, 7, 2},    // both layers at the cap
                      Geometry{2, 0, 8, 2},    // tiny edge, wide back end
                      Geometry{21, 10, 10, 3}  // k = 1 at scale
                      ));

}  // namespace
}  // namespace lds::core
