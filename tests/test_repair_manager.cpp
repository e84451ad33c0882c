// Automated back-end repair: failure detection soundness/completeness under
// bounded latency, end-to-end replace-and-repair of all tracked objects,
// and continued correct service afterwards.
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "common/rng.h"
#include "lds/cluster.h"
#include "lds/repair_manager.h"

namespace lds::core {
namespace {

struct Fixture {
  explicit Fixture(double tau2 = 4.0) {
    LdsCluster::Options opt;
    opt.cfg.n1 = 6;
    opt.cfg.f1 = 1;  // k = 4
    opt.cfg.n2 = 8;
    opt.cfg.f2 = 2;  // d = 4
    opt.writers = 2;
    opt.readers = 1;
    opt.tau2 = tau2;
    cluster = std::make_unique<LdsCluster>(opt);

    RepairManager::Options mopt;
    mopt.heartbeat_period = 5.0;
    mopt.suspect_after = 2 * tau2 + 3 * mopt.heartbeat_period;
    manager = std::make_unique<RepairManager>(
        cluster->net(), cluster->ctx_ptr(), mopt,
        [this](std::size_t i) -> ServerL2& {
          cluster->replace_l2(i);
          return cluster->l2(i);
        });
  }

  std::unique_ptr<LdsCluster> cluster;
  std::unique_ptr<RepairManager> manager;
};

TEST(RepairManager, NoFalseSuspicionsWhenAllAlive) {
  Fixture f;
  f.manager->start();
  f.cluster->sim().run_until(200.0);
  EXPECT_EQ(f.manager->suspected_count(), 0u);
  EXPECT_EQ(f.manager->repairs_started(), 0u);
}

TEST(RepairManager, DetectsAndRepairsCrashedServer) {
  Fixture f;
  Rng rng(1);
  const Bytes v0 = rng.bytes(100);
  const Bytes v1 = rng.bytes(100);
  f.cluster->write_sync(0, /*obj=*/0, v0);
  f.cluster->write_sync(1, /*obj=*/1, v1);
  f.cluster->settle();
  f.manager->track_object(0);
  f.manager->track_object(1);
  f.manager->start();

  const Bytes expected0 = f.cluster->l2(4).stored_element(0);
  const Bytes expected1 = f.cluster->l2(4).stored_element(1);
  f.cluster->sim().after(10.0, [&] { f.cluster->crash_l2(4); });
  f.cluster->sim().run_until(500.0);
  f.manager->stop();
  f.cluster->settle();

  EXPECT_EQ(f.manager->repairs_started(), 2u);
  EXPECT_EQ(f.manager->repairs_completed(), 2u);
  EXPECT_EQ(f.manager->repairs_failed(), 0u);
  // The replacement converged to byte-identical (exact-repair) state and
  // heartbeat coverage resumed (no longer suspected).
  EXPECT_EQ(f.cluster->l2(4).stored_element(0), expected0);
  EXPECT_EQ(f.cluster->l2(4).stored_element(1), expected1);
  EXPECT_FALSE(f.manager->is_suspected(4));
}

TEST(RepairManager, SystemServesReadsThroughRepairCycle) {
  Fixture f;
  Rng rng(2);
  const Bytes v = rng.bytes(150);
  const Tag wt = f.cluster->write_sync(0, 0, v);
  f.cluster->settle();
  f.manager->track_object(0);
  f.manager->start();

  f.cluster->sim().after(8.0, [&] { f.cluster->crash_l2(0); });
  f.cluster->sim().run_until(400.0);
  f.manager->stop();
  f.cluster->settle();

  // Crash two more servers (f2 = 2 budget spent on *live* failures); the
  // repaired server 0 must carry helper quorums now.
  f.cluster->crash_l2(6);
  f.cluster->crash_l2(7);
  auto [rt, rv] = f.cluster->read_sync(0, 0);
  EXPECT_EQ(rt, wt);
  EXPECT_EQ(rv, v);
  EXPECT_TRUE(f.cluster->history().check_atomicity({}).ok);
}

TEST(RepairManager, RepairConcurrentWithWritesConverges) {
  Fixture f;
  Rng rng(3);
  f.cluster->write_sync(0, 0, rng.bytes(80));
  f.cluster->settle();
  f.manager->track_object(0);
  f.manager->start();

  // Crash a server, then keep writing while detection + repair run.
  f.cluster->sim().after(6.0, [&] { f.cluster->crash_l2(3); });
  f.cluster->write_at(20.0, 0, 0, rng.bytes(80));
  f.cluster->write_at(45.0, 1, 0, rng.bytes(80));
  f.cluster->sim().run_until(600.0);
  f.manager->stop();
  f.cluster->settle();

  EXPECT_EQ(f.manager->repairs_completed(), 1u);
  // Converged: the repaired server holds the same tag as its peers.
  EXPECT_EQ(f.cluster->l2(3).stored_tag(0), f.cluster->l2(2).stored_tag(0));
  EXPECT_TRUE(f.cluster->history().all_complete());
  EXPECT_TRUE(f.cluster->history().check_atomicity({}).ok);
}

TEST(RepairManager, RepairUnderSustainedWriteLoadTracksCommittedTag) {
  // Regeneration races a closed-loop writer that keeps advancing the
  // committed tag for the whole detection + repair window.  The repaired
  // server must converge to whatever tag is current *when its repair round
  // finally wins*, not the tag at crash time.
  Fixture f;
  Rng rng(7);
  f.cluster->write_sync(0, 0, rng.bytes(60));
  f.cluster->settle();
  const Tag tag_at_crash = f.cluster->l2(5).stored_tag(0);
  f.manager->track_object(0);
  f.manager->start();

  std::map<Tag, Bytes> written;  // tag -> value, to check exact repair below
  std::function<void(int)> write_next;
  write_next = [&](int left) {
    if (left == 0) return;
    const Bytes v = rng.bytes(60);
    f.cluster->writer(0).write(0, v, [&, v, left](Tag t) {
      written[t] = v;
      f.cluster->sim().after(6.0, [&, left] { write_next(left - 1); });
    });
  };
  f.cluster->sim().after(4.0, [&] { f.cluster->crash_l2(5); });
  f.cluster->sim().after(5.0, [&] { write_next(20); });
  f.cluster->sim().run_until(900.0);
  f.manager->stop();
  f.cluster->settle();

  EXPECT_GE(f.manager->repairs_completed(), 1u);
  EXPECT_EQ(f.manager->repairs_failed(), 0u);
  // The committed tag moved well past the crash-time tag...
  const Tag final_tag = f.cluster->l2(2).stored_tag(0);
  EXPECT_GT(final_tag, tag_at_crash);
  // ...and the replacement landed on the final tag with the exact-repair
  // element: byte-identical to encoding the final value at its coordinate.
  EXPECT_EQ(f.cluster->l2(5).stored_tag(0), final_tag);
  ASSERT_TRUE(written.contains(final_tag));
  EXPECT_EQ(f.cluster->l2(5).stored_element(0),
            f.cluster->ctx().code.encode_element(written.at(final_tag),
                                                 f.cluster->l2(5).code_index()));
  EXPECT_TRUE(f.cluster->history().all_complete());
  EXPECT_TRUE(f.cluster->history().check_atomicity({}).ok);
}

TEST(RepairManager, ReadsStayAtomicWhileRepairRacesWrites) {
  // Readers run concurrently with both the writer churn and the repair; the
  // whole interleaving must stay atomic and the post-repair read must see
  // the latest completed write.
  Fixture f;
  Rng rng(8);
  f.cluster->write_sync(0, 0, rng.bytes(90));
  f.cluster->settle();
  f.manager->track_object(0);
  f.manager->start();

  std::function<void(int)> write_next;
  std::function<void(int)> read_next;
  write_next = [&](int left) {
    if (left == 0) return;
    f.cluster->writer(1).write(0, rng.bytes(90), [&, left](Tag) {
      f.cluster->sim().after(9.0, [&, left] { write_next(left - 1); });
    });
  };
  read_next = [&](int left) {
    if (left == 0) return;
    f.cluster->reader(0).read(0, [&, left](Tag, Bytes) {
      f.cluster->sim().after(7.0, [&, left] { read_next(left - 1); });
    });
  };
  f.cluster->sim().after(3.0, [&] { f.cluster->crash_l2(1); });
  f.cluster->sim().after(1.0, [&] { write_next(15); });
  f.cluster->sim().after(2.0, [&] { read_next(15); });
  f.cluster->sim().run_until(900.0);
  f.manager->stop();
  f.cluster->settle();

  EXPECT_GE(f.manager->repairs_completed(), 1u);
  // With the budget now spent on two *fresh* crashes, the repaired server
  // must carry read quorums for the final value.
  const Tag latest = f.cluster->l2(1).stored_tag(0);
  f.cluster->crash_l2(6);
  f.cluster->crash_l2(7);
  auto [rt, rv] = f.cluster->read_sync(0, 0);
  EXPECT_GE(rt, latest);
  EXPECT_TRUE(f.cluster->history().all_complete());
  EXPECT_TRUE(f.cluster->history().check_atomicity({}).ok);
}

TEST(RepairManager, MultiObjectRepairUnderLoadConvergesAllObjects) {
  // Two tracked objects, writes advancing one of them during repair: the
  // replacement regenerates both, one at the stale tag, one at a fresh tag.
  Fixture f;
  Rng rng(9);
  f.cluster->write_sync(0, 0, rng.bytes(70));
  f.cluster->write_sync(1, 1, rng.bytes(70));
  f.cluster->settle();
  f.manager->track_object(0);
  f.manager->track_object(1);
  f.manager->start();

  std::function<void(int)> write_next;
  write_next = [&](int left) {
    if (left == 0) return;
    f.cluster->writer(0).write(1, rng.bytes(70), [&, left](Tag) {
      f.cluster->sim().after(8.0, [&, left] { write_next(left - 1); });
    });
  };
  f.cluster->sim().after(5.0, [&] { f.cluster->crash_l2(2); });
  f.cluster->sim().after(6.0, [&] { write_next(12); });
  f.cluster->sim().run_until(900.0);
  f.manager->stop();
  f.cluster->settle();

  EXPECT_EQ(f.manager->repairs_started(), 2u);
  EXPECT_EQ(f.manager->repairs_completed(), 2u);
  // Both objects converged to the same tag their healthy peers hold; the
  // untouched object 0 at its pre-crash tag, object 1 at a written tag.
  for (ObjectId obj : {ObjectId{0}, ObjectId{1}}) {
    EXPECT_EQ(f.cluster->l2(2).stored_tag(obj),
              f.cluster->l2(3).stored_tag(obj))
        << "object " << obj;
  }
  EXPECT_GT(f.cluster->l2(2).stored_tag(1), f.cluster->l2(2).stored_tag(0));
  EXPECT_TRUE(f.cluster->history().check_atomicity({}).ok);
}

TEST(RegenerationLoop, RetriesAnObjectUntilAWriteReunitesItsPeers) {
  // Peers on two different tags fail every repair round (no d helpers
  // agree), so the loop's first call exhausts its rounds.  The loop must
  // re-run the object after its backoff, not skip it, and converge once a
  // write brings the peers back to one tag.
  Fixture f;  // n2 = 8, f2 = 2, d = 4: a round uses the first 5 of 7 peers
  Rng rng(11);
  const Tag t1 = f.cluster->write_sync(0, 0, rng.bytes(64));
  f.cluster->settle();
  // L2s 0-2 fall back to (t0, c0), 3-5 keep t1 and 6 is down, so any five
  // responses hold at most three on a common tag.
  for (std::size_t i = 0; i < 3; ++i) f.cluster->l2(i).forget_object(0);
  f.cluster->crash_l2(6);
  f.cluster->replace_l2(7);

  std::optional<RegenTally> tally;
  const net::SimTime start = f.cluster->sim().now();
  regenerate_objects(f.cluster->net(), f.cluster->ctx().l2_ids[7],
                     std::vector<ObjectId>{0},
                     [&](RegenTally t) { tally = t; });
  f.cluster->sim().run_until(start + 300.0);
  EXPECT_FALSE(tally.has_value()) << "converged while the peers disagreed";

  const Bytes v2 = rng.bytes(64);
  const Tag t2 = f.cluster->write_sync(1, 0, v2);
  f.cluster->settle();

  ASSERT_TRUE(tally.has_value());
  EXPECT_EQ(tally->repaired, 1u);
  EXPECT_GE(tally->retried, 1u);  // at least the first call gave up
  EXPECT_EQ(tally->missed, 0u);
  EXPECT_GT(t2, t1);
  EXPECT_EQ(f.cluster->l2(7).stored_tag(0), t2);
  EXPECT_EQ(f.cluster->l2(7).stored_element(0),
            f.cluster->ctx().code.encode_element(v2,
                                                 f.cluster->l2(7).code_index()));
}

TEST(RepairManager, HeartbeatsAreMetaOnly) {
  Fixture f;
  f.manager->start();
  f.cluster->sim().run_until(50.0);
  // Heartbeat traffic must not pollute normalized data costs.
  EXPECT_EQ(f.cluster->net().costs().total().data_bytes, 0u);
  EXPECT_GT(f.cluster->net().costs().total().meta_bytes, 0u);
}

}  // namespace
}  // namespace lds::core
