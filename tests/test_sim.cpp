// Discrete-event simulator: ordering, determinism, run_until semantics, and
// typed delivery events sharing one order with closures.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "net/engine.h"
#include "net/network.h"
#include "net/sim.h"

namespace lds::net {
namespace {

TEST(Sim, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(3.0, [&] { order.push_back(3); });
  sim.at(1.0, [&] { order.push_back(1); });
  sim.at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Sim, FifoAmongEqualTimes) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Sim, EventsMayScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.after(1.0, chain);
  };
  sim.after(1.0, chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Sim, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.at(1.0, [&] { ++fired; });
  sim.at(2.0, [&] { ++fired; });
  sim.at(3.5, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(2.0), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Sim, RunUntilAdvancesClockWhenDrained) {
  Simulator sim;
  sim.run_until(42.0);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
}

TEST(Sim, RunWithEventBudget) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.at(i, [&] { ++fired; });
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_EQ(fired, 4);
  sim.run();
  EXPECT_EQ(fired, 10);
}

// ---- typed delivery events -------------------------------------------------

class Note final : public Payload {
 public:
  explicit Note(std::string text) : text_(std::move(text)) {}
  const std::string& text() const { return text_; }
  std::uint64_t data_bytes() const override { return 0; }
  std::uint64_t meta_bytes() const override { return 0; }
  const char* type_name() const override { return "note"; }

 private:
  std::string text_;
};

/// Appends every delivered note to a log shared with the test's closures.
class Logger final : public Node {
 public:
  Logger(Network& net, NodeId id, std::vector<std::string>& log)
      : Node(net, id, Role::Other), log_(log) {}
  void on_message(NodeId, const MessagePtr& msg) override {
    log_.push_back(static_cast<const Note&>(*msg).text());
  }

 private:
  std::vector<std::string>& log_;
};

struct DeliveryFixture {
  SimEngine engine;
  Simulator& sim = engine.sim();
  Network net{engine, 0, std::make_unique<FixedLatency>(1.0, 1.0, 1.0), 1};
  std::vector<std::string> log;
  Logger a{net, 1, log};
  Logger b{net, 2, log};

  void note(NodeId to, const std::string& text, SimTime delay) {
    net.deliver_local(0, to, std::make_shared<Note>(text), delay);
  }
  void closure(const std::string& text, SimTime t) {
    sim.at(t, [this, text] { log.push_back(text); });
  }
};

TEST(SimDelivery, SameTimeDeliveriesAndClosuresRunInInsertionOrder) {
  DeliveryFixture f;
  f.closure("c1", 1.0);
  f.note(1, "d1", 1.0);
  f.note(2, "d2", 1.0);
  f.closure("c2", 1.0);
  f.note(1, "d3", 1.0);
  f.closure("c0", 0.5);  // earlier time still runs first
  f.sim.run();
  EXPECT_EQ(f.log,
            (std::vector<std::string>{"c0", "c1", "d1", "d2", "c2", "d3"}));
  EXPECT_EQ(f.sim.events_executed(), 6u);
}

TEST(SimDelivery, RunUntilPendingAndIdleCountBothKinds) {
  DeliveryFixture f;
  EXPECT_TRUE(f.sim.idle());
  f.closure("c1", 1.0);
  f.note(1, "d2", 2.0);
  f.closure("c3", 3.0);
  f.note(2, "d4", 4.0);
  EXPECT_FALSE(f.sim.idle());
  EXPECT_EQ(f.sim.pending(), 4u);

  EXPECT_EQ(f.sim.run_until(2.0), 2u);
  EXPECT_EQ(f.log, (std::vector<std::string>{"c1", "d2"}));
  EXPECT_EQ(f.sim.pending(), 2u);
  EXPECT_DOUBLE_EQ(f.sim.now(), 2.0);

  EXPECT_EQ(f.sim.run_until(3.5), 1u);
  EXPECT_EQ(f.sim.pending(), 1u);
  EXPECT_DOUBLE_EQ(f.sim.now(), 3.5);

  EXPECT_EQ(f.sim.run(), 1u);
  EXPECT_TRUE(f.sim.idle());
  EXPECT_EQ(f.log, (std::vector<std::string>{"c1", "d2", "c3", "d4"}));
  EXPECT_DOUBLE_EQ(f.sim.now(), 4.0);
}

TEST(SimDelivery, DeliveryToNodeCrashedByObserverIsDropped) {
  DeliveryFixture f;
  std::vector<std::string> observed;
  f.net.set_delivery_observer([&](NodeId, NodeId to, const Payload& p) {
    observed.push_back(static_cast<const Note&>(p).text());
    if (to == 2) f.net.crash(2);
  });
  f.note(1, "to-a", 1.0);
  f.note(2, "to-b", 1.0);
  f.note(2, "to-b-again", 2.0);  // already crashed: not even observed
  f.sim.run();
  EXPECT_EQ(observed, (std::vector<std::string>{"to-a", "to-b"}));
  EXPECT_EQ(f.log, (std::vector<std::string>{"to-a"}));
  EXPECT_TRUE(f.b.crashed());
  EXPECT_TRUE(f.sim.idle());
}

TEST(SimDeath, PastSchedulingAborts) {
  Simulator sim;
  sim.at(5.0, [] {});
  sim.run();
  EXPECT_DEATH(sim.at(1.0, [] {}), "past");
}

}  // namespace
}  // namespace lds::net
