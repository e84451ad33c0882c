// Network substrate: reliable delivery, crash semantics, link classification,
// cost accounting at send time.
#include <gtest/gtest.h>

#include <vector>

#include "net/network.h"

namespace lds::net {
namespace {

/// Minimal payload for substrate tests.
class TestPayload final : public Payload {
 public:
  TestPayload(int value, std::uint64_t data, OpId op = kNoOp)
      : value_(value), data_(data), op_(op) {}
  int value() const { return value_; }
  std::uint64_t data_bytes() const override { return data_; }
  std::uint64_t meta_bytes() const override { return 8; }
  const char* type_name() const override { return "test"; }
  OpId op() const override { return op_; }

 private:
  int value_;
  std::uint64_t data_;
  OpId op_;
};

class Recorder final : public Node {
 public:
  Recorder(Network& net, NodeId id, Role role) : Node(net, id, role) {}
  void on_message(NodeId from, const MessagePtr& msg) override {
    const auto* p = dynamic_cast<const TestPayload*>(msg.get());
    ASSERT_NE(p, nullptr);
    received.emplace_back(from, p->value());
  }
  void post(NodeId to, int value, std::uint64_t data = 0, OpId op = kNoOp) {
    send(to, std::make_shared<TestPayload>(value, data, op));
  }
  std::vector<std::pair<NodeId, int>> received;
};

struct Fixture {
  SimEngine engine;
  Simulator& sim = engine.sim();
  Network net{engine, 0, std::make_unique<FixedLatency>(1.0, 0.5, 10.0), 7};
};

TEST(Network, DeliversWithClassLatency) {
  Fixture f;
  Recorder client(f.net, 1, Role::Writer);
  Recorder l1(f.net, 2, Role::ServerL1);
  Recorder l2(f.net, 3, Role::ServerL2);

  client.post(2, 100);  // client -> L1: tau1 = 1.0
  l1.post(3, 200);      // L1 -> L2: tau2 = 10.0
  l1.post(2, 300);      // L1 -> L1 (self): tau0 = 0.5

  f.sim.run_until(0.6);
  ASSERT_EQ(l1.received.size(), 1u);  // only the tau0 message so far
  EXPECT_EQ(l1.received[0].second, 300);
  f.sim.run_until(1.1);
  ASSERT_EQ(l1.received.size(), 2u);
  f.sim.run();
  ASSERT_EQ(l2.received.size(), 1u);
  EXPECT_EQ(l2.received[0], (std::pair<NodeId, int>{2, 200}));
}

TEST(Network, CrashedDestinationDropsDelivery) {
  Fixture f;
  Recorder a(f.net, 1, Role::ServerL1);
  Recorder b(f.net, 2, Role::ServerL1);
  a.post(2, 1);
  b.crash();
  f.sim.run();
  EXPECT_TRUE(b.received.empty());
}

TEST(Network, CrashedSenderStopsSendingButInFlightDelivers) {
  // Paper model: the sender may fail after placing the message in the
  // channel; delivery depends only on the destination being alive.
  Fixture f;
  Recorder a(f.net, 1, Role::ServerL1);
  Recorder b(f.net, 2, Role::ServerL1);
  a.post(2, 1);
  a.crash();
  a.post(2, 2);  // suppressed: crashed processes take no further steps
  f.sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].second, 1);
}

TEST(Network, UnknownDestinationIsDropped) {
  Fixture f;
  Recorder a(f.net, 1, Role::ServerL1);
  a.post(99, 1);
  f.sim.run();  // must not crash
  EXPECT_EQ(f.net.messages_sent(), 1u);
}

TEST(Network, CostAccountingAtSendTime) {
  Fixture f;
  Recorder w(f.net, 1, Role::Writer);
  Recorder s(f.net, 2, Role::ServerL1);
  Recorder t(f.net, 3, Role::ServerL2);

  const OpId op = make_op_id(1, 1);
  w.post(2, 0, 1000, op);  // client-L1
  s.post(3, 0, 500, op);   // L1-L2
  s.crash();
  // Crashed node sends nothing; no cost.
  s.post(3, 0, 999, op);
  f.sim.run();

  EXPECT_EQ(f.net.costs().total().data_bytes, 1500u);
  EXPECT_EQ(f.net.costs().by_link(LinkClass::ClientL1).data_bytes, 1000u);
  EXPECT_EQ(f.net.costs().by_link(LinkClass::L1L2).data_bytes, 500u);
  EXPECT_EQ(f.net.costs().by_op(op).data_bytes, 1500u);
  EXPECT_EQ(f.net.costs().by_op(op).messages, 2u);
  EXPECT_EQ(f.net.costs().by_op(kNoOp).messages, 0u);
}

TEST(Network, DeliveryObserverSeesMessages) {
  Fixture f;
  Recorder a(f.net, 1, Role::ServerL1);
  Recorder b(f.net, 2, Role::ServerL1);
  int observed = 0;
  f.net.set_delivery_observer(
      [&](NodeId from, NodeId to, const Payload& p) {
        ++observed;
        EXPECT_EQ(from, 1);
        EXPECT_EQ(to, 2);
        EXPECT_STREQ(p.type_name(), "test");
      });
  a.post(2, 7);
  f.sim.run();
  EXPECT_EQ(observed, 1);
  ASSERT_EQ(b.received.size(), 1u);
}

TEST(Network, ObserverCanCrashDestinationBeforeHandling) {
  Fixture f;
  Recorder a(f.net, 1, Role::ServerL1);
  Recorder b(f.net, 2, Role::ServerL1);
  f.net.set_delivery_observer(
      [&](NodeId, NodeId to, const Payload&) { f.net.crash(to); });
  a.post(2, 7);
  f.sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_TRUE(b.crashed());
}

TEST(Network, EngineLaneConstructorSharesTheLaneClock) {
  SimEngine engine;
  Network net{engine, 0, std::make_unique<FixedLatency>(1.0, 0.5, 10.0), 7};
  Recorder a(net, 1, Role::Writer);
  Recorder b(net, 2, Role::ServerL1);
  a.post(2, 42);
  engine.drain();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].second, 42);
  EXPECT_EQ(&net.sim(), &engine.lane_sim(0));
}

TEST(NetworkDeath, AttachingAnIdTwiceAborts) {
  // The id-reuse protocol (LdsCluster::replace_l2) detaches the crashed
  // instance before constructing the replacement; attaching a second live
  // node under an occupied id must abort loudly.
  Fixture f;
  Recorder a(f.net, 7, Role::ServerL2);
  EXPECT_DEATH({ Recorder dup(f.net, 7, Role::ServerL2); },
               "already attached");
}

TEST(LinkClassify, Table) {
  EXPECT_EQ(classify_link(Role::Writer, Role::ServerL1), LinkClass::ClientL1);
  EXPECT_EQ(classify_link(Role::ServerL1, Role::Reader), LinkClass::ClientL1);
  EXPECT_EQ(classify_link(Role::ServerL1, Role::ServerL1), LinkClass::L1L1);
  EXPECT_EQ(classify_link(Role::ServerL1, Role::ServerL2), LinkClass::L1L2);
  EXPECT_EQ(classify_link(Role::ServerL2, Role::ServerL1), LinkClass::L1L2);
  EXPECT_EQ(classify_link(Role::Writer, Role::Reader), LinkClass::Other);
}

}  // namespace
}  // namespace lds::net
