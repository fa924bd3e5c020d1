// Tests for the store-and-forward extension (paper §6 future work:
// "queuing of remote calls" during disconnection).
#include <gtest/gtest.h>

#include "prism/architecture.h"
#include "prism/distribution.h"

namespace dif::prism {
namespace {

class Probe final : public Component {
 public:
  explicit Probe(std::string name) : Component(std::move(name)) {}
  void handle(const Event& event) override { received.push_back(event); }
  [[nodiscard]] std::string type_name() const override { return "probe"; }
  std::vector<Event> received;
};

struct Bed {
  sim::Simulator sim;
  sim::SimNetwork net{sim, 2, 1};
  SimScaffold scaffold{sim};
  Architecture arch0{"a0", scaffold, 0};
  Architecture arch1{"a1", scaffold, 1};
  DistributionConnector* d0 = nullptr;
  DistributionConnector* d1 = nullptr;
  Probe* sender = nullptr;
  Probe* sink = nullptr;

  Bed() {
    net.set_link(0, 1, {.reliability = 1.0, .bandwidth = 1000.0,
                        .delay_ms = 2.0});
    d0 = &static_cast<DistributionConnector&>(arch0.add_connector(
        std::make_unique<DistributionConnector>("d0", net, 0)));
    d1 = &static_cast<DistributionConnector&>(arch1.add_connector(
        std::make_unique<DistributionConnector>("d1", net, 1)));
    d0->add_peer(1);
    d1->add_peer(0);
    sender = &static_cast<Probe&>(
        arch0.add_component(std::make_unique<Probe>("sender")));
    sink = &static_cast<Probe&>(
        arch1.add_component(std::make_unique<Probe>("sink")));
    arch0.weld(*sender, *d0);
    arch1.weld(*sink, *d1);
    d0->set_location(intern("sink"), 1);
    d1->set_location(intern("sender"), 0);
  }

  void send_directed(const std::string& name) {
    Event e(name);
    e.set_to("sink");
    sender->send(std::move(e));
  }
};

TEST(StoreAndForward, DisabledMeansLossDuringPartition) {
  Bed bed;
  bed.net.sever(0, 1);
  bed.send_directed("m1");
  bed.send_directed("m2");
  bed.sim.run_until(10'000.0);
  EXPECT_TRUE(bed.sink->received.empty());
  EXPECT_EQ(bed.d0->undeliverable_remote(), 2u);
  bed.net.restore(0, 1);
  bed.sim.run_until(20'000.0);
  EXPECT_TRUE(bed.sink->received.empty());  // gone for good
}

TEST(StoreAndForward, QueuesAndFlushesInOrderAfterHeal) {
  Bed bed;
  bed.d0->enable_store_and_forward(/*retry_interval_ms=*/500.0);
  bed.net.sever(0, 1);
  bed.send_directed("m1");
  bed.send_directed("m2");
  bed.send_directed("m3");
  bed.sim.run_until(5'000.0);
  EXPECT_TRUE(bed.sink->received.empty());
  EXPECT_EQ(bed.d0->queued_messages(), 3u);
  EXPECT_EQ(bed.d0->undeliverable_remote(), 0u);

  bed.net.restore(0, 1);
  bed.sim.run_until(10'000.0);
  ASSERT_EQ(bed.sink->received.size(), 3u);
  EXPECT_EQ(bed.sink->received[0].name(), "m1");
  EXPECT_EQ(bed.sink->received[1].name(), "m2");
  EXPECT_EQ(bed.sink->received[2].name(), "m3");
  EXPECT_EQ(bed.d0->queued_messages(), 0u);
  EXPECT_EQ(bed.d0->flushed_messages(), 3u);
}

TEST(StoreAndForward, BoundedQueueDropsOldest) {
  Bed bed;
  bed.d0->enable_store_and_forward(500.0, /*max_queued=*/2);
  bed.net.sever(0, 1);
  bed.send_directed("old");
  bed.send_directed("mid");
  bed.send_directed("new");
  bed.sim.run_until(2'000.0);
  EXPECT_EQ(bed.d0->queued_messages(), 2u);
  bed.net.restore(0, 1);
  bed.sim.run_until(5'000.0);
  ASSERT_EQ(bed.sink->received.size(), 2u);
  EXPECT_EQ(bed.sink->received[0].name(), "mid");
  EXPECT_EQ(bed.sink->received[1].name(), "new");
}

TEST(StoreAndForward, ConnectedTrafficBypassesQueue) {
  Bed bed;
  bed.d0->enable_store_and_forward();
  bed.send_directed("direct");
  bed.sim.run_until(1'000.0);
  ASSERT_EQ(bed.sink->received.size(), 1u);
  EXPECT_EQ(bed.d0->queued_messages(), 0u);
  EXPECT_EQ(bed.d0->flushed_messages(), 0u);
}

TEST(StoreAndForward, RepeatedOutagesKeepQueueConsistent) {
  Bed bed;
  bed.d0->enable_store_and_forward(250.0);
  for (int cycle = 0; cycle < 3; ++cycle) {
    bed.net.sever(0, 1);
    bed.send_directed("burst" + std::to_string(cycle));
    bed.sim.run_until(bed.sim.now() + 2'000.0);
    bed.net.restore(0, 1);
    bed.sim.run_until(bed.sim.now() + 2'000.0);
  }
  EXPECT_EQ(bed.sink->received.size(), 3u);
  EXPECT_EQ(bed.d0->queued_messages(), 0u);
}

}  // namespace
}  // namespace dif::prism
