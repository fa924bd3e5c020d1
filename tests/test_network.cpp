// Unit tests for the simulated network (sim/network.h).
#include "sim/network.h"

#include <gtest/gtest.h>

namespace dif::sim {
namespace {

struct Fixture {
  Simulator sim;
  SimNetwork net{sim, 3, /*seed=*/1};
  std::vector<NetMessage> received;

  Fixture() {
    for (model::HostId h = 0; h < 3; ++h)
      net.set_receiver(
          h, [this](const NetMessage& m) { received.push_back(m); });
  }

  NetMessage msg(model::HostId from, model::HostId to, double kb = 1.0) {
    NetMessage m;
    m.from = from;
    m.to = to;
    m.channel = "test";
    m.size_kb = kb;
    return m;
  }
};

TEST(SimNetwork, PerfectLinkDeliversEverything) {
  Fixture f;
  f.net.set_link(0, 1, {.reliability = 1.0, .bandwidth = 100.0,
                        .delay_ms = 5.0});
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(f.net.send(f.msg(0, 1)));
  f.sim.run();
  EXPECT_EQ(f.received.size(), 20u);
  EXPECT_EQ(f.net.stats().delivered, 20u);
  EXPECT_EQ(f.net.stats().dropped, 0u);
}

TEST(SimNetwork, ZeroReliabilityDropsEverything) {
  Fixture f;
  f.net.set_link(0, 1, {.reliability = 0.0, .bandwidth = 100.0});
  for (int i = 0; i < 20; ++i)
    EXPECT_TRUE(f.net.send(f.msg(0, 1)));  // send "succeeds": loss is silent
  f.sim.run();
  EXPECT_TRUE(f.received.empty());
  EXPECT_EQ(f.net.stats().dropped, 20u);
}

TEST(SimNetwork, IntermediateReliabilityDropsProportionally) {
  Fixture f;
  f.net.set_link(0, 1, {.reliability = 0.7, .bandwidth = 1e9});
  const int n = 5000;
  for (int i = 0; i < n; ++i) f.net.send(f.msg(0, 1, 0.0));
  f.sim.run();
  EXPECT_NEAR(static_cast<double>(f.received.size()) / n, 0.7, 0.03);
}

TEST(SimNetwork, NoLinkIsUnroutable) {
  Fixture f;
  EXPECT_FALSE(f.net.send(f.msg(0, 2)));
  f.sim.run();
  EXPECT_TRUE(f.received.empty());
  EXPECT_EQ(f.net.stats().unroutable, 1u);
}

TEST(SimNetwork, LocalDeliveryAlwaysWorks) {
  Fixture f;
  EXPECT_TRUE(f.net.send(f.msg(1, 1)));
  f.sim.run();
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_EQ(f.received[0].to, 1u);
}

TEST(SimNetwork, DeliveryDelayIsDelayPlusTransfer) {
  Fixture f;
  f.net.set_link(0, 1, {.reliability = 1.0, .bandwidth = 10.0,
                        .delay_ms = 7.0});
  double arrival = -1.0;
  f.net.set_receiver(1, [&](const NetMessage&) { arrival = f.sim.now(); });
  f.net.send(f.msg(0, 1, 5.0));  // 5 KB at 10 KB/s = 500 ms transfer
  f.sim.run();
  EXPECT_DOUBLE_EQ(arrival, 507.0);
}

TEST(SimNetwork, TransfersSerializeOnTheLink) {
  Fixture f;
  f.net.set_link(0, 1, {.reliability = 1.0, .bandwidth = 10.0,
                        .delay_ms = 0.0});
  std::vector<double> arrivals;
  f.net.set_receiver(1, [&](const NetMessage&) {
    arrivals.push_back(f.sim.now());
  });
  // Two 5 KB messages sent back-to-back share the link: the second starts
  // after the first finishes.
  f.net.send(f.msg(0, 1, 5.0));
  f.net.send(f.msg(0, 1, 5.0));
  f.sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[0], 500.0);
  EXPECT_DOUBLE_EQ(arrivals[1], 1000.0);
}

TEST(SimNetwork, SeverBlocksAndRestoreReopens) {
  Fixture f;
  f.net.set_link(0, 1, {.reliability = 1.0, .bandwidth = 100.0});
  EXPECT_TRUE(f.net.reachable(0, 1));
  f.net.sever(0, 1);
  EXPECT_FALSE(f.net.reachable(0, 1));
  EXPECT_FALSE(f.net.send(f.msg(0, 1)));
  f.net.restore(0, 1);
  EXPECT_TRUE(f.net.send(f.msg(0, 1)));
  f.sim.run();
  EXPECT_EQ(f.received.size(), 1u);
}

TEST(SimNetwork, LinksAreSymmetric) {
  Fixture f;
  f.net.set_link(2, 0, {.reliability = 0.5, .bandwidth = 42.0});
  EXPECT_DOUBLE_EQ(f.net.link(0, 2).bandwidth, 42.0);
  EXPECT_TRUE(f.net.reachable(0, 2));
}

TEST(SimNetwork, FromModelMirrorsLinks) {
  model::DeploymentModel m;
  m.add_host({.name = "a"});
  m.add_host({.name = "b"});
  m.add_host({.name = "c"});
  m.set_physical_link(0, 1, {.reliability = 0.8, .bandwidth = 64.0,
                             .delay_ms = 3.0});
  Simulator sim;
  SimNetwork net = SimNetwork::from_model(sim, m, 1);
  EXPECT_TRUE(net.reachable(0, 1));
  EXPECT_FALSE(net.reachable(0, 2));
  EXPECT_DOUBLE_EQ(net.link(0, 1).reliability, 0.8);
  EXPECT_DOUBLE_EQ(net.link(0, 1).delay_ms, 3.0);
}

TEST(SimNetwork, StatsAccumulateAndReset) {
  Fixture f;
  f.net.set_link(0, 1, {.reliability = 1.0, .bandwidth = 100.0});
  f.net.send(f.msg(0, 1, 2.0));
  f.sim.run();
  EXPECT_EQ(f.net.stats().sent, 1u);
  EXPECT_DOUBLE_EQ(f.net.stats().kb_sent, 2.0);
  EXPECT_DOUBLE_EQ(f.net.stats().kb_delivered, 2.0);
  f.net.reset_stats();
  EXPECT_EQ(f.net.stats().sent, 0u);
}

TEST(SimNetwork, InvalidIdsThrow) {
  Fixture f;
  EXPECT_THROW((void)f.net.link(0, 9), std::out_of_range);
  EXPECT_THROW(f.net.set_receiver(9, nullptr), std::out_of_range);
  EXPECT_THROW(f.net.set_link(1, 1, {}), std::invalid_argument);
}

TEST(SimNetwork, DeterministicAcrossRunsWithSameSeed) {
  const auto run = [](std::uint64_t seed) {
    Simulator sim;
    SimNetwork net(sim, 2, seed);
    net.set_link(0, 1, {.reliability = 0.5, .bandwidth = 1e6});
    int delivered = 0;
    net.set_receiver(1, [&](const NetMessage&) { ++delivered; });
    for (int i = 0; i < 100; ++i) {
      NetMessage m;
      m.from = 0;
      m.to = 1;
      net.send(std::move(m));
    }
    sim.run();
    return delivered;
  };
  EXPECT_EQ(run(7), run(7));
}

}  // namespace
}  // namespace dif::sim

// ---- host failure injection ------------------------------------------------

namespace dif::sim {
namespace {

TEST(SimNetwork, InFlightCountsMessagesQueuedBehindTheLinkHead) {
  Fixture f;
  f.net.set_link(0, 1, {.reliability = 1.0, .bandwidth = 10.0,
                        .delay_ms = 5.0});
  for (int i = 0; i < 5; ++i) f.net.send(f.msg(0, 1));
  f.net.send(f.msg(2, 2));  // local
  EXPECT_EQ(f.net.in_flight(), 6u);
  // Only the link's head and the local message are simulator events.
  EXPECT_EQ(f.sim.pending(), 2u);
  f.sim.run();
  EXPECT_EQ(f.received.size(), 6u);
  EXPECT_EQ(f.net.in_flight(), 0u);
}

TEST(SimNetwork, ClearDoesNotStrandALinkQueue) {
  // clear() drops the queue head's event; the messages behind it must go
  // too, or the next send would join a queue nobody drains.
  Fixture f;
  f.net.set_link(0, 1, {.reliability = 1.0, .bandwidth = 10.0,
                        .delay_ms = 5.0});
  f.net.send(f.msg(0, 1));
  f.net.send(f.msg(1, 0));
  EXPECT_EQ(f.net.in_flight(), 2u);
  f.sim.clear();
  EXPECT_EQ(f.net.in_flight(), 0u);
  NetMessage again = f.msg(0, 1);
  again.channel = "again";
  f.net.send(std::move(again));
  EXPECT_EQ(f.sim.run(), 1u);
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_EQ(f.received[0].channel, "again");
  EXPECT_EQ(f.net.in_flight(), 0u);
}

TEST(SimNetwork, ClearFromAReceiverDropsTheRestOfTheLinkQueue) {
  Fixture f;
  f.net.set_link(0, 1, {.reliability = 1.0, .bandwidth = 10.0});
  f.net.set_receiver(1, [&f](const NetMessage& m) {
    f.received.push_back(m);
    if (f.received.size() == 1) f.sim.clear();
  });
  for (int i = 0; i < 3; ++i) f.net.send(f.msg(0, 1));
  f.sim.run();
  EXPECT_EQ(f.received.size(), 1u);
  f.net.send(f.msg(0, 1));
  f.sim.run();
  EXPECT_EQ(f.received.size(), 2u);
  EXPECT_EQ(f.net.in_flight(), 0u);
}

TEST(HostFailure, DownHostNeitherSendsNorReceives) {
  Simulator sim;
  SimNetwork net(sim, 3, 1);
  net.set_link(0, 1, {.reliability = 1.0, .bandwidth = 100.0});
  net.set_link(1, 2, {.reliability = 1.0, .bandwidth = 100.0});
  int delivered = 0;
  for (model::HostId h = 0; h < 3; ++h)
    net.set_receiver(h, [&](const NetMessage&) { ++delivered; });

  net.fail_host(1);
  EXPECT_FALSE(net.host_up(1));
  EXPECT_TRUE(net.host_up(0));
  EXPECT_FALSE(net.reachable(0, 1));
  EXPECT_FALSE(net.reachable(1, 2));
  EXPECT_FALSE(net.reachable(1, 1));  // even to itself while down

  NetMessage to_down;
  to_down.from = 0;
  to_down.to = 1;
  EXPECT_FALSE(net.send(std::move(to_down)));
  NetMessage from_down;
  from_down.from = 1;
  from_down.to = 2;
  EXPECT_FALSE(net.send(std::move(from_down)));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.stats().unroutable, 2u);
}

TEST(HostFailure, RecoveryRestoresLinksButNotSeveredOnes) {
  Simulator sim;
  SimNetwork net(sim, 2, 1);
  net.set_link(0, 1, {.reliability = 1.0, .bandwidth = 100.0});
  net.sever(0, 1);
  net.fail_host(1);
  net.recover_host(1);
  EXPECT_TRUE(net.host_up(1));
  EXPECT_FALSE(net.reachable(0, 1));  // link-level sever persists
  net.restore(0, 1);
  EXPECT_TRUE(net.reachable(0, 1));
}

TEST(HostFailure, InFlightMessageToCrashedHostIsDropped) {
  Simulator sim;
  SimNetwork net(sim, 2, 1);
  net.set_link(0, 1, {.reliability = 1.0, .bandwidth = 10.0,
                      .delay_ms = 100.0});
  int delivered = 0;
  net.set_receiver(1, [&](const NetMessage&) { ++delivered; });
  NetMessage slow;
  slow.from = 0;
  slow.to = 1;
  slow.size_kb = 1.0;  // 100 ms transfer + 100 ms delay
  EXPECT_TRUE(net.send(std::move(slow)));
  sim.run_until(50.0);
  net.fail_host(1);  // crashes while the message is on the wire
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.stats().dropped, 1u);
}

TEST(HostFailure, CrashedAndRecoveredHostResumesService) {
  Simulator sim;
  SimNetwork net(sim, 2, 1);
  net.set_link(0, 1, {.reliability = 1.0, .bandwidth = 1000.0});
  int delivered = 0;
  net.set_receiver(1, [&](const NetMessage&) { ++delivered; });
  net.fail_host(1);
  net.recover_host(1);
  NetMessage m;
  m.from = 0;
  m.to = 1;
  EXPECT_TRUE(net.send(std::move(m)));
  sim.run();
  EXPECT_EQ(delivered, 1);
}

}  // namespace
}  // namespace dif::sim
