// Unit tests for objective functions (model/objective.h).
#include "model/objective.h"

#include <gtest/gtest.h>

#include <cmath>

#include "test_names.h"

namespace dif::model {
namespace {

/// Two hosts joined by one link; two components with one interaction.
struct Fixture {
  DeploymentModel m;
  Fixture(double reliability, double bandwidth, double delay, double freq,
          double size) {
    m.add_host({.name = "h0", .memory_capacity = 100.0});
    m.add_host({.name = "h1", .memory_capacity = 100.0});
    m.add_component({.name = "a", .memory_size = 1.0});
    m.add_component({.name = "b", .memory_size = 1.0});
    m.set_physical_link(0, 1, {.reliability = reliability,
                               .bandwidth = bandwidth, .delay_ms = delay});
    m.set_logical_link(0, 1, {.frequency = freq, .avg_event_size = size});
  }
};

TEST(Availability, LocalInteractionIsPerfect) {
  Fixture f(0.5, 10.0, 1.0, 4.0, 1.0);
  const AvailabilityObjective availability;
  EXPECT_DOUBLE_EQ(
      availability.evaluate(f.m, Deployment(std::vector<HostId>{0, 0})), 1.0);
}

TEST(Availability, RemoteInteractionScoresLinkReliability) {
  Fixture f(0.7, 10.0, 1.0, 4.0, 1.0);
  const AvailabilityObjective availability;
  EXPECT_DOUBLE_EQ(
      availability.evaluate(f.m, Deployment(std::vector<HostId>{0, 1})), 0.7);
}

TEST(Availability, FrequencyWeightedMix) {
  DeploymentModel m;
  m.add_host({.name = "h0"});
  m.add_host({.name = "h1"});
  for (int i = 0; i < 3; ++i)
    m.add_component({.name = test::numbered("c", i)});
  m.set_physical_link(0, 1, {.reliability = 0.5, .bandwidth = 10.0});
  m.set_logical_link(0, 1, {.frequency = 3.0, .avg_event_size = 1.0});
  m.set_logical_link(1, 2, {.frequency = 1.0, .avg_event_size = 1.0});
  const AvailabilityObjective availability;
  // c0,c1 local (rel 1, weight 3); c1,c2 remote (rel 0.5, weight 1).
  const Deployment d(std::vector<HostId>{0, 0, 1});
  EXPECT_DOUBLE_EQ(availability.evaluate(m, d), (3.0 * 1.0 + 1.0 * 0.5) / 4.0);
}

TEST(Availability, UnassignedComponentCountsAsUnavailable) {
  Fixture f(0.9, 10.0, 1.0, 2.0, 1.0);
  const AvailabilityObjective availability;
  Deployment d(2);
  d.assign(0, 0);
  EXPECT_DOUBLE_EQ(availability.evaluate(f.m, d), 0.0);
}

TEST(Availability, NoInteractionsMeansPerfect) {
  DeploymentModel m;
  m.add_host({.name = "h"});
  m.add_component({.name = "c"});
  const AvailabilityObjective availability;
  EXPECT_DOUBLE_EQ(availability.evaluate(m, Deployment(std::vector<HostId>{0})),
                   1.0);
}

TEST(Availability, MonotoneInLinkReliability) {
  Fixture f(0.2, 10.0, 1.0, 5.0, 1.0);
  const AvailabilityObjective availability;
  const Deployment remote(std::vector<HostId>{0, 1});
  const double before = availability.evaluate(f.m, remote);
  f.m.set_link_reliability(0, 1, 0.9);
  EXPECT_GT(availability.evaluate(f.m, remote), before);
}

TEST(Latency, LocalDeploymentIsFree) {
  Fixture f(1.0, 10.0, 5.0, 4.0, 2.0);
  const LatencyObjective latency;
  EXPECT_DOUBLE_EQ(latency.evaluate(f.m, Deployment(std::vector<HostId>{1, 1})),
                   0.0);
}

TEST(Latency, RemoteChargesDelayPlusTransfer) {
  Fixture f(1.0, 10.0, 5.0, 4.0, 2.0);
  const LatencyObjective latency;
  // 4 evt/s * (5 ms + 1000 * 2/10 ms) = 4 * 205 = 820 ms/s.
  EXPECT_DOUBLE_EQ(latency.evaluate(f.m, Deployment(std::vector<HostId>{0, 1})),
                   820.0);
}

TEST(Latency, DisconnectedPairChargesPenalty) {
  DeploymentModel m;
  m.add_host({.name = "h0"});
  m.add_host({.name = "h1"});
  m.add_component({.name = "a"});
  m.add_component({.name = "b"});
  m.set_logical_link(0, 1, {.frequency = 2.0, .avg_event_size = 1.0});
  const LatencyObjective latency(/*disconnected_penalty_ms=*/500.0);
  EXPECT_DOUBLE_EQ(latency.evaluate(m, Deployment(std::vector<HostId>{0, 1})),
                   1000.0);
}

TEST(Latency, ScoreDecreasesWithLatency) {
  Fixture f(1.0, 10.0, 5.0, 4.0, 2.0);
  const LatencyObjective latency;
  const double local =
      latency.score(f.m, Deployment(std::vector<HostId>{0, 0}));
  const double remote =
      latency.score(f.m, Deployment(std::vector<HostId>{0, 1}));
  EXPECT_DOUBLE_EQ(local, 1.0);
  EXPECT_LT(remote, local);
  EXPECT_GT(remote, 0.0);
}

TEST(Latency, DirectionAndImproves) {
  const LatencyObjective latency;
  EXPECT_EQ(latency.direction(), Direction::kMinimize);
  EXPECT_TRUE(latency.improves(10.0, 20.0));
  EXPECT_FALSE(latency.improves(20.0, 10.0));
  EXPECT_TRUE(std::isinf(latency.worst()));
}

TEST(CommCost, CountsRemoteTrafficOnly) {
  Fixture f(1.0, 10.0, 5.0, 4.0, 2.0);
  const CommunicationCostObjective cost;
  EXPECT_DOUBLE_EQ(cost.evaluate(f.m, Deployment(std::vector<HostId>{0, 0})),
                   0.0);
  EXPECT_DOUBLE_EQ(cost.evaluate(f.m, Deployment(std::vector<HostId>{0, 1})),
                   8.0);
}

TEST(Security, RequiredLevelAgainstLinkProperty) {
  Fixture f(1.0, 10.0, 1.0, 2.0, 1.0);
  // Interaction requires security 2; link provides 1.
  LogicalLink link = f.m.logical_link(0, 1);
  link.properties.set("required_security", 2.0);
  f.m.set_logical_link(0, 1, std::move(link));
  PhysicalLink phys = f.m.physical_link(0, 1);
  phys.properties.set("security", 1.0);
  f.m.set_physical_link(0, 1, std::move(phys));

  const SecurityObjective security;
  EXPECT_DOUBLE_EQ(security.evaluate(f.m, Deployment(std::vector<HostId>{0, 1})),
                   0.0);
  // Local placement always satisfies the requirement.
  EXPECT_DOUBLE_EQ(security.evaluate(f.m, Deployment(std::vector<HostId>{1, 1})),
                   1.0);
  // Upgrading the link satisfies it remotely too.
  PhysicalLink upgraded = f.m.physical_link(0, 1);
  upgraded.properties.set("security", 3.0);
  f.m.set_physical_link(0, 1, std::move(upgraded));
  EXPECT_DOUBLE_EQ(security.evaluate(f.m, Deployment(std::vector<HostId>{0, 1})),
                   1.0);
}

TEST(Weighted, CombinesNormalizedScores) {
  Fixture f(0.6, 10.0, 5.0, 4.0, 2.0);
  auto availability = std::make_shared<AvailabilityObjective>();
  auto latency = std::make_shared<LatencyObjective>();
  const WeightedObjective weighted(
      {{availability, 2.0}, {latency, 1.0}});
  const Deployment local(std::vector<HostId>{0, 0});
  // Local: availability 1, latency score 1 -> weighted 1.
  EXPECT_DOUBLE_EQ(weighted.evaluate(f.m, local), 1.0);
  const Deployment remote(std::vector<HostId>{0, 1});
  const double expected =
      (2.0 * 0.6 + 1.0 * latency->score(f.m, remote)) / 3.0;
  EXPECT_DOUBLE_EQ(weighted.evaluate(f.m, remote), expected);
  EXPECT_EQ(weighted.direction(), Direction::kMaximize);
  EXPECT_EQ(weighted.name(), "weighted(availability+latency)");
}

TEST(Weighted, RejectsBadConstruction) {
  auto availability = std::make_shared<AvailabilityObjective>();
  EXPECT_THROW(WeightedObjective({}), std::invalid_argument);
  EXPECT_THROW(WeightedObjective({{nullptr, 1.0}}), std::invalid_argument);
  EXPECT_THROW(WeightedObjective({{availability, -1.0}}),
               std::invalid_argument);
  EXPECT_THROW(WeightedObjective({{availability, 0.0}}),
               std::invalid_argument);
}

TEST(Objective, WorstRespectsDirection) {
  const AvailabilityObjective availability;
  EXPECT_TRUE(std::isinf(availability.worst()));
  EXPECT_LT(availability.worst(), 0.0);
}

}  // namespace
}  // namespace dif::model
