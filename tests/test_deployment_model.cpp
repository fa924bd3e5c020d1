// Unit tests for the deployment-architecture model (model/deployment_model.h).
#include "model/deployment_model.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dif::model {
namespace {

DeploymentModel two_hosts_two_components() {
  DeploymentModel m;
  m.add_host({.name = "h0", .memory_capacity = 100.0});
  m.add_host({.name = "h1", .memory_capacity = 50.0});
  m.add_component({.name = "c0", .memory_size = 10.0});
  m.add_component({.name = "c1", .memory_size = 5.0});
  return m;
}

TEST(DeploymentModel, AddAndLookup) {
  DeploymentModel m = two_hosts_two_components();
  EXPECT_EQ(m.host_count(), 2u);
  EXPECT_EQ(m.component_count(), 2u);
  EXPECT_EQ(m.host(0).name, "h0");
  EXPECT_EQ(m.component(1).name, "c1");
  EXPECT_EQ(m.host_by_name("h1"), 1u);
  EXPECT_EQ(m.component_by_name("c0"), 0u);
  EXPECT_THROW((void)m.host_by_name("nope"), std::out_of_range);
  EXPECT_THROW((void)m.component_by_name("nope"), std::out_of_range);
  EXPECT_THROW((void)m.host(9), std::out_of_range);
}

TEST(DeploymentModel, PhysicalLinksAreSymmetric) {
  DeploymentModel m = two_hosts_two_components();
  m.set_physical_link(0, 1, {.reliability = 0.9, .bandwidth = 100.0,
                             .delay_ms = 5.0});
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).reliability, 0.9);
  EXPECT_DOUBLE_EQ(m.physical_link(1, 0).reliability, 0.9);
  EXPECT_TRUE(m.connected(0, 1));
  EXPECT_TRUE(m.connected(1, 0));
}

TEST(DeploymentModel, SelfLinkIsPerfect) {
  DeploymentModel m = two_hosts_two_components();
  EXPECT_DOUBLE_EQ(m.physical_link(0, 0).reliability, 1.0);
  EXPECT_TRUE(std::isinf(m.physical_link(1, 1).bandwidth));
  EXPECT_FALSE(m.connected(0, 0));  // "connected" means distinct hosts
  EXPECT_THROW(m.set_physical_link(0, 0, {}), std::invalid_argument);
}

TEST(DeploymentModel, UnsetLinkIsDisconnected) {
  DeploymentModel m = two_hosts_two_components();
  EXPECT_FALSE(m.connected(0, 1));
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).reliability, 0.0);
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).bandwidth, 0.0);
}

TEST(DeploymentModel, ClearLinkDisconnects) {
  DeploymentModel m = two_hosts_two_components();
  m.set_physical_link(0, 1, {.reliability = 0.9, .bandwidth = 10.0});
  m.clear_physical_link(1, 0);
  EXPECT_FALSE(m.connected(0, 1));
}

TEST(DeploymentModel, SingleFieldLinkUpdates) {
  DeploymentModel m = two_hosts_two_components();
  m.set_physical_link(0, 1, {.reliability = 0.5, .bandwidth = 10.0,
                             .delay_ms = 1.0});
  m.set_link_reliability(0, 1, 0.75);
  m.set_link_bandwidth(1, 0, 20.0);
  m.set_link_delay(0, 1, 2.5);
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).reliability, 0.75);
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).bandwidth, 20.0);
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).delay_ms, 2.5);
}

TEST(DeploymentModel, LogicalLinksSymmetricAndSelfRejected) {
  DeploymentModel m = two_hosts_two_components();
  m.set_logical_link(0, 1, {.frequency = 4.0, .avg_event_size = 1.5});
  EXPECT_DOUBLE_EQ(m.logical_link(1, 0).frequency, 4.0);
  EXPECT_THROW(m.set_logical_link(1, 1, {}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(m.logical_link(0, 0).frequency, 0.0);
}

TEST(DeploymentModel, InteractionsCacheListsPositiveFrequencies) {
  DeploymentModel m;
  m.add_host({.name = "h"});
  for (int i = 0; i < 4; ++i)
    m.add_component({.name = "c" + std::to_string(i)});
  m.set_logical_link(0, 1, {.frequency = 2.0, .avg_event_size = 1.0});
  m.set_logical_link(2, 3, {.frequency = 3.0, .avg_event_size = 1.0});
  m.set_logical_link(0, 3, {.frequency = 0.0, .avg_event_size = 1.0});
  const auto interactions = m.interactions();
  ASSERT_EQ(interactions.size(), 2u);
  EXPECT_DOUBLE_EQ(m.total_interaction_frequency(), 5.0);
}

TEST(DeploymentModel, InteractionsCacheInvalidatedOnChange) {
  DeploymentModel m = two_hosts_two_components();
  m.set_logical_link(0, 1, {.frequency = 1.0, .avg_event_size = 1.0});
  EXPECT_EQ(m.interactions().size(), 1u);
  m.clear_logical_link(0, 1);
  EXPECT_EQ(m.interactions().size(), 0u);
  m.add_component({.name = "c2"});
  m.set_logical_link(0, 2, {.frequency = 2.0, .avg_event_size = 1.0});
  EXPECT_EQ(m.interactions().size(), 1u);
  EXPECT_EQ(m.interactions()[0].b, 2u);
}

TEST(DeploymentModel, GrowingTopologyPreservesLinks) {
  DeploymentModel m = two_hosts_two_components();
  m.set_physical_link(0, 1, {.reliability = 0.8, .bandwidth = 50.0});
  m.set_logical_link(0, 1, {.frequency = 7.0, .avg_event_size = 0.5});
  m.add_host({.name = "h2", .memory_capacity = 10.0});
  m.add_component({.name = "c2", .memory_size = 1.0});
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).reliability, 0.8);
  EXPECT_DOUBLE_EQ(m.logical_link(0, 1).frequency, 7.0);
  EXPECT_FALSE(m.connected(0, 2));
}

TEST(DeploymentModel, ListenersFireAndRemove) {
  DeploymentModel m = two_hosts_two_components();
  int events = 0;
  const std::size_t id = m.add_listener([&](ModelEvent) { ++events; });
  m.set_physical_link(0, 1, {.reliability = 0.5, .bandwidth = 1.0});
  m.set_logical_link(0, 1, {.frequency = 1.0, .avg_event_size = 1.0});
  m.notify_entity_changed();
  EXPECT_EQ(events, 3);
  m.remove_listener(id);
  m.notify_entity_changed();
  EXPECT_EQ(events, 3);
}

TEST(DeploymentModel, ValidateAcceptsSaneModel) {
  DeploymentModel m = two_hosts_two_components();
  m.set_physical_link(0, 1, {.reliability = 0.5, .bandwidth = 1.0});
  EXPECT_NO_THROW(m.validate());
}

TEST(DeploymentModel, ValidateRejectsOutOfRangeReliability) {
  DeploymentModel m = two_hosts_two_components();
  m.set_physical_link(0, 1, {.reliability = 1.5, .bandwidth = 1.0});
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(DeploymentModel, ValidateRejectsNegativeParameters) {
  DeploymentModel m;
  m.add_host({.name = "h", .memory_capacity = -1.0});
  EXPECT_THROW(m.validate(), std::invalid_argument);

  DeploymentModel m2 = two_hosts_two_components();
  m2.set_logical_link(0, 1, {.frequency = -2.0, .avg_event_size = 1.0});
  EXPECT_THROW(m2.validate(), std::invalid_argument);
}

TEST(DeploymentModel, ModelLevelProperties) {
  DeploymentModel m;
  m.properties().set("monitoring_window", 5.0);
  EXPECT_DOUBLE_EQ(m.properties().at("monitoring_window"), 5.0);
}

}  // namespace
}  // namespace dif::model

namespace dif::model {
namespace {

TEST(DeploymentModel, RejectsDuplicateNames) {
  DeploymentModel m;
  m.add_host({.name = "h"});
  EXPECT_THROW(m.add_host({.name = "h"}), std::invalid_argument);
  m.add_component({.name = "c"});
  EXPECT_THROW(m.add_component({.name = "c"}), std::invalid_argument);
  // Host and component namespaces are independent.
  EXPECT_NO_THROW(m.add_component({.name = "h"}));
}

}  // namespace
}  // namespace dif::model
