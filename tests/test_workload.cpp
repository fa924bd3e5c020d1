// Unit tests for WorkloadComponent (core/workload.h): traffic generation,
// state serialization, and schedule survival across migration.
#include "core/workload.h"

#include <gtest/gtest.h>

#include "prism/architecture.h"
#include "prism/distribution.h"
#include "sim/network.h"

namespace dif::core {
namespace {

struct Bed {
  sim::Simulator sim;
  sim::SimNetwork net{sim, 2, 1};
  prism::SimScaffold scaffold{sim};
  prism::Architecture arch0{"a0", scaffold, 0};
  prism::Architecture arch1{"a1", scaffold, 1};
  prism::DistributionConnector* d0 = nullptr;
  prism::DistributionConnector* d1 = nullptr;

  Bed() {
    net.set_link(0, 1, {.reliability = 1.0, .bandwidth = 1e6,
                        .delay_ms = 1.0});
    d0 = &static_cast<prism::DistributionConnector&>(arch0.add_connector(
        std::make_unique<prism::DistributionConnector>("d0", net, 0)));
    d1 = &static_cast<prism::DistributionConnector&>(arch1.add_connector(
        std::make_unique<prism::DistributionConnector>("d1", net, 1)));
    d0->add_peer(1);
    d1->add_peer(0);
  }
};

TEST(Workload, SendsAtConfiguredFrequency) {
  Bed bed;
  auto& producer = static_cast<WorkloadComponent&>(
      bed.arch0.add_component(std::make_unique<WorkloadComponent>(
          "producer", 4.0,
          std::vector<WorkloadComponent::Link>{{"consumer", 5.0, 0.5}})));
  bed.arch0.weld(producer, *bed.d0);
  auto& consumer = static_cast<WorkloadComponent&>(
      bed.arch1.add_component(std::make_unique<WorkloadComponent>(
          "consumer", 4.0, std::vector<WorkloadComponent::Link>{})));
  bed.arch1.weld(consumer, *bed.d1);
  bed.d0->set_location(prism::intern("consumer"), 1);

  producer.start();
  bed.sim.run_until(10'000.0);  // 10 s at 5 evt/s
  EXPECT_NEAR(static_cast<double>(producer.events_sent()), 50.0, 2.0);
  EXPECT_NEAR(static_cast<double>(consumer.events_received()), 50.0, 2.0);
}

TEST(Workload, ZeroFrequencyLinkSendsNothing) {
  Bed bed;
  auto& quiet = static_cast<WorkloadComponent&>(
      bed.arch0.add_component(std::make_unique<WorkloadComponent>(
          "quiet", 1.0,
          std::vector<WorkloadComponent::Link>{{"peer", 0.0, 1.0}})));
  bed.arch0.weld(quiet, *bed.d0);
  quiet.start();
  bed.sim.run_until(5'000.0);
  EXPECT_EQ(quiet.events_sent(), 0u);
}

TEST(Workload, StateSerializationRoundTrips) {
  WorkloadComponent original(
      "w", 7.5,
      {{"a", 2.0, 0.25}, {"b", 3.5, 1.0}});
  prism::ByteWriter writer;
  original.serialize_state(writer);

  WorkloadComponent restored("w");
  const auto bytes = writer.take();
  prism::ByteReader reader(bytes);
  restored.restore_state(reader);
  EXPECT_DOUBLE_EQ(restored.memory_kb(), 7.5);

  // Round-trip again and compare byte-for-byte (stable encoding).
  prism::ByteWriter writer2;
  restored.serialize_state(writer2);
  EXPECT_EQ(bytes, writer2.take());
}

TEST(Workload, MemoryReportedToMonitoring) {
  const WorkloadComponent w("w", 12.5, {});
  EXPECT_DOUBLE_EQ(w.memory_kb(), 12.5);
  EXPECT_EQ(w.type_name(), "workload");
}

TEST(Workload, FactoryRegistrationCreatesBlankInstance) {
  prism::ComponentFactory factory;
  WorkloadComponent::register_with(factory);
  ASSERT_TRUE(factory.contains("workload"));
  const auto component = factory.create("workload", "fresh");
  EXPECT_EQ(component->name(), "fresh");
  EXPECT_EQ(component->type_name(), "workload");
}

TEST(Workload, NoDuplicateScheduleAfterRestart) {
  Bed bed;
  auto& producer = static_cast<WorkloadComponent&>(
      bed.arch0.add_component(std::make_unique<WorkloadComponent>(
          "producer", 1.0,
          std::vector<WorkloadComponent::Link>{{"consumer", 10.0, 0.1}})));
  bed.arch0.weld(producer, *bed.d0);
  auto& consumer = static_cast<WorkloadComponent&>(
      bed.arch1.add_component(std::make_unique<WorkloadComponent>(
          "consumer", 1.0, std::vector<WorkloadComponent::Link>{})));
  bed.arch1.weld(consumer, *bed.d1);
  bed.d0->set_location(prism::intern("consumer"), 1);

  producer.start();
  producer.start();  // double-start must not double the rate
  bed.sim.run_until(10'000.0);
  EXPECT_NEAR(static_cast<double>(producer.events_sent()), 100.0, 5.0);
}

}  // namespace
}  // namespace dif::core
