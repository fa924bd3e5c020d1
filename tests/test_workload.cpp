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
  bed.d0->set_location("consumer", 1);

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
  bed.d0->set_location("consumer", 1);

  producer.start();
  producer.start();  // double-start must not double the rate
  bed.sim.run_until(10'000.0);
  EXPECT_NEAR(static_cast<double>(producer.events_sent()), 100.0, 5.0);
}

}  // namespace
}  // namespace dif::core

// ---------------------------------------------------------------------------
// Composable adversarial workloads (chaos/workload.h): region-aware layers,
// suspend semantics, and deterministic stacking.
// ---------------------------------------------------------------------------

#include <map>
#include <set>

#include "chaos/workload.h"
#include "core/improvement_loop.h"
#include "desi/generator.h"

namespace dif::chaos {
namespace {

desi::GeneratorSpec regional_spec(std::size_t hosts, std::size_t regions) {
  desi::GeneratorSpec spec;
  spec.hosts = hosts;
  spec.components = hosts * 2;
  spec.link_density = 1.0;
  spec.regions = regions;
  return spec;
}

bool same_action(const FaultAction& x, const FaultAction& y) {
  return x.kind == y.kind && x.at_ms == y.at_ms &&
         x.duration_ms == y.duration_ms && x.a == y.a && x.b == y.b;
}

TEST(Workload, KillRegionIsCorrelatedAndHonorsRegionTopology) {
  const auto system = desi::Generator::generate(regional_spec(6, 3), 9);
  const model::DeploymentModel& m = system->model();
  ASSERT_EQ(m.region_count(), 3u);

  WorkloadSpec ws("region-kill");
  ws.kill_region();
  const FaultSchedule schedule = ws.compile(m, /*master=*/0, /*seed=*/4);
  ASSERT_FALSE(schedule.actions().empty());

  // All crashes share one window (correlated zone failure), target exactly
  // one region, and never the master.
  const std::size_t region = m.host_region(schedule.actions().front().a);
  std::set<model::HostId> hit;
  for (const FaultAction& action : schedule.actions()) {
    EXPECT_EQ(action.kind, FaultKind::kCrash);
    EXPECT_EQ(action.at_ms, schedule.actions().front().at_ms);
    EXPECT_EQ(action.duration_ms, schedule.actions().front().duration_ms);
    EXPECT_EQ(m.host_region(action.a), region);
    EXPECT_NE(action.a, 0u);
    hit.insert(action.a);
  }
  // Every killable host of the chosen region goes down with it.
  for (std::size_t h = 1; h < m.host_count(); ++h)
    if (m.host_region(static_cast<model::HostId>(h)) == region) {
      EXPECT_TRUE(hit.count(static_cast<model::HostId>(h)));
    }
}

TEST(Workload, PinnedKillRegionRespectsThePin) {
  const auto system = desi::Generator::generate(regional_spec(6, 3), 9);
  WorkloadSpec ws;
  ws.kill_region(2);
  const FaultSchedule schedule =
      ws.compile(system->model(), /*master=*/0, /*seed=*/4);
  ASSERT_FALSE(schedule.actions().empty());
  for (const FaultAction& action : schedule.actions())
    EXPECT_EQ(system->model().host_region(action.a), 2u);
}

TEST(Workload, RollingRestartIsStaggeredAndSkipsMaster) {
  const auto system = desi::Generator::generate(regional_spec(5, 1), 9);
  WorkloadSpec ws;
  ws.rolling_restart(/*down_ms=*/5'000.0, /*stagger_ms=*/1'000.0);
  const FaultSchedule schedule =
      ws.compile(system->model(), /*master=*/0, /*seed=*/1);
  ASSERT_EQ(schedule.actions().size(), 4u);  // hosts 1..4, not the master
  std::set<model::HostId> hit;
  double last_heal = 0.0;
  for (const FaultAction& action : schedule.actions()) {
    EXPECT_EQ(action.kind, FaultKind::kCrash);
    EXPECT_NE(action.a, 0u);
    EXPECT_TRUE(hit.insert(action.a).second);  // one outage per host
    EXPECT_GE(action.at_ms, last_heal);        // never two hosts down at once
    last_heal = action.at_ms + action.duration_ms;
  }
}

TEST(Workload, SuspendPreservesComponentStateAcrossResume) {
  const auto system = desi::Generator::generate(regional_spec(4, 1), 3);
  const std::size_t hosts = system->model().host_count();
  core::FrameworkConfig fc;
  fc.seed = 3;
  core::CentralizedInstantiation inst(*system, fc);

  WorkloadSpec ws("suspend");
  ws.suspend_processes(2);
  const FaultSchedule schedule = ws.compile(system->model(), 0, 7);
  ASSERT_EQ(schedule.actions().size(), 2u);
  for (const FaultAction& action : schedule.actions())
    EXPECT_EQ(action.kind, FaultKind::kSuspend);

  FaultInjector injector(inst, {});
  injector.arm(schedule);

  // Snapshot each host's component census before any fault fires.
  std::map<model::HostId, std::vector<std::string>> before;
  inst.simulator().schedule_at(schedule.actions().front().at_ms - 1.0, [&] {
    for (std::size_t h = 0; h < hosts; ++h)
      before[static_cast<model::HostId>(h)] =
          inst.architecture(static_cast<model::HostId>(h)).component_names();
  });
  // Mid-suspension the host is off the wire...
  const FaultAction& first = schedule.actions().front();
  bool was_down = false;
  inst.simulator().schedule_at(first.at_ms + first.duration_ms / 2, [&] {
    was_down = !inst.network().host_up(first.a);
  });

  inst.start();
  inst.simulator().run_until(schedule.spec().duration_ms);
  EXPECT_TRUE(was_down);

  // ...but unlike a crash, nothing is lost: every host still runs exactly
  // the components it ran before (no restart, no state reset, no
  // re-deployment needed).
  for (std::size_t h = 0; h < hosts; ++h) {
    EXPECT_TRUE(inst.network().host_up(static_cast<model::HostId>(h)));
    EXPECT_EQ(
        inst.architecture(static_cast<model::HostId>(h)).component_names(),
        before[static_cast<model::HostId>(h)])
        << "host " << h;
  }
}

TEST(Workload, StackedLayersComposeDeterministicallyAndPrefixStable) {
  const auto system = desi::Generator::generate(regional_spec(6, 3), 9);
  ScenarioSpec mixed = scenario_by_name("mixed");

  WorkloadSpec shallow("stacked");
  shallow.add_scenario(mixed);

  WorkloadSpec deep("stacked");
  deep.add_scenario(mixed);
  deep.suspend_processes(2);
  deep.kill_region();
  deep.rolling_restart();

  const FaultSchedule a = deep.compile(system->model(), 0, 11);
  const FaultSchedule b = deep.compile(system->model(), 0, 11);
  ASSERT_EQ(a.actions().size(), b.actions().size());
  for (std::size_t i = 0; i < a.actions().size(); ++i)
    EXPECT_TRUE(same_action(a.actions()[i], b.actions()[i])) << "action " << i;

  // Prefix stability: stacking more layers never changes what the earlier
  // layers drew — every shallow action survives verbatim in the deep
  // schedule.
  const FaultSchedule prefix = shallow.compile(system->model(), 0, 11);
  ASSERT_FALSE(prefix.actions().empty());
  EXPECT_GT(a.actions().size(), prefix.actions().size());
  for (const FaultAction& want : prefix.actions()) {
    bool found = false;
    for (const FaultAction& got : a.actions())
      if (same_action(want, got)) {
        found = true;
        break;
      }
    EXPECT_TRUE(found) << "layer-0 action at " << want.at_ms
                       << "ms vanished when layers were stacked";
  }
}

}  // namespace
}  // namespace dif::chaos
