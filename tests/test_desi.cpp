// Tests for the DeSi environment: SystemData reactivity, Generator ranges
// and feasibility, Modifier edits, AlgorithmContainer, AlgoResultData,
// TableView/GraphView rendering.
#include <gtest/gtest.h>

#include "algo/stochastic.h"
#include "check/static_analyzer.h"
#include "desi/algorithm_container.h"
#include "desi/generator.h"
#include "desi/graph_view.h"
#include "desi/modifier.h"
#include "desi/table_view.h"

namespace dif::desi {
namespace {

TEST(SystemData, NotifiesOnModelAndDeploymentChanges) {
  SystemData system;
  std::vector<SystemData::Change> changes;
  system.add_listener([&](SystemData::Change c) { changes.push_back(c); });
  system.model().add_host({.name = "h"});
  system.model().add_component({.name = "c"});
  system.sync_deployment_size();
  system.set_deployment(model::Deployment(std::vector<model::HostId>{0}));
  system.notify_constraints_changed();
  ASSERT_GE(changes.size(), 4u);
  EXPECT_EQ(changes[0], SystemData::Change::kModel);
  EXPECT_EQ(changes.back(), SystemData::Change::kConstraints);
}

TEST(SystemData, MoveComponentUpdatesDeployment) {
  SystemData system;
  system.model().add_host({.name = "h0"});
  system.model().add_host({.name = "h1"});
  system.model().add_component({.name = "c"});
  system.sync_deployment_size();
  system.move_component(0, 1);
  EXPECT_EQ(system.deployment().host_of(0), 1u);
}

TEST(SystemData, SetDeploymentRejectsWrongSize) {
  SystemData system;
  system.model().add_host({.name = "h"});
  system.model().add_component({.name = "c"});
  EXPECT_THROW(system.set_deployment(model::Deployment(5)),
               std::invalid_argument);
}

TEST(Generator, ProducesRequestedTopologySizes) {
  const auto system =
      Generator::generate({.hosts = 7, .components = 23}, 1);
  EXPECT_EQ(system->model().host_count(), 7u);
  EXPECT_EQ(system->model().component_count(), 23u);
  EXPECT_TRUE(system->deployment().complete());
}

TEST(Generator, ParametersRespectRanges) {
  GeneratorSpec spec;
  spec.hosts = 6;
  spec.components = 15;
  spec.host_memory = {200.0, 300.0};
  spec.component_memory = {1.0, 3.0};
  spec.reliability = {0.4, 0.6};
  spec.bandwidth = {10.0, 20.0};
  spec.delay_ms = {2.0, 4.0};
  spec.frequency = {1.0, 2.0};
  spec.event_size = {0.5, 0.6};
  const auto system = Generator::generate(spec, 2);
  const model::DeploymentModel& m = system->model();
  for (std::size_t h = 0; h < m.host_count(); ++h) {
    EXPECT_GE(m.host(static_cast<model::HostId>(h)).memory_capacity, 200.0);
    EXPECT_LE(m.host(static_cast<model::HostId>(h)).memory_capacity, 300.0);
  }
  for (std::size_t a = 0; a < m.host_count(); ++a) {
    for (std::size_t b = a + 1; b < m.host_count(); ++b) {
      const auto ha = static_cast<model::HostId>(a);
      const auto hb = static_cast<model::HostId>(b);
      if (!m.connected(ha, hb)) continue;
      EXPECT_GE(m.physical_link(ha, hb).reliability, 0.4);
      EXPECT_LE(m.physical_link(ha, hb).reliability, 0.6);
      EXPECT_GE(m.physical_link(ha, hb).bandwidth, 10.0);
      EXPECT_LE(m.physical_link(ha, hb).bandwidth, 20.0);
    }
  }
  for (const model::Interaction& ix : m.interactions()) {
    EXPECT_GE(ix.frequency, 1.0);
    EXPECT_LE(ix.frequency, 2.0);
    EXPECT_GE(ix.avg_event_size, 0.5);
    EXPECT_LE(ix.avg_event_size, 0.6);
  }
  EXPECT_FALSE(check::run_checks(m, system->constraints())
                   .has(check::Rule::kParamRange));
}

TEST(Generator, HostGraphIsConnected) {
  const auto system = Generator::generate(
      {.hosts = 10, .components = 10, .link_density = 0.0}, 3);
  // Even with zero extra density the spanning tree connects everything:
  // BFS from host 0 must reach all hosts.
  const model::DeploymentModel& m = system->model();
  std::vector<bool> seen(m.host_count(), false);
  std::vector<model::HostId> stack{0};
  seen[0] = true;
  while (!stack.empty()) {
    const model::HostId h = stack.back();
    stack.pop_back();
    for (std::size_t g = 0; g < m.host_count(); ++g) {
      if (!seen[g] && m.connected(h, static_cast<model::HostId>(g))) {
        seen[g] = true;
        stack.push_back(static_cast<model::HostId>(g));
      }
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(Generator, EveryComponentInteracts) {
  const auto system = Generator::generate(
      {.hosts = 4, .components = 20, .interaction_density = 0.0}, 4);
  std::vector<bool> interacts(20, false);
  for (const model::Interaction& ix : system->model().interactions()) {
    interacts[ix.a] = true;
    interacts[ix.b] = true;
  }
  EXPECT_TRUE(std::all_of(interacts.begin(), interacts.end(),
                          [](bool b) { return b; }));
}

TEST(Generator, InitialDeploymentSatisfiesGeneratedConstraints) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto system = Generator::generate(
        {.hosts = 5,
         .components = 16,
         .location_constraints = 4,
         .colocation_pairs = 2,
         .anti_colocation_pairs = 2},
        seed);
    const model::ConstraintChecker checker(system->model(),
                                           system->constraints());
    EXPECT_TRUE(checker.feasible(system->deployment())) << "seed " << seed;
  }
}

TEST(Generator, DeterministicPerSeed) {
  const auto a = Generator::generate({.hosts = 4, .components = 9}, 7);
  const auto b = Generator::generate({.hosts = 4, .components = 9}, 7);
  EXPECT_EQ(a->deployment(), b->deployment());
  EXPECT_EQ(a->model().host(2).memory_capacity,
            b->model().host(2).memory_capacity);
  const auto c = Generator::generate({.hosts = 4, .components = 9}, 8);
  EXPECT_NE(a->model().host(2).memory_capacity,
            c->model().host(2).memory_capacity);
}

TEST(Generator, RejectsDegenerateSpecs) {
  EXPECT_THROW(Generator::generate({.hosts = 0, .components = 5}, 1),
               std::invalid_argument);
  EXPECT_THROW(Generator::generate({.hosts = 2, .components = 0}, 1),
               std::invalid_argument);
}

TEST(Modifier, SingleParameterEdits) {
  auto system = Generator::generate({.hosts = 3, .components = 6}, 9);
  Modifier modifier(*system);
  model::DeploymentModel& m = system->model();
  // Find a connected pair.
  model::HostId ha = 0, hb = 1;
  for (std::size_t b = 1; b < 3; ++b)
    if (m.connected(0, static_cast<model::HostId>(b)))
      hb = static_cast<model::HostId>(b);
  modifier.set_link_reliability(ha, hb, 0.42);
  modifier.set_link_bandwidth(ha, hb, 77.0);
  modifier.set_link_delay(ha, hb, 9.0);
  EXPECT_DOUBLE_EQ(m.physical_link(ha, hb).reliability, 0.42);
  EXPECT_DOUBLE_EQ(m.physical_link(ha, hb).bandwidth, 77.0);
  EXPECT_DOUBLE_EQ(m.physical_link(ha, hb).delay_ms, 9.0);

  modifier.set_host_memory(0, 512.0);
  modifier.set_component_memory(1, 2.5);
  EXPECT_DOUBLE_EQ(m.host(0).memory_capacity, 512.0);
  EXPECT_DOUBLE_EQ(m.component(1).memory_size, 2.5);

  const model::Interaction ix = m.interactions()[0];
  modifier.set_interaction_frequency(ix.a, ix.b, 99.0);
  modifier.set_interaction_event_size(ix.a, ix.b, 0.25);
  EXPECT_DOUBLE_EQ(m.logical_link(ix.a, ix.b).frequency, 99.0);
  EXPECT_DOUBLE_EQ(m.logical_link(ix.a, ix.b).avg_event_size, 0.25);

  modifier.set_host_property(0, "battery", 0.8);
  modifier.set_component_property(0, "criticality", 3.0);
  EXPECT_DOUBLE_EQ(m.host(0).properties.at("battery"), 0.8);
  EXPECT_DOUBLE_EQ(m.component(0).properties.at("criticality"), 3.0);
}

TEST(Modifier, ScaleAllReliabilitiesClamps) {
  auto system = Generator::generate({.hosts = 4, .components = 6}, 10);
  Modifier modifier(*system);
  modifier.scale_all_reliabilities(10.0);  // would exceed 1 without clamp
  const model::DeploymentModel& m = system->model();
  for (std::size_t a = 0; a < 4; ++a)
    for (std::size_t b = a + 1; b < 4; ++b)
      if (m.connected(static_cast<model::HostId>(a),
                      static_cast<model::HostId>(b))) {
        EXPECT_LE(m.physical_link(static_cast<model::HostId>(a),
                                  static_cast<model::HostId>(b))
                      .reliability,
                  1.0);
      }
}

TEST(AlgoResultData, TracksBestPerObjective) {
  AlgoResultData results;
  ResultEntry entry;
  entry.objective = "availability";
  entry.result.algorithm = "a";
  entry.result.feasible = true;
  entry.result.value = 0.5;
  results.add(entry);
  entry.result.algorithm = "b";
  entry.result.value = 0.8;
  results.add(entry);
  entry.result.algorithm = "c";
  entry.result.value = 0.6;
  results.add(entry);
  entry.objective = "latency";
  entry.result.value = 0.1;
  results.add(entry);
  const auto best =
      results.best_index("availability", model::Direction::kMaximize);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(results.entries()[*best].result.algorithm, "b");
  EXPECT_FALSE(
      results.best_index("security", model::Direction::kMaximize).has_value());
  results.clear();
  EXPECT_EQ(results.size(), 0u);
}

TEST(AlgorithmContainer, InvokeRecordsResult) {
  auto system = Generator::generate({.hosts = 4, .components = 10}, 11);
  AlgoResultData results;
  AlgorithmContainer container(*system, results);
  const model::AvailabilityObjective availability;
  const ResultEntry& entry = container.invoke("avala", availability);
  EXPECT_EQ(entry.result.algorithm, "avala");
  EXPECT_TRUE(entry.result.feasible);
  EXPECT_EQ(entry.objective, "availability");
  EXPECT_EQ(results.size(), 1u);
  // Migrations measured against the system's current deployment.
  EXPECT_EQ(entry.result.migrations,
            model::Deployment::diff_count(system->deployment(),
                                          entry.result.deployment));
  if (entry.result.migrations > 0) {
    EXPECT_GT(entry.estimated_redeploy_ms, 0.0);
  }
}

TEST(AlgorithmContainer, InvokeAllSkipsInapplicable) {
  auto system = Generator::generate({.hosts = 3, .components = 20}, 12);
  AlgoResultData results;
  AlgorithmContainer container(*system, results);
  const model::AvailabilityObjective availability;
  // 20 components: exact variants skipped; 3 hosts: mincut skipped.
  const std::size_t ran = container.invoke_all(availability, 12);
  EXPECT_EQ(ran, results.size());
  for (const ResultEntry& entry : results.entries()) {
    EXPECT_NE(entry.result.algorithm, "exact");
    EXPECT_NE(entry.result.algorithm, "exact-unpruned");
    EXPECT_NE(entry.result.algorithm, "mincut");
  }
  EXPECT_GE(ran, 5u);
}

TEST(AlgorithmContainer, CustomRegistryIsUsed) {
  auto system = Generator::generate({.hosts = 3, .components = 8}, 13);
  AlgoResultData results;
  algo::AlgorithmRegistry registry;  // empty
  AlgorithmContainer container(*system, results, std::move(registry));
  const model::AvailabilityObjective availability;
  EXPECT_THROW(container.invoke("avala", availability), std::out_of_range);
  container.registry().register_factory("mine", [] {
    return std::make_unique<algo::StochasticAlgorithm>(3);
  });
  EXPECT_NO_THROW(container.invoke("mine", availability));
}

TEST(TableView, RendersAllPanels) {
  auto system = Generator::generate(
      {.hosts = 3, .components = 6, .location_constraints = 1,
       .colocation_pairs = 1},
      14);
  system->model().host(0).properties.set("battery", 0.9);
  AlgoResultData results;
  AlgorithmContainer container(*system, results);
  const model::AvailabilityObjective availability;
  container.invoke("avala", availability);

  const std::string hosts = TableView::render_hosts(*system);
  EXPECT_NE(hosts.find("host0"), std::string::npos);
  EXPECT_NE(hosts.find("battery"), std::string::npos);
  const std::string comps = TableView::render_components(*system);
  EXPECT_NE(comps.find("comp5"), std::string::npos);
  const std::string links = TableView::render_links(*system);
  EXPECT_NE(links.find("--"), std::string::npos);
  const std::string interactions = TableView::render_interactions(*system);
  EXPECT_NE(interactions.find("<->"), std::string::npos);
  const std::string constraints = TableView::render_constraints(*system);
  EXPECT_NE(constraints.find("location"), std::string::npos);
  const std::string rendered = TableView::render_results(results);
  EXPECT_NE(rendered.find("avala"), std::string::npos);
  EXPECT_NE(rendered.find("availability"), std::string::npos);
}

TEST(GraphView, AsciiListsHostsComponentsAndLinks) {
  auto system = Generator::generate({.hosts = 3, .components = 5}, 15);
  const std::string ascii = GraphView::render_ascii(*system);
  EXPECT_NE(ascii.find("host0"), std::string::npos);
  EXPECT_NE(ascii.find("[comp0]"), std::string::npos);
  EXPECT_NE(ascii.find("physical links:"), std::string::npos);
  EXPECT_NE(ascii.find("logical links:"), std::string::npos);
}

TEST(GraphView, DotContainsClustersPerHost) {
  auto system = Generator::generate({.hosts = 3, .components = 5}, 16);
  GraphViewData layout;
  layout.refresh(*system);
  const std::string dot = GraphView::to_dot(*system, layout);
  EXPECT_NE(dot.find("graph deployment"), std::string::npos);
  EXPECT_NE(dot.find("cluster_h0"), std::string::npos);
  EXPECT_NE(dot.find("cluster_h2"), std::string::npos);
  EXPECT_NE(dot.find("c0"), std::string::npos);
}

TEST(GraphViewData, LayoutAssignsContainmentAndZoomScales) {
  auto system = Generator::generate({.hosts = 4, .components = 8}, 17);
  GraphViewData layout;
  layout.refresh(*system);
  ASSERT_EQ(layout.hosts().size(), 4u);
  ASSERT_EQ(layout.components().size(), 8u);
  for (const ComponentVisual& cv : layout.components())
    EXPECT_EQ(cv.containing_host,
              system->deployment().host_of(cv.component));
  const double radius_before = std::abs(layout.hosts()[0].x);
  layout.set_zoom(2.0);
  layout.refresh(*system);
  EXPECT_NEAR(std::abs(layout.hosts()[0].x), 2.0 * radius_before, 1e-9);
  EXPECT_THROW(layout.set_zoom(0.0), std::invalid_argument);
}

}  // namespace
}  // namespace dif::desi

// ---- sensitivity analysis ---------------------------------------------------

#include "desi/sensitivity.h"

namespace dif::desi {
namespace {

TEST(Sensitivity, LinkReliabilitySweepIsMonotoneForFixedDeployment) {
  const auto system = Generator::generate(
      {.hosts = 3, .components = 8, .link_density = 1.0}, 21);
  const model::AvailabilityObjective availability;
  SensitivityAnalysis analysis(*system);
  // Pick a link actually carrying remote traffic in the current deployment.
  model::HostId a = 0, b = 1;
  const auto points = analysis.sweep_link_reliability(
      a, b, 0.1, 1.0, availability, {.algorithm = "hillclimb", .steps = 5});
  ASSERT_EQ(points.size(), 5u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].parameter, points[i - 1].parameter);
    EXPECT_GE(points[i].current + 1e-12, points[i - 1].current)
        << "availability must not fall as the link improves";
  }
  // Re-optimizing never does worse than staying put.
  for (const auto& point : points)
    EXPECT_GE(point.reoptimized + 1e-9, point.current);
}

TEST(Sensitivity, OriginalSystemIsUntouched) {
  const auto system = Generator::generate({.hosts = 3, .components = 6}, 22);
  const double before_rel = system->model().physical_link(0, 1).reliability;
  const model::Deployment before_deployment = system->deployment();
  const model::AvailabilityObjective availability;
  SensitivityAnalysis analysis(*system);
  (void)analysis.sweep_link_reliability(0, 1, 0.0, 1.0, availability,
                                        {.steps = 3});
  (void)analysis.sweep_host_memory(0, 10.0, 500.0, availability,
                                   {.steps = 3});
  EXPECT_DOUBLE_EQ(system->model().physical_link(0, 1).reliability,
                   before_rel);
  EXPECT_EQ(system->deployment(), before_deployment);
}

TEST(Sensitivity, HostMemorySweepShowsHeadroomValue) {
  // Starving a host forces spreading; growing it lets the optimizer pack.
  const auto system = Generator::generate(
      {.hosts = 3, .components = 8, .link_density = 1.0}, 23);
  const model::AvailabilityObjective availability;
  SensitivityAnalysis analysis(*system);
  const double total_demand = [&] {
    double sum = 0.0;
    for (std::size_t c = 0; c < system->model().component_count(); ++c)
      sum += system->model()
                 .component(static_cast<model::ComponentId>(c))
                 .memory_size;
    return sum;
  }();
  const auto points = analysis.sweep_host_memory(
      0, 20.0, total_demand * 1.5, availability,
      {.algorithm = "exact", .steps = 4});
  // With enough memory on one host, the optimum approaches all-local 1.0.
  EXPECT_GT(points.back().reoptimized, 0.99);
  // Re-optimized quality never decreases as memory grows.
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_GE(points[i].reoptimized + 1e-9, points[i - 1].reoptimized);
}

TEST(Sensitivity, FrequencySweepAndRendering) {
  const auto system = Generator::generate({.hosts = 3, .components = 6}, 24);
  const model::Interaction ix = system->model().interactions()[0];
  const model::AvailabilityObjective availability;
  SensitivityAnalysis analysis(*system);
  const auto points = analysis.sweep_interaction_frequency(
      ix.a, ix.b, 0.5, 20.0, availability, {.steps = 3});
  ASSERT_EQ(points.size(), 3u);
  const std::string table =
      SensitivityAnalysis::render(points, "frequency (evt/s)");
  EXPECT_NE(table.find("frequency (evt/s)"), std::string::npos);
  EXPECT_NE(table.find("re-optimized"), std::string::npos);
}

TEST(Sensitivity, RejectsDegenerateInput) {
  const auto system = Generator::generate({.hosts = 2, .components = 4}, 25);
  const model::AvailabilityObjective availability;
  SensitivityAnalysis analysis(*system);
  EXPECT_THROW(analysis.sweep_link_reliability(0, 1, 0.0, 1.0, availability,
                                               {.steps = 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dif::desi
