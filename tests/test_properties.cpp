// Cross-cutting property tests over randomized instances: invariants that
// must hold for every seed, wiring several modules together.
#include <gtest/gtest.h>

#include "algo/exact.h"
#include "algo/registry.h"
#include "desi/generator.h"
#include "desi/xadl.h"
#include "util/rng.h"

namespace dif {
namespace {

class PropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

desi::GeneratorSpec constrained_spec() {
  desi::GeneratorSpec spec;
  spec.hosts = 5;
  spec.components = 13;
  spec.host_cpu = {2.0, 6.0};
  spec.component_cpu = {0.1, 0.8};
  spec.interaction_density = 0.3;
  spec.location_constraints = 3;
  spec.colocation_pairs = 2;
  spec.anti_colocation_pairs = 2;
  return spec;
}

TEST_P(PropertyTest, EveryAlgorithmRespectsEveryConstraintKind) {
  const auto system = desi::Generator::generate(constrained_spec(),
                                                GetParam());
  const model::ConstraintChecker checker(system->model(),
                                         system->constraints());
  const model::AvailabilityObjective availability;
  const auto registry = algo::AlgorithmRegistry::with_defaults();
  for (const char* name :
       {"exact", "stochastic", "avala", "hillclimb", "annealing", "genetic",
        "decap"}) {
    algo::AlgoOptions options;
    options.seed = GetParam();
    options.initial = system->deployment();
    const algo::AlgoResult result = registry.create(name)->run(
        system->model(), availability, checker, options);
    ASSERT_TRUE(result.feasible) << name << " seed " << GetParam();
    const auto violations = checker.violations(result.deployment);
    EXPECT_TRUE(violations.empty())
        << name << " seed " << GetParam() << ": "
        << (violations.empty() ? "" : violations.front().detail);
  }
}

TEST_P(PropertyTest, ObjectiveValuesStayInTheirRanges) {
  const auto system = desi::Generator::generate(constrained_spec(),
                                                GetParam() + 100);
  const model::DeploymentModel& m = system->model();
  const model::AvailabilityObjective availability;
  const model::SecurityObjective security;
  const model::LatencyObjective latency;
  const model::CommunicationCostObjective comm;
  auto availability_ptr = std::make_shared<model::AvailabilityObjective>();
  auto latency_ptr = std::make_shared<model::LatencyObjective>();
  const model::WeightedObjective weighted(
      {{availability_ptr, 1.0}, {latency_ptr, 2.0}});

  util::Xoshiro256ss rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    model::Deployment d(m.component_count());
    for (std::size_t c = 0; c < m.component_count(); ++c)
      d.assign(static_cast<model::ComponentId>(c),
               static_cast<model::HostId>(rng.index(m.host_count())));
    for (const model::Objective* objective :
         std::initializer_list<const model::Objective*>{&availability,
                                                        &security, &weighted}) {
      const double value = objective->evaluate(m, d);
      EXPECT_GE(value, 0.0) << objective->name();
      EXPECT_LE(value, 1.0) << objective->name();
    }
    EXPECT_GE(latency.evaluate(m, d), 0.0);
    EXPECT_GE(comm.evaluate(m, d), 0.0);
    for (const model::Objective* objective :
         std::initializer_list<const model::Objective*>{
             &availability, &security, &weighted, &latency, &comm}) {
      const double score = objective->score(m, d);
      EXPECT_GE(score, 0.0) << objective->name();
      EXPECT_LE(score, 1.0) << objective->name();
    }
  }
}

TEST_P(PropertyTest, RaisingAnyLinkReliabilityNeverLowersAvailability) {
  const auto system = desi::Generator::generate(constrained_spec(),
                                                GetParam() + 200);
  model::DeploymentModel& m = system->model();
  const model::AvailabilityObjective availability;
  const double before = availability.evaluate(m, system->deployment());
  // Raise every link to its ceiling.
  for (std::size_t a = 0; a < m.host_count(); ++a)
    for (std::size_t b = a + 1; b < m.host_count(); ++b)
      if (m.connected(static_cast<model::HostId>(a),
                      static_cast<model::HostId>(b)))
        m.set_link_reliability(static_cast<model::HostId>(a),
                               static_cast<model::HostId>(b), 1.0);
  EXPECT_GE(availability.evaluate(m, system->deployment()) + 1e-12, before);
}

TEST_P(PropertyTest, MoreHostMemoryNeverHurtsTheOptimum) {
  const auto system = desi::Generator::generate(
      {.hosts = 3, .components = 8, .interaction_density = 0.35},
      GetParam() + 300);
  model::DeploymentModel& m = system->model();
  const model::ConstraintChecker checker(m, system->constraints());
  const model::AvailabilityObjective availability;
  algo::ExactAlgorithm exact;
  const double tight =
      exact.run(m, availability, checker, algo::AlgoOptions()).value;
  for (std::size_t h = 0; h < m.host_count(); ++h)
    m.host(static_cast<model::HostId>(h)).memory_capacity *= 3.0;
  const model::ConstraintChecker relaxed(m, system->constraints());
  const double roomy =
      exact.run(m, availability, relaxed, algo::AlgoOptions()).value;
  EXPECT_GE(roomy + 1e-12, tight);
}

TEST_P(PropertyTest, ExactPrunedMatchesUnprunedOnCommCost) {
  const auto system = desi::Generator::generate(
      {.hosts = 3, .components = 7}, GetParam() + 400);
  const model::ConstraintChecker checker(system->model(),
                                         system->constraints());
  const model::CommunicationCostObjective comm;
  algo::ExactAlgorithm pruned(true), plain(false);
  const double a =
      pruned.run(system->model(), comm, checker, algo::AlgoOptions()).value;
  const double b =
      plain.run(system->model(), comm, checker, algo::AlgoOptions()).value;
  EXPECT_NEAR(a, b, 1e-9);
}

TEST_P(PropertyTest, XadlRoundTripPreservesObjectiveValues) {
  const auto original = desi::Generator::generate(constrained_spec(),
                                                  GetParam() + 500);
  const auto restored =
      desi::XadlLite::from_text(desi::XadlLite::to_text(*original));
  const model::AvailabilityObjective availability;
  const model::LatencyObjective latency;
  EXPECT_DOUBLE_EQ(
      availability.evaluate(original->model(), original->deployment()),
      availability.evaluate(restored->model(), restored->deployment()));
  EXPECT_DOUBLE_EQ(
      latency.evaluate(original->model(), original->deployment()),
      latency.evaluate(restored->model(), restored->deployment()));
}

TEST_P(PropertyTest, GeneratedCpuConstraintsAreSatisfiable) {
  const auto system = desi::Generator::generate(constrained_spec(),
                                                GetParam() + 600);
  const model::ConstraintChecker checker(system->model(),
                                         system->constraints());
  // The generator's initial deployment satisfies CPU limits too.
  EXPECT_TRUE(checker.feasible(system->deployment()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace dif
