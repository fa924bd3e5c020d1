// Cross-cutting property tests over randomized instances: invariants that
// must hold for every seed, wiring several modules together.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algo/exact.h"
#include "algo/registry.h"
#include "check/audit.h"
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
    EXPECT_TRUE(checker.feasible(result.deployment))
        << name << " seed " << GetParam() << ":\n"
        << check::PlacementAuditor()
               .audit(system->model(), system->constraints(),
                      result.deployment)
               .render_text();
  }
}

/// The checker the algorithms search with and the auditor that explains a
/// placement hold one rule set: on every deployment, feasible() is true iff
/// the auditor reports no error. The system carries every constraint kind.
/// The deployments are the generator's feasible one, every
/// single-component change of it (unassigned, a host id the model lacks,
/// each other host) and random full placements, judged twice: with the
/// generated capacities, and under capacity pressure, where each host has
/// room for only a median component, in memory and in CPU, beyond what the
/// feasible deployment puts on it. Each rule must be the only one broken by
/// some deployment, so a checker that skipped any one rule would disagree
/// with the auditor.
TEST_P(PropertyTest, CheckerAgreesWithPlacementAuditor) {
  desi::GeneratorSpec spec = constrained_spec();
  spec.location_constraints = 5;
  const auto system = desi::Generator::generate(spec, GetParam() + 700);
  model::DeploymentModel& m = system->model();
  const model::Deployment& base = system->deployment();
  const std::size_t n = m.component_count();
  const std::size_t k = m.host_count();

  std::vector<model::Deployment> cases{base};
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<model::ComponentId>(i);
    cases.push_back(base);
    cases.back().unassign(c);
    for (std::size_t h = 0; h <= k; ++h) {  // h == k: not a model host
      if (h == base.host_of(c)) continue;
      cases.push_back(base);
      cases.back().assign(c, static_cast<model::HostId>(h));
    }
  }
  util::Xoshiro256ss rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    model::Deployment d(n);
    for (std::size_t i = 0; i < n; ++i)
      d.assign(static_cast<model::ComponentId>(i),
               static_cast<model::HostId>(rng.index(k)));
    cases.push_back(std::move(d));
  }

  std::set<std::string> alone;  // error kinds some deployment breaks alone
  const auto judge_all = [&] {
    const model::ConstraintChecker checker(m, system->constraints());
    const check::AnalysisContext context(m, system->constraints());
    EXPECT_TRUE(checker.feasible(base));
    for (const model::Deployment& d : cases) {
      const check::CheckReport report =
          check::PlacementAuditor().audit(context, d);
      EXPECT_EQ(checker.feasible(d), report.ok())
          << "seed " << GetParam() << ", " << d.describe(m) << ":\n"
          << report.render_text();
      std::set<std::string> kinds;
      for (const check::Diagnostic& diagnostic : report.diagnostics()) {
        if (diagnostic.severity != check::Severity::kError) continue;
        std::string kind(check::rule_id(diagnostic.rule));
        if (diagnostic.rule == check::Rule::kPlacementCapacity)
          kind += diagnostic.message.find("CPU") == std::string::npos
                      ? "/memory"
                      : "/cpu";
        if (diagnostic.rule == check::Rule::kPlacementColocation)
          kind += diagnostic.message.find("split") == std::string::npos
                      ? "/separated"
                      : "/split";
        kinds.insert(kind);
      }
      if (kinds.size() == 1) alone.insert(*kinds.begin());
    }
  };
  judge_all();

  std::vector<double> memory(n), cpu(n), used_memory(k), used_cpu(k);
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<model::ComponentId>(i);
    memory[i] = m.component(c).memory_size;
    cpu[i] = m.component(c).cpu_load;
    used_memory[base.host_of(c)] += memory[i];
    used_cpu[base.host_of(c)] += cpu[i];
  }
  std::nth_element(memory.begin(), memory.begin() + n / 2, memory.end());
  std::nth_element(cpu.begin(), cpu.begin() + n / 2, cpu.end());
  for (std::size_t h = 0; h < k; ++h) {
    model::Host& host = m.host(static_cast<model::HostId>(h));
    host.memory_capacity = used_memory[h] + memory[n / 2];
    host.cpu_capacity = used_cpu[h] + cpu[n / 2];
  }
  judge_all();

  for (const char* kind :
       {"placement-unassigned", "dangling-reference", "placement-location",
        "placement-capacity/memory", "placement-capacity/cpu",
        "placement-colocation/split", "placement-colocation/separated"})
    EXPECT_TRUE(alone.count(kind)) << "seed " << GetParam() << ": " << kind;
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
