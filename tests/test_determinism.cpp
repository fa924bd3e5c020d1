// Determinism harness: same seed => bit-identical results, for every
// registered algorithm and for the portfolio runner.
//
// Time budgets are deliberately absent here — wall-clock cutoffs are the one
// legitimately nondeterministic budget, so these tests pin behaviour with
// evaluation caps only.
#include <gtest/gtest.h>

#include "algo/portfolio.h"
#include "algo/registry.h"
#include "desi/generator.h"

namespace dif::algo {
namespace {

struct Instance {
  std::unique_ptr<desi::SystemData> system;
  std::unique_ptr<model::ConstraintChecker> checker;
  model::AvailabilityObjective objective;
};

Instance make_instance(std::uint64_t seed, std::size_t hosts = 5,
                       std::size_t components = 14) {
  Instance inst;
  inst.system = desi::Generator::generate(
      {.hosts = hosts,
       .components = components,
       .interaction_density = 0.3,
       .location_constraints = 2,
       .colocation_pairs = 1,
       .anti_colocation_pairs = 1},
      seed);
  inst.checker = std::make_unique<model::ConstraintChecker>(
      inst.system->model(), inst.system->constraints());
  return inst;
}

/// Two runs with identical options must agree bit for bit — deployment,
/// value, evaluation count, and termination flags.
void expect_identical(const AlgoResult& a, const AlgoResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.deployment, b.deployment) << label;
  EXPECT_EQ(a.feasible, b.feasible) << label;
  if (a.feasible && b.feasible) {
    // Bit-identical, not merely close: same seed must replay the same
    // arithmetic in the same order.
    EXPECT_EQ(a.value, b.value) << label;
  }
  EXPECT_EQ(a.evaluations, b.evaluations) << label;
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted) << label;
  EXPECT_EQ(a.migrations, b.migrations) << label;
}

class RegistryDeterminismTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(RegistryDeterminismTest, SameSeedBitIdentical) {
  const std::string name = GetParam();
  const auto registry = AlgorithmRegistry::with_defaults();
  for (const std::uint64_t seed : {1u, 23u}) {
    // Small enough for the exact-family entries to terminate uncapped.
    Instance inst = make_instance(seed, /*hosts=*/4, /*components=*/9);
    AlgoOptions options;
    options.seed = seed * 1000 + 7;
    options.initial = inst.system->deployment();
    const AlgoResult a = registry.create(name)->run(
        inst.system->model(), inst.objective, *inst.checker, options);
    const AlgoResult b = registry.create(name)->run(
        inst.system->model(), inst.objective, *inst.checker, options);
    expect_identical(a, b, name + "/seed" + std::to_string(seed));
  }
}

TEST_P(RegistryDeterminismTest, SameSeedBitIdenticalUnderEvaluationCap) {
  const std::string name = GetParam();
  const auto registry = AlgorithmRegistry::with_defaults();
  Instance inst = make_instance(5);  // big enough that the cap bites
  AlgoOptions options;
  options.seed = 42;
  options.initial = inst.system->deployment();
  options.max_evaluations = 150;  // cut every search off mid-flight
  const AlgoResult a = registry.create(name)->run(
      inst.system->model(), inst.objective, *inst.checker, options);
  const AlgoResult b = registry.create(name)->run(
      inst.system->model(), inst.objective, *inst.checker, options);
  expect_identical(a, b, name + "/capped");
}

std::vector<std::string> all_registry_names() {
  return AlgorithmRegistry::with_defaults().names();
}

INSTANTIATE_TEST_SUITE_P(AllRegistered, RegistryDeterminismTest,
                         ::testing::ValuesIn(all_registry_names()));

// mincut only engages on its 2-host domain; cover that path too.
TEST(RegistryDeterminismTwoHosts, MincutSameSeedBitIdentical) {
  const auto registry = AlgorithmRegistry::with_defaults();
  Instance inst = make_instance(9, /*hosts=*/2, /*components=*/10);
  AlgoOptions options;
  options.seed = 3;
  const AlgoResult a = registry.create("mincut")->run(
      inst.system->model(), inst.objective, *inst.checker, options);
  const AlgoResult b = registry.create("mincut")->run(
      inst.system->model(), inst.objective, *inst.checker, options);
  expect_identical(a, b, "mincut/2hosts");
}

/// The determinism anchor: a 1-thread portfolio is exactly the sequential
/// "run each entry, keep the best" loop.
TEST(PortfolioDeterminism, OneThreadMatchesSequentialRuns) {
  Instance inst = make_instance(11, /*hosts=*/6, /*components=*/18);
  const auto registry = AlgorithmRegistry::with_defaults();
  const std::vector<std::string> lineup = default_portfolio_lineup();

  PortfolioOptions popts;
  popts.threads = 1;
  popts.seed = 77;
  popts.initial = inst.system->deployment();
  PortfolioRunner runner(popts);
  runner.add_from_registry(registry, lineup);
  const PortfolioResult portfolio =
      runner.run(inst.system->model(), inst.objective, *inst.checker);

  ASSERT_EQ(portfolio.runs.size(), lineup.size());
  std::size_t expected_winner = lineup.size();
  AlgoResult expected_best;
  for (std::size_t i = 0; i < lineup.size(); ++i) {
    AlgoOptions options;
    options.seed = 77;
    options.initial = inst.system->deployment();
    const AlgoResult sequential = registry.create(lineup[i])->run(
        inst.system->model(), inst.objective, *inst.checker, options);
    expect_identical(portfolio.runs[i], sequential, lineup[i]);
    if (sequential.feasible &&
        (expected_winner == lineup.size() ||
         inst.objective.improves(sequential.value, expected_best.value))) {
      expected_best = sequential;
      expected_winner = i;
    }
  }
  ASSERT_LT(expected_winner, lineup.size());
  EXPECT_EQ(portfolio.winner_index, expected_winner);
  EXPECT_EQ(portfolio.best.deployment, expected_best.deployment);
  EXPECT_EQ(portfolio.best.value, expected_best.value);
  EXPECT_FALSE(portfolio.deadline_hit);
}

/// With per-entry evaluation caps (and no wall-clock deadline) every entry
/// is deterministic in isolation, so the parallel portfolio must agree with
/// the 1-thread portfolio run for run — whatever the thread schedule.
TEST(PortfolioDeterminism, ParallelMatchesOneThreadUnderEvaluationCap) {
  Instance inst = make_instance(13, /*hosts=*/6, /*components=*/18);
  const auto registry = AlgorithmRegistry::with_defaults();
  const std::vector<std::string> lineup = default_portfolio_lineup();

  const auto race = [&](std::size_t threads) {
    PortfolioOptions popts;
    popts.threads = threads;
    popts.seed = 5;
    popts.max_evaluations = 4000;
    popts.initial = inst.system->deployment();
    PortfolioRunner runner(popts);
    runner.add_from_registry(registry, lineup);
    return runner.run(inst.system->model(), inst.objective, *inst.checker);
  };

  const PortfolioResult one = race(1);
  const PortfolioResult four = race(4);
  ASSERT_EQ(one.runs.size(), four.runs.size());
  for (std::size_t i = 0; i < one.runs.size(); ++i)
    expect_identical(one.runs[i], four.runs[i], lineup[i]);
  EXPECT_EQ(one.winner_index, four.winner_index);
  EXPECT_EQ(one.best.deployment, four.best.deployment);
}

// --- warm-started re-optimization ------------------------------------------

std::vector<model::ComponentId> components_on_host(const model::Deployment& d,
                                                   model::HostId host) {
  std::vector<model::ComponentId> out;
  for (std::size_t c = 0; c < d.size(); ++c)
    if (d.host_of(static_cast<model::ComponentId>(c)) == host)
      out.push_back(static_cast<model::ComponentId>(c));
  return out;
}

/// Picks a host that actually carries components and halves the reliability
/// of every link incident to it — the single-host fluctuation a warm
/// re-optimization is built for. Returns the dirty component set.
std::vector<model::ComponentId> fluctuate_one_host(Instance& inst) {
  model::DeploymentModel& m = inst.system->model();
  const model::Deployment& d = inst.system->deployment();
  model::HostId host = 0;
  std::vector<model::ComponentId> dirty;
  for (std::size_t h = 0; h < m.host_count(); ++h) {
    dirty = components_on_host(d, static_cast<model::HostId>(h));
    if (!dirty.empty() && dirty.size() < d.size()) {
      host = static_cast<model::HostId>(h);
      break;
    }
  }
  // Rescaling a stored link's reliability leaves it stored, so the row
  // stays valid while it is walked.
  for (const model::HostId h : m.physical_neighbors(host)) {
    const double reliability = m.physical_link(host, h).reliability;
    if (reliability > 0.0)
      m.set_link_reliability(host, h, reliability * 0.5);
  }
  return dirty;
}

/// Algorithms that accept AlgoOptions::warm_start.
class WarmStartTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WarmStartTest, EmptyDirtySetReturnsInitialAfterOneEvaluation) {
  const auto registry = AlgorithmRegistry::with_defaults();
  Instance inst = make_instance(21, /*hosts=*/6, /*components=*/18);
  AlgoOptions options;
  options.seed = 17;
  options.initial = inst.system->deployment();
  options.warm_start = true;  // dirty_components left empty: nothing changed
  const AlgoResult result = registry.create(GetParam())->run(
      inst.system->model(), inst.objective, *inst.checker, options);
  ASSERT_TRUE(result.feasible) << result.notes;
  EXPECT_EQ(result.deployment, *options.initial);
  EXPECT_EQ(result.evaluations, 1u) << result.notes;
  EXPECT_EQ(result.migrations, 0u);
}

TEST_P(WarmStartTest, RepeatedWarmRunsBitIdentical) {
  const auto registry = AlgorithmRegistry::with_defaults();
  Instance inst = make_instance(22, /*hosts=*/6, /*components=*/18);
  const std::vector<model::ComponentId> dirty = fluctuate_one_host(inst);
  ASSERT_FALSE(dirty.empty());
  AlgoOptions options;
  options.seed = 29;
  options.initial = inst.system->deployment();
  options.warm_start = true;
  options.dirty_components = dirty;
  const AlgoResult a = registry.create(GetParam())->run(
      inst.system->model(), inst.objective, *inst.checker, options);
  const AlgoResult b = registry.create(GetParam())->run(
      inst.system->model(), inst.objective, *inst.checker, options);
  expect_identical(a, b, GetParam() + "/warm");
}

TEST_P(WarmStartTest, WarmResultNoWorseThanKeepingCurrent) {
  const auto registry = AlgorithmRegistry::with_defaults();
  Instance inst = make_instance(23, /*hosts=*/6, /*components=*/18);
  const std::vector<model::ComponentId> dirty = fluctuate_one_host(inst);
  ASSERT_FALSE(dirty.empty());
  const model::Deployment initial = inst.system->deployment();
  const double keep_value =
      inst.objective.evaluate(inst.system->model(), initial);
  AlgoOptions options;
  options.seed = 31;
  options.initial = initial;
  options.warm_start = true;
  options.dirty_components = dirty;
  const AlgoResult result = registry.create(GetParam())->run(
      inst.system->model(), inst.objective, *inst.checker, options);
  ASSERT_TRUE(result.feasible) << result.notes;
  EXPECT_TRUE(inst.checker->feasible(result.deployment));
  // Every warm path considers the initial placement first, so the result
  // can never be worse than keeping the current deployment.
  EXPECT_GE(result.value, keep_value - 1e-12) << result.notes;
}

INSTANTIATE_TEST_SUITE_P(WarmAlgorithms, WarmStartTest,
                         ::testing::Values("hillclimb", "annealing", "avala",
                                           "decap"));

/// For the search algorithms whose evaluation count tracks the explored
/// neighbourhood, a warm run over a single host's components must cost
/// strictly fewer evaluations than a cold rerun (constructive algorithms
/// like avala count evaluations per candidate, not per probe, so they are
/// scored by wall-time in bench_scalability instead).
class WarmBudgetTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WarmBudgetTest, WarmUsesStrictlyFewerEvaluationsThanCold) {
  const auto registry = AlgorithmRegistry::with_defaults();
  Instance inst = make_instance(24, /*hosts=*/6, /*components=*/18);
  const std::vector<model::ComponentId> dirty = fluctuate_one_host(inst);
  ASSERT_FALSE(dirty.empty());
  AlgoOptions cold;
  cold.seed = 37;
  cold.initial = inst.system->deployment();
  const AlgoResult cold_result = registry.create(GetParam())->run(
      inst.system->model(), inst.objective, *inst.checker, cold);

  AlgoOptions warm = cold;
  warm.warm_start = true;
  warm.dirty_components = dirty;
  const AlgoResult warm_result = registry.create(GetParam())->run(
      inst.system->model(), inst.objective, *inst.checker, warm);

  ASSERT_TRUE(cold_result.feasible);
  ASSERT_TRUE(warm_result.feasible);
  EXPECT_LT(warm_result.evaluations, cold_result.evaluations)
      << GetParam() << ": warm " << warm_result.evaluations << " vs cold "
      << cold_result.evaluations;
}

INSTANTIATE_TEST_SUITE_P(SearchAlgorithms, WarmBudgetTest,
                         ::testing::Values("hillclimb", "annealing"));

}  // namespace
}  // namespace dif::algo
