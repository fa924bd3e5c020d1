// Portfolio runner behaviour: deadline enforcement against a deliberately
// slow algorithm, evaluation caps, external cancellation, and the
// Algorithm-interface adapter. TSan-clean by construction (CI runs this
// binary under -DDIF_SANITIZE=thread).
#include <gtest/gtest.h>

#include <chrono>

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
      {.hosts = hosts, .components = components, .interaction_density = 0.3},
      seed);
  inst.checker = std::make_unique<model::ConstraintChecker>(
      inst.system->model(), inst.system->constraints());
  return inst;
}

/// A stub that finds one feasible deployment immediately, then grinds
/// through (nominally) unbounded evaluations — it terminates in reasonable
/// time only if SearchState::out_of_budget() actually cuts it off.
class SlowAlgorithm final : public Algorithm {
 public:
  [[nodiscard]] std::string_view name() const override { return "slow-stub"; }

  [[nodiscard]] AlgoResult run(const model::DeploymentModel& model,
                               const model::Objective& objective,
                               const model::ConstraintChecker& checker,
                               const AlgoOptions& options) override {
    SearchState search(model, objective, options);
    if (options.initial && checker.feasible(*options.initial)) {
      search.consider(*options.initial);
      // Nominally endless improvement loop; only budgets/cancel end it.
      while (!search.out_of_budget()) search.consider(*options.initial);
    }
    return search.finish(std::string(name()));
  }
};

TEST(PortfolioRunner, DeadlineStopsSlowAlgorithmPromptly) {
  Instance inst = make_instance(1);

  PortfolioOptions options;
  options.threads = 2;
  options.deadline_seconds = 0.2;
  options.initial = inst.system->deployment();
  PortfolioRunner runner(options);
  runner.add(std::make_unique<SlowAlgorithm>());
  runner.add(AlgorithmRegistry::with_defaults().create("stochastic"));

  const auto t0 = std::chrono::steady_clock::now();
  const PortfolioResult result =
      runner.run(inst.system->model(), inst.objective, *inst.checker);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // "Promptly": well under 10x the deadline, not the stub's nominal forever.
  EXPECT_LT(elapsed, 2.0);
  ASSERT_EQ(result.runs.size(), 2u);
  const AlgoResult& slow = result.runs[0];
  EXPECT_TRUE(slow.budget_exhausted);
  ASSERT_TRUE(slow.feasible);  // best-so-far survives the cutoff
  EXPECT_TRUE(inst.checker->feasible(slow.deployment));
  ASSERT_TRUE(result.feasible());
  EXPECT_TRUE(inst.checker->feasible(result.best.deployment));
}

TEST(PortfolioRunner, EvaluationCapStopsSlowAlgorithm) {
  Instance inst = make_instance(2);

  PortfolioOptions options;
  options.threads = 1;
  options.max_evaluations = 5000;
  options.initial = inst.system->deployment();
  PortfolioRunner runner(options);
  runner.add(std::make_unique<SlowAlgorithm>());

  const PortfolioResult result =
      runner.run(inst.system->model(), inst.objective, *inst.checker);
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_TRUE(result.runs[0].budget_exhausted);
  EXPECT_EQ(result.runs[0].evaluations, 5000u);
  EXPECT_TRUE(result.runs[0].feasible);
  EXPECT_FALSE(result.deadline_hit);
}

TEST(PortfolioRunner, ExternalCancelTokenPreemptsTheRace) {
  Instance inst = make_instance(3);

  CancelToken external;
  external.cancel();  // already cancelled before the race starts

  PortfolioOptions options;
  options.threads = 2;
  options.cancel = &external;
  options.initial = inst.system->deployment();
  PortfolioRunner runner(options);
  runner.add(std::make_unique<SlowAlgorithm>());
  runner.add(std::make_unique<SlowAlgorithm>());

  const auto t0 = std::chrono::steady_clock::now();
  const PortfolioResult result =
      runner.run(inst.system->model(), inst.objective, *inst.checker);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 2.0);
  for (const AlgoResult& r : result.runs) EXPECT_TRUE(r.budget_exhausted);
}

TEST(PortfolioRunner, EmptyPortfolioReportsInfeasible) {
  Instance inst = make_instance(4);
  PortfolioRunner runner;
  const PortfolioResult result =
      runner.run(inst.system->model(), inst.objective, *inst.checker);
  EXPECT_FALSE(result.feasible());
  EXPECT_TRUE(result.runs.empty());
}

TEST(PortfolioRunner, MoreThreadsThanEntriesIsFine) {
  Instance inst = make_instance(5);
  PortfolioOptions options;
  options.threads = 16;
  options.max_evaluations = 2000;
  options.initial = inst.system->deployment();
  PortfolioRunner runner(options);
  runner.add_from_registry(AlgorithmRegistry::with_defaults(),
                           {"stochastic", "avala"});
  const PortfolioResult result =
      runner.run(inst.system->model(), inst.objective, *inst.checker);
  ASSERT_TRUE(result.feasible());
  EXPECT_TRUE(inst.checker->feasible(result.best.deployment));
}

}  // namespace
}  // namespace dif::algo
