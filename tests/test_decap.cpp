// Tests for the decentralized auction algorithm (algo/decap.h).
#include "algo/decap.h"

#include <gtest/gtest.h>

#include "algo/exact.h"
#include "desi/generator.h"

namespace dif::algo {
namespace {

TEST(AwarenessGraph, FullGraphConnectsEveryPair) {
  const AwarenessGraph g = AwarenessGraph::full(5);
  for (model::HostId a = 0; a < 5; ++a)
    for (model::HostId b = 0; b < 5; ++b) EXPECT_TRUE(g.aware(a, b));
  EXPECT_DOUBLE_EQ(g.density(), 1.0);
  EXPECT_EQ(g.neighbors(2).size(), 4u);
}

TEST(AwarenessGraph, SelfAwarenessAlwaysHolds) {
  util::Xoshiro256ss rng(1);
  const AwarenessGraph g = AwarenessGraph::random(6, 0.0, rng);
  for (model::HostId h = 0; h < 6; ++h) {
    EXPECT_TRUE(g.aware(h, h));
    EXPECT_TRUE(g.neighbors(h).empty());
  }
  EXPECT_DOUBLE_EQ(g.density(), 0.0);
}

TEST(AwarenessGraph, FromLinksMirrorsConnectivity) {
  const auto system = desi::Generator::generate(
      {.hosts = 6, .components = 6, .link_density = 0.3}, 7);
  const model::DeploymentModel& m = system->model();
  const AwarenessGraph g = AwarenessGraph::from_links(m);
  for (std::size_t a = 0; a < 6; ++a)
    for (std::size_t b = 0; b < 6; ++b)
      if (a != b) {
        EXPECT_EQ(g.aware(static_cast<model::HostId>(a),
                          static_cast<model::HostId>(b)),
                  m.connected(static_cast<model::HostId>(a),
                              static_cast<model::HostId>(b)));
      }
}

TEST(AwarenessGraph, RandomIsSymmetricAndSeeded) {
  util::Xoshiro256ss rng1(9), rng2(9);
  const AwarenessGraph a = AwarenessGraph::random(8, 0.5, rng1);
  const AwarenessGraph b = AwarenessGraph::random(8, 0.5, rng2);
  for (model::HostId x = 0; x < 8; ++x)
    for (model::HostId y = 0; y < 8; ++y) {
      EXPECT_EQ(a.aware(x, y), a.aware(y, x));
      EXPECT_EQ(a.aware(x, y), b.aware(x, y));
    }
}

class DecApTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecApTest, ImprovesOverInitialDeployment) {
  const auto system = desi::Generator::generate(
      {.hosts = 6, .components = 16, .interaction_density = 0.3}, GetParam());
  const model::ConstraintChecker checker(system->model(),
                                         system->constraints());
  const model::AvailabilityObjective objective;
  DecApAlgorithm decap;
  AlgoOptions options;
  options.seed = GetParam();
  options.initial = system->deployment();
  const double initial_value =
      objective.evaluate(system->model(), system->deployment());
  const AlgoResult result =
      decap.run(system->model(), objective, checker, options);
  ASSERT_TRUE(result.feasible);
  // With awareness == physical connectivity, a move is only accepted when a
  // bidder values the component more than its current host does; global
  // availability must not collapse (and typically improves).
  EXPECT_GE(result.value + 0.05, initial_value);
}

TEST_P(DecApTest, ResultSatisfiesConstraints) {
  const auto system = desi::Generator::generate(
      {.hosts = 5,
       .components = 12,
       .location_constraints = 2,
       .colocation_pairs = 1,
       .anti_colocation_pairs = 1},
      GetParam());
  const model::ConstraintChecker checker(system->model(),
                                         system->constraints());
  const model::AvailabilityObjective objective;
  DecApAlgorithm decap;
  AlgoOptions options;
  options.seed = GetParam();
  options.initial = system->deployment();
  const AlgoResult result =
      decap.run(system->model(), objective, checker, options);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(checker.feasible(result.deployment));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecApTest, ::testing::Values(3, 5, 8, 13));

TEST(DecAp, FullAwarenessApproachesCentralizedQuality) {
  double decap_total = 0.0, exact_total = 0.0, initial_total = 0.0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    const auto system = desi::Generator::generate(
        {.hosts = 4, .components = 10, .link_density = 1.0}, 200 + t);
    const model::ConstraintChecker checker(system->model(),
                                           system->constraints());
    const model::AvailabilityObjective objective;
    AlgoOptions options;
    options.seed = 200 + t;
    options.initial = system->deployment();

    DecApAlgorithm decap({.max_rounds = 16, .min_gain = 1e-9},
                         AwarenessGraph::full(4));
    ExactAlgorithm exact;
    initial_total += objective.evaluate(system->model(), system->deployment());
    decap_total +=
        decap.run(system->model(), objective, checker, options).value;
    exact_total +=
        exact.run(system->model(), objective, checker, options).value;
  }
  EXPECT_GT(decap_total, initial_total);   // significant improvement
  EXPECT_LE(decap_total, exact_total + 1e-9);  // bounded by the optimum
  // The paper's claim: DecAp recovers most of the centralized gain.
  EXPECT_GT(decap_total - initial_total,
            0.4 * (exact_total - initial_total));
}

TEST(DecAp, ZeroAwarenessMeansNoMigrations) {
  const auto system =
      desi::Generator::generate({.hosts = 5, .components = 10}, 42);
  const model::ConstraintChecker checker(system->model(),
                                         system->constraints());
  const model::AvailabilityObjective objective;
  util::Xoshiro256ss rng(42);
  DecApAlgorithm decap({}, AwarenessGraph::random(5, 0.0, rng));
  AlgoOptions options;
  options.initial = system->deployment();
  const AlgoResult result =
      decap.run(system->model(), objective, checker, options);
  EXPECT_EQ(decap.stats().migrations, 0u);
  EXPECT_EQ(result.migrations, 0u);
  EXPECT_EQ(result.deployment, system->deployment());
}

TEST(DecAp, StatsCountProtocolActivity) {
  const auto system =
      desi::Generator::generate({.hosts = 5, .components = 12}, 21);
  const model::ConstraintChecker checker(system->model(),
                                         system->constraints());
  const model::AvailabilityObjective objective;
  DecApAlgorithm decap;
  AlgoOptions options;
  options.seed = 21;
  options.initial = system->deployment();
  (void)decap.run(system->model(), objective, checker, options);
  EXPECT_GT(decap.stats().auctions, 0u);
  EXPECT_GT(decap.stats().messages, decap.stats().auctions);
  EXPECT_GE(decap.stats().rounds, 1u);
}

TEST(DecAp, NotesContainProtocolSummary) {
  const auto system =
      desi::Generator::generate({.hosts = 4, .components = 8}, 22);
  const model::ConstraintChecker checker(system->model(),
                                         system->constraints());
  const model::AvailabilityObjective objective;
  DecApAlgorithm decap;
  AlgoOptions options;
  options.initial = system->deployment();
  const AlgoResult result =
      decap.run(system->model(), objective, checker, options);
  EXPECT_NE(result.notes.find("rounds="), std::string::npos);
  EXPECT_NE(result.notes.find("messages="), std::string::npos);
}

}  // namespace
}  // namespace dif::algo
