// Golden objective values: every built-in objective, pinned bit-exactly on
// fixed generated systems. Any change to a term formula, to the order terms
// are summed in, or to a score transform fails here, even one far below the
// tolerance of the agreement tests.
//
// Each system is perturbed so that every branch of every term is taken:
// unassigned components, collocated (local) interaction pairs, links that
// carry reliability but no bandwidth, and security requirements that some
// links meet and others do not.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <ostream>
#include <sstream>

#include "desi/generator.h"
#include "model/incremental.h"
#include "model/objective.h"

namespace dif::model {
namespace {

struct Golden {
  std::uint64_t seed;
  double availability;
  double latency;
  double comm_cost;
  double security;
  double latency_score;
  double comm_cost_score;
  double weighted;
};

/// Prints the row's seed; ctest lists each row under it.
void PrintTo(const Golden& golden, std::ostream* out) { *out << golden.seed; }

// Captured as hexfloats so that the comparison is on exact bits.
constexpr Golden kGolden[] = {
    {3, 0x1.431453fbf264cp-2, 0x1.18c242e777c5ap+20, 0x1.7f14bff4ab419p+7,
     0x1.398f443a9adb3p-1, 0x1.c782dd8fea0a8p-11, 0x1.adb22226532e1p-1,
     0x1.aab63e081b5dp-2},
    {11, 0x1.69d7287f4295dp-2, 0x1.7ddeae10d78fbp+20, 0x1.ee724f8f9160ap+7,
     0x1.60f7237c36dd2p-1, 0x1.4efa84404fe7p-11, 0x1.9a830c52ec495p-1,
     0x1.c242092c95868p-2},
    {42, 0x1.853c4a874cfdep-2, 0x1.55240a39b3e37p+20, 0x1.a6af397a2ef5dp+7,
     0x1.22743029b0f99p-1, 0x1.76f17e33cc203p-11, 0x1.a6abf019752eep-1,
     0x1.b91742dd99a3bp-2},
};

struct Fixture {
  std::unique_ptr<desi::SystemData> system;
  Deployment deployment{0};
};

Fixture make_fixture(std::uint64_t seed) {
  Fixture f;
  f.system = desi::Generator::generate(
      {.hosts = 6,
       .components = 18,
       .link_density = 0.5,
       .interaction_density = 0.3},
      seed);
  DeploymentModel& m = f.system->model();

  // Security levels on every connected link and on every third interaction.
  for (HostId a = 0; a < m.host_count(); ++a)
    for (HostId b = a + 1; b < m.host_count(); ++b) {
      if (!m.connected(a, b)) continue;
      PhysicalLink link = m.physical_link(a, b);
      link.properties.set("security", static_cast<double>((a + b) % 3));
      m.set_physical_link(a, b, std::move(link));
    }
  const std::vector<Interaction> interactions(m.interactions().begin(),
                                              m.interactions().end());
  for (std::size_t i = 0; i < interactions.size(); i += 3) {
    LogicalLink link = m.logical_link(interactions[i].a, interactions[i].b);
    link.properties.set("required_security", static_cast<double>(i % 4));
    m.set_logical_link(interactions[i].a, interactions[i].b, std::move(link));
  }

  // One connected link loses its bandwidth but keeps its reliability:
  // availability still counts it, latency charges the penalty.
  bool zeroed = false;
  for (HostId a = 0; a < m.host_count() && !zeroed; ++a)
    for (HostId b = a + 1; b < m.host_count() && !zeroed; ++b) {
      if (!m.connected(a, b)) continue;
      PhysicalLink link = m.physical_link(a, b);
      link.bandwidth = 0.0;
      m.set_physical_link(a, b, std::move(link));
      zeroed = true;
    }

  // Collocate two interacting pairs, then unassign two other components.
  f.deployment = f.system->deployment();
  for (const std::size_t i : {std::size_t{1}, std::size_t{2}})
    f.deployment.assign(interactions[i].b,
                        f.deployment.host_of(interactions[i].a));
  f.deployment.unassign(interactions[4].a);
  f.deployment.unassign(interactions[6].b);
  return f;
}

std::string hex(double value) {
  std::ostringstream out;
  out << std::hexfloat << value;
  return out.str();
}

void expect_bits(double actual, double expected, const char* what,
                 std::uint64_t seed) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << what << " on seed " << seed << ": got " << hex(actual)
      << ", pinned " << hex(expected);
}

class ObjectiveGoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(ObjectiveGoldenTest, ValuesMatchPinnedBits) {
  const Golden& golden = GetParam();
  const Fixture f = make_fixture(golden.seed);
  const DeploymentModel& m = f.system->model();
  const Deployment& d = f.deployment;

  auto availability = std::make_shared<AvailabilityObjective>();
  auto latency = std::make_shared<LatencyObjective>();
  auto comm_cost = std::make_shared<CommunicationCostObjective>();
  auto security = std::make_shared<SecurityObjective>();
  const WeightedObjective weighted({{availability, 2.0},
                                    {latency, 1.0},
                                    {comm_cost, 1.0},
                                    {security, 1.0}});

  expect_bits(availability->evaluate(m, d), golden.availability,
              "availability", golden.seed);
  expect_bits(latency->evaluate(m, d), golden.latency, "latency",
              golden.seed);
  expect_bits(comm_cost->evaluate(m, d), golden.comm_cost, "comm-cost",
              golden.seed);
  expect_bits(security->evaluate(m, d), golden.security, "security",
              golden.seed);
  expect_bits(latency->score(m, d), golden.latency_score, "latency score",
              golden.seed);
  expect_bits(comm_cost->score(m, d), golden.comm_cost_score,
              "comm-cost score", golden.seed);
  expect_bits(weighted.evaluate(m, d), golden.weighted, "weighted",
              golden.seed);
}

// The incremental evaluator sums the same terms in the same order on reset,
// so a fresh reset lands on the same bits as the full evaluation.
TEST_P(ObjectiveGoldenTest, IncrementalResetMatchesPinnedBits) {
  const Golden& golden = GetParam();
  const Fixture f = make_fixture(golden.seed);
  const DeploymentModel& m = f.system->model();

  const AvailabilityObjective availability;
  const LatencyObjective latency;
  const CommunicationCostObjective comm_cost;
  const std::pair<const Objective*, double> cases[] = {
      {&availability, golden.availability},
      {&latency, golden.latency},
      {&comm_cost, golden.comm_cost}};
  for (const auto& [objective, expected] : cases) {
    auto inc = IncrementalEvaluator::try_create(*objective, m);
    ASSERT_TRUE(inc.has_value()) << objective->name();
    inc->reset(f.deployment);
    expect_bits(inc->value(), expected,
                std::string(objective->name()).c_str(), golden.seed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObjectiveGoldenTest,
                         ::testing::ValuesIn(kGolden));

}  // namespace
}  // namespace dif::model
