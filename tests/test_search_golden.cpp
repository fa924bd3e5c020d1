// Golden search outcomes: the hill climb and Avala, pinned bit-exactly on a
// corpus of generated systems. A change meant only for speed (the hill
// climb's link-free far probes, Avala's sparse warm-repair affinity and its
// host ranking over stored links) must leave every row here unchanged: the
// deployment found, the value's exact bits, the evaluation count and whether
// the budget ran out.
//
// The corpus covers cold and warm runs, binding and slack evaluation caps,
// all three decomposable objectives, collocation groups with internal
// interactions, tight memory, and links that carry zero reliability or were
// cleared. Hosts have ~3 links and components ~4 interactions, so most
// probes of a group land on hosts with no link to any of its partners.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "algo/avala.h"
#include "algo/local_search.h"
#include "desi/generator.h"
#include "model/constraints.h"
#include "model/objective.h"

namespace dif::algo {
namespace {

enum class Kind { kAvailability, kLatency, kCommCost };

struct Case {
  const char* name;
  std::uint64_t seed;
  Kind kind;
  bool warm;
  /// 0 leaves the search uncapped.
  std::uint64_t max_evaluations;
  bool tight_memory;
  /// Zero some links' reliability and clear others after generation.
  bool degraded_links;
  /// Must-collocate pairs, each given an interaction of its own.
  std::size_t colocation_pairs;
};

struct Golden {
  const char* name;
  std::uint64_t deployment_hash;
  double value;
  std::uint64_t evaluations;
  bool budget_exhausted;
};

/// Prints the row's name; ctest lists each row under it.
void PrintTo(const Case& c, std::ostream* out) { *out << c.name; }

std::unique_ptr<desi::SystemData> make_system(const Case& c) {
  desi::GeneratorSpec spec;
  spec.hosts = 48;
  spec.components = 96;
  spec.link_density = 3.0 / 48.0;
  spec.interaction_density = 4.0 / 96.0;
  spec.colocation_pairs = c.colocation_pairs;
  if (c.tight_memory) spec.host_memory = {14.0, 20.0};
  auto system = desi::Generator::generate(spec, c.seed);
  model::DeploymentModel& m = system->model();
  for (const auto& [a, b] : system->constraints().colocation_pairs())
    m.set_logical_link(
        a, b, {.frequency = 3.5, .avg_event_size = 0.75, .properties = {}});
  if (c.degraded_links) {
    std::size_t seen = 0;
    for (model::HostId a = 0; a < m.host_count(); ++a)
      for (model::HostId b = a + 1; b < m.host_count(); ++b) {
        if (!m.connected(a, b)) continue;
        if (seen % 5 == 0) m.set_link_reliability(a, b, 0.0);
        if (seen % 7 == 3) m.clear_physical_link(a, b);
        ++seen;
      }
  }
  return system;
}

std::unique_ptr<model::Objective> make_objective(Kind kind) {
  switch (kind) {
    case Kind::kAvailability:
      return std::make_unique<model::AvailabilityObjective>();
    case Kind::kLatency:
      return std::make_unique<model::LatencyObjective>();
    case Kind::kCommCost:
      return std::make_unique<model::CommunicationCostObjective>();
  }
  return nullptr;
}

/// A warm start: the generated placement, with the components on hosts
/// 0..5 dirty (as after a monitor update touching those hosts).
AlgoOptions make_options(const Case& c, const desi::SystemData& system) {
  AlgoOptions options;
  options.seed = c.seed * 7 + 1;
  options.max_evaluations = c.max_evaluations;
  if (c.warm) {
    options.initial = system.deployment();
    options.warm_start = true;
    for (model::ComponentId comp = 0; comp < system.deployment().size();
         ++comp)
      if (system.deployment().host_of(comp) < 6)
        options.dirty_components.push_back(comp);
  }
  return options;
}

/// FNV-1a over the host of every component.
std::uint64_t hash_of(const model::Deployment& d) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (model::ComponentId c = 0; c < d.size(); ++c) {
    hash ^= d.host_of(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Runs `algorithm` on the case and compares with its pinned row; on a
/// mismatch prints the row the run produced, ready to paste.
AlgoResult expect_golden(Algorithm& algorithm, const Case& c,
                         const std::vector<Golden>& table) {
  const auto system = make_system(c);
  const auto objective = make_objective(c.kind);
  const model::ConstraintChecker checker(system->model(),
                                         system->constraints());
  const AlgoResult result = algorithm.run(system->model(), *objective,
                                          checker, make_options(c, *system));
  EXPECT_TRUE(result.feasible) << c.name;
  EXPECT_TRUE(checker.feasible(result.deployment)) << c.name;

  char row[160];
  std::snprintf(row, sizeof row, "{\"%s\", 0x%016llxull, %a, %llu, %s},",
                c.name,
                static_cast<unsigned long long>(hash_of(result.deployment)),
                result.value,
                static_cast<unsigned long long>(result.evaluations),
                result.budget_exhausted ? "true" : "false");
  const Golden* golden = nullptr;
  for (const Golden& g : table)
    if (std::string(g.name) == c.name) golden = &g;
  if (golden == nullptr) {
    ADD_FAILURE() << "no pinned row; this run gives\n" << row;
    return result;
  }
  EXPECT_EQ(hash_of(result.deployment), golden->deployment_hash) << row;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.value),
            std::bit_cast<std::uint64_t>(golden->value))
      << row;
  EXPECT_EQ(result.evaluations, golden->evaluations) << row;
  EXPECT_EQ(result.budget_exhausted, golden->budget_exhausted) << row;
  return result;
}

constexpr Case kHillClimbCases[] = {
    {"avail_cold_slack_coloc", 3, Kind::kAvailability, false, 0, false, false,
     6},
    {"avail_cold_binding", 5, Kind::kAvailability, false, 3000, false, false,
     0},
    {"avail_warm_slack", 7, Kind::kAvailability, true, 0, false, false, 4},
    {"avail_warm_binding", 9, Kind::kAvailability, true, 500, false, false, 0},
    {"avail_cold_tight_degraded_coloc", 11, Kind::kAvailability, false, 0,
     true, true, 8},
    {"latency_cold_slack_degraded", 13, Kind::kLatency, false, 0, false, true,
     0},
    {"latency_warm_slack_degraded_coloc", 15, Kind::kLatency, true, 0, false,
     true, 6},
    {"latency_cold_binding_coloc", 17, Kind::kLatency, false, 2500, false,
     false, 6},
    {"comm_cold_binding_tight", 19, Kind::kCommCost, false, 4000, true, false,
     0},
    {"comm_warm_slack_tight_coloc", 21, Kind::kCommCost, true, 0, true, false,
     6},
    {"comm_warm_binding_degraded", 23, Kind::kCommCost, true, 300, false, true,
     0},
};

// Captured before the far-probe rule existed: every probe then read its
// links from the table.
const std::vector<Golden> kHillClimbGolden = {
    {"avail_cold_slack_coloc",
     0x66203a1c8e1de406ull, 0x1.8308f08a77efdp-1, 62702, false},
    {"avail_cold_binding",
     0x8eb6de5805523024ull, 0x1.2f88dc32cfbc2p-1, 3000, true},
    {"avail_warm_slack",
     0x53e5be7adb10c7d6ull, 0x1.2153d7886877fp-1, 7654, false},
    {"avail_warm_binding",
     0xed4e4bddb4ef93bcull, 0x1.89eab1d3aa75ep-3, 500, true},
    {"avail_cold_tight_degraded_coloc",
     0xc390fadb52e15ee5ull, 0x1.274462cd20c1bp-1, 47228, false},
    {"latency_cold_slack_degraded",
     0xb490fc9193132fb9ull, 0x1.1f8689703a8cfp+19, 141857, false},
    {"latency_warm_slack_degraded_coloc",
     0x9259ffa036f48cc4ull, 0x1.a1f5eb4d0345fp+21, 12075, false},
    {"latency_cold_binding_coloc",
     0x54dcb68e5f2e0241ull, 0x1.a750883170a94p+21, 2500, true},
    {"comm_cold_binding_tight",
     0x4dd359f3989c0cd2ull, 0x1.ee67408dd2717p+9, 4000, true},
    {"comm_warm_slack_tight_coloc",
     0x26280aef1100887cull, 0x1.d726f22844f44p+9, 1775, false},
    {"comm_warm_binding_degraded",
     0xf18b028f61744d3full, 0x1.c20660e3417dp+9, 300, true},
};

class HillClimbGolden : public ::testing::TestWithParam<Case> {};

TEST_P(HillClimbGolden, MatchesPinnedOutcome) {
  HillClimbAlgorithm algorithm;
  expect_golden(algorithm, GetParam(), kHillClimbGolden);
}

INSTANTIATE_TEST_SUITE_P(Corpus, HillClimbGolden,
                         ::testing::ValuesIn(kHillClimbCases));

constexpr Case kAvalaCases[] = {
    {"avala_warm_avail_coloc", 31, Kind::kAvailability, true, 0, false, false,
     6},
    {"avala_warm_tight_degraded", 33, Kind::kAvailability, true, 0, true, true,
     4},
    {"avala_warm_latency", 35, Kind::kLatency, true, 0, false, true, 0},
    {"avala_cold_avail_degraded", 37, Kind::kAvailability, false, 0, false,
     true, 4},
    {"avala_cold_tight", 39, Kind::kAvailability, false, 0, true, false, 0},
};

// Captured while the warm repair still kept a dense dirty x hosts affinity
// array and the cold host ranking read every host pair.
const std::vector<Golden> kAvalaGolden = {
    {"avala_warm_avail_coloc",
     0xa4ecad5c4f1f0d0full, 0x1.a4819e7bfc678p-3, 2, false},
    {"avala_warm_tight_degraded",
     0x8b7f637b954871e3ull, 0x1.3bfcc959fb53dp-4, 2, false},
    {"avala_warm_latency",
     0x5321203502d28713ull, 0x1.08120b6899bc7p+23, 2, false},
    {"avala_cold_avail_degraded",
     0x5148f44995be2c82ull, 0x1.15781cc1e5b95p-1, 1, false},
    {"avala_cold_tight",
     0x79fef557f0fafe60ull, 0x1.dc2e2a959c8e3p-3, 1, false},
};

class AvalaGolden : public ::testing::TestWithParam<Case> {};

TEST_P(AvalaGolden, MatchesPinnedOutcome) {
  AvalaAlgorithm algorithm;
  const AlgoResult result = expect_golden(algorithm, GetParam(), kAvalaGolden);
  if (GetParam().warm) {
    EXPECT_EQ(result.notes, "warm repair");
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, AvalaGolden,
                         ::testing::ValuesIn(kAvalaCases));

}  // namespace
}  // namespace dif::algo
