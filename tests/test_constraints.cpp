// Unit tests for constraint specification and checking (model/constraints.h).
#include "model/constraints.h"

#include <gtest/gtest.h>

#include "check/static_analyzer.h"
#include "model/deployment_model.h"
#include "util/rng.h"
#include "test_names.h"

namespace dif::model {
namespace {

DeploymentModel make_model(std::size_t hosts, std::size_t comps,
                           double host_mem = 100.0, double comp_mem = 10.0) {
  DeploymentModel m;
  for (std::size_t h = 0; h < hosts; ++h)
    m.add_host({.name = test::numbered("h", h), .memory_capacity = host_mem});
  for (std::size_t c = 0; c < comps; ++c)
    m.add_component(
        {.name = test::numbered("c", c), .memory_size = comp_mem});
  return m;
}

TEST(ConstraintSet, DefaultAllowsEverything) {
  ConstraintSet cs;
  EXPECT_TRUE(cs.empty());
  EXPECT_TRUE(cs.host_allowed(0, 0));
  EXPECT_TRUE(cs.host_allowed(3, 7));
}

TEST(ConstraintSet, AllowOnlyRestricts) {
  ConstraintSet cs;
  cs.allow_only(1, {0, 2});
  EXPECT_TRUE(cs.host_allowed(1, 0));
  EXPECT_FALSE(cs.host_allowed(1, 1));
  EXPECT_TRUE(cs.host_allowed(1, 2));
  EXPECT_TRUE(cs.host_allowed(0, 1));  // other components unaffected
  EXPECT_THROW(cs.allow_only(2, {}), std::invalid_argument);
}

TEST(ConstraintSet, AllowOnlyReplacesPriorList) {
  ConstraintSet cs;
  cs.allow_only(0, {0});
  cs.allow_only(0, {1});
  EXPECT_FALSE(cs.host_allowed(0, 0));
  EXPECT_TRUE(cs.host_allowed(0, 1));
}

TEST(ConstraintSet, ForbidHostOverridesAllowList) {
  ConstraintSet cs;
  cs.allow_only(0, {0, 1});
  cs.forbid_host(0, 1);
  EXPECT_TRUE(cs.host_allowed(0, 0));
  EXPECT_FALSE(cs.host_allowed(0, 1));
}

TEST(ConstraintSet, PinIsSingletonAllowList) {
  ConstraintSet cs;
  cs.pin(2, 3);
  EXPECT_TRUE(cs.host_allowed(2, 3));
  EXPECT_FALSE(cs.host_allowed(2, 0));
}

TEST(ConstraintSet, SelfColocationRejected) {
  ConstraintSet cs;
  EXPECT_THROW(cs.require_colocation(1, 1), std::invalid_argument);
  EXPECT_THROW(cs.forbid_colocation(2, 2), std::invalid_argument);
}

TEST(ConstraintChecker, RequiresAtLeastOneHost) {
  DeploymentModel m;
  m.add_component({.name = "c"});
  ConstraintSet cs;
  EXPECT_THROW(ConstraintChecker(m, cs), std::invalid_argument);
}

TEST(ConstraintChecker, FeasibleWhenEverythingFits) {
  DeploymentModel m = make_model(2, 3);
  ConstraintSet cs;
  ConstraintChecker checker(m, cs);
  const Deployment d(std::vector<HostId>{0, 0, 1});
  EXPECT_TRUE(checker.feasible(d));
}

TEST(ConstraintChecker, DetectsUnassigned) {
  DeploymentModel m = make_model(2, 2);
  ConstraintSet cs;
  ConstraintChecker checker(m, cs);
  Deployment d(2);
  d.assign(0, 0);
  EXPECT_FALSE(checker.feasible(d));
  d.assign(1, 1);
  EXPECT_TRUE(checker.feasible(d));
  // A deployment sized for another model never counts as feasible.
  EXPECT_FALSE(checker.feasible(Deployment(std::vector<HostId>{0})));
}

TEST(ConstraintChecker, DetectsMemoryOverflow) {
  DeploymentModel m = make_model(2, 3, /*host_mem=*/25.0, /*comp_mem=*/10.0);
  ConstraintSet cs;
  ConstraintChecker checker(m, cs);
  // 30 KB on a 25 KB host; 20 KB fits.
  EXPECT_FALSE(checker.feasible(Deployment(std::vector<HostId>{0, 0, 0})));
  EXPECT_TRUE(checker.feasible(Deployment(std::vector<HostId>{0, 0, 1})));
}

TEST(ConstraintChecker, DetectsCpuOverload) {
  DeploymentModel m;
  m.add_host({.name = "h0", .memory_capacity = 100.0, .cpu_capacity = 1.0});
  m.add_component({.name = "c0", .memory_size = 1.0, .cpu_load = 0.7});
  m.add_component({.name = "c1", .memory_size = 1.0, .cpu_load = 0.7});
  ConstraintSet cs;
  ConstraintChecker checker(m, cs);
  EXPECT_FALSE(checker.feasible(Deployment(std::vector<HostId>{0, 0})));
  const Deployment first_placed(std::vector<HostId>{0, kNoHost});
  EXPECT_FALSE(checker.placement_ok(first_placed, 1, 0));
}

TEST(ConstraintChecker, CpuIgnoredWhenHostDoesNotModelIt) {
  DeploymentModel m;
  m.add_host({.name = "h0", .memory_capacity = 100.0, .cpu_capacity = 0.0});
  m.add_component({.name = "c0", .memory_size = 1.0, .cpu_load = 99.0});
  ConstraintSet cs;
  ConstraintChecker checker(m, cs);
  EXPECT_TRUE(checker.feasible(Deployment(std::vector<HostId>{0})));
}

TEST(ConstraintChecker, DetectsLocationViolation) {
  DeploymentModel m = make_model(3, 1);
  ConstraintSet cs;
  cs.allow_only(0, {1, 2});
  ConstraintChecker checker(m, cs);
  EXPECT_FALSE(checker.feasible(Deployment(std::vector<HostId>{0})));
  EXPECT_TRUE(checker.feasible(Deployment(std::vector<HostId>{2})));
  EXPECT_TRUE(checker.host_allowed(0, 1));
  EXPECT_FALSE(checker.host_allowed(0, 0));
}

TEST(ConstraintChecker, DetectsColocationViolations) {
  DeploymentModel m = make_model(2, 3);
  ConstraintSet cs;
  cs.require_colocation(0, 1);
  cs.forbid_colocation(1, 2);
  ConstraintChecker checker(m, cs);
  // 0 and 1 apart, or 1 and 2 together: each alone is a violation.
  EXPECT_FALSE(checker.feasible(Deployment(std::vector<HostId>{0, 1, 0})));
  EXPECT_FALSE(checker.feasible(Deployment(std::vector<HostId>{1, 1, 1})));
  EXPECT_TRUE(checker.feasible(Deployment(std::vector<HostId>{0, 0, 1})));
}

TEST(ConstraintChecker, PlacementOkChecksIncrementalState) {
  DeploymentModel m = make_model(2, 3, 25.0, 10.0);
  ConstraintSet cs;
  cs.require_colocation(0, 1);
  cs.forbid_colocation(0, 2);
  ConstraintChecker checker(m, cs);

  Deployment d(3);
  EXPECT_TRUE(checker.placement_ok(d, 0, 0));
  d.assign(0, 0);
  // Memory: a second 10 KB component fits (20 <= 25), a third would not.
  EXPECT_TRUE(checker.placement_ok(d, 1, 0));
  d.assign(1, 0);
  EXPECT_FALSE(checker.placement_ok(d, 2, 0));  // anti-pair with 0 + memory
  EXPECT_TRUE(checker.placement_ok(d, 2, 1));
  // Must-pair: moving 1 away from 0's host is not placement-ok.
  d.unassign(1);
  EXPECT_FALSE(checker.placement_ok(d, 1, 1));
}

TEST(ConstraintChecker, HostFreeMemory) {
  DeploymentModel m = make_model(2, 2, 30.0, 10.0);
  ConstraintSet cs;
  ConstraintChecker checker(m, cs);
  Deployment d(std::vector<HostId>{0, 0});
  EXPECT_DOUBLE_EQ(checker.host_free_memory(d, 0), 10.0);
  EXPECT_DOUBLE_EQ(checker.host_free_memory(d, 1), 30.0);
}

/// Property sweep: with many hosts, the compiled bitmask path (>64 hosts
/// forces multi-word rows) must agree with the rule-level implementation.
class CompiledMaskTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CompiledMaskTest, MatchesRuleLevelAnswer) {
  const std::size_t hosts = GetParam();
  DeploymentModel m = make_model(hosts, 4);
  ConstraintSet cs;
  cs.allow_only(0, {0, static_cast<HostId>(hosts - 1)});
  cs.forbid_host(1, static_cast<HostId>(hosts / 2));
  ConstraintChecker checker(m, cs);
  for (std::size_t c = 0; c < 4; ++c)
    for (std::size_t h = 0; h < hosts; ++h)
      EXPECT_EQ(checker.host_allowed(static_cast<ComponentId>(c),
                                     static_cast<HostId>(h)),
                cs.host_allowed(static_cast<ComponentId>(c),
                                static_cast<HostId>(h)))
          << "c=" << c << " h=" << h;
}

INSTANTIATE_TEST_SUITE_P(HostCounts, CompiledMaskTest,
                         ::testing::Values(1, 2, 63, 64, 65, 130));


// The one allow-mask builder (allowed_host_masks) against the rule-level
// ConstraintSet::host_allowed, through both consumers of its rows, on
// randomized rule sets: pins, forbids overlapping allow-lists (the forbid
// wins), allow-lists naming hosts >= k and rules on component ids >= n.
TEST(AllowedHostMasks, MatchRuleLevelHostAllowedOnRandomRuleSets) {
  constexpr std::size_t kComponents = 24;
  for (const std::size_t hosts : {0, 1, 63, 64, 65, 130}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("k=" + std::to_string(hosts) + " seed=" +
                   std::to_string(seed));
      util::Xoshiro256ss rng(seed * 1000 + hosts);
      const auto any_component = [&] {
        return static_cast<ComponentId>(rng.index(kComponents + 4));
      };
      const auto any_host = [&] {
        return static_cast<HostId>(rng.index(hosts + 6));
      };
      const DeploymentModel m = make_model(hosts, kComponents);
      ConstraintSet cs;
      for (int i = 0; i < 10; ++i) {
        std::vector<HostId> allowed(1 + rng.index(5));
        for (HostId& h : allowed) h = any_host();
        cs.allow_only(any_component(), std::move(allowed));
      }
      for (int i = 0; i < 6; ++i) cs.pin(any_component(), any_host());
      for (int i = 0; i < 8; ++i) cs.forbid_host(any_component(), any_host());
      // Forbids on hosts an allow-list (or pin) names.
      for (const auto& [c, allowed] : cs.allow_lists())
        if (rng.chance(0.5))
          cs.forbid_host(c, allowed[rng.index(allowed.size())]);

      const std::vector<std::uint64_t> rows =
          allowed_host_masks(cs, kComponents, hosts);
      const std::size_t words = (hosts + 63) / 64;
      ASSERT_EQ(rows.size(), kComponents * words);
      const check::AnalysisContext context(m, cs);
      for (std::size_t c = 0; c < kComponents; ++c) {
        std::size_t legal = 0;
        for (std::size_t h = 0; h < hosts; ++h) {
          const bool expected = cs.host_allowed(static_cast<ComponentId>(c),
                                                static_cast<HostId>(h));
          legal += expected ? 1 : 0;
          EXPECT_EQ(context.allowed(c, h), expected) << "c=" << c << " h=" << h;
        }
        EXPECT_EQ(context.allowed_count(c), legal) << "c=" << c;
        for (std::size_t h = hosts; h < words * 64; ++h)
          EXPECT_EQ((rows[c * words + h / 64] >> (h % 64)) & 1u, 0u)
              << "tail bit c=" << c << " h=" << h;
      }
      if (hosts == 0) continue;  // the checker requires a host
      const ConstraintChecker checker(m, cs);
      for (std::size_t c = 0; c < kComponents; ++c)
        for (std::size_t h = 0; h < hosts; ++h)
          EXPECT_EQ(checker.host_allowed(static_cast<ComponentId>(c),
                                         static_cast<HostId>(h)),
                    cs.host_allowed(static_cast<ComponentId>(c),
                                    static_cast<HostId>(h)))
              << "c=" << c << " h=" << h;
    }
  }
}

}  // namespace
}  // namespace dif::model
