// Defect corpus for the static deployment-model analyzer (check/).
//
// Every rule gets at least one seeded-positive model it must flag (with the
// correct rule id) and one near-miss negative it must stay silent on.
#include "check/static_analyzer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "check/preflight.h"
#include "desi/algorithm_container.h"
#include "desi/generator.h"
#include "model/constraints.h"
#include "model/deployment_model.h"
#include "model/objective.h"
#include "test_names.h"

namespace dif::check {
namespace {

using model::ComponentId;
using model::ConstraintSet;
using model::DeploymentModel;
using model::HostId;

/// k fully-connected hosts (mem 100) and n components (mem 10).
DeploymentModel make_model(std::size_t hosts, std::size_t comps,
                          double host_mem = 100.0, double comp_mem = 10.0) {
  DeploymentModel m;
  for (std::size_t h = 0; h < hosts; ++h)
    m.add_host({.name = test::numbered("h", h), .memory_capacity = host_mem});
  for (std::size_t c = 0; c < comps; ++c)
    m.add_component(
        {.name = test::numbered("c", c), .memory_size = comp_mem});
  for (std::size_t a = 0; a < hosts; ++a)
    for (std::size_t b = a + 1; b < hosts; ++b)
      m.set_physical_link(static_cast<HostId>(a), static_cast<HostId>(b),
                          {.reliability = 0.9, .bandwidth = 100.0});
  return m;
}

std::size_t errors_of(const CheckReport& report, Rule rule) {
  std::size_t n = 0;
  for (const Diagnostic& d : report.diagnostics())
    if (d.rule == rule && d.severity == Severity::kError) ++n;
  return n;
}

// --- dangling-reference ----------------------------------------------------

TEST(CheckDanglingReference, FlagsConstraintsOverMissingEntities) {
  const DeploymentModel m = make_model(2, 3);
  ConstraintSet cs;
  cs.pin(7, 0);                  // no component 7
  cs.allow_only(0, {5});         // no host 5
  cs.require_colocation(1, 9);   // no component 9
  cs.forbid_colocation(2, 8);    // no component 8
  cs.forbid_host(6, 1);          // no component 6
  const CheckReport report = run_checks(m, cs);
  EXPECT_TRUE(report.has(Rule::kDanglingReference));
  EXPECT_GE(errors_of(report, Rule::kDanglingReference), 5u);
}

TEST(CheckDanglingReference, SilentOnBoundaryIds) {
  const DeploymentModel m = make_model(2, 3);
  ConstraintSet cs;
  cs.pin(2, 1);                 // last component, last host
  cs.require_colocation(0, 2);
  cs.forbid_host(1, 0);
  const CheckReport report = run_checks(m, cs);
  EXPECT_FALSE(report.has(Rule::kDanglingReference));
}

// --- param-range -----------------------------------------------------------

TEST(CheckParamRange, FlagsOutOfDomainParameters) {
  DeploymentModel m = make_model(3, 2);
  m.set_physical_link(0, 1, {.reliability = 1.5, .bandwidth = 10.0});
  m.set_physical_link(1, 2, {.reliability = 0.9, .bandwidth = -4.0});
  m.set_physical_link(
      0, 2, {.reliability = -0.2, .bandwidth = 10.0, .delay_ms = -1.0});
  m.set_logical_link(0, 1, {.frequency = -1.0, .avg_event_size = -0.5});
  m.host(0).memory_capacity = -10.0;
  m.host(1).cpu_capacity = -1.0;
  m.host(2).memory_capacity = std::numeric_limits<double>::infinity();
  m.component(0).memory_size = -3.0;
  m.component(1).cpu_load = std::nan("");
  const CheckReport report = run_checks(m, ConstraintSet());
  // One error per out-of-domain field: link reliability above and below
  // [0, 1], negative bandwidth and delay, negative frequency and event
  // size, negative host memory and CPU, infinite host memory, negative
  // component memory, NaN CPU load.
  EXPECT_EQ(errors_of(report, Rule::kParamRange), 11u);
}

TEST(CheckParamRange, SilentOnBoundaryValues) {
  DeploymentModel m = make_model(2, 2);
  m.set_physical_link(0, 1, {.reliability = 1.0, .bandwidth = 0.1});
  m.set_logical_link(0, 1, {.frequency = 0.0, .avg_event_size = 0.0});
  m.host(0).cpu_capacity = 0.0;  // "not modelled" is legal
  const CheckReport report = run_checks(m, ConstraintSet());
  EXPECT_FALSE(report.has(Rule::kParamRange));
}

// --- location-unsat --------------------------------------------------------

TEST(CheckLocationUnsat, FlagsEmptyEffectiveAllowList) {
  const DeploymentModel m = make_model(3, 2);
  ConstraintSet cs;
  cs.allow_only(0, {1});
  cs.forbid_host(0, 1);  // pin erased by the forbid: nothing left
  const CheckReport report = run_checks(m, cs);
  EXPECT_EQ(errors_of(report, Rule::kLocationUnsat), 1u);
}

TEST(CheckLocationUnsat, SilentWhenOneHostSurvives) {
  const DeploymentModel m = make_model(3, 2);
  ConstraintSet cs;
  cs.allow_only(0, {1, 2});
  cs.forbid_host(0, 1);  // host 2 survives
  const CheckReport report = run_checks(m, cs);
  EXPECT_FALSE(report.has(Rule::kLocationUnsat));
}

// --- colocation-conflict ---------------------------------------------------

TEST(CheckColocationConflict, FlagsSeparationInsideMustClosure) {
  const DeploymentModel m = make_model(2, 4);
  ConstraintSet cs;
  cs.require_colocation(0, 1);
  cs.require_colocation(1, 2);   // closure: {0, 1, 2}
  cs.forbid_colocation(0, 2);    // contradicts the closure
  const CheckReport report = run_checks(m, cs);
  EXPECT_EQ(errors_of(report, Rule::kColocationConflict), 1u);
}

TEST(CheckColocationConflict, SilentOnSeparationOutsideClosure) {
  const DeploymentModel m = make_model(2, 4);
  ConstraintSet cs;
  cs.require_colocation(0, 1);
  cs.require_colocation(1, 2);
  cs.forbid_colocation(0, 3);  // component 3 is outside the closure
  const CheckReport report = run_checks(m, cs);
  EXPECT_FALSE(report.has(Rule::kColocationConflict));
}

// --- group-location-unsat --------------------------------------------------

TEST(CheckGroupLocationUnsat, FlagsEmptyAllowListIntersection) {
  const DeploymentModel m = make_model(3, 3);
  ConstraintSet cs;
  cs.require_colocation(0, 1);
  cs.allow_only(0, {0, 1});
  cs.allow_only(1, {2});  // intersection with {0, 1} is empty
  const CheckReport report = run_checks(m, cs);
  EXPECT_EQ(errors_of(report, Rule::kGroupLocationUnsat), 1u);
}

TEST(CheckGroupLocationUnsat, SilentWhenIntersectionNonEmpty) {
  const DeploymentModel m = make_model(3, 3);
  ConstraintSet cs;
  cs.require_colocation(0, 1);
  cs.allow_only(0, {0, 1});
  cs.allow_only(1, {1, 2});  // host 1 is common
  const CheckReport report = run_checks(m, cs);
  EXPECT_FALSE(report.has(Rule::kGroupLocationUnsat));
}

// --- capacity-pigeonhole ---------------------------------------------------

TEST(CheckCapacityPigeonhole, FlagsGroupLargerThanBestLegalHost) {
  DeploymentModel m = make_model(2, 3, /*host_mem=*/25.0, /*comp_mem=*/10.0);
  ConstraintSet cs;
  cs.require_colocation(0, 1);
  cs.require_colocation(1, 2);  // 30 KB group, best host holds 25 KB
  const CheckReport report = run_checks(m, cs);
  EXPECT_GE(errors_of(report, Rule::kCapacityPigeonhole), 1u);
}

TEST(CheckCapacityPigeonhole, FlagsGlobalOversubscription) {
  // 4 * 10 KB of components vs 2 * 15 KB of hosts: no assignment can fit
  // even though every single component fits somewhere.
  const DeploymentModel m = make_model(2, 4, 15.0, 10.0);
  const CheckReport report = run_checks(m, ConstraintSet());
  EXPECT_GE(errors_of(report, Rule::kCapacityPigeonhole), 1u);
}

TEST(CheckCapacityPigeonhole, FlagsCpuOnlyWhenEveryLegalHostModelsIt) {
  DeploymentModel m = make_model(2, 1);
  m.host(0).cpu_capacity = 1.0;
  m.host(1).cpu_capacity = 1.0;
  m.component(0).cpu_load = 2.0;
  EXPECT_GE(errors_of(run_checks(m, ConstraintSet()),
                      Rule::kCapacityPigeonhole),
            1u);
  // One legal host opts out of CPU modelling: the bound no longer holds.
  m.host(1).cpu_capacity = 0.0;
  EXPECT_FALSE(run_checks(m, ConstraintSet())
                   .has(Rule::kCapacityPigeonhole));
}

TEST(CheckCapacityPigeonhole, SilentWhenOneLegalHostFits) {
  DeploymentModel m = make_model(2, 3, 25.0, 10.0);
  m.host(1).memory_capacity = 31.0;  // the 30 KB group fits on h1
  ConstraintSet cs;
  cs.require_colocation(0, 1);
  cs.require_colocation(1, 2);
  const CheckReport report = run_checks(m, cs);
  EXPECT_FALSE(report.has(Rule::kCapacityPigeonhole));
}

// --- network-partition -----------------------------------------------------

/// Two 2-host islands: {h0, h1} and {h2, h3}, no cross link.
DeploymentModel make_partitioned(double comp_mem = 10.0) {
  DeploymentModel m;
  for (int h = 0; h < 4; ++h)
    m.add_host({.name = test::numbered("h", h), .memory_capacity = 100.0});
  for (int c = 0; c < 2; ++c)
    m.add_component(
        {.name = test::numbered("c", c), .memory_size = comp_mem});
  m.set_physical_link(0, 1, {.reliability = 0.9, .bandwidth = 50.0});
  m.set_physical_link(2, 3, {.reliability = 0.9, .bandwidth = 50.0});
  m.set_logical_link(0, 1, {.frequency = 2.0, .avg_event_size = 1.0});
  return m;
}

TEST(CheckNetworkPartition, FlagsInteractionAcrossIslands) {
  const DeploymentModel m = make_partitioned();
  ConstraintSet cs;
  cs.pin(0, 0);  // island {h0, h1}
  cs.pin(1, 2);  // island {h2, h3}
  const CheckReport report = run_checks(m, cs);
  EXPECT_EQ(errors_of(report, Rule::kNetworkPartition), 1u);
}

TEST(CheckNetworkPartition, FlagsSeparatedPairWithOnlyOneCommonHost) {
  const DeploymentModel m = make_partitioned();
  ConstraintSet cs;
  cs.allow_only(0, {0});
  cs.allow_only(1, {0});
  cs.forbid_colocation(0, 1);  // need two distinct hosts, only h0 legal
  const CheckReport report = run_checks(m, cs);
  EXPECT_EQ(errors_of(report, Rule::kNetworkPartition), 1u);
}

TEST(CheckNetworkPartition, SilentWhenSameIslandOrCollocatable) {
  const DeploymentModel m = make_partitioned();
  {
    ConstraintSet cs;
    cs.pin(0, 2);
    cs.pin(1, 3);  // same island, linked
    EXPECT_FALSE(run_checks(m, cs).has(Rule::kNetworkPartition));
  }
  {
    // Unconstrained endpoints can always be collocated.
    EXPECT_FALSE(
        run_checks(m, ConstraintSet()).has(Rule::kNetworkPartition));
  }
  {
    ConstraintSet cs;
    cs.allow_only(0, {0, 1});
    cs.allow_only(1, {0, 1});
    cs.forbid_colocation(0, 1);  // h0 + h1 are distinct and linked
    EXPECT_FALSE(run_checks(m, cs).has(Rule::kNetworkPartition));
  }
}

// --- lints -----------------------------------------------------------------

TEST(CheckLints, IsolatedHostIsAWarningNotAnError) {
  DeploymentModel m = make_model(2, 1);
  m.clear_physical_link(0, 1);
  const CheckReport report = run_checks(m, ConstraintSet());
  EXPECT_TRUE(report.has(Rule::kIsolatedHost));
  EXPECT_EQ(report.warning_count(), 2u);  // both hosts are now isolated
  EXPECT_TRUE(report.ok());               // warnings do not fail the check
  EXPECT_FALSE(report.clean());
}

TEST(CheckLints, UselessHostWarnsWhenNothingCanFit) {
  DeploymentModel m = make_model(2, 2, 100.0, 10.0);
  m.host(0).memory_capacity = 5.0;  // below the smallest component
  const CheckReport report = run_checks(m, ConstraintSet());
  EXPECT_TRUE(report.has(Rule::kUselessHost));
  EXPECT_TRUE(report.ok());
}

TEST(CheckLints, CanBeDisabled) {
  DeploymentModel m = make_model(2, 1);
  m.clear_physical_link(0, 1);
  CheckOptions options;
  options.lints = false;
  EXPECT_TRUE(run_checks(m, ConstraintSet(), options).clean());
}

// --- report plumbing -------------------------------------------------------

TEST(CheckReport, RenderTextAndJsonCarryRuleIds) {
  const DeploymentModel m = make_model(3, 2);
  ConstraintSet cs;
  cs.allow_only(0, {1});
  cs.forbid_host(0, 1);
  const CheckReport report = run_checks(m, cs);
  ASSERT_EQ(report.error_count(), 1u);
  EXPECT_NE(report.render_text().find("error[location-unsat]"),
            std::string::npos);
  EXPECT_NE(report.render_text().find("component c0"), std::string::npos);
  const util::json::Value doc = report.to_json();
  EXPECT_DOUBLE_EQ(doc.at("errors").as_number(), 1.0);
  EXPECT_EQ(doc.at("diagnostics").as_array().size(), 1u);
  EXPECT_EQ(
      doc.at("diagnostics").as_array()[0].at("rule").as_string(),
      "location-unsat");
}

TEST(CheckReport, CleanModelIsClean) {
  const DeploymentModel m = make_model(3, 4);
  const CheckReport report = run_checks(m, ConstraintSet());
  EXPECT_TRUE(report.clean());
  EXPECT_NE(report.render_text().find("check: clean"), std::string::npos);
}

TEST(Check, GeneratedModelsAreCleanAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto system = desi::Generator::generate(
        {.hosts = 5, .components = 14, .location_constraints = 3,
         .colocation_pairs = 2, .anti_colocation_pairs = 2},
        seed);
    const CheckReport report =
        run_checks(system->model(), system->constraints());
    EXPECT_TRUE(report.ok()) << "seed " << seed << "\n"
                             << report.render_text();
  }
}

// --- preflight -------------------------------------------------------------

TEST(Preflight, ThrowsWithDiagnosticsOnBrokenModel) {
  const DeploymentModel m = make_model(2, 3);
  ConstraintSet cs;
  cs.require_colocation(0, 1);
  cs.forbid_colocation(0, 1);
  try {
    preflight(m, cs);
    FAIL() << "preflight must throw on a contradictory constraint set";
  } catch (const PreflightError& e) {
    EXPECT_TRUE(e.report().has(Rule::kColocationConflict));
    EXPECT_NE(std::string(e.what()).find("colocation-conflict"),
              std::string::npos);
  }
}

TEST(Preflight, PassesCleanAndPartitionedModels) {
  EXPECT_NO_THROW(preflight(make_model(3, 4), ConstraintSet()));
  // Network partitions are run-time-legitimate: solvers must still run.
  ConstraintSet cs;
  cs.pin(0, 0);
  cs.pin(1, 2);
  EXPECT_NO_THROW(preflight(make_partitioned(), cs));
}

TEST(Preflight, AlgorithmContainerRejectsBrokenModelBeforeSearching) {
  const auto system = desi::Generator::generate({.hosts = 3,
                                                 .components = 6}, 1);
  system->constraints().require_colocation(0, 1);
  system->constraints().forbid_colocation(0, 1);
  desi::AlgoResultData results;
  desi::AlgorithmContainer container(*system, results);
  const model::AvailabilityObjective availability;
  EXPECT_THROW(container.invoke("avala", availability), PreflightError);
  EXPECT_TRUE(results.entries().empty());  // rejected before any run
}

// --- region-spof -----------------------------------------------------------

TEST(CheckRegionSpof, FlagsAllowListConfinedToOneRegion) {
  DeploymentModel m = make_model(4, 2);
  m.set_host_region(0, 0);
  m.set_host_region(1, 0);
  m.set_host_region(2, 1);
  m.set_host_region(3, 1);
  ConstraintSet cs;
  cs.allow_only(0, {0, 1});  // both legal hosts die with region 0
  const CheckReport report = run_checks(m, cs);
  std::size_t warnings = 0;
  for (const Diagnostic& d : report.diagnostics())
    if (d.rule == Rule::kRegionSpof && d.severity == Severity::kWarning)
      ++warnings;
  EXPECT_EQ(warnings, 1u);
}

TEST(CheckRegionSpof, SilentWhenAllowListSpansRegions) {
  DeploymentModel m = make_model(4, 2);
  m.set_host_region(0, 0);
  m.set_host_region(1, 0);
  m.set_host_region(2, 1);
  m.set_host_region(3, 1);
  ConstraintSet cs;
  cs.allow_only(0, {1, 2});  // regions 0 and 1 both represented
  const CheckReport report = run_checks(m, cs);
  EXPECT_FALSE(report.has(Rule::kRegionSpof));
}

TEST(CheckRegionSpof, SilentOnUnzonedModels) {
  // No regions declared: the rule must not fire no matter the constraints.
  DeploymentModel flat = make_model(3, 2);
  ConstraintSet cs;
  cs.allow_only(0, {0, 1});
  EXPECT_FALSE(run_checks(flat, cs).has(Rule::kRegionSpof));
}

// --- golden diagnostics ----------------------------------------------------

constexpr std::size_t kGoldenHosts = 70;

/// A generated fleet whose host count (70) is not a multiple of 64, zoned in
/// three regions, with 64 location, 32 collocation and 32 separation
/// constraints, plus one injected defect of each kind the param-range,
/// location, capacity, network and lint rules report. The logical-link
/// defects are inserted in descending pair order so the model's hash order
/// differs from the canonical order the diagnostics must appear in.
std::unique_ptr<desi::SystemData> golden_system(std::uint64_t seed,
                                                bool model_cpu) {
  desi::GeneratorSpec spec;
  spec.hosts = kGoldenHosts;
  spec.components = 96;
  spec.regions = 3;
  spec.interaction_density = 0.05;
  spec.location_constraints = 64;
  spec.colocation_pairs = 32;
  spec.anti_colocation_pairs = 32;
  if (model_cpu) {
    spec.host_cpu = {50.0, 100.0};
    spec.component_cpu = {1.0, 2.0};
  }
  auto system = desi::Generator::generate(spec, seed);
  DeploymentModel& m = system->model();
  ConstraintSet& cs = system->constraints();
  const double nan = std::nan("");

  m.set_link_reliability(1, 2, nan);
  m.set_link_reliability(3, 5, 1.5);
  m.set_link_bandwidth(7, 11, -20.0);
  m.set_physical_link(13, 68,  // second mask word
                      {.reliability = 0.9, .bandwidth = 50.0, .delay_ms = -4.0,
                       .properties = {}});
  // Zero reliability and negative bandwidth read as an absent link.
  m.set_physical_link(20, 21,
                      {.reliability = 0.0, .bandwidth = -5.0, .delay_ms = -1.0,
                       .properties = {}});
  for (HostId h = 0; h < kGoldenHosts; ++h)
    if (h != 66) m.clear_physical_link(h, 66);  // isolated host

  m.set_logical_link(
      90, 95, {.frequency = -1.0, .avg_event_size = 0.5, .properties = {}});
  m.set_logical_link(
      40, 80, {.frequency = nan, .avg_event_size = 1.0, .properties = {}});
  m.set_logical_link(
      10, 60, {.frequency = 2.0, .avg_event_size = -0.25, .properties = {}});
  m.set_logical_link(2, 3,
                     {.frequency = std::numeric_limits<double>::infinity(),
                      .avg_event_size = nan, .properties = {}});
  m.set_logical_link(
      5, 6, {.frequency = 0.0, .avg_event_size = 0.0, .properties = {}});

  // Pigeonhole defects on an allow-listed component (17, 18) and on one
  // every host may take (22), so both best-legal-host paths are covered.
  m.component(17).memory_size = 2000.0;
  m.component(22).memory_size = 1000.0;
  if (model_cpu) {
    m.component(18).cpu_load = 500.0;
    m.component(22).cpu_load = 400.0;
  }
  m.host(69).memory_capacity = 0.5;  // useless host

  cs.allow_only(30, {4, kGoldenHosts + 3});  // dangling allow-list host
  cs.pin(31, 4);
  cs.forbid_host(31, 4);  // the forbid overrides the pin
  cs.pin(32, 9);          // confined to one region
  cs.forbid_host(98, 0);  // dangling component
  // An interaction whose endpoints sit on opposite sides of the isolated
  // host's partition.
  const model::Interaction ix = m.interactions().front();
  cs.pin(ix.a, 66);
  cs.pin(ix.b, 0);
  return system;
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(DIF_GOLDEN_DIR) + "/check/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The text and JSON renderings of the full rule set and of the pre-flight
// rule set, pinned byte for byte: faster rule implementations must report
// the same diagnostics in the same order.
TEST(CheckGolden, DiagnosticsAreByteIdentical) {
  for (const auto& [seed, model_cpu] :
       {std::pair<std::uint64_t, bool>{3, false}, {11, true}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto system = golden_system(seed, model_cpu);
    const DeploymentModel& m = system->model();
    const ConstraintSet& cs = system->constraints();
    const AnalysisContext context(m, cs);
    ASSERT_EQ(context.allowed_count(22), kGoldenHosts);
    ASSERT_LT(context.allowed_count(17), kGoldenHosts);

    const std::string prefix = test::numbered("seed", seed) + "_";
    for (const auto& [name, report] :
         {std::pair{std::string("run_checks"), run_checks(m, cs)},
          std::pair{std::string("preflight"), preflight_report(m, cs)}}) {
      EXPECT_EQ(report.render_text(), read_golden(prefix + name + ".txt"))
          << name;
      EXPECT_EQ(report.to_json().dump(2), read_golden(prefix + name + ".json"))
          << name;
    }
  }
}

}  // namespace
}  // namespace dif::check
