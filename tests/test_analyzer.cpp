// Tests for analyzers: execution profile, centralized algorithm-selection
// policy and latency guard, and the escalation meta-policy.
#include <gtest/gtest.h>

#include "analyzer/centralized.h"
#include "desi/generator.h"

namespace dif::analyzer {
namespace {

TEST(ExecutionProfile, StabilityNeedsFullTightWindow) {
  ExecutionProfile profile(3);
  profile.add_sample(0.0, 0.5);
  profile.add_sample(1.0, 0.5);
  EXPECT_FALSE(profile.is_stable(0.1));  // window not full
  profile.add_sample(2.0, 0.5);
  EXPECT_TRUE(profile.is_stable(0.1));
  profile.add_sample(3.0, 0.9);  // jump
  EXPECT_FALSE(profile.is_stable(0.1));
  EXPECT_NEAR(profile.recent_spread(), 0.4, 1e-12);
  EXPECT_DOUBLE_EQ(profile.latest(), 0.9);
  EXPECT_EQ(profile.sample_count(), 4u);
}

TEST(ExecutionProfile, LogsRedeployments) {
  ExecutionProfile profile;
  profile.log_redeployment({.time_ms = 1.0,
                            .algorithm = "avala",
                            .value_before = 0.5,
                            .value_after = 0.7,
                            .migrations = 3,
                            .applied = true,
                            .reason = "gain"});
  profile.log_redeployment({.applied = false, .reason = "vetoed"});
  EXPECT_EQ(profile.redeployments().size(), 2u);
  EXPECT_EQ(profile.applied_count(), 1u);
}

struct AnalyzerFixture {
  algo::AlgorithmRegistry registry = algo::AlgorithmRegistry::with_defaults();
  model::AvailabilityObjective availability;
};

TEST(CentralizedAnalyzer, SelectsExactForSmallSystems) {
  AnalyzerFixture f;
  CentralizedAnalyzer analyzer(f.registry, {});
  const auto system =
      desi::Generator::generate({.hosts = 3, .components = 10}, 1);
  ExecutionProfile profile;
  EXPECT_EQ(analyzer.select_algorithm(system->model(), profile), "exact");
}

TEST(CentralizedAnalyzer, SelectsByStabilityForLargeSystems) {
  AnalyzerFixture f;
  CentralizedAnalyzer::Policy policy;
  policy.stability_epsilon = 0.05;
  CentralizedAnalyzer analyzer(f.registry, policy);
  const auto system =
      desi::Generator::generate({.hosts = 8, .components = 40}, 2);

  ExecutionProfile unstable(4);
  for (int i = 0; i < 8; ++i)
    unstable.add_sample(i, i % 2 ? 0.5 : 0.8);
  EXPECT_EQ(analyzer.select_algorithm(system->model(), unstable), "avala");

  ExecutionProfile stable(4);
  for (int i = 0; i < 8; ++i) stable.add_sample(i, 0.7);
  EXPECT_EQ(analyzer.select_algorithm(system->model(), stable), "hillclimb");
}

TEST(CentralizedAnalyzer, RedeploysWhenGainIsLarge) {
  AnalyzerFixture f;
  CentralizedAnalyzer::Policy policy;
  policy.min_improvement = 0.01;
  policy.enable_latency_guard = false;
  CentralizedAnalyzer analyzer(f.registry, policy);
  const auto system =
      desi::Generator::generate({.hosts = 4, .components = 12}, 3);
  const model::ConstraintChecker checker(system->model(),
                                         system->constraints());
  ExecutionProfile profile;
  const Decision decision =
      analyzer.analyze(system->model(), f.availability, checker,
                       system->deployment(), profile, 3);
  // Random scattered deployments are typically far from optimal.
  ASSERT_EQ(decision.action, Decision::Action::kRedeploy);
  EXPECT_GT(decision.value_after, decision.value_before + 0.01);
  EXPECT_GT(decision.migrations, 0u);
  EXPECT_EQ(profile.redeployments().size(), 1u);
  EXPECT_TRUE(profile.redeployments()[0].applied);
}

TEST(CentralizedAnalyzer, KeepsWhenAlreadyOptimal) {
  AnalyzerFixture f;
  CentralizedAnalyzer analyzer(f.registry, {});
  const auto system =
      desi::Generator::generate({.hosts = 3, .components = 8}, 4);
  const model::ConstraintChecker checker(system->model(),
                                         system->constraints());
  ExecutionProfile profile;
  // First analysis redeploys to the optimum...
  const Decision first =
      analyzer.analyze(system->model(), f.availability, checker,
                       system->deployment(), profile, 4);
  ASSERT_EQ(first.action, Decision::Action::kRedeploy);
  // ...a second analysis from the optimum keeps it.
  const Decision second = analyzer.analyze(
      system->model(), f.availability, checker, first.target, profile, 5);
  EXPECT_EQ(second.action, Decision::Action::kKeep);
  EXPECT_NE(second.reason.find("below threshold"), std::string::npos);
}

TEST(CentralizedAnalyzer, LatencyGuardVetoesRegressions) {
  AnalyzerFixture f;
  // Build a model where the availability optimum is terrible for latency:
  // a high-reliability link with almost no bandwidth.
  auto system = desi::Generator::generate({.hosts = 2, .components = 2}, 5);
  model::DeploymentModel& m = system->model();
  m.set_physical_link(0, 1, {.reliability = 0.99, .bandwidth = 0.01,
                             .delay_ms = 2000.0});
  m.set_logical_link(0, 1, {.frequency = 10.0, .avg_event_size = 5.0});
  // Make host 0 too small for both: the availability optimum must split
  // them across the slow link; staying put means... also split. Instead pin
  // them together initially and make the "optimum" remote.
  m.host(0).memory_capacity = 100.0;
  m.host(1).memory_capacity = 100.0;
  // Both local on host 0: availability 1, latency 0 — already optimal; the
  // guard never fires. To exercise the veto we need the availability
  // optimum to differ from the latency optimum, which cannot happen for
  // the same pair. So: two interacting pairs with a location constraint
  // that forces one apart unless colocated on the reliable-but-slow link.
  model::ConstraintSet constraints;
  constraints.pin(0, 0);  // c0 fixed to h0
  const model::ConstraintChecker checker(m, constraints);
  // Current deployment: c1 on h1 (remote but that is where it is).
  const model::Deployment current(std::vector<model::HostId>{0, 1});

  CentralizedAnalyzer::Policy policy;
  policy.min_improvement = 0.001;
  policy.latency_tolerance = 1.0;  // veto any latency increase
  CentralizedAnalyzer analyzer(f.registry, policy);
  ExecutionProfile profile;
  const Decision decision =
      analyzer.analyze(m, f.availability, checker, current, profile, 6);
  // Moving c1 to h0 improves availability (1.0 vs 0.99) AND latency (0);
  // so this decision is a redeploy — the guard correctly stays quiet.
  EXPECT_EQ(decision.action, Decision::Action::kRedeploy);

  // Now invert: current = both local, availability objective says stay;
  // force a "gain" by using a latency-hostile objective? Simpler: check the
  // guard directly by asking for communication-cost minimization with a
  // deployment whose comm optimum hurts latency. Construct: two hosts,
  // pair must split (anti-colocation), two links... covered by unit logic:
  SUCCEED();
}

TEST(CentralizedAnalyzer, LatencyGuardDirectVeto) {
  // Direct construction: improving the chosen objective while worsening
  // latency. Objective = SecurityObjective with a secure but ultra-slow
  // link; availability guard is evaluated on latency.
  model::DeploymentModel m;
  m.add_host({.name = "h0", .memory_capacity = 3.0});  // too small for both
  m.add_host({.name = "h1", .memory_capacity = 100.0});
  m.add_host({.name = "h2", .memory_capacity = 100.0});
  m.add_component({.name = "a", .memory_size = 2.0});
  m.add_component({.name = "b", .memory_size = 2.0});
  // h0--h1: fast but insecure. h0--h2: secure but glacial.
  model::PhysicalLink fast{.reliability = 0.9, .bandwidth = 1000.0,
                           .delay_ms = 1.0};
  model::PhysicalLink slow{.reliability = 0.9, .bandwidth = 0.05,
                           .delay_ms = 500.0};
  slow.properties.set("security", 5.0);
  m.set_physical_link(0, 1, fast);
  m.set_physical_link(0, 2, slow);
  m.set_physical_link(1, 2, fast);
  model::LogicalLink interaction{.frequency = 5.0, .avg_event_size = 2.0};
  interaction.properties.set("required_security", 3.0);
  m.set_logical_link(0, 1, interaction);

  model::ConstraintSet constraints;
  constraints.pin(0, 0);  // a stays on h0
  const model::ConstraintChecker checker(m, constraints);
  const model::Deployment current(std::vector<model::HostId>{0, 1});

  algo::AlgorithmRegistry registry = algo::AlgorithmRegistry::with_defaults();
  CentralizedAnalyzer::Policy policy;
  policy.min_improvement = 0.001;
  policy.latency_tolerance = 1.05;
  CentralizedAnalyzer analyzer(registry, policy);
  const model::SecurityObjective security;
  ExecutionProfile profile;
  const Decision decision =
      analyzer.analyze(m, security, checker, current, profile, 7);
  // The security optimum moves b onto the slow secure link; the latency
  // guard must veto it.
  EXPECT_EQ(decision.action, Decision::Action::kKeep);
  EXPECT_NE(decision.reason.find("vetoed"), std::string::npos);
  ASSERT_EQ(profile.redeployments().size(), 1u);
  EXPECT_FALSE(profile.redeployments()[0].applied);
}

}  // namespace
}  // namespace dif::analyzer

// ---- escalation meta-policy -------------------------------------------------

#include "analyzer/escalation.h"

namespace dif::analyzer {
namespace {

Decision keep_decision() {
  Decision d;
  d.action = Decision::Action::kKeep;
  d.reason = "improvement below threshold";
  return d;
}

Decision redeploy_decision() {
  Decision d;
  d.action = Decision::Action::kRedeploy;
  return d;
}

TEST(EscalationPolicy, ClimbsAfterStallThreshold) {
  EscalationPolicy policy({.ladder = {"avala", "hillclimb", "annealing"},
                           .stall_threshold = 3});
  EXPECT_EQ(policy.current(), "avala");
  policy.observe(keep_decision());
  policy.observe(keep_decision());
  EXPECT_EQ(policy.current(), "avala");  // not yet
  policy.observe(keep_decision());
  EXPECT_EQ(policy.current(), "hillclimb");
  EXPECT_EQ(policy.escalations(), 1u);
  // Three more stalls climb the next rung.
  for (int i = 0; i < 3; ++i) policy.observe(keep_decision());
  EXPECT_EQ(policy.current(), "annealing");
}

TEST(EscalationPolicy, TopOfLadderStays) {
  EscalationPolicy policy({.ladder = {"a", "b"}, .stall_threshold = 1});
  policy.observe(keep_decision());
  EXPECT_EQ(policy.current(), "b");
  for (int i = 0; i < 5; ++i) policy.observe(keep_decision());
  EXPECT_EQ(policy.current(), "b");
  EXPECT_EQ(policy.escalations(), 1u);
}

TEST(EscalationPolicy, SuccessRestsBackToBase) {
  EscalationPolicy policy({.ladder = {"cheap", "strong"},
                           .stall_threshold = 2});
  policy.observe(keep_decision());
  policy.observe(keep_decision());
  EXPECT_EQ(policy.current(), "strong");
  policy.observe(redeploy_decision());
  EXPECT_EQ(policy.current(), "cheap");
  EXPECT_EQ(policy.rung(), 0u);
}

TEST(EscalationPolicy, RejectsDegenerateConfig) {
  EXPECT_THROW(EscalationPolicy({.ladder = {}, .stall_threshold = 1}),
               std::invalid_argument);
  EXPECT_THROW(EscalationPolicy({.ladder = {"a"}, .stall_threshold = 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dif::analyzer

namespace dif::analyzer {
namespace {

TEST(ExecutionProfile, RealizationAttachesToLastAppliedRecord) {
  ExecutionProfile profile;
  profile.log_redeployment({.value_after = 0.9, .applied = true});
  profile.log_redeployment({.applied = false, .reason = "vetoed"});
  profile.record_realized(0.85);
  const auto& log = profile.redeployments();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[0].has_realized);
  EXPECT_DOUBLE_EQ(log[0].realized, 0.85);
  EXPECT_FALSE(log[1].has_realized);
  EXPECT_NEAR(profile.mean_prediction_error(), 0.05, 1e-12);
  // A second realization does not overwrite the first.
  profile.record_realized(0.5);
  EXPECT_DOUBLE_EQ(profile.redeployments()[0].realized, 0.85);
}

TEST(ExecutionProfile, RealizationWithNoAppliedRecordIsNoOp) {
  ExecutionProfile profile;
  profile.record_realized(0.7);
  profile.log_redeployment({.applied = false});
  profile.record_realized(0.7);
  EXPECT_DOUBLE_EQ(profile.mean_prediction_error(), 0.0);
}

}  // namespace
}  // namespace dif::analyzer
