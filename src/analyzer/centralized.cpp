#include "analyzer/centralized.h"

#include <chrono>

#include "check/preflight.h"
#include "util/logging.h"

namespace dif::analyzer {

CentralizedAnalyzer::CentralizedAnalyzer(
    const algo::AlgorithmRegistry& registry, Policy policy)
    : registry_(registry), policy_(policy) {}

std::string CentralizedAnalyzer::select_algorithm(
    const model::DeploymentModel& m, const ExecutionProfile& profile) const {
  if (m.host_count() <= policy_.exact_max_hosts &&
      m.component_count() <= policy_.exact_max_components)
    return "exact";
  if (profile.is_stable(policy_.stability_epsilon))
    return policy_.stable_algorithm;
  return policy_.unstable_algorithm;
}

Decision CentralizedAnalyzer::analyze(
    const model::DeploymentModel& m, const model::Objective& objective,
    const model::ConstraintChecker& checker, const model::Deployment& current,
    ExecutionProfile& profile, std::uint64_t seed,
    const std::vector<model::ComponentId>* dirty) const {
  Decision decision;
  decision.value_before = objective.evaluate(m, current);
  decision.algorithm = select_algorithm(m, profile);
  if (obs_.metrics) obs_.metrics->counter("analyzer.analyses").add(1);

  // Pre-flight: a statically-broken model (contradictory constraints,
  // pigeonhole violation, dangling references) cannot be improved by any
  // algorithm; keep the current deployment and surface the diagnostics
  // instead of burning the evaluation budget. Unlike the solver entry
  // points this does not throw — the periodic improvement loop must
  // survive a transiently-inconsistent model.
  if (const check::CheckReport report = check::preflight_report(
          m, checker.constraint_set());
      !report.ok()) {
    decision.reason = "pre-flight rejected the model: " +
                      std::to_string(report.error_count()) + " defect(s)\n" +
                      report.render_text();
    util::log_warn("analyzer", decision.reason);
    if (obs_.metrics)
      obs_.metrics->counter("analyzer.preflight_rejects").add(1);
    RedeploymentRecord record;
    record.algorithm = decision.algorithm;
    record.value_before = decision.value_before;
    record.reason = decision.reason;
    profile.log_redeployment(std::move(record));
    return decision;
  }

  algo::AlgoOptions options;
  options.initial = current;
  options.seed = seed;
  options.max_evaluations = policy_.max_evaluations;
  if (policy_.warm_start && dirty != nullptr) {
    options.warm_start = true;
    options.dirty_components = *dirty;
    if (obs_.metrics) obs_.metrics->counter("analyzer.warm_analyses").add(1);
  }
  const std::unique_ptr<algo::Algorithm> algorithm =
      registry_.create(decision.algorithm);
  const auto algo_start = std::chrono::steady_clock::now();
  const algo::AlgoResult result =
      algorithm->run(m, objective, checker, options);
  if (obs_.metrics) {
    const std::chrono::duration<double, std::milli> algo_elapsed =
        std::chrono::steady_clock::now() - algo_start;
    obs_.metrics->histogram("analyzer.algo_wall_ms")
        .observe(algo_elapsed.count());
  }

  RedeploymentRecord record;
  record.algorithm = decision.algorithm;
  record.value_before = decision.value_before;

  if (!result.feasible) {
    if (obs_.metrics) obs_.metrics->counter("analyzer.infeasible").add(1);
    decision.reason = "algorithm found no feasible deployment";
    record.reason = decision.reason;
    profile.log_redeployment(std::move(record));
    return decision;
  }

  decision.value_after = result.value;
  decision.target = result.deployment;
  decision.migrations = result.migrations;
  record.value_after = result.value;
  record.migrations = result.migrations;

  // Improvement gate: is the gain worth moving components for?
  const double gain = objective.direction() == model::Direction::kMaximize
                          ? result.value - decision.value_before
                          : decision.value_before - result.value;
  if (gain < policy_.min_improvement || decision.migrations == 0) {
    if (obs_.metrics)
      obs_.metrics->counter("analyzer.below_threshold").add(1);
    decision.reason = "improvement below threshold";
    record.reason = decision.reason;
    profile.log_redeployment(std::move(record));
    return decision;
  }

  // Latency guard (multi-objective conflict resolution): the availability
  // algorithms "typically decrease the system's overall latency [12]" — veto
  // the rare deployment that would significantly increase it instead.
  if (policy_.enable_latency_guard &&
      std::string_view(objective.name()) != "latency") {
    const model::LatencyObjective latency;
    const double latency_before = latency.evaluate(m, current);
    const double latency_after = latency.evaluate(m, result.deployment);
    if (latency_after > latency_before * policy_.latency_tolerance &&
        latency_after - latency_before > 1.0) {
      if (obs_.metrics)
        obs_.metrics->counter("analyzer.latency_vetoes").add(1);
      decision.reason = "vetoed: latency regression (" +
                        std::to_string(latency_before) + " -> " +
                        std::to_string(latency_after) + " ms/s)";
      record.reason = decision.reason;
      profile.log_redeployment(std::move(record));
      util::log_info("analyzer", decision.reason);
      return decision;
    }
  }

  decision.action = Decision::Action::kRedeploy;
  if (obs_.metrics)
    obs_.metrics->counter("analyzer.redeploy_decisions").add(1);
  decision.reason = "improvement " + std::to_string(gain) + " via " +
                    decision.algorithm;
  record.applied = true;
  record.reason = decision.reason;
  profile.log_redeployment(std::move(record));
  return decision;
}

}  // namespace dif::analyzer
