// Fail-fast pre-flight validation for algorithm/analyzer entry points.
//
// A solver handed a statically-broken model (contradictory constraints,
// pigeonhole-violating capacities, dangling references) would search its
// entire budget and then report the unhelpful "no feasible deployment
// found". The pre-flight hook runs the static analyzer first and rejects
// such models with the actual diagnostics. Call sites:
//
//   * algo::PortfolioRunner::run        — throws PreflightError
//   * desi::AlgorithmContainer::invoke  — throws PreflightError
//   * analyzer::CentralizedAnalyzer     — returns a kKeep Decision carrying
//                                         the diagnostics (the periodic
//                                         improvement loop must not die)
//
// preflight_options() deliberately excludes the network-reachability rule
// (a partition is a legitimate *transient* state at run time — the paper's
// disconnected-operation scenario — not a specification defect) and the
// advisory lints.
#pragma once

#include <stdexcept>

#include "check/static_analyzer.h"

namespace dif::check {

/// Thrown by solver entry points when pre-flight finds error diagnostics.
/// what() carries the rendered report.
class PreflightError : public std::invalid_argument {
 public:
  explicit PreflightError(CheckReport report);

  [[nodiscard]] const CheckReport& report() const noexcept { return report_; }

 private:
  CheckReport report_;
};

/// The rule set solver entry points gate on: every statically-provable
/// unsatisfiability, but neither run-time-legitimate conditions (network
/// partitions) nor warning lints.
[[nodiscard]] CheckOptions preflight_options() noexcept;

/// Runs the pre-flight rules and returns the report (never throws).
[[nodiscard]] CheckReport preflight_report(const model::DeploymentModel& model,
                                           const model::ConstraintSet& set);

/// Runs the pre-flight rules; throws PreflightError when any error-severity
/// diagnostic is found.
void preflight(const model::DeploymentModel& model,
               const model::ConstraintSet& set);

}  // namespace dif::check
