#include "check/preflight.h"

#include <utility>

namespace dif::check {

PreflightError::PreflightError(CheckReport report)
    : std::invalid_argument("model rejected by pre-flight check:\n" +
                            report.render_text()),
      report_(std::move(report)) {}

CheckOptions preflight_options() noexcept {
  CheckOptions options;
  options.network_reachability = false;
  options.lints = false;
  return options;
}

CheckReport preflight_report(const model::DeploymentModel& model,
                             const model::ConstraintSet& set) {
  return run_checks(model, set, preflight_options());
}

void preflight(const model::DeploymentModel& model,
               const model::ConstraintSet& set) {
  CheckReport report = preflight_report(model, set);
  if (!report.ok()) throw PreflightError(std::move(report));
}

}  // namespace dif::check
