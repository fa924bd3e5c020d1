// Placement auditor: proves a *concrete* deployment against the model's
// constraints.
//
// The spec rules (static_analyzer.h) reject models no placement could
// satisfy; this layer closes the other half of the gap — given a
// DeploymentModel plus an actual component→host assignment (a solver
// result, a hand-written placement, or the runtime deployment a campaign
// converged to), it proves every constraint holds and reports each
// violation as a Diagnostic:
//
//   placement-unassigned   component off every host / wrong cover
//   placement-location     component on a host its allow/forbid rules ban
//   placement-capacity     host memory (or modelled CPU) oversubscribed
//   placement-colocation   collocation class split, or separation violated
//   placement-bandwidth    (advisory) mediated or oversubscribed link
//
// It shares the AnalysisContext build (allow masks, union-find closure)
// with the spec rules, so auditing after an analyze() costs one pass over
// the placement, not a second constraint compilation.
#pragma once

#include "check/static_analyzer.h"

namespace dif::model {
class Deployment;
}  // namespace dif::model

namespace dif::check {

struct AuditOptions {
  /// Bandwidth findings are advisory (warning severity): a mediated or
  /// oversubscribed link degrades service rather than invalidating the
  /// placement, matching model::ConstraintChecker, which does not check
  /// bandwidth, and the simulator's store-and-forward routing.
  bool check_bandwidth = true;
};

class PlacementAuditor {
 public:
  explicit PlacementAuditor(AuditOptions options = {}) : options_(options) {}

  /// Audits `deployment` against the context's model + constraints.
  [[nodiscard]] CheckReport audit(const AnalysisContext& context,
                                  const model::Deployment& deployment) const;

  /// Convenience: builds a fresh context first.
  [[nodiscard]] CheckReport audit(const model::DeploymentModel& model,
                                  const model::ConstraintSet& set,
                                  const model::Deployment& deployment) const;

  [[nodiscard]] const AuditOptions& options() const noexcept {
    return options_;
  }

 private:
  AuditOptions options_;
};

}  // namespace dif::check
