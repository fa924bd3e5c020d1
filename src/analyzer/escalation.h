// Escalation meta-policy (paper Section 3.1): "once an analyzer determines
// that the system's parameters have changed significantly, it may choose to
// add a new low-level algorithm component that computes better results for
// the new operational scenario."
//
// Concretely: the analyzer climbs a ladder of increasingly expensive
// algorithms when the current one stalls (consecutive analyses that find no
// worthwhile improvement while the system is visibly sub-optimal), and
// drops back to the cheap rung after a successful redeployment.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analyzer/centralized.h"

namespace dif::analyzer {

class EscalationPolicy {
 public:
  struct Config {
    /// Cheapest to strongest; the first entry is the resting state.
    std::vector<std::string> ladder = {"avala", "hillclimb", "annealing"};
    /// Consecutive improvement-free analyses before climbing a rung.
    std::size_t stall_threshold = 3;
  };

  explicit EscalationPolicy(Config config);
  EscalationPolicy() : EscalationPolicy(Config{}) {}

  /// Algorithm the analyzer should currently use for the stable slot.
  [[nodiscard]] const std::string& current() const {
    return config_.ladder[rung_];
  }

  /// Feeds one analyzer decision; may escalate or reset the ladder.
  void observe(const Decision& decision);

  [[nodiscard]] std::size_t escalations() const noexcept {
    return escalations_;
  }
  [[nodiscard]] std::size_t rung() const noexcept { return rung_; }
  void reset() noexcept {
    rung_ = 0;
    stall_ = 0;
  }

 private:
  Config config_;
  std::size_t rung_ = 0;
  std::size_t stall_ = 0;
  std::size_t escalations_ = 0;
};

}  // namespace dif::analyzer
