// Execution-history profile kept by analyzers (paper Section 3.1):
// "Analyzers may also hold the history of the system's execution by logging
// fluctuations of the desired objectives and the parameters of interest.
// [The] execution profile allows the analyzer to fine-tune the framework's
// behavior by providing information such as system's stability, work load
// patterns, and the results of previous redeployments."
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/statistics.h"

namespace dif::analyzer {

/// Outcome of one past redeployment, for the profile's log.
struct RedeploymentRecord {
  double time_ms = 0.0;
  std::string algorithm = {};
  double value_before = 0.0;
  /// The algorithm's *predicted* objective value.
  double value_after = 0.0;
  std::size_t migrations = 0;
  bool applied = false;   // false when the analyzer vetoed the result
  std::string reason = {};
  /// The objective value actually *measured* after the redeployment took
  /// effect (the profile's "results of previous redeployments").
  double realized = 0.0;
  bool has_realized = false;
};

class ExecutionProfile {
 public:
  /// `window`: number of recent objective samples stability is judged over.
  explicit ExecutionProfile(std::size_t window = 8);

  /// Logs one observation of the tracked objective (e.g. availability).
  void add_sample(double time_ms, double value);

  /// Spread (max - min) of the recent window; small spread == stable system.
  [[nodiscard]] double recent_spread() const;

  /// True once the window is full and its spread is below `epsilon`
  /// ("the analyzer selects a more expensive algorithm to run if the system
  /// is stable").
  [[nodiscard]] bool is_stable(double epsilon) const;

  [[nodiscard]] std::size_t sample_count() const noexcept { return samples_; }
  [[nodiscard]] double latest() const;
  [[nodiscard]] double mean() const { return window_.mean(); }

  void log_redeployment(RedeploymentRecord record);
  [[nodiscard]] const std::vector<RedeploymentRecord>& redeployments()
      const noexcept {
    return log_;
  }
  /// Of the logged redeployments, how many were actually applied?
  [[nodiscard]] std::size_t applied_count() const;

  /// Attaches the measured post-redeployment value to the most recent
  /// applied record (no-op when there is none). Lets the analyzer judge how
  /// trustworthy its model's predictions are.
  void record_realized(double measured_value);

  /// Mean |predicted - realized| over applied redeployments with a
  /// realization; 0 when none exist yet.
  [[nodiscard]] double mean_prediction_error() const;

 private:
  util::SlidingWindow window_;
  std::size_t samples_ = 0;
  std::vector<RedeploymentRecord> log_;
};

}  // namespace dif::analyzer
