#include "algo/algorithm.h"

#include <cmath>

namespace dif::algo {

SearchState::SearchState(const model::DeploymentModel& model,
                         const model::Objective& objective,
                         const AlgoOptions& options)
    : model_(model),
      objective_(objective),
      options_(options),
      start_(std::chrono::steady_clock::now()),
      best_value_(objective.worst()) {}

double SearchState::consider(const model::Deployment& d) {
  const double value = objective_.evaluate(model_, d);
  consider_value(d, value);
  return value;
}

void SearchState::consider_value(const model::Deployment& d, double value) {
  ++evaluations_;
  if (!has_best_ || objective_.improves(value, best_value_)) {
    best_ = d;
    best_value_ = value;
    has_best_ = true;
  }
}

bool SearchState::out_of_budget() {
  if (budget_exhausted_) return true;
  // Cancellation is checked on every call (one relaxed atomic load) so a
  // portfolio deadline or an external abort stops the run promptly.
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    budget_exhausted_ = true;
    return true;
  }
  if (options_.max_evaluations > 0 &&
      evaluations_ >= options_.max_evaluations) {
    budget_exhausted_ = true;
    return true;
  }
  if (options_.time_budget_seconds > 0.0) {
    // Amortize clock reads: sample every 2048 calls. Counting calls (not
    // evaluations) matters — a search that prunes every leaf still burns
    // wall-clock walking the tree.
    if (++budget_checks_ % 2048 == 0) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      if (std::chrono::duration<double>(elapsed).count() >
          options_.time_budget_seconds) {
        budget_exhausted_ = true;
        return true;
      }
    }
  }
  return false;
}

AlgoResult SearchState::finish(std::string algorithm_name,
                               std::string notes) const {
  AlgoResult result;
  result.algorithm = std::move(algorithm_name);
  result.feasible = has_best_;
  result.evaluations = evaluations_;
  result.elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start_);
  result.budget_exhausted = budget_exhausted_;
  result.notes = std::move(notes);
  if (has_best_) {
    result.deployment = best_;
    result.value = best_value_;
    if (options_.initial && options_.initial->size() == best_.size())
      result.migrations = model::Deployment::diff_count(*options_.initial,
                                                        best_);
  } else {
    result.deployment = model::Deployment(model_.component_count());
    result.value = std::nan("");
  }
  return result;
}

}  // namespace dif::algo
