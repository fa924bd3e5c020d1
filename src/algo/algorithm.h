// The framework's Algorithm component: pluggable deployment-improvement
// algorithms (paper Section 3.1).
//
// Given an objective and the relevant subset of the system model, an
// algorithm searches for a deployment architecture that satisfies the
// objective, subject to the constraints compiled into a ConstraintChecker.
// Exact algorithms produce optimal results but are exponentially complex;
// approximative algorithms produce sub-optimal results in polynomial time
// (Section 3.1). Both kinds implement this interface.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "model/constraints.h"
#include "model/deployment.h"
#include "model/deployment_model.h"
#include "model/objective.h"

namespace dif::algo {

/// Cooperative cancellation flag shared between an algorithm run and the
/// controller that may abort it (the portfolio runner's deadline, an
/// analyzer shutting down, a test). Thread-safe: any thread may cancel();
/// every algorithm's inner loop observes it through
/// SearchState::out_of_budget(), which reports cancellation as budget
/// exhaustion — the returned AlgoResult is then best-so-far.
///
/// Tokens chain: a token constructed with a parent is cancelled when either
/// it or the parent is — how the portfolio runner composes an external
/// caller's token with its own deadline token.
class CancelToken {
 public:
  explicit CancelToken(const CancelToken* parent = nullptr) noexcept
      : parent_(parent) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed) ||
           (parent_ != nullptr && parent_->cancelled());
  }

 private:
  std::atomic<bool> cancelled_{false};
  const CancelToken* parent_;
};

/// Knobs common to every algorithm run. Algorithm-specific tunables live in
/// the concrete classes' constructors.
struct AlgoOptions {
  /// Current deployment; algorithms that improve incrementally start here,
  /// and AlgoResult reports migration distance relative to it.
  std::optional<model::Deployment> initial;
  /// Seed for all randomized decisions; same seed => same result.
  std::uint64_t seed = 1;
  /// Stop after this many objective evaluations (0 = unlimited).
  std::uint64_t max_evaluations = 0;
  /// Wall-clock budget in seconds (0 = unlimited). Checked coarsely.
  double time_budget_seconds = 0.0;
  /// Cooperative cancellation; may be flipped from another thread. Must
  /// outlive the run. nullptr = not cancellable.
  const CancelToken* cancel = nullptr;
  /// Warm-started re-optimization: treat `initial` as a previously good
  /// deployment and restrict the search to the neighbourhood of
  /// `dirty_components` (the components whose model context changed since
  /// `initial` was computed). With an empty dirty set the run degenerates to
  /// a single evaluation of `initial`. Requires a usable `initial` — when it
  /// is absent or infeasible, algorithms fall back to a cold run. Ignored
  /// when false (`dirty_components` is then unused).
  bool warm_start = false;
  std::vector<model::ComponentId> dirty_components;
};

/// Outcome of one algorithm run — mirrors DeSi's AlgoResultData entry:
/// estimated deployment, achieved objective value, running time, and the
/// estimated cost to effect the redeployment.
struct AlgoResult {
  std::string algorithm;
  model::Deployment deployment;
  /// Raw objective value of `deployment` (NaN when infeasible).
  double value = 0.0;
  bool feasible = false;
  std::uint64_t evaluations = 0;
  std::chrono::nanoseconds elapsed{0};
  /// True when the run stopped because a budget was exhausted (the returned
  /// deployment is then best-so-far, not necessarily the search's fixpoint).
  bool budget_exhausted = false;
  /// Components that must migrate relative to AlgoOptions::initial
  /// (0 when no initial deployment was supplied).
  std::size_t migrations = 0;
  /// Free-form diagnostics ("pruned 95% of leaves", ...).
  std::string notes;
};

/// Interface every deployment algorithm implements.
///
/// Contract: the returned deployment is complete and feasible whenever
/// `feasible` is true; when no feasible deployment was found, `feasible` is
/// false and `deployment` is the best attempt (possibly incomplete).
class Algorithm {
 public:
  virtual ~Algorithm() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  [[nodiscard]] virtual AlgoResult run(const model::DeploymentModel& model,
                                       const model::Objective& objective,
                                       const model::ConstraintChecker& checker,
                                       const AlgoOptions& options) = 0;

  [[nodiscard]] AlgoResult run(const model::DeploymentModel& model,
                               const model::Objective& objective,
                               const model::ConstraintChecker& checker) {
    return run(model, objective, checker, AlgoOptions());
  }
};

/// Shared bookkeeping for implementations: counts evaluations, tracks the
/// incumbent, and enforces evaluation/time budgets.
class SearchState {
 public:
  SearchState(const model::DeploymentModel& model,
              const model::Objective& objective, const AlgoOptions& options);

  /// Evaluates `d` (assumed constraint-feasible), updates the incumbent, and
  /// returns the raw value.
  double consider(const model::Deployment& d);

  /// Like consider(), but trusts a value the caller computed incrementally
  /// (used by branch-and-bound searches that track term sums).
  void consider_value(const model::Deployment& d, double value);

  /// Counts an evaluation whose value was computed incrementally without a
  /// materialized deployment; `materialize()` is only invoked when `value`
  /// improves the incumbent (the move-based searches' fast path: probing a
  /// move costs O(degree), not a deployment copy). A template, not a
  /// std::function: a probe's capturing lambda would not fit the
  /// std::function inline buffer and would cost a heap allocation per call.
  template <typename Materialize>
  void consider_incremental(double value, Materialize&& materialize) {
    ++evaluations_;
    if (!has_best_ || objective_.improves(value, best_value_)) {
      best_ = materialize();
      best_value_ = value;
      has_best_ = true;
    }
  }

  /// True when an evaluation or time budget has been hit.
  [[nodiscard]] bool out_of_budget();

  [[nodiscard]] bool has_incumbent() const noexcept { return has_best_; }
  [[nodiscard]] const model::Deployment& best() const noexcept {
    return best_;
  }
  [[nodiscard]] double best_value() const noexcept { return best_value_; }
  [[nodiscard]] std::uint64_t evaluations() const noexcept {
    return evaluations_;
  }

  /// Finalizes an AlgoResult from the incumbent (sets elapsed, migrations).
  [[nodiscard]] AlgoResult finish(std::string algorithm_name,
                                  std::string notes = {}) const;

 private:
  const model::DeploymentModel& model_;
  const model::Objective& objective_;
  const AlgoOptions& options_;
  std::chrono::steady_clock::time_point start_;
  model::Deployment best_;
  double best_value_ = 0.0;
  bool has_best_ = false;
  std::uint64_t evaluations_ = 0;
  std::uint64_t budget_checks_ = 0;
  bool budget_exhausted_ = false;
};

}  // namespace dif::algo
