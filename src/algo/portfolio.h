// Parallel algorithm portfolio (racing) runner.
//
// The paper's Analyzer chooses ONE algorithm per situation; a portfolio
// hedges that choice by racing several registered algorithms on a worker
// pool under a common wall-clock deadline and reporting the best feasible
// deployment any of them found. Every algorithm receives the same seed and
// the same initial deployment, so a 1-thread portfolio is exactly the
// sequential "run them all, keep the best" loop — the property the
// determinism tests pin down.
//
// Cancellation: the runner owns an internal CancelToken chained to the
// caller's (PortfolioOptions::cancel). A watchdog thread fires the internal
// token when the deadline passes, and every algorithm observes it through
// SearchState::out_of_budget() — running algorithms stop promptly and
// return best-so-far instead of being abandoned.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "algo/algorithm.h"
#include "algo/registry.h"
#include "obs/instruments.h"

namespace dif::algo {

struct PortfolioOptions {
  /// Worker threads (0 = hardware concurrency, at most one per entry).
  std::size_t threads = 0;
  /// Common wall-clock deadline for the whole portfolio (0 = none).
  double deadline_seconds = 0.0;
  /// Per-algorithm evaluation cap (0 = unlimited) — the deterministic
  /// budget; prefer it over the deadline in reproducibility-sensitive runs.
  std::uint64_t max_evaluations = 0;
  /// Seed handed to every entry (same-seed racing, like invoke_all).
  std::uint64_t seed = 1;
  /// Current deployment, forwarded to every entry.
  std::optional<model::Deployment> initial;
  /// External cancellation; chained into the runner's internal token.
  const CancelToken* cancel = nullptr;
  /// Warm-started re-optimization, forwarded to every entry (see
  /// AlgoOptions::warm_start / dirty_components).
  bool warm_start = false;
  std::vector<model::ComponentId> dirty_components;
  /// Observability sinks. Recorded after the worker pool joins (never from
  /// worker threads): one "portfolio.run" span per entry with its runtime
  /// and result quality, plus "portfolio.*" metrics.
  obs::Instruments instruments;
  /// Timestamp (caller's clock, e.g. sim-time ms) the race's trace spans
  /// are anchored at; the portfolio itself only knows wall-clock durations.
  double trace_t_ms = 0.0;
};

struct PortfolioResult {
  /// Winning entry's result (best feasible value; ties broken by input
  /// order, so the winner is deterministic under any thread schedule).
  AlgoResult best;
  /// Index into runs() of the winner (size() when nothing was feasible).
  std::size_t winner_index = 0;
  /// Every entry's result, in registration order.
  std::vector<AlgoResult> runs;
  /// True when the deadline watchdog cancelled still-running entries.
  bool deadline_hit = false;
  std::chrono::nanoseconds elapsed{0};

  [[nodiscard]] bool feasible() const noexcept { return best.feasible; }
};

class PortfolioRunner {
 public:
  explicit PortfolioRunner(PortfolioOptions options = {})
      : options_(std::move(options)) {}

  /// Adds one algorithm instance to the race.
  void add(std::unique_ptr<Algorithm> algorithm);

  /// Adds instances of the named registry entries (in the given order).
  void add_from_registry(const AlgorithmRegistry& registry,
                         const std::vector<std::string>& names);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Races all entries; blocks until every entry returned (cancelled
  /// entries return early with budget_exhausted set).
  [[nodiscard]] PortfolioResult run(const model::DeploymentModel& model,
                                    const model::Objective& objective,
                                    const model::ConstraintChecker& checker);

 private:
  PortfolioOptions options_;
  std::vector<std::unique_ptr<Algorithm>> entries_;
};

/// The default racing lineup: one cheap constructive, one greedy, and the
/// move-based searches — complementary strengths at equal wall-clock.
[[nodiscard]] std::vector<std::string> default_portfolio_lineup();

}  // namespace dif::algo
