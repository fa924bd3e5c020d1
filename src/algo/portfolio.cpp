#include "algo/portfolio.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "check/preflight.h"

namespace dif::algo {

void PortfolioRunner::add(std::unique_ptr<Algorithm> algorithm) {
  entries_.push_back(std::move(algorithm));
}

void PortfolioRunner::add_from_registry(const AlgorithmRegistry& registry,
                                        const std::vector<std::string>& names) {
  for (const std::string& name : names) add(registry.create(name));
}

std::vector<std::string> default_portfolio_lineup() {
  return {"stochastic", "avala", "hillclimb", "annealing", "genetic"};
}

PortfolioResult PortfolioRunner::run(const model::DeploymentModel& model,
                                     const model::Objective& objective,
                                     const model::ConstraintChecker& checker) {
  // Fail fast on statically-broken models: racing N algorithms against an
  // unsatisfiable specification wastes the whole deadline to conclude
  // "no feasible deployment found".
  check::preflight(model, checker.constraint_set());

  const auto start = std::chrono::steady_clock::now();
  PortfolioResult result;
  result.runs.resize(entries_.size());
  result.winner_index = entries_.size();
  if (entries_.empty()) {
    result.best.algorithm = "portfolio";
    result.best.deployment = model::Deployment(model.component_count());
    result.best.value = std::nan("");
    return result;
  }

  // The DeploymentModel's interaction list is a lazily built mutable cache;
  // prime it on this thread so workers only ever read it.
  (void)model.interactions();

  // Internal token: fired by the deadline watchdog or by the caller's token
  // (chained as parent), observed by every entry via AlgoOptions::cancel.
  CancelToken stop(options_.cancel);

  std::size_t workers = options_.threads > 0 ? options_.threads
                                             : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  workers = std::min(workers, entries_.size());

  // Shared best-so-far incumbent: workers fold their finished run into it
  // under the mutex. The final winner is re-derived from `runs` in input
  // order below, so the incumbent never makes the outcome schedule-
  // dependent — it exists so an observer (and the deadline log) can see the
  // best value the race has produced so far.
  std::mutex incumbent_mutex;
  bool incumbent_set = false;
  double incumbent_value = objective.worst();

  std::atomic<std::size_t> next_job{0};
  const auto worker_loop = [&] {
    for (;;) {
      const std::size_t job = next_job.fetch_add(1, std::memory_order_relaxed);
      if (job >= entries_.size()) return;
      AlgoOptions opts;
      opts.initial = options_.initial;
      opts.seed = options_.seed;
      opts.max_evaluations = options_.max_evaluations;
      opts.cancel = &stop;
      opts.warm_start = options_.warm_start;
      opts.dirty_components = options_.dirty_components;
      if (options_.deadline_seconds > 0.0) {
        // Late-claimed jobs get only what is left of the common deadline.
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        opts.time_budget_seconds =
            std::max(options_.deadline_seconds - elapsed, 1e-3);
      }
      result.runs[job] = entries_[job]->run(model, objective, checker, opts);
      const AlgoResult& r = result.runs[job];
      if (r.feasible) {
        const std::lock_guard<std::mutex> lock(incumbent_mutex);
        if (!incumbent_set || objective.improves(r.value, incumbent_value)) {
          incumbent_set = true;
          incumbent_value = r.value;
        }
      }
    }
  };

  // Deadline watchdog: cancels stragglers when the budget elapses. The cv
  // lets run() wake it immediately once all jobs finished.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool all_done = false;
  std::thread watchdog;
  if (options_.deadline_seconds > 0.0) {
    watchdog = std::thread([&] {
      std::unique_lock<std::mutex> lock(done_mutex);
      const auto deadline =
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(options_.deadline_seconds));
      if (!done_cv.wait_until(lock, deadline, [&] { return all_done; })) {
        stop.cancel();
        result.deadline_hit = true;
      }
    });
  }

  if (workers == 1) {
    // Run inline: a 1-thread portfolio is byte-for-byte the sequential
    // "run each entry, keep the best" loop (determinism anchor).
    worker_loop();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker_loop);
    for (std::thread& t : pool) t.join();
  }

  if (watchdog.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(done_mutex);
      all_done = true;
    }
    done_cv.notify_one();
    watchdog.join();
  }

  // Deterministic winner: first feasible entry in input order that no later
  // entry strictly improves on.
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const AlgoResult& r = result.runs[i];
    if (!r.feasible) continue;
    if (result.winner_index == result.runs.size() ||
        objective.improves(r.value, result.best.value)) {
      result.best = r;
      result.winner_index = i;
    }
  }
  if (result.winner_index == result.runs.size()) {
    result.best.algorithm = "portfolio";
    result.best.feasible = false;
    result.best.deployment = model::Deployment(model.component_count());
    result.best.value = std::nan("");
  }
  result.elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start);

  // Observability, recorded post-join on the calling thread only.
  const obs::Instruments& obs = options_.instruments;
  if (obs.metrics) {
    obs.metrics->counter("portfolio.races").add(1);
    if (result.deadline_hit)
      obs.metrics->counter("portfolio.deadline_hits").add(1);
    if (result.winner_index < result.runs.size())
      obs.metrics->gauge("portfolio.best_value").set(result.best.value);
  }
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const AlgoResult& r = result.runs[i];
    const double run_ms =
        std::chrono::duration<double, std::milli>(r.elapsed).count();
    if (obs.metrics) obs.metrics->histogram("portfolio.run_ms").observe(run_ms);
    if (obs.trace) {
      obs.trace->add_span(
          options_.trace_t_ms, run_ms, "portfolio.run",
          {{"algorithm", r.algorithm},
           {"feasible", r.feasible},
           // Infeasible runs may carry NaN; keep the JSON trace valid.
           {"value", r.feasible ? r.value : 0.0},
           {"evaluations", static_cast<std::int64_t>(r.evaluations)},
           {"winner", i == result.winner_index}});
    }
  }
  return result;
}

}  // namespace dif::algo
