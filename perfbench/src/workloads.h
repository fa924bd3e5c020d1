// The three perfbench workloads and the result record they fill.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  /// Measurement window: timed passes repeat while another one fits.
  double seconds = 20.0;
  /// false: untraced passes, end-to-end metrics. true: one untraced and one
  /// traced pass, per-layer metrics.
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  /// Output-check failures; empty means every check passed.
  std::vector<std::string> problems;
  /// Benchmark operations (timed steps) attempted and failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable report lines printed before the result.
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Timing of one pass: set-up samples, per-step wall times, and the tail
/// step time and peak heap of each measured unit (leg, session or pass).
struct PassTiming {
  std::vector<double> setup_s;
  std::vector<double> step_ms;
  std::vector<double> tail_ms;
  std::vector<double> heap_mb;

  /// Records one unit's steps: pooled for the median, and the unit's own
  /// tail by the tail rule.
  void add_unit_steps(const std::vector<double>& unit_step_ms) {
    step_ms.insert(step_ms.end(), unit_step_ms.begin(), unit_step_ms.end());
    tail_ms.push_back(
        percentile(unit_step_ms, tail_percentile(unit_step_ms.size())));
  }
  double wall_s = 0.0;
};

[[nodiscard]] Outcome run_fleet_quiet(const Options& options);
[[nodiscard]] Outcome run_serve_faults(const Options& options);
[[nodiscard]] Outcome run_decide_1k(const Options& options);

}  // namespace perfbench
