// The benchmark's metric catalogue and the code that fills it.
//
// Every run prints every metric of its mode (end-to-end untraced,
// per-layer traced), on every workload. A layer a workload never calls
// reads 0, which is why every per-layer metric that can be absent is a
// count, a share or a rate, never a wall time: a wall-time metric is
// measured on every workload.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/network.h"
#include "workloads.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported by untraced runs.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Reported by traced runs.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// Fills `out.metrics` in catalogue order from `values`. A name outside the
/// catalogue, or a missing wall-time metric, is an output-check failure;
/// any other missing metric reads 0.
void emit_metrics(Outcome& out, const std::vector<MetricSpec>& catalogue,
                  const std::map<std::string, double>& values);

/// End-to-end timing of the untraced passes, whose samples are already at
/// the reference speed: setup_s (median of every set-up sample),
/// step_ms_p50 over all steps, step_ms_tail (median of the units' tails),
/// and peak_heap_mb (median over the units). Every unit of a workload has
/// `steps_per_unit` steps, so its tail percentile is the same on every run.
void timing_metrics(std::map<std::string, double>& values,
                    std::vector<std::string>& notes,
                    const std::vector<PassTiming>& passes,
                    std::size_t steps_per_unit, SpeedGauge& gauge);

/// Per-layer metrics of a traced pass.
class LayerReport {
 public:
  /// Derives everything the spans and the registry hold: self-time shares,
  /// call latencies, tracing overhead, and the registry's counters.
  /// Counters and histograms are summed over `registries` (one per
  /// simulated session).
  /// Self-time shares are over the traced pass's raw wall time; wall-time
  /// figures are scaled to the reference speed by `gauge`. The tracing
  /// overhead is the traced pass's summed step time over the untraced
  /// pass's (steps are at reference speed, and hold no traced-only probe).
  LayerReport(const Tracer& tracer,
              std::vector<const dif::obs::Registry*> registries,
              const PassTiming& untraced, const PassTiming& traced,
              SpeedGauge& gauge);

  void set(const std::string& name, double value) { values_[name] = value; }

  /// Simulator and network counts over `sim_s` simulated seconds; the
  /// data-plane wall time is the self time of the sim.* spans.
  /// `step_ms_p50` is the untraced pass's median step at reference speed.
  void data_plane(double events, double batches, double allocs, double sim_s,
                  const dif::sim::MessageStats& net, double app_sent,
                  double app_received, double step_ms_p50);

  /// Adds the tail rule's step count and percentile, then fills
  /// `out.metrics` with the per-layer catalogue.
  void emit(Outcome& out, double steps, double tail_percentile);

 private:
  const Tracer& tracer_;
  double scale_;
  std::vector<const dif::obs::Registry*> registries_;
  std::map<std::string, double> values_;
};

}  // namespace perfbench
