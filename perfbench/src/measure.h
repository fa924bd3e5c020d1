// Measurement helpers shared by the perfbench workloads: order statistics,
// the tail-percentile rule, failure-share accounting, an in-memory span
// recorder with self-time attribution, and process-level counters (peak
// RSS, heap allocations).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample set;
/// 0 when empty.
[[nodiscard]] double percentile(std::vector<double> xs, double p);

/// Median (mean of the two middle values for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> xs);

/// The tail rule: the highest of the candidate percentiles (50, 75, 90, 95,
/// 99, 99.9) that leaves at least `min_beyond` samples strictly above its
/// rank out of `n`. Returns 50 when even the median leaves fewer (tiny
/// runs); the caller reports `n` next to it.
[[nodiscard]] double tail_percentile(std::size_t n,
                                     std::size_t min_beyond = 10);

/// Failure accounting of one workload: operations attempted against those
/// that did not complete cleanly.
struct FailureShare {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::uint64_t attempted_ops, std::uint64_t failed_ops) {
    attempted += attempted_ops;
    failed += failed_ops;
  }
  /// failed / attempted, 0 when nothing was attempted.
  [[nodiscard]] double share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// One closed span: name, parent index (-1 for a root) and wall interval.
struct Span {
  std::string name;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Records nested spans in memory when enabled; a disabled recorder makes
/// every open/close a no-op, so untraced runs pay one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Opens a span under the innermost open one; returns its index, or -1
  /// when disabled.
  int open(const char* name);
  void close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: open on construction, close on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Per-name aggregate of a span list: call count, inclusive wall time, and
/// self time (each span's duration minus the durations of its direct
/// children). Durations in nanoseconds.
struct SpanTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::vector<double> durations_ms;
};
[[nodiscard]] std::map<std::string, SpanTotals> span_totals(
    const std::vector<Span>& spans);

/// Self time summed per layer, the layer being the span name up to its
/// first '.'.
[[nodiscard]] std::map<std::string, std::int64_t> layer_self_ns(
    const std::vector<Span>& spans);

/// Heap held through operator new: live bytes now, and the most held at
/// once since the last reset_heap_peak() (usable sizes, as the allocator
/// rounds them; counted by the perfbench binary's replacement operator new,
/// 0 elsewhere).
[[nodiscard]] std::uint64_t heap_live_bytes();
[[nodiscard]] std::uint64_t heap_peak_bytes();
void reset_heap_peak();

/// Peak heap of one measured unit (a leg, session or pass): construct it
/// when the unit starts, read mb() when it ends.
class HeapPeak {
 public:
  HeapPeak() : base_(heap_live_bytes()) { reset_heap_peak(); }
  [[nodiscard]] double mb() const {
    return static_cast<double>(heap_peak_bytes() - base_) / (1024.0 * 1024.0);
  }

 private:
  std::uint64_t base_;
};

/// Heap allocations made through operator new since process start (counted
/// by the perfbench binary's replacement operator new; 0 in binaries that
/// do not link it).
[[nodiscard]] std::uint64_t allocations();

/// Wall ms of one run of a fixed reference kernel (a discrete-event loop:
/// heap-ordered std::function events updating a hash table, with small
/// allocations). It shares no code with the framework, so it measures how
/// fast the machine runs that kind of code right now.
[[nodiscard]] double calibrate_ms();

/// Tracks the machine's speed through a run by sampling calibrate_ms()
/// between timed steps, and converts wall times to wall times at a fixed
/// reference speed. On a shared machine the same binary's step times swing
/// by a third within minutes, and the kernel's time swings with them; each
/// time is scaled by the kernel's recent median, taken next to it.
class SpeedGauge {
 public:
  /// Reference kernel time the scaled figures are expressed at: about what
  /// calibrate_ms() reads on an idle core of a 4-vCPU Intel Xeon VM.
  static constexpr double kReferenceMs = 13.0;

  /// Samples on every `every`-th call of tick().
  explicit SpeedGauge(std::size_t every) : every_(every) {}

  /// Call once per timed step, outside the timed interval.
  void tick() {
    if (ticks_++ % every_ == 0) sample();
  }
  void sample() {
    samples_ms_.push_back(calibrate_ms());
    spent_s_ += samples_ms_.back() / 1e3;
  }

  /// Median calibration time of the run so far (samples once if empty).
  [[nodiscard]] double calibration_ms();
  /// Multiplier from wall time measured over this run to wall time at the
  /// reference speed.
  [[nodiscard]] double scale() { return kReferenceMs / calibration_ms(); }
  /// Multiplier for a wall time measured just now: the reference over the
  /// median of the last kWindow samples (samples once if there are none).
  [[nodiscard]] double local_scale();
  static constexpr std::size_t kWindow = 5;
  [[nodiscard]] std::size_t samples() const noexcept {
    return samples_ms_.size();
  }
  /// Wall seconds spent sampling, to be left out of measured intervals.
  [[nodiscard]] double spent_s() const noexcept { return spent_s_; }

 private:
  std::size_t every_;
  std::size_t ticks_ = 0;
  std::vector<double> samples_ms_;
  double spent_s_ = 0.0;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace perfbench
