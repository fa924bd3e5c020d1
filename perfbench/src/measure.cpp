#include "measure.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <string>
#include <unordered_map>

namespace perfbench {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_heap_live{0};
std::atomic<std::uint64_t> g_heap_peak{0};

namespace {

/// ceil(p% of n), robust to p having no exact binary form (99.9% of 10000
/// is rank 9990, not 9991).
double nearest_rank(double p, std::size_t n) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

}  // namespace

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = nearest_rank(p, xs.size());
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

double tail_percentile(std::size_t n, std::size_t min_beyond) {
  double best = 50.0;
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    // Nearest rank ceil(p*n/100) leaves n - rank samples above it.
    const auto rank = static_cast<std::size_t>(nearest_rank(p, n));
    if (n >= rank && n - rank >= min_beyond) best = p;
  }
  return best;
}

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  const auto now = Clock::now().time_since_epoch();
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count();
  stack_.pop_back();
}

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t duration = spans[i].end_ns - spans[i].start_ns;
    SpanTotals& t = totals[spans[i].name];
    ++t.calls;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i];
    t.durations_ms.push_back(static_cast<double>(duration) / 1e6);
  }
  return totals;
}

std::map<std::string, std::int64_t> layer_self_ns(
    const std::vector<Span>& spans) {
  std::map<std::string, std::int64_t> layers;
  for (const auto& [name, t] : span_totals(spans))
    layers[name.substr(0, name.find('.'))] += t.self_ns;
  return layers;
}

std::uint64_t heap_live_bytes() {
  return g_heap_live.load(std::memory_order_relaxed);
}

std::uint64_t heap_peak_bytes() {
  return g_heap_peak.load(std::memory_order_relaxed);
}

void reset_heap_peak() {
  g_heap_peak.store(heap_live_bytes(), std::memory_order_relaxed);
}

double calibrate_ms() {
  struct Event {
    std::uint64_t time;
    std::function<void()> fn;
  };
  const auto later = [](const Event& a, const Event& b) {
    return a.time > b.time;
  };
  std::unordered_map<std::uint64_t, double> table;
  std::vector<Event> heap;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::size_t names = 0;
  const auto t0 = Clock::now();
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 8192; ++i) {
      const std::uint64_t key = next() % 4096;
      const double weight = static_cast<double>(next() % 1000);
      heap.push_back({next() % 1'000'000, [&table, &names, key, weight] {
                        table[key] += weight;
                        if (key % 16 == 0)
                          names += std::to_string(key * 2654435761u).size();
                      }});
      std::push_heap(heap.begin(), heap.end(), later);
    }
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      heap.back().fn();
      heap.pop_back();
    }
  }
  const double ms = seconds_since(t0) * 1e3;
  volatile std::size_t sink = names + table.size();
  (void)sink;
  return ms;
}

double SpeedGauge::calibration_ms() {
  if (samples_ms_.empty()) sample();
  return median(samples_ms_);
}

double SpeedGauge::local_scale() {
  if (samples_ms_.empty()) sample();
  const std::size_t n = std::min(kWindow, samples_ms_.size());
  return kReferenceMs /
         median(std::vector<double>(samples_ms_.end() - static_cast<long>(n),
                                    samples_ms_.end()));
}

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace perfbench
