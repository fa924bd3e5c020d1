// Tests for the benchmark's measurement helpers: the tail-percentile rule
// and its sample count, self time from nested spans, and failure-share
// accounting. Exits non-zero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "measure.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  ++failures;
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::abs(got - want) <= 1e-12 * std::max(1.0, std::abs(want)),
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

void tail_rule() {
  using perfbench::tail_percentile;
  // 40 steps: p75 leaves 10 above it, p90 only 4.
  expect_near(tail_percentile(40), 75.0, "40 steps -> p75");
  // 100 steps: p90 leaves exactly 10, p95 only 5.
  expect_near(tail_percentile(100), 90.0, "100 steps -> p90");
  expect_near(tail_percentile(99), 75.0, "99 steps -> p75");
  expect_near(tail_percentile(290), 95.0, "290 steps -> p95");
  expect_near(tail_percentile(1000), 99.0, "1000 steps -> p99");
  expect_near(tail_percentile(10000), 99.9, "10000 steps -> p99.9");
  // Too few samples for any tail: the median, reported with its count.
  expect_near(tail_percentile(5), 50.0, "5 steps -> p50");
  expect_near(tail_percentile(20, 5), 75.0, "custom min_beyond");

  // The chosen percentile leaves at least 10 samples strictly above it.
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  const double p = tail_percentile(xs.size());
  const double value = perfbench::percentile(xs, p);
  int beyond = 0;
  for (const double x : xs) beyond += x > value;
  expect(beyond >= 10, "tail value has >= 10 samples beyond it");
  expect_near(value, 90.0, "nearest-rank p90 of 1..100");
  expect_near(perfbench::percentile({3, 1, 2}, 50), 2.0, "p50 of 3 samples");
  expect_near(perfbench::percentile({}, 50), 0.0, "percentile of nothing");
  expect_near(perfbench::median({4, 1, 3, 2}), 2.5, "even-count median");
  expect_near(perfbench::median({5, 1, 3}), 3.0, "odd-count median");
}

void self_time() {
  using perfbench::Span;
  // root [0, 100): two children [10, 30) and [40, 90); the second has a
  // grandchild [50, 60). A second root [200, 210) of another layer.
  const std::vector<Span> spans = {
      {"sim.run_until", -1, 0, 100},
      {"analyzer.tick", 0, 10, 30},
      {"analyzer.tick", 0, 40, 90},
      {"algo.run", 2, 50, 60},
      {"chaos.judge", -1, 200, 210},
  };
  const auto totals = perfbench::span_totals(spans);
  expect(totals.at("sim.run_until").self_ns == 100 - 20 - 50,
         "root self time excludes direct children only");
  expect(totals.at("analyzer.tick").calls == 2, "call count per name");
  expect(totals.at("analyzer.tick").total_ns == 70, "inclusive time");
  expect(totals.at("analyzer.tick").self_ns == 20 + 40,
         "child self time excludes the grandchild");
  expect(totals.at("algo.run").self_ns == 10, "leaf self time is its span");
  const auto layers = perfbench::layer_self_ns(spans);
  expect(layers.at("sim") == 30 && layers.at("analyzer") == 60 &&
             layers.at("algo") == 10 && layers.at("chaos") == 10,
         "self time per layer prefix");
  std::int64_t sum = 0;
  for (const auto& [layer, ns] : layers) sum += ns;
  expect(sum == 110, "self times partition the covered wall time");

  // The recorder nests by open/close order.
  perfbench::Tracer tracer(true);
  {
    perfbench::Scope outer(tracer, "sim.run_until");
    perfbench::Scope inner(tracer, "analyzer.tick");
  }
  { perfbench::Scope next(tracer, "chaos.judge"); }
  expect(tracer.spans().size() == 3, "three spans recorded");
  expect(tracer.spans()[1].parent == 0 && tracer.spans()[2].parent == -1,
         "parents follow nesting");
  perfbench::Tracer off(false);
  { perfbench::Scope ignored(off, "sim.run_until"); }
  expect(off.spans().empty(), "a disabled tracer records nothing");
}

void failure_share() {
  perfbench::FailureShare none;
  expect_near(none.share(), 0.0, "nothing attempted reads 0");
  perfbench::FailureShare rounds;
  rounds.add(12, 12);
  expect_near(rounds.share(), 1.0, "12 of 12 rounds aborted");
  rounds.add(8, 0);
  expect(rounds.attempted == 20 && rounds.failed == 12, "shares accumulate");
  expect_near(rounds.share(), 0.6, "12 of 20 failed");
}

}  // namespace

int main() {
  tail_rule();
  self_time();
  failure_share();
  if (failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench measure tests passed\n");
  return 0;
}
