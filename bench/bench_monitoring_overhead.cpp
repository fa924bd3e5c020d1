// E6 — Prism-MW monitoring overhead (paper Section 4.3).
//
// "Our assessment of Prism-MW's monitoring support suggests that monitoring
// on each host may induce as little as 0.1% and no greater than 10% in
// memory and efficiency overheads."
//
// Three parts, all on the bench_common.h harness (dif-bench-v1 output like
// every other gated bench — this one used to be the lone google-benchmark
// holdout):
//  * microbenchmarks of event routing with 0/1/2 monitors attached per
//    component, event serialization round trips, and the stability filter;
//  * an end-to-end efficiency overhead figure: the full remote-event path
//    (routing + serialize + deserialize) with and without monitoring;
//  * a deterministic memory estimate of the monitor state per host.
//
//   bench_monitoring_overhead [--iters I] [--json PATH]
#include "bench_common.h"

#include "prism/architecture.h"
#include "prism/monitors.h"

namespace dif::prism {
namespace {

/// Optimization barrier for values the timed loops must actually compute.
volatile std::size_t g_sink = 0;

class Sink final : public Component {
 public:
  explicit Sink(std::string name) : Component(std::move(name)) {}
  void handle(const Event& event) override { g_sink = g_sink + event.name().size(); }
  [[nodiscard]] std::string type_name() const override { return "sink"; }
};

/// Fixture: a host architecture with `monitors` EvtFrequencyMonitors
/// attached to each of 8 components, driven through the inline scaffold so
/// the benchmark measures pure routing + monitoring cost.
struct Bed {
  InlineScaffold scaffold;
  Architecture arch{"bench", scaffold, 0};
  std::vector<Component*> components;
  std::vector<std::shared_ptr<EvtFrequencyMonitor>> monitors;

  explicit Bed(int monitor_count) {
    auto& bus = arch.add_connector(std::make_unique<Connector>("bus"));
    for (int i = 0; i < 8; ++i) {
      auto& component = arch.add_component(
          std::make_unique<Sink>(std::string("c").append(std::to_string(i))));
      arch.weld(component, bus);
      components.push_back(&component);
    }
    for (int m = 0; m < monitor_count; ++m)
      monitors.push_back(std::make_shared<EvtFrequencyMonitor>(scaffold));
    for (Component* component : components)
      for (const auto& monitor : monitors) component->add_monitor(monitor);
  }

  void fire() {
    Event e("app.msg");
    e.set_to("c1");
    e.set("x", 1.0);
    components[0]->send(std::move(e));
  }
};

constexpr std::size_t kBatch = 100'000;

std::vector<double> time_routing(std::size_t iters, int monitor_count) {
  Bed bed(monitor_count);
  return bench::time_runs(iters, [&] {
    for (std::size_t i = 0; i < kBatch; ++i) bed.fire();
  });
}

std::vector<double> time_serialization(std::size_t iters,
                                       std::size_t payload_bytes) {
  Event e("app.msg");
  e.set_to("destination");
  e.set("payload", std::vector<std::uint8_t>(payload_bytes));
  return bench::time_runs(iters, [&] {
    for (std::size_t i = 0; i < kBatch / 10; ++i) {
      const auto bytes = e.serialize();
      g_sink = g_sink + Event::deserialize(bytes).name().size();
    }
  });
}

/// End-to-end efficiency overhead: time a full remote-event path (routing +
/// serialization + deserialization, what a distributed event actually
/// costs) with and without monitoring, and report the relative slowdown —
/// the number the paper's 0.1%-10% claim is about.
double end_to_end_overhead_pct() {
  const auto measure = [](int monitors) {
    Bed bed(monitors);
    Event wire("app.msg");
    wire.set_to("c1");
    wire.set("payload", std::vector<std::uint8_t>(512));
    const double start = bench::now_ms();
    constexpr int kIterations = 200'000;
    for (int i = 0; i < kIterations; ++i) {
      bed.fire();
      const auto bytes = wire.serialize();
      g_sink = g_sink + Event::deserialize(bytes).name().size();
    }
    return (bench::now_ms() - start) / kIterations;
  };
  const double bare = measure(0);
  const double monitored = measure(1);
  return bare > 0.0 ? 100.0 * (monitored - bare) / bare : 0.0;
}

/// Deterministic memory estimate of per-host monitoring state: the monitor
/// object plus one map node per observed interaction pair, as a fraction of
/// a typical host footprint (components' reported memory).
double memory_overhead_pct(std::size_t* bytes_out) {
  constexpr std::size_t kPairs = 16;  // observed interaction pairs per host
  constexpr std::size_t kMapNode = sizeof(void*) * 4 + sizeof(std::string) * 2 +
                                   sizeof(std::uint64_t) + sizeof(double);
  const std::size_t monitor_bytes =
      sizeof(EvtFrequencyMonitor) + kPairs * kMapNode +
      sizeof(NetworkReliabilityMonitor) +
      8 * (sizeof(std::uint64_t) * 2 + sizeof(void*) * 4);
  constexpr double kHostFootprintKb = 96.0;  // typical generated host
  *bytes_out = monitor_bytes;
  return 100.0 * static_cast<double>(monitor_bytes) / 1024.0 /
         kHostFootprintKb;
}

int run(int argc, char** argv) {
  bench::BenchArgs defaults;
  defaults.iters = 7;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv, defaults);
  bench::header("E6", "Prism-MW monitoring overhead",
                "monitoring induces 0.1% - 10% memory and efficiency "
                "overhead per host");

  util::json::Object metrics;
  for (int monitors = 0; monitors <= 2; ++monitors) {
    const auto samples = time_routing(args.iters, monitors);
    const std::string key =
        "routing.events_per_s.monitors_" + std::to_string(monitors);
    metrics[key] = bench::metric(samples, "events/s",
                                 static_cast<double>(kBatch));
  }
  for (const std::size_t payload : {64, 1024, 16384}) {
    const auto samples = time_serialization(args.iters, payload);
    metrics["serialization.roundtrips_per_s.payload_" +
            std::to_string(payload)] =
        bench::metric(samples, "roundtrips/s",
                      static_cast<double>(kBatch / 10));
  }
  {
    StabilityFilter filter(5, 0.05);
    double x = 0.5;
    const auto samples = bench::time_runs(args.iters, [&] {
      for (std::size_t i = 0; i < kBatch; ++i) {
        x = x * 0.999 + 0.0005;
        g_sink = g_sink + (filter.add(x) ? 1 : 0);
      }
    });
    metrics["stability_filter.adds_per_s"] =
        bench::metric(samples, "adds/s", static_cast<double>(kBatch));
  }

  const double efficiency_pct = end_to_end_overhead_pct();
  std::size_t monitor_bytes = 0;
  const double memory_pct = memory_overhead_pct(&monitor_bytes);
  metrics["overhead.efficiency_pct"] =
      bench::scalar_metric(efficiency_pct, "%");
  metrics["overhead.memory_pct"] = bench::scalar_metric(memory_pct, "%");
  metrics["overhead.monitor_bytes_per_host"] = bench::scalar_metric(
      static_cast<double>(monitor_bytes), "bytes");

  std::printf(
      "\nE6 end-to-end efficiency overhead: %.2f%% slowdown with monitoring "
      "enabled (paper claim: 0.1%%-10%%)\n"
      "E6 memory overhead estimate: %zu bytes of monitor state per host = "
      "%.2f%% of a 96 KB host footprint (paper claim: 0.1%%-10%%)\n\n",
      efficiency_pct, monitor_bytes, memory_pct);

  util::json::Object config;
  config["iters"] = util::json::Value(static_cast<double>(args.iters));
  config["batch"] = util::json::Value(static_cast<double>(kBatch));
  bench::emit_report("monitoring", std::move(config), std::move(metrics), {},
                     args.json_path);
  return 0;
}

}  // namespace
}  // namespace dif::prism

int main(int argc, char** argv) { return dif::prism::run(argc, argv); }
