#include "report.h"

#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"step_ms_p50", "ms"},
      {"step_ms_tail", "ms"},
      {"peak_heap_mb", "MB"},
      {"availability_final", "1"},
      {"goodput_share", "1"},
      {"invariants_held_share", "1"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"bench.steps", "count"},
      {"bench.tail_percentile", "%"},
      {"bench.calibration_ms", "ms"},
      {"obs.trace_overhead_share", "1"},
      {"bench.self_share", "1"},
      {"desi.self_share", "1"},
      {"core.self_share", "1"},
      {"sim.self_share", "1"},
      {"analyzer.self_share", "1"},
      {"algo.self_share", "1"},
      {"model.self_share", "1"},
      {"check.self_share", "1"},
      {"chaos.self_share", "1"},
      {"desi.generate_ms", "ms"},
      {"core.build_ms", "ms"},
      {"sim_s_per_wall_s", "1"},
      {"sim.events_per_sim_s", "1/sim_s"},
      {"sim.events_per_s", "1/s"},
      {"sim.events_per_batch", "1"},
      {"sim.allocs_per_event", "1"},
      {"sim.net_msgs_per_sim_s", "1/sim_s"},
      {"sim.net_delivered_share", "1"},
      {"sim.net_unroutable", "count"},
      {"prism.monitor_pings_per_sim_s", "1/sim_s"},
      {"prism.admin_reports_per_sim_s", "1/sim_s"},
      {"prism.app_received_share", "1"},
      {"prism.txn_rounds", "count"},
      {"prism.txn_commit_share", "1"},
      {"prism.txn_aborts", "count"},
      {"prism.txn_rollbacks", "count"},
      {"prism.txn_prepare_sent", "count"},
      {"prism.txn_migration_retries", "count"},
      {"prism.redeploy_sim_ms_mean", "sim_ms"},
      {"analyzer.tick_ms_p50", "ms"},
      {"analyzer.gossip_per_s", "1/s"},
      {"analyzer.analyze_per_s", "1/s"},
      {"analyzer.redeploy_share", "1"},
      {"algo.run_ms_mean", "ms"},
      {"algo.auction_per_s", "1/s"},
      {"algo.decap_migrations", "count"},
      {"model.evaluate_ms", "ms"},
      {"model.update_per_s", "1/s"},
      {"check.preflight_ms", "ms"},
      {"check.plan_per_s", "1/s"},
      {"chaos.faults_injected", "count"},
      {"heal.condemnations", "count"},
      {"heal.recoveries_committed", "count"},
      {"heal.mttr_sim_s", "sim_s"},
      {"traffic.offered_per_sim_s", "1/sim_s"},
      {"traffic.shed_share", "1"},
      {"traffic.failed_share", "1"},
      {"traffic.ratekeeper_max_level", "count"},
      {"traffic.ratekeeper_throttles", "count"},
      {"request_ms_p99", "sim_ms"},
      {"slo_violation_s", "sim_s"},
      {"invariant_violations", "count"},
      {"ops.attempted", "count"},
      {"ops.failed_share", "1"},
  };
  return specs;
}

void emit_metrics(Outcome& out, const std::vector<MetricSpec>& catalogue,
                  const std::map<std::string, double>& values) {
  std::set<std::string> known;
  for (const MetricSpec& spec : catalogue) {
    known.insert(spec.name);
    const auto it = values.find(spec.name);
    const std::string unit = spec.unit;
    const bool wall_time = unit == "s" || unit == "ms";
    if (it == values.end()) {
      out.check(!wall_time, std::string("no measurement for ") + spec.name);
      out.metric(spec.name, 0.0, unit);
      continue;
    }
    out.check(std::isfinite(it->second),
              std::string("non-finite value for ") + spec.name);
    out.check(!wall_time || it->second > 0.0,
              std::string("zero wall time for ") + spec.name);
    out.metric(spec.name, std::isfinite(it->second) ? it->second : 0.0, unit);
  }
  for (const auto& [name, value] : values)
    out.check(known.count(name) == 1, "metric outside the catalogue: " + name);
}

void timing_metrics(std::map<std::string, double>& values,
                    std::vector<std::string>& notes,
                    const std::vector<PassTiming>& passes,
                    std::size_t steps_per_unit, SpeedGauge& gauge) {
  std::vector<double> setup, steps, tails, heap;
  for (const PassTiming& p : passes) {
    setup.insert(setup.end(), p.setup_s.begin(), p.setup_s.end());
    steps.insert(steps.end(), p.step_ms.begin(), p.step_ms.end());
    tails.insert(tails.end(), p.tail_ms.begin(), p.tail_ms.end());
    heap.insert(heap.end(), p.heap_mb.begin(), p.heap_mb.end());
  }
  values["setup_s"] = median(setup);
  values["step_ms_p50"] = median(steps);
  values["step_ms_tail"] = median(tails);
  values["peak_heap_mb"] = median(heap);
  char buf[300];
  std::snprintf(buf, sizeof buf,
                "%zu passes, %zu steps, %zu set-up samples; step_ms_tail is "
                "the median of %zu units' p%g (>= 10 of %zu steps beyond it)",
                passes.size(), steps.size(), setup.size(), tails.size(),
                tail_percentile(steps_per_unit), steps_per_unit);
  notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf,
                "speed: reference kernel %.3f ms (median of %zu samples); "
                "times are at the reference %.1f ms, about x%.3f raw",
                gauge.calibration_ms(), gauge.samples(),
                SpeedGauge::kReferenceMs, 1.0 / gauge.scale());
  notes.emplace_back(buf);
}

namespace {

double median_ms(const std::map<std::string, SpanTotals>& spans,
                 const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : median(it->second.durations_ms);
}

double per_s(double ms) { return ms > 0.0 ? 1e3 / ms : 0.0; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

using Registries = std::vector<const dif::obs::Registry*>;

double counter(const Registries& rs, const std::string& name) {
  double sum = 0.0;
  for (const dif::obs::Registry* r : rs)
    if (const dif::obs::Counter* c = r->find_counter(name))
      sum += static_cast<double>(c->value());
  return sum;
}

double histogram_mean(const Registries& rs, const std::string& name) {
  double sum = 0.0, count = 0.0;
  for (const dif::obs::Registry* r : rs)
    if (const dif::obs::Histogram* h = r->find_histogram(name)) {
      sum += h->sum();
      count += static_cast<double>(h->count());
    }
  return ratio(sum, count);
}

}  // namespace

LayerReport::LayerReport(const Tracer& tracer,
                         std::vector<const dif::obs::Registry*> registries,
                         const PassTiming& untraced, const PassTiming& traced,
                         SpeedGauge& gauge)
    : tracer_(tracer), scale_(gauge.scale()),
      registries_(std::move(registries)) {
  const auto spans = span_totals(tracer.spans());
  const double wall_ns = traced.wall_s * 1e9;
  double covered_ns = 0.0;
  for (const Span& s : tracer.spans())
    if (s.parent < 0) covered_ns += static_cast<double>(s.end_ns - s.start_ns);
  for (const char* layer : {"desi", "core", "sim", "analyzer", "algo",
                            "model", "check", "chaos"})
    values_[std::string(layer) + ".self_share"] = 0.0;
  for (const auto& [layer, ns] : layer_self_ns(tracer.spans()))
    values_[layer + ".self_share"] = static_cast<double>(ns) / wall_ns;
  values_["bench.self_share"] = 1.0 - covered_ns / wall_ns;
  double untraced_ms = 0.0, traced_ms = 0.0;
  for (const double ms : untraced.step_ms) untraced_ms += ms;
  for (const double ms : traced.step_ms) traced_ms += ms;
  values_["obs.trace_overhead_share"] = traced_ms / untraced_ms - 1.0;

  values_["bench.calibration_ms"] = gauge.calibration_ms();
  // Wall times below are at the reference speed: ms scaled by scale_,
  // per-second rates divided by it.
  const auto ms = [&](const char* span) {
    return median_ms(spans, span) * scale_;
  };
  const auto rate = [&](const char* span) { return per_s(ms(span)); };
  values_["desi.generate_ms"] = ms("desi.generate");
  // One build is the construction plus the start of a runtime stack.
  const auto total_ms = [&](const char* span) {
    const auto it = spans.find(span);
    return it == spans.end() ? 0.0
                             : static_cast<double>(it->second.total_ns) / 1e6;
  };
  const auto builds = spans.find("core.build");
  values_["core.build_ms"] =
      builds == spans.end()
          ? 0.0
          : (total_ms("core.build") + total_ms("core.start")) /
                static_cast<double>(builds->second.calls) * scale_;
  values_["analyzer.tick_ms_p50"] = ms("analyzer.tick");
  values_["analyzer.gossip_per_s"] = rate("analyzer.gossip");
  values_["analyzer.analyze_per_s"] = rate("analyzer.analyze");
  values_["algo.auction_per_s"] = rate("algo.auction");
  values_["model.evaluate_ms"] = ms("model.evaluate");
  values_["model.update_per_s"] = rate("model.update");
  values_["check.preflight_ms"] = ms("check.preflight");
  values_["check.plan_per_s"] = rate("check.plan");

  values_["prism.txn_prepare_sent"] =
      counter(registries_, "deploy.txn.prepare_sent");
  values_["prism.txn_migration_retries"] =
      counter(registries_, "deploy.txn.migration_retries");
  values_["prism.txn_aborts"] = counter(registries_, "deploy.txn.aborted");
  values_["prism.txn_rollbacks"] =
      counter(registries_, "deploy.txn.rollbacks");
  values_["prism.redeploy_sim_ms_mean"] =
      histogram_mean(registries_, "deploy.redeploy_ms");
  values_["analyzer.redeploy_share"] =
      ratio(counter(registries_, "analyzer.redeploy_decisions"),
            counter(registries_, "analyzer.analyses"));
  values_["algo.run_ms_mean"] =
      histogram_mean(registries_, "analyzer.algo_wall_ms") * scale_;
}

void LayerReport::data_plane(double events, double batches, double allocs,
                             double sim_s, const dif::sim::MessageStats& net,
                             double app_sent, double app_received,
                             double step_ms_p50) {
  double sim_self_ns = 0.0;
  for (const auto& [name, t] : span_totals(tracer_.spans()))
    if (name.rfind("sim.", 0) == 0)
      sim_self_ns += static_cast<double>(t.self_ns);
  values_["sim_s_per_wall_s"] = per_s(step_ms_p50);
  values_["sim.events_per_sim_s"] = ratio(events, sim_s);
  values_["sim.events_per_s"] = ratio(events, sim_self_ns / 1e9 * scale_);
  values_["sim.events_per_batch"] = ratio(events, batches);
  values_["sim.allocs_per_event"] = ratio(allocs, events);
  const double sent = static_cast<double>(net.sent);
  values_["sim.net_msgs_per_sim_s"] = ratio(sent, sim_s);
  values_["sim.net_delivered_share"] =
      ratio(static_cast<double>(net.delivered), sent);
  values_["sim.net_unroutable"] = static_cast<double>(net.unroutable);
  values_["prism.monitor_pings_per_sim_s"] =
      ratio(counter(registries_, "monitor.rel.pings"), sim_s);
  values_["prism.admin_reports_per_sim_s"] =
      ratio(counter(registries_, "admin.reports"), sim_s);
  values_["prism.app_received_share"] = ratio(app_received, app_sent);
}

void LayerReport::emit(Outcome& out, double steps, double tail) {
  values_["bench.steps"] = steps;
  values_["bench.tail_percentile"] = tail;
  emit_metrics(out, per_layer_metrics(), values_);
  // The human-readable self-time table, in raw wall ms.
  for (const auto& [layer, ns] : layer_self_ns(tracer_.spans())) {
    char buf[120];
    std::snprintf(buf, sizeof buf, "self time %-9s %10.1f ms", layer.c_str(),
                  static_cast<double>(ns) / 1e6);
    out.notes.emplace_back(buf);
  }
}

}  // namespace perfbench
