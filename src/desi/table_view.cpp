#include "desi/table_view.h"

#include "util/table.h"

namespace dif::desi {

using util::Table;
using util::fmt;

std::string TableView::render_hosts(const SystemData& system) {
  Table table({"host", "memory (KB)", "cpu", "properties"});
  const model::DeploymentModel& m = system.model();
  for (std::size_t h = 0; h < m.host_count(); ++h) {
    const model::Host& host = m.host(static_cast<model::HostId>(h));
    std::string props;
    for (const auto& [name, value] : host.properties) {
      if (!props.empty()) props += ", ";
      props += name + "=" + fmt(value, 2);
    }
    table.add_row({host.name, fmt(host.memory_capacity, 1),
                   fmt(host.cpu_capacity, 1), props});
  }
  return table.render();
}

std::string TableView::render_components(const SystemData& system) {
  Table table({"component", "memory (KB)", "host"});
  const model::DeploymentModel& m = system.model();
  for (std::size_t c = 0; c < m.component_count(); ++c) {
    const auto comp = static_cast<model::ComponentId>(c);
    const model::HostId h = c < system.deployment().size()
                                ? system.deployment().host_of(comp)
                                : model::kNoHost;
    table.add_row({m.component(comp).name, fmt(m.component(comp).memory_size, 1),
                   h == model::kNoHost ? "(unassigned)" : m.host(h).name});
  }
  return table.render();
}

std::string TableView::render_links(const SystemData& system) {
  Table table({"link", "reliability", "bandwidth (KB/s)", "delay (ms)"});
  const model::DeploymentModel& m = system.model();
  m.for_each_physical_link([&](model::HostId ha, model::HostId hb,
                               const model::PhysicalLink& link) {
    if (link.bandwidth > 0.0)  // connected
      table.add_row({m.host(ha).name + "--" + m.host(hb).name,
                     fmt(link.reliability, 3), fmt(link.bandwidth, 1),
                     fmt(link.delay_ms, 1)});
  });
  return table.render();
}

std::string TableView::render_interactions(const SystemData& system) {
  Table table({"interaction", "frequency (evt/s)", "event size (KB)"});
  const model::DeploymentModel& m = system.model();
  for (const model::Interaction& ix : m.interactions()) {
    table.add_row({m.component(ix.a).name + "<->" + m.component(ix.b).name,
                   fmt(ix.frequency, 2), fmt(ix.avg_event_size, 2)});
  }
  return table.render();
}

std::string TableView::render_constraints(const SystemData& system) {
  Table table({"constraint", "subject", "detail"});
  const model::DeploymentModel& m = system.model();
  const model::ConstraintSet& cs = system.constraints();
  for (const auto& [component, hosts] : cs.allow_lists()) {
    std::string detail;
    for (const model::HostId h : hosts) {
      if (!detail.empty()) detail += ", ";
      detail += m.host(h).name;
    }
    table.add_row({"location", m.component(component).name,
                   "allowed on: " + detail});
  }
  for (const auto& [component, host] : cs.forbidden_hosts())
    table.add_row({"location", m.component(component).name,
                   "forbidden on: " + m.host(host).name});
  for (const auto& [a, b] : cs.colocation_pairs())
    table.add_row({"colocation", m.component(a).name,
                   "must share host with " + m.component(b).name});
  for (const auto& [a, b] : cs.anti_colocation_pairs())
    table.add_row({"anti-colocation", m.component(a).name,
                   "must not share host with " + m.component(b).name});
  return table.render();
}

std::string TableView::render_results(const AlgoResultData& results) {
  Table table({"algorithm", "objective", "value", "feasible", "evals",
               "time", "migrations", "est. redeploy"});
  for (const ResultEntry& entry : results.entries()) {
    table.add_row(
        {entry.result.algorithm, entry.objective,
         entry.result.feasible ? fmt(entry.result.value, 4) : "-",
         entry.result.feasible ? "yes" : "no",
         std::to_string(entry.result.evaluations),
         util::fmt_duration_ns(
             static_cast<double>(entry.result.elapsed.count())),
         std::to_string(entry.result.migrations),
         fmt(entry.estimated_redeploy_ms, 1) + " ms"});
  }
  return table.render();
}

}  // namespace dif::desi
