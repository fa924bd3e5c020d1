#include "desi/graph_view.h"

#include "util/table.h"

namespace dif::desi {

std::string GraphView::render_ascii(const SystemData& system) {
  const model::DeploymentModel& m = system.model();
  std::string out;
  for (std::size_t h = 0; h < m.host_count(); ++h) {
    const auto host = static_cast<model::HostId>(h);
    out += "+-- " + m.host(host).name +
           " (mem " + util::fmt(m.host(host).memory_capacity, 0) + " KB)\n";
    if (system.deployment().size() == m.component_count()) {
      for (const model::ComponentId c :
           system.deployment().components_on(host)) {
        out += "|     [" + m.component(c).name + "]\n";
      }
    }
  }
  out += "physical links:\n";
  m.for_each_physical_link([&](model::HostId ha, model::HostId hb,
                               const model::PhysicalLink& link) {
    if (link.bandwidth > 0.0)  // connected
      out += "  " + m.host(ha).name + " === " + m.host(hb).name + "  (rel " +
             util::fmt(link.reliability, 2) + ", bw " +
             util::fmt(link.bandwidth, 0) + " KB/s)\n";
  });
  out += "logical links:\n";
  for (const model::Interaction& ix : m.interactions()) {
    out += "  " + m.component(ix.a).name + " --- " + m.component(ix.b).name +
           "  (" + util::fmt(ix.frequency, 1) + " evt/s)\n";
  }
  return out;
}

std::string GraphView::to_dot(const SystemData& system,
                              const GraphViewData& layout) {
  const model::DeploymentModel& m = system.model();
  std::string out = "graph deployment {\n  compound=true;\n";
  static const char* kPalette[8] = {"lightblue",  "lightyellow", "lightpink",
                                    "lightgreen", "lavender",    "wheat",
                                    "honeydew",   "mistyrose"};
  for (const HostVisual& hv : layout.hosts()) {
    out += "  subgraph cluster_h" + std::to_string(hv.host) + " {\n";
    out += "    label=\"" + m.host(hv.host).name + "\";\n";
    out += "    style=filled; color=" +
           std::string(kPalette[hv.color % 8]) + ";\n";
    bool any = false;
    for (const ComponentVisual& cv : layout.components()) {
      if (cv.containing_host != hv.host) continue;
      out += "    c" + std::to_string(cv.component) + " [label=\"" +
             m.component(cv.component).name + "\", shape=box];\n";
      any = true;
    }
    if (!any) {
      out += "    placeholder_h" + std::to_string(hv.host) +
             " [style=invis, shape=point];\n";
    }
    out += "  }\n";
  }
  m.for_each_physical_link([&](model::HostId ha, model::HostId hb,
                               const model::PhysicalLink& link) {
    // Host-level edges need representative nodes; use clusters via lhead.
    if (link.bandwidth > 0.0)  // connected
      out += "  // physical " + m.host(ha).name + " -- " + m.host(hb).name +
             "\n";
  });
  for (const model::Interaction& ix : m.interactions()) {
    out += "  c" + std::to_string(ix.a) + " -- c" + std::to_string(ix.b) +
           " [penwidth=0.5];\n";
  }
  out += "}\n";
  return out;
}

}  // namespace dif::desi
