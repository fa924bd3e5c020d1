#include "check/audit.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "model/constraints.h"
#include "model/deployment.h"
#include "model/deployment_model.h"

namespace dif::check {

namespace {

using model::ComponentId;
using model::DeploymentModel;
using model::HostId;

/// First `cap` names, with a "+N more" tail when truncated.
std::vector<std::string> capped_names(const std::vector<std::string>& names,
                                      std::size_t cap) {
  if (names.size() <= cap) return names;
  std::vector<std::string> out(names.begin(),
                               names.begin() + static_cast<std::ptrdiff_t>(cap));
  out.push_back(std::string("+")
                    .append(std::to_string(names.size() - cap))
                    .append(" more"));
  return out;
}

}  // namespace

CheckReport PlacementAuditor::audit(const AnalysisContext& ctx,
                                    const model::Deployment& d) const {
  CheckReport report;
  const DeploymentModel& m = ctx.model();
  const std::size_t n = ctx.components();
  const std::size_t k = ctx.hosts();

  if (d.size() != n) {
    report.add({Rule::kPlacementUnassigned,
                Severity::kError,
                {"deployment"},
                "the deployment covers " + std::to_string(d.size()) +
                    " components but the model has " + std::to_string(n),
                "audit a deployment built for this model"});
  }
  const std::size_t covered = std::min(d.size(), n);

  // Resolved per-component host (only in-range assignments), and the
  // assignment-shape defects.
  std::vector<bool> placed(covered, false);
  std::vector<HostId> where(covered, 0);
  for (std::size_t c = 0; c < covered; ++c) {
    const auto cid = static_cast<ComponentId>(c);
    if (!d.is_assigned(cid)) {
      report.add({Rule::kPlacementUnassigned,
                  Severity::kError,
                  {ctx.component_subject(c)},
                  "the deployment leaves this component off every host",
                  "assign it a host or drop it from the model"});
      continue;
    }
    const HostId h = d.host_of(cid);
    if (h >= k) {
      report.add({Rule::kDanglingReference,
                  Severity::kError,
                  {ctx.component_subject(c)},
                  "the deployment places it on host id " + std::to_string(h) +
                      " but the model has " + std::to_string(k) + " hosts",
                  "point the assignment at an existing host"});
      continue;
    }
    placed[c] = true;
    where[c] = h;
    if (!ctx.allowed(c, h))
      report.add({Rule::kPlacementLocation,
                  Severity::kError,
                  {ctx.component_subject(c), ctx.host_subject(h)},
                  "the location constraints (allow-list minus forbids) rule "
                  "this host out for the component",
                  "move the component to an allowed host or relax the "
                  "constraint"});
  }

  // Per-host capacity sums.
  std::vector<double> mem(k, 0.0), cpu(k, 0.0);
  std::vector<std::vector<std::string>> residents(k);
  for (std::size_t c = 0; c < covered; ++c) {
    if (!placed[c]) continue;
    const model::SoftwareComponent& comp =
        m.component(static_cast<ComponentId>(c));
    mem[where[c]] += comp.memory_size;
    cpu[where[c]] += comp.cpu_load;
    residents[where[c]].push_back(comp.name);
  }
  for (std::size_t h = 0; h < k; ++h) {
    const model::Host& host = m.host(static_cast<HostId>(h));
    if (mem[h] > host.memory_capacity)
      report.add({Rule::kPlacementCapacity,
                  Severity::kError,
                  {ctx.host_subject(h)},
                  "resident memory " + fmt(mem[h]) +
                      " KB oversubscribes the host's " +
                      fmt(host.memory_capacity) + " KB (" +
                      std::to_string(residents[h].size()) + " components)",
                  "move a resident elsewhere or grow the host",
                  capped_names(residents[h], 8)});
    if (host.cpu_capacity > 0.0 && cpu[h] > host.cpu_capacity)
      report.add({Rule::kPlacementCapacity,
                  Severity::kError,
                  {ctx.host_subject(h)},
                  "resident CPU load " + fmt(cpu[h]) +
                      " oversubscribes the host's capacity " +
                      fmt(host.cpu_capacity),
                  "move a resident elsewhere or grow the host's CPU",
                  capped_names(residents[h], 8)});
  }

  // Collocation closure classes must sit on one host each.
  for (const auto& group : ctx.groups()) {
    if (group.size() < 2) continue;
    std::set<HostId> hosts_used;
    std::string members = "group {";
    bool all_placed = true;
    for (std::size_t i = 0; i < group.size(); ++i) {
      const std::size_t c = group[i];
      if (i > 0) members += ", ";
      members += m.component(static_cast<ComponentId>(c)).name;
      if (c < covered && placed[c])
        hosts_used.insert(where[c]);
      else
        all_placed = false;
    }
    members += "}";
    if (!all_placed) continue;  // placement-unassigned owns the root cause
    if (hosts_used.size() <= 1) continue;
    std::vector<std::string> witness;
    witness.reserve(hosts_used.size());
    for (const HostId h : hosts_used)
      witness.push_back(m.host(static_cast<HostId>(h)).name);
    report.add({Rule::kPlacementColocation,
                Severity::kError,
                {members},
                "the must-collocate closure is split across " +
                    std::to_string(hosts_used.size()) + " hosts",
                "move the class onto one common legal host",
                std::move(witness)});
  }

  // Separation pairs must not share a host.
  for (const auto& [a, b] : ctx.constraints().anti_colocation_pairs()) {
    if (a >= covered || b >= covered || !placed[a] || !placed[b]) continue;
    if (where[a] != where[b]) continue;
    report.add({Rule::kPlacementColocation,
                Severity::kError,
                {ctx.component_subject(a), ctx.component_subject(b),
                 ctx.host_subject(where[a])},
                "a separation constraint forbids these components from "
                "sharing a host, but both are placed there",
                "move one of the pair to a different legal host"});
  }

  // Advisory bandwidth audit: aggregate interaction traffic per host pair.
  if (options_.check_bandwidth) {
    std::map<std::pair<HostId, HostId>, double> traffic;
    std::map<std::pair<HostId, HostId>, std::size_t> flows;
    for (const model::Interaction& ix : m.interactions()) {
      if (ix.a >= covered || ix.b >= covered) continue;
      if (!placed[ix.a] || !placed[ix.b]) continue;
      const HostId ha = where[ix.a];
      const HostId hb = where[ix.b];
      if (ha == hb) continue;  // local delivery, no physical link involved
      const auto key = std::minmax(ha, hb);
      traffic[key] += ix.frequency * ix.avg_event_size;
      ++flows[key];
    }
    for (const auto& [key, load] : traffic) {
      const auto [ha, hb] = key;
      const std::string subject = "link " +
                                  m.host(static_cast<HostId>(ha)).name + "--" +
                                  m.host(static_cast<HostId>(hb)).name;
      if (!m.connected(ha, hb)) {
        report.add({Rule::kPlacementBandwidth,
                    Severity::kWarning,
                    {subject},
                    std::to_string(flows[key]) +
                        " interaction(s) cross this host pair but no direct "
                        "physical link exists: " +
                        fmt(load) +
                        " KB/s must be store-and-forward mediated",
                    "add a physical link or collocate the endpoints"});
        continue;
      }
      const model::PhysicalLink& link = m.physical_link(ha, hb);
      if (load > link.bandwidth)
        report.add({Rule::kPlacementBandwidth,
                    Severity::kWarning,
                    {subject},
                    "aggregate interaction traffic " + fmt(load) +
                        " KB/s oversubscribes the link's " +
                        fmt(link.bandwidth) + " KB/s",
                    "spread the endpoints or grow the link's bandwidth"});
    }
  }

  return report;
}

CheckReport PlacementAuditor::audit(const model::DeploymentModel& model,
                                    const model::ConstraintSet& set,
                                    const model::Deployment& deployment) const {
  return audit(AnalysisContext(model, set), deployment);
}

}  // namespace dif::check
