#include "check/resilience.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "model/deployment.h"
#include "model/deployment_model.h"

namespace dif::check {

namespace {

using model::ComponentId;
using model::DeploymentModel;
using model::HostId;

/// Joins up to `cap` names, appending "+N more" when truncated.
std::string join_names(const std::vector<std::string>& names,
                       std::size_t cap) {
  std::string out;
  const std::size_t shown = std::min(names.size(), cap);
  for (std::size_t i = 0; i < shown; ++i) {
    if (i > 0) out += ", ";
    out += names[i];
  }
  if (names.size() > shown)
    out += ", +" + std::to_string(names.size() - shown) + " more";
  return out;
}

/// Diagnostic sink with a hard cap; overflow collapses into one summary.
class Emitter {
 public:
  Emitter(CheckReport& report, std::size_t cap) : report_(report), cap_(cap) {}

  void add(Diagnostic d) {
    if (report_.diagnostics().size() < cap_)
      report_.add(std::move(d));
    else
      ++suppressed_;
  }

  void flush() {
    if (suppressed_ == 0) return;
    report_.add({Rule::kResilienceSpof,
                 Severity::kWarning,
                 {"model"},
                 std::to_string(suppressed_) +
                     " further resilience finding(s) suppressed",
                 "raise ResilienceOptions::max_diagnostics to see them all"});
  }

 private:
  CheckReport& report_;
  std::size_t cap_;
  std::size_t suppressed_ = 0;
};

/// Connected-component labels of the host graph with `failed` hosts
/// removed. Failed hosts keep label k (never matched against).
std::vector<std::size_t> surviving_labels(
    const std::vector<std::vector<HostId>>& adj,
    const std::vector<bool>& failed) {
  const std::size_t k = adj.size();
  std::vector<std::size_t> label(k, k);
  std::size_t next = 0;
  std::vector<HostId> stack;
  for (std::size_t root = 0; root < k; ++root) {
    if (failed[root] || label[root] != k) continue;
    label[root] = next;
    stack.push_back(static_cast<HostId>(root));
    while (!stack.empty()) {
      const HostId h = stack.back();
      stack.pop_back();
      for (const HostId other : adj[h]) {
        if (failed[other] || label[other] != k) continue;
        label[other] = next;
        stack.push_back(other);
      }
    }
    ++next;
  }
  return label;
}

/// Minimum vertex cut between two hosts via unit-capacity max-flow over the
/// split graph: host i becomes in-node 2i and out-node 2i+1 joined by a
/// capacity-1 internal edge; each physical link contributes two directed
/// unbounded edges out(a)→in(b), out(b)→in(a). The cut members are the
/// hosts whose internal edge is saturated across the final residual
/// reachability frontier.
class VertexCut {
 public:
  explicit VertexCut(const std::vector<std::vector<HostId>>& adj)
      : adj_(adj) {}

  /// The minimum host set (excluding the endpoints) whose removal
  /// disconnects s from t, when its size is ≤ limit; nullopt when the cut
  /// is larger (or infinite: a direct s—t link exists).
  [[nodiscard]] std::optional<std::vector<HostId>> cut(HostId s, HostId t,
                                                       std::size_t limit) {
    const std::size_t k = adj_.size();
    graph_.assign(2 * k, {});
    for (std::size_t i = 0; i < k; ++i)
      add_edge(in(i), out(i), 1);
    for (std::size_t a = 0; a < k; ++a)
      for (const HostId b : adj_[a]) {
        if (a == s && b == t) return std::nullopt;  // uncuttable direct link
        add_edge(out(a), in(b), kUnbounded);
      }

    std::size_t flow = 0;
    while (flow <= limit && augment(out(s), in(t))) ++flow;
    if (flow > limit) return std::nullopt;

    const std::vector<bool> reach = residual_reachable(out(s));
    std::vector<HostId> members;
    for (std::size_t i = 0; i < k; ++i) {
      if (i == s || i == t) continue;
      if (reach[static_cast<std::size_t>(in(i))] &&
          !reach[static_cast<std::size_t>(out(i))])
        members.push_back(static_cast<HostId>(i));
    }
    return members;
  }

 private:
  static constexpr int kUnbounded = 1 << 28;

  struct Edge {
    int to;
    int cap;
    int rev;
  };

  static int in(std::size_t host) { return static_cast<int>(2 * host); }
  static int out(std::size_t host) { return static_cast<int>(2 * host + 1); }

  void add_edge(int u, int v, int cap) {
    graph_[static_cast<std::size_t>(u)].push_back(
        {v, cap, static_cast<int>(graph_[static_cast<std::size_t>(v)].size())});
    graph_[static_cast<std::size_t>(v)].push_back(
        {u, 0,
         static_cast<int>(graph_[static_cast<std::size_t>(u)].size()) - 1});
  }

  /// One BFS augmentation; returns false when t is unreachable.
  bool augment(int s, int t) {
    const std::size_t nodes = graph_.size();
    std::vector<std::pair<int, int>> parent(nodes, {-1, -1});  // node, edge
    std::vector<bool> seen(nodes, false);
    std::vector<int> queue{s};
    seen[static_cast<std::size_t>(s)] = true;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int u = queue[head];
      if (u == t) break;
      const auto& edges = graph_[static_cast<std::size_t>(u)];
      for (std::size_t e = 0; e < edges.size(); ++e) {
        if (edges[e].cap <= 0 || seen[static_cast<std::size_t>(edges[e].to)])
          continue;
        seen[static_cast<std::size_t>(edges[e].to)] = true;
        parent[static_cast<std::size_t>(edges[e].to)] = {u,
                                                         static_cast<int>(e)};
        queue.push_back(edges[e].to);
      }
    }
    if (!seen[static_cast<std::size_t>(t)]) return false;

    int bottleneck = kUnbounded;
    for (int v = t; v != s;) {
      const auto [u, e] = parent[static_cast<std::size_t>(v)];
      bottleneck = std::min(
          bottleneck,
          graph_[static_cast<std::size_t>(u)][static_cast<std::size_t>(e)].cap);
      v = u;
    }
    for (int v = t; v != s;) {
      const auto [u, e] = parent[static_cast<std::size_t>(v)];
      Edge& fwd =
          graph_[static_cast<std::size_t>(u)][static_cast<std::size_t>(e)];
      fwd.cap -= bottleneck;
      graph_[static_cast<std::size_t>(fwd.to)][static_cast<std::size_t>(
                                                   fwd.rev)]
          .cap += bottleneck;
      v = u;
    }
    return true;
  }

  [[nodiscard]] std::vector<bool> residual_reachable(int s) const {
    std::vector<bool> seen(graph_.size(), false);
    std::vector<int> stack{s};
    seen[static_cast<std::size_t>(s)] = true;
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      for (const Edge& e : graph_[static_cast<std::size_t>(u)]) {
        if (e.cap <= 0 || seen[static_cast<std::size_t>(e.to)]) continue;
        seen[static_cast<std::size_t>(e.to)] = true;
        stack.push_back(e.to);
      }
    }
    return seen;
  }

  const std::vector<std::vector<HostId>>& adj_;
  std::vector<std::vector<Edge>> graph_;
};

}  // namespace

CheckReport ResilienceProver::prove(const DeploymentModel& m,
                                    const model::Deployment& d) const {
  CheckReport report;
  Emitter emit(report, options_.max_diagnostics);
  const std::size_t n = m.component_count();
  const std::size_t k = m.host_count();
  const std::size_t covered = std::min(d.size(), n);

  // Host adjacency (links with bandwidth > 0) and the resolved placement.
  // Unassigned or out-of-range components are the PlacementAuditor's
  // findings; here they simply carry no service to lose.
  std::vector<std::vector<HostId>> adj(k);
  for (std::size_t a = 0; a < k; ++a) {
    const auto host = static_cast<HostId>(a);
    for (const HostId b : m.physical_neighbors(host))
      if (m.connected(host, b)) adj[a].push_back(b);
  }

  std::vector<bool> placed(covered, false);
  std::vector<HostId> where(covered, 0);
  std::vector<std::vector<std::string>> residents(k);
  for (std::size_t c = 0; c < covered; ++c) {
    const auto cid = static_cast<ComponentId>(c);
    if (!d.is_assigned(cid) || d.host_of(cid) >= k) continue;
    placed[c] = true;
    where[c] = d.host_of(cid);
    residents[where[c]].push_back(m.component(cid).name);
  }

  // Live remote interactions: both endpoints placed, on distinct hosts.
  struct Flow {
    HostId a;
    HostId b;
    std::string name;
  };
  std::vector<Flow> flows;
  for (const model::Interaction& ix : m.interactions()) {
    if (ix.a >= covered || ix.b >= covered) continue;
    if (!placed[ix.a] || !placed[ix.b]) continue;
    if (where[ix.a] == where[ix.b]) continue;
    flows.push_back({where[ix.a], where[ix.b],
                     m.component(static_cast<ComponentId>(ix.a)).name + "--" +
                         m.component(static_cast<ComponentId>(ix.b)).name});
  }

  // k = 1 sweep: every single host's failure, with partition analysis.
  if (options_.max_failures >= 1) {
    std::vector<bool> failed(k, false);
    for (std::size_t h = 0; h < k; ++h) {
      failed[h] = true;
      std::vector<std::string> severed;
      const std::vector<std::size_t> label = surviving_labels(adj, failed);
      for (const Flow& f : flows) {
        if (f.a == h || f.b == h) continue;  // endpoint loss counted below
        if (label[f.a] != label[f.b]) severed.push_back(f.name);
      }
      failed[h] = false;
      if (residents[h].empty() && severed.empty()) continue;

      std::string message;
      if (!residents[h].empty())
        message += "its failure takes down " +
                   std::to_string(residents[h].size()) + " component(s): " +
                   join_names(residents[h], 5);
      if (!severed.empty()) {
        if (!message.empty()) message += "; ";
        message += "it is an articulation point severing " +
                   std::to_string(severed.size()) +
                   " surviving interaction(s): " + join_names(severed, 5);
      }
      emit.add({Rule::kResilienceSpof,
                Severity::kWarning,
                {"host " + m.host(static_cast<HostId>(h)).name},
                std::move(message),
                residents[h].empty()
                    ? "add a redundant physical path around this host"
                    : "replicate or re-place the residents off this host",
                {m.host(static_cast<HostId>(h)).name}});
    }
  }

  // k ≥ 2: a minimum vertex cut per remote interaction, grouped by cut set.
  if (options_.max_failures >= 2) {
    VertexCut cutter(adj);
    std::map<std::vector<HostId>, std::vector<std::string>> by_cut;
    for (const Flow& f : flows) {
      const auto members = cutter.cut(f.a, f.b, options_.max_failures);
      // Size-1 cuts are the sweep's articulation findings.
      if (!members || members->size() < 2) continue;
      by_cut[*members].push_back(f.name);
    }
    for (const auto& [members, names] : by_cut) {
      std::vector<std::string> witness;
      witness.reserve(members.size());
      for (const HostId h : members) witness.push_back(m.host(h).name);
      emit.add({Rule::kResilienceSpof,
                Severity::kWarning,
                {"hosts {" + join_names(witness, 8) + "}"},
                "the simultaneous failure of these " +
                    std::to_string(members.size()) +
                    " hosts (a minimum vertex cut) severs " +
                    std::to_string(names.size()) + " interaction(s): " +
                    join_names(names, 5),
                "add a physical path avoiding this host set",
                std::move(witness)});
    }
  }

  // Whole-region failures.
  if (options_.regions && m.region_count() >= 2) {
    for (std::size_t r = 0; r < m.region_count(); ++r) {
      const std::vector<HostId> region_hosts = m.hosts_in_region(r);
      if (region_hosts.empty()) continue;
      std::vector<bool> failed(k, false);
      std::vector<std::string> witness;
      std::vector<std::string> lost;
      for (const HostId h : region_hosts) {
        failed[h] = true;
        witness.push_back(m.host(h).name);
        lost.insert(lost.end(), residents[h].begin(), residents[h].end());
      }
      std::vector<std::string> severed;
      const std::vector<std::size_t> label = surviving_labels(adj, failed);
      for (const Flow& f : flows) {
        if (failed[f.a] || failed[f.b]) continue;
        if (label[f.a] != label[f.b]) severed.push_back(f.name);
      }
      if (lost.empty() && severed.empty()) continue;

      std::string message =
          "region " + std::to_string(r) + " going down (" +
          std::to_string(region_hosts.size()) + " host(s))";
      if (!lost.empty())
        message += " takes down " + std::to_string(lost.size()) +
                   " component(s): " + join_names(lost, 5);
      if (!severed.empty())
        message += std::string(lost.empty() ? " severs " : " and severs ") +
                   std::to_string(severed.size()) +
                   " surviving interaction(s): " + join_names(severed, 5);
      emit.add({Rule::kResilienceRegion,
                Severity::kWarning,
                {"region " + std::to_string(r)},
                std::move(message),
                "spread the components (and physical paths) across regions",
                std::move(witness)});
    }
  }

  emit.flush();
  return report;
}

}  // namespace dif::check
