#include "algo/mincut.h"

#include <functional>
#include <limits>
#include <queue>

#include "model/interaction_term.h"

namespace dif::algo {

namespace {

/// Dinic max-flow on a small dense graph.
class Dinic {
 public:
  explicit Dinic(std::size_t nodes) : head_(nodes, -1), level_(nodes), it_(nodes) {}

  void add_edge(std::size_t from, std::size_t to, double capacity) {
    edges_.push_back({to, head_[from], capacity});
    head_[from] = static_cast<int>(edges_.size()) - 1;
    edges_.push_back({from, head_[to], 0.0});
    head_[to] = static_cast<int>(edges_.size()) - 1;
  }

  /// `should_stop` is polled once per BFS phase — the natural preemption
  /// point; an interrupted flow still yields a valid (if not minimal) cut.
  double max_flow(std::size_t source, std::size_t sink,
                  const std::function<bool()>& should_stop = {}) {
    double flow = 0.0;
    while ((!should_stop || !should_stop()) && bfs(source, sink)) {
      it_ = head_;
      while (true) {
        const double pushed =
            dfs(source, sink, std::numeric_limits<double>::infinity());
        if (pushed <= 0.0) break;
        flow += pushed;
      }
    }
    return flow;
  }

  /// After max_flow: nodes reachable from `source` in the residual graph
  /// form the source side of a minimum cut.
  [[nodiscard]] std::vector<bool> source_side(std::size_t source) const {
    std::vector<bool> reachable(head_.size(), false);
    std::queue<std::size_t> queue;
    queue.push(source);
    reachable[source] = true;
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop();
      for (int e = head_[u]; e >= 0; e = edges_[e].next) {
        if (edges_[e].capacity > 1e-12 && !reachable[edges_[e].to]) {
          reachable[edges_[e].to] = true;
          queue.push(edges_[e].to);
        }
      }
    }
    return reachable;
  }

 private:
  struct Edge {
    std::size_t to;
    int next;
    double capacity;
  };

  bool bfs(std::size_t source, std::size_t sink) {
    std::fill(level_.begin(), level_.end(), -1);
    std::queue<std::size_t> queue;
    queue.push(source);
    level_[source] = 0;
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop();
      for (int e = head_[u]; e >= 0; e = edges_[e].next) {
        if (edges_[e].capacity > 1e-12 && level_[edges_[e].to] < 0) {
          level_[edges_[e].to] = level_[u] + 1;
          queue.push(edges_[e].to);
        }
      }
    }
    return level_[sink] >= 0;
  }

  double dfs(std::size_t u, std::size_t sink, double limit) {
    if (u == sink) return limit;
    for (int& e = it_[u]; e >= 0; e = edges_[e].next) {
      Edge& edge = edges_[e];
      if (edge.capacity > 1e-12 && level_[edge.to] == level_[u] + 1) {
        const double pushed =
            dfs(edge.to, sink, std::min(limit, edge.capacity));
        if (pushed > 0.0) {
          edge.capacity -= pushed;
          edges_[e ^ 1].capacity += pushed;
          return pushed;
        }
      }
    }
    return 0.0;
  }

  std::vector<Edge> edges_;
  std::vector<int> head_;
  std::vector<int> level_;
  std::vector<int> it_;
};

}  // namespace

AlgoResult MinCutPartitioner::run(const model::DeploymentModel& model,
                                  const model::Objective& objective,
                                  const model::ConstraintChecker& checker,
                                  const AlgoOptions& options) {
  SearchState search(model, objective, options);
  if (model.host_count() != 2)
    return search.finish(std::string(name()),
                         "mincut requires exactly 2 hosts (Coign's domain)");

  const std::size_t n = model.component_count();
  const std::size_t source = n;      // represents host 0
  const std::size_t sink = n + 1;    // represents host 1
  Dinic dinic(n + 2);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const model::PhysicalLink& link = model.physical_link(0, 1);

  // Edge capacity = communication time incurred per second if the pair is
  // split across the link (Coign's minimization criterion).
  for (const model::Interaction& ix : model.interactions()) {
    const double cost =
        link.bandwidth > 0.0
            ? model::interaction_term<model::TermKind::kLatency>(
                  model, ix.frequency, ix.avg_event_size, 0, 1)
            : model::interaction_term<model::TermKind::kCommCost>(
                  model, ix.frequency, ix.avg_event_size, 0, 1);
    dinic.add_edge(ix.a, ix.b, cost);
    dinic.add_edge(ix.b, ix.a, cost);
  }

  // Location constraints pin components to a side.
  for (std::size_t c = 0; c < n; ++c) {
    const auto comp = static_cast<model::ComponentId>(c);
    const bool on0 = checker.host_allowed(comp, 0);
    const bool on1 = checker.host_allowed(comp, 1);
    if (!on0 && !on1)
      return search.finish(std::string(name()), "component allowed nowhere");
    if (!on1) dinic.add_edge(source, c, kInf);
    if (!on0) dinic.add_edge(c, sink, kInf);
  }

  dinic.max_flow(source, sink, [&] { return search.out_of_budget(); });
  const std::vector<bool> with_host0 = dinic.source_side(source);

  model::Deployment d(n);
  for (std::size_t c = 0; c < n; ++c)
    d.assign(static_cast<model::ComponentId>(c), with_host0[c] ? 0 : 1);

  if (checker.feasible(d)) {
    search.consider(d);
    return search.finish(std::string(name()));
  }
  // Like Coign, the cut ignored resource limits; report the violation.
  AlgoResult result = search.finish(std::string(name()),
                                    "cut violates resource constraints");
  result.deployment = d;
  result.value = objective.evaluate(model, d);
  result.feasible = false;
  return result;
}

}  // namespace dif::algo
