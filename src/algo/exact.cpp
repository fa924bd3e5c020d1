#include "algo/exact.h"

#include <algorithm>
#include <numeric>

#include "algo/random_feasible.h"
#include "model/incremental.h"

namespace dif::algo {

namespace {

/// Depth-first enumeration over collocation groups with incremental
/// feasibility tracking and (optionally) branch-and-bound pruning.
class ExactSearch {
 public:
  ExactSearch(const model::DeploymentModel& model,
              const model::Objective& objective,
              const model::ConstraintChecker& checker,
              const AlgoOptions& options, bool use_pruning)
      : model_(model),
        checker_(checker),
        groups_(ColocationGroups::build(model, checker.constraint_set())),
        state_(model, checker, groups_),
        search_(model, objective, options) {
    if (use_pruning)
      terms_ = model::PairwiseDecomposition::try_create(objective, model);
    build_order();
    if (terms_) build_decomposition();
  }

  [[nodiscard]] bool contradictory() const { return groups_.contradictory; }

  void run() { descend(0, 0.0); }

  [[nodiscard]] SearchState& search() { return search_; }
  [[nodiscard]] std::uint64_t nodes_visited() const { return nodes_; }
  [[nodiscard]] std::uint64_t nodes_pruned() const { return pruned_; }

 private:
  /// Orders groups by decreasing interaction weight so that pruning bites
  /// early; ties broken by index for determinism.
  void build_order() {
    const std::size_t g_count = groups_.group_count();
    std::vector<double> weight(g_count, 0.0);
    for (const model::Interaction& ix : model_.interactions()) {
      weight[groups_.group_of[ix.a]] += ix.frequency;
      weight[groups_.group_of[ix.b]] += ix.frequency;
    }
    order_.resize(g_count);
    std::iota(order_.begin(), order_.end(), 0u);
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return weight[a] > weight[b];
                     });
    position_.assign(g_count, 0);
    for (std::size_t p = 0; p < g_count; ++p) position_[order_[p]] = p;
  }

  /// Buckets interactions by the search depth at which both endpoints are
  /// decided, and precomputes the optimistic remainder per depth.
  void build_decomposition() {
    const std::size_t g_count = groups_.group_count();
    by_decision_depth_.assign(g_count, {});
    const auto interactions = model_.interactions();
    for (std::size_t index = 0; index < interactions.size(); ++index) {
      const model::Interaction& ix = interactions[index];
      const std::size_t pa = position_[groups_.group_of[ix.a]];
      const std::size_t pb = position_[groups_.group_of[ix.b]];
      by_decision_depth_[std::max(pa, pb)].push_back(index);
    }
    // optimistic_after_[d]: best possible contribution of every interaction
    // decided at depth >= d.
    optimistic_after_.assign(g_count + 1, 0.0);
    double suffix = 0.0;
    for (std::size_t d = g_count; d-- > 0;) {
      for (const std::size_t index : by_decision_depth_[d])
        suffix += terms_->optimistic_term(interactions[index]);
      optimistic_after_[d] = suffix;
    }
  }

  /// Contribution of all interactions that become decided by placing the
  /// group at order position `depth` (both endpoints now have hosts).
  [[nodiscard]] double decided_delta(std::size_t depth) const {
    double delta = 0.0;
    const auto interactions = model_.interactions();
    for (const std::size_t index : by_decision_depth_[depth]) {
      const model::Interaction& ix = interactions[index];
      const model::HostId ha = state_.host_of_group(groups_.group_of[ix.a]);
      const model::HostId hb = state_.host_of_group(groups_.group_of[ix.b]);
      delta += terms_->pair_term(ix, ha, hb);
    }
    return delta;
  }

  [[nodiscard]] bool prunable(std::size_t next_depth,
                              double partial_sum) const {
    if (!have_best_sum_) return false;
    const double bound = partial_sum + optimistic_after_[next_depth];
    return terms_->direction() == model::Direction::kMaximize
               ? bound <= best_sum_
               : bound >= best_sum_;
  }

  void descend(std::size_t depth, double partial_sum) {
    if (search_.out_of_budget()) return;
    ++nodes_;
    if (depth == groups_.group_count()) {
      const model::Deployment d = state_.to_deployment();
      if (terms_) {
        search_.consider_value(d, terms_->finalize(partial_sum));
        const bool better =
            !have_best_sum_ ||
            (terms_->direction() == model::Direction::kMaximize
                 ? partial_sum > best_sum_
                 : partial_sum < best_sum_);
        if (better) {
          best_sum_ = partial_sum;
          have_best_sum_ = true;
        }
      } else {
        search_.consider(d);
      }
      return;
    }
    const std::uint32_t g = order_[depth];
    const std::size_t k = model_.host_count();
    for (std::size_t h = 0; h < k; ++h) {
      const auto host = static_cast<model::HostId>(h);
      if (!state_.fits(g, host)) continue;
      state_.place(g, host);
      double next_sum = partial_sum;
      bool prune = false;
      if (terms_) {
        next_sum += decided_delta(depth);
        if (prunable(depth + 1, next_sum)) {
          prune = true;
          ++pruned_;
        }
      }
      if (!prune) descend(depth + 1, next_sum);
      state_.remove(g);
      if (search_.out_of_budget()) return;
    }
  }

  const model::DeploymentModel& model_;
  const model::ConstraintChecker& checker_;
  ColocationGroups groups_;
  PlacementState state_;
  SearchState search_;
  std::optional<model::PairwiseDecomposition> terms_;

  std::vector<std::uint32_t> order_;     // depth -> group
  std::vector<std::size_t> position_;    // group -> depth
  std::vector<std::vector<std::size_t>> by_decision_depth_;
  std::vector<double> optimistic_after_;

  double best_sum_ = 0.0;
  bool have_best_sum_ = false;
  std::uint64_t nodes_ = 0;
  std::uint64_t pruned_ = 0;
};

}  // namespace

AlgoResult ExactAlgorithm::run(const model::DeploymentModel& model,
                               const model::Objective& objective,
                               const model::ConstraintChecker& checker,
                               const AlgoOptions& options) {
  ExactSearch search(model, objective, checker, options, use_pruning_);
  if (!search.contradictory()) search.run();
  return search.search().finish(
      std::string(name()),
      "nodes=" + std::to_string(search.nodes_visited()) +
          " pruned=" + std::to_string(search.nodes_pruned()));
}

}  // namespace dif::algo
