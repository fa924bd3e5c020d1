#include "algo/random_feasible.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace dif::algo {

namespace {

/// Plain union-find over component indices.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::uint32_t a, std::uint32_t b) {
    parent_[find(a)] = find(b);
  }

 private:
  std::vector<std::uint32_t> parent_;
};

}  // namespace

ColocationGroups ColocationGroups::build(const model::DeploymentModel& model,
                                         const model::ConstraintSet& set) {
  const std::size_t n = model.component_count();
  UnionFind uf(n);
  for (const auto& [a, b] : set.colocation_pairs()) uf.unite(a, b);

  ColocationGroups groups;
  groups.group_of.assign(n, 0);
  std::vector<std::uint32_t> root_to_group(n,
                                           std::numeric_limits<std::uint32_t>::max());
  for (std::size_t c = 0; c < n; ++c) {
    const std::uint32_t root = uf.find(static_cast<std::uint32_t>(c));
    if (root_to_group[root] == std::numeric_limits<std::uint32_t>::max()) {
      root_to_group[root] = static_cast<std::uint32_t>(groups.members.size());
      groups.members.emplace_back();
      groups.memory.push_back(0.0);
      groups.cpu_load.push_back(0.0);
    }
    const std::uint32_t g = root_to_group[root];
    groups.group_of[c] = g;
    groups.members[g].push_back(static_cast<model::ComponentId>(c));
    groups.memory[g] += model.component(static_cast<model::ComponentId>(c))
                            .memory_size;
    groups.cpu_load[g] += model.component(static_cast<model::ComponentId>(c))
                              .cpu_load;
  }

  for (const auto& [a, b] : set.anti_colocation_pairs()) {
    const std::uint32_t ga = groups.group_of[a], gb = groups.group_of[b];
    if (ga == gb) {
      groups.contradictory = true;
      continue;
    }
    const auto pair = std::minmax(ga, gb);
    if (!std::count(groups.anti_pairs.begin(), groups.anti_pairs.end(),
                    std::pair{pair.first, pair.second}))
      groups.anti_pairs.emplace_back(pair.first, pair.second);
  }
  return groups;
}

bool ColocationGroups::group_allowed(const model::ConstraintChecker& checker,
                                     std::uint32_t g,
                                     model::HostId h) const {
  return std::all_of(
      members[g].begin(), members[g].end(),
      [&](model::ComponentId c) { return checker.host_allowed(c, h); });
}

PlacementState::PlacementState(const model::DeploymentModel& model,
                               const model::ConstraintChecker& checker,
                               const ColocationGroups& groups)
    : model_(model),
      checker_(checker),
      groups_(groups),
      group_host_(groups.group_count(), model::kNoHost) {
  const std::size_t k = model.host_count();
  free_memory_.resize(k);
  free_cpu_.resize(k);
  for (std::size_t h = 0; h < k; ++h) {
    const model::Host& host = model.host(static_cast<model::HostId>(h));
    free_memory_[h] = host.memory_capacity;
    free_cpu_[h] = host.cpu_capacity > 0.0
                       ? host.cpu_capacity
                       : std::numeric_limits<double>::infinity();
  }
}

bool PlacementState::fits(std::uint32_t g, model::HostId h) const {
  if (groups_.memory[g] > free_memory_[h]) return false;
  if (groups_.cpu_load[g] > free_cpu_[h]) return false;
  if (!groups_.group_allowed(checker_, g, h)) return false;
  for (const auto& [ga, gb] : groups_.anti_pairs) {
    const std::uint32_t other = (ga == g) ? gb : (gb == g) ? ga : g;
    if (other != g && group_host_[other] == h) return false;
  }
  return true;
}

void PlacementState::place(std::uint32_t g, model::HostId h) {
  free_memory_[h] -= groups_.memory[g];
  free_cpu_[h] -= groups_.cpu_load[g];
  group_host_[g] = h;
}

void PlacementState::remove(std::uint32_t g) {
  const model::HostId h = group_host_[g];
  if (h == model::kNoHost) return;
  free_memory_[h] += groups_.memory[g];
  free_cpu_[h] += groups_.cpu_load[g];
  group_host_[g] = model::kNoHost;
}

model::Deployment PlacementState::to_deployment() const {
  model::Deployment d(model_.component_count());
  for (std::uint32_t g = 0; g < groups_.group_count(); ++g) {
    if (group_host_[g] == model::kNoHost) continue;
    for (const model::ComponentId c : groups_.members[g])
      d.assign(c, group_host_[g]);
  }
  return d;
}

std::optional<model::Deployment> build_random_feasible(
    const model::DeploymentModel& model,
    const model::ConstraintChecker& checker, const ColocationGroups& groups,
    util::Xoshiro256ss& rng, const CancelToken* cancel) {
  if (groups.contradictory) return std::nullopt;
  if (cancel != nullptr && cancel->cancelled()) return std::nullopt;

  std::vector<model::HostId> host_order(model.host_count());
  std::iota(host_order.begin(), host_order.end(), 0u);
  rng.shuffle(host_order);

  std::vector<std::uint32_t> group_order(groups.group_count());
  std::iota(group_order.begin(), group_order.end(), 0u);
  rng.shuffle(group_order);

  PlacementState state(model, checker, groups);
  std::vector<std::uint32_t> unplaced = group_order;

  // Paper's Stochastic construction: go host by host, packing as many of the
  // (randomly ordered) remaining groups as fit, then move to the next host.
  for (const model::HostId h : host_order) {
    std::vector<std::uint32_t> still_unplaced;
    still_unplaced.reserve(unplaced.size());
    for (const std::uint32_t g : unplaced) {
      if (state.fits(g, h)) {
        state.place(g, h);
      } else {
        still_unplaced.push_back(g);
      }
    }
    unplaced = std::move(still_unplaced);
    if (unplaced.empty()) break;
  }
  if (!unplaced.empty()) return std::nullopt;
  return state.to_deployment();
}

std::vector<char> warm_dirty_groups(
    const ColocationGroups& groups,
    const std::vector<model::ComponentId>& dirty_components) {
  std::vector<char> dirty(groups.group_count(), 0);
  for (const model::ComponentId c : dirty_components)
    if (c < groups.group_of.size()) dirty[groups.group_of[c]] = 1;
  return dirty;
}

std::optional<model::Deployment> build_scattered_feasible(
    const model::DeploymentModel& model,
    const model::ConstraintChecker& checker, const ColocationGroups& groups,
    util::Xoshiro256ss& rng) {
  if (groups.contradictory) return std::nullopt;

  std::vector<std::uint32_t> group_order(groups.group_count());
  std::iota(group_order.begin(), group_order.end(), 0u);
  rng.shuffle(group_order);

  PlacementState state(model, checker, groups);
  std::vector<model::HostId> candidates;
  for (const std::uint32_t g : group_order) {
    candidates.clear();
    for (std::size_t h = 0; h < model.host_count(); ++h) {
      const auto host = static_cast<model::HostId>(h);
      if (state.fits(g, host)) candidates.push_back(host);
    }
    if (candidates.empty()) return std::nullopt;
    state.place(g, candidates[rng.index(candidates.size())]);
  }
  return state.to_deployment();
}

std::optional<model::Deployment> build_random_feasible_retry(
    const model::DeploymentModel& model,
    const model::ConstraintChecker& checker, const ColocationGroups& groups,
    util::Xoshiro256ss& rng, int attempts, const CancelToken* cancel) {
  for (int i = 0; i < attempts; ++i) {
    if (cancel != nullptr && cancel->cancelled()) return std::nullopt;
    if (auto d = build_random_feasible(model, checker, groups, rng, cancel))
      return d;
  }
  return std::nullopt;
}

}  // namespace dif::algo
