#include "algo/avala.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "algo/random_feasible.h"

namespace dif::algo {

namespace {

/// max(values) guarded against empty/zero (for safe normalization).
double max_or_one(const std::vector<double>& values) {
  double hi = 0.0;
  for (const double v : values) hi = std::max(hi, v);
  return hi > 0.0 ? hi : 1.0;
}

}  // namespace

AlgoResult AvalaAlgorithm::run(const model::DeploymentModel& model,
                               const model::Objective& objective,
                               const model::ConstraintChecker& checker,
                               const AlgoOptions& options) {
  SearchState search(model, objective, options);
  const ColocationGroups groups =
      ColocationGroups::build(model, checker.constraint_set());
  if (groups.contradictory)
    return search.finish(std::string(name()), "contradictory constraints");

  const std::size_t k = model.host_count();
  const std::size_t g_count = groups.group_count();

  // --- warm-started repair -------------------------------------------------
  // Keep every clean group where the initial deployment put it and re-place
  // only the dirty groups, by interaction affinity to the (frozen) rest.
  // Cost: O(interactions + dirty * k) instead of the cold greedy's
  // O(groups^2 * hosts). Falls through to the cold path when repair fails.
  if (options.warm_start && options.initial && options.initial->complete() &&
      checker.feasible(*options.initial)) {
    if (options.dirty_components.empty()) {
      search.consider(*options.initial);
      return search.finish(std::string(name()), "warm-start: no delta");
    }
    const std::vector<char> dirty =
        warm_dirty_groups(groups, options.dirty_components);
    PlacementState state(model, checker, groups);
    std::vector<std::uint32_t> dirty_list;
    std::vector<std::uint32_t> dirty_index(g_count,
                                           std::numeric_limits<std::uint32_t>::max());
    for (std::uint32_t g = 0; g < g_count; ++g) {
      if (dirty[g]) {
        dirty_index[g] = static_cast<std::uint32_t>(dirty_list.size());
        dirty_list.push_back(g);
      } else {
        state.place(g, options.initial->host_of(groups.members[g].front()));
      }
    }
    // Per-host interaction frequency of each dirty group toward the groups
    // already pinned down, kept sparse: each dirty group lists its
    // (host, frequency) contributions in the order they arise. Dirty-dirty
    // pairs contribute as soon as the earlier-placed side lands.
    std::vector<std::vector<std::pair<model::HostId, double>>> affinity(
        dirty_list.size());
    std::vector<std::vector<std::pair<std::uint32_t, double>>> dirty_pairs(
        dirty_list.size());
    for (const model::Interaction& ix : model.interactions()) {
      const std::uint32_t ga = groups.group_of[ix.a];
      const std::uint32_t gb = groups.group_of[ix.b];
      if (ga == gb) continue;
      const bool da = dirty[ga] != 0, db = dirty[gb] != 0;
      if (da && db) {
        dirty_pairs[dirty_index[ga]].emplace_back(dirty_index[gb],
                                                  ix.frequency);
        dirty_pairs[dirty_index[gb]].emplace_back(dirty_index[ga],
                                                  ix.frequency);
      } else if (da) {
        affinity[dirty_index[ga]].emplace_back(state.host_of_group(gb),
                                               ix.frequency);
      } else if (db) {
        affinity[dirty_index[gb]].emplace_back(state.host_of_group(ga),
                                               ix.frequency);
      }
    }
    // One group's per-host sums, accumulated in list order (the order a
    // dense per-host row would have received them) and cleared after use.
    std::vector<double> host_affinity(k, 0.0);
    bool repaired = true;
    for (std::uint32_t di = 0; di < dirty_list.size() && repaired; ++di) {
      const std::uint32_t g = dirty_list[di];
      for (const auto& [host, freq] : affinity[di]) host_affinity[host] += freq;
      std::int64_t best_host = -1;
      double best_affinity = 0.0;
      for (std::size_t h = 0; h < k; ++h) {
        const auto host = static_cast<model::HostId>(h);
        if (!state.fits(g, host)) continue;
        if (best_host < 0 || host_affinity[h] > best_affinity) {
          best_host = static_cast<std::int64_t>(h);
          best_affinity = host_affinity[h];
        }
      }
      for (const auto& [host, freq] : affinity[di]) host_affinity[host] = 0.0;
      if (best_host < 0) {
        repaired = false;
        break;
      }
      const auto host = static_cast<model::HostId>(best_host);
      state.place(g, host);
      for (const auto& [other, freq] : dirty_pairs[di])
        if (other > di) affinity[other].emplace_back(host, freq);
    }
    if (repaired) {
      // The repaired placement competes with simply keeping the initial;
      // the incumbent picks whichever scores better.
      search.consider(*options.initial);
      const model::Deployment d = state.to_deployment();
      if (checker.feasible(d)) search.consider(d);
      return search.finish(std::string(name()), "warm repair");
    }
  }

  // --- host ranking: sum of reliabilities + normalized bandwidths to other
  // hosts, plus normalized memory capacity -------------------------------
  // Only stored links are visited, in ascending host order: an absent one
  // would add +0.0 to the max and to the sum, which changes neither.
  std::vector<double> host_memory(k), host_conn(k, 0.0);
  double max_bw = 0.0;
  for (std::size_t a = 0; a < k; ++a) {
    const auto host = static_cast<model::HostId>(a);
    host_memory[a] = model.host(host).memory_capacity;
    for (const model::HostId b : model.physical_neighbors(host))
      max_bw = std::max(max_bw, model.physical_link(host, b).bandwidth);
  }
  if (max_bw <= 0.0) max_bw = 1.0;
  const double max_mem = max_or_one(host_memory);
  for (std::size_t a = 0; a < k; ++a) {
    const auto host = static_cast<model::HostId>(a);
    for (const model::HostId b : model.physical_neighbors(host)) {
      const model::PhysicalLink& link = model.physical_link(host, b);
      host_conn[a] += link.reliability + link.bandwidth / max_bw;
    }
    host_conn[a] += host_memory[a] / max_mem;
  }
  std::vector<model::HostId> host_order(k);
  std::iota(host_order.begin(), host_order.end(), 0u);
  std::stable_sort(host_order.begin(), host_order.end(),
                   [&](model::HostId a, model::HostId b) {
                     return host_conn[a] > host_conn[b];
                   });

  // --- group ranking ingredients -----------------------------------------
  // Sparse group-interaction adjacency plus global frequency sums. (This
  // used to be a dense g^2 frequency matrix — hundreds of MB and an O(g^2)
  // affinity rescan per placement at fleet scale.)
  std::vector<std::vector<std::pair<std::uint32_t, double>>> group_pairs(
      g_count);
  std::vector<double> global_freq(g_count, 0.0);
  for (const model::Interaction& ix : model.interactions()) {
    const std::uint32_t ga = groups.group_of[ix.a];
    const std::uint32_t gb = groups.group_of[ix.b];
    if (ga == gb) continue;
    group_pairs[ga].emplace_back(gb, ix.frequency);
    group_pairs[gb].emplace_back(ga, ix.frequency);
    global_freq[ga] += ix.frequency;
    global_freq[gb] += ix.frequency;
  }
  const double max_global_freq = max_or_one(global_freq);
  const double max_group_mem = max_or_one(groups.memory);

  // --- greedy fill ---------------------------------------------------------
  PlacementState state(model, checker, groups);
  std::vector<bool> placed(g_count, false);
  std::size_t placed_count = 0;

  // Affinity of each unplaced group toward the groups already on the host
  // currently being filled, maintained incrementally: placing `b` streams
  // b's pair frequencies to its partners in O(degree(b)) instead of an
  // O(g^2) rescan per placement.
  std::vector<double> affinity(g_count, 0.0);

  for (const model::HostId host : host_order) {
    if (placed_count == g_count || search.out_of_budget()) break;
    std::fill(affinity.begin(), affinity.end(), 0.0);
    while (!search.out_of_budget()) {
      double best_rank = 0.0;
      std::int64_t best_group = -1;
      for (std::uint32_t g = 0; g < g_count; ++g) {
        if (placed[g] || !state.fits(g, host)) continue;
        const double rank = affinity_weight_ * affinity[g] / max_global_freq +
                            global_freq[g] / max_global_freq +
                            (1.0 - groups.memory[g] / max_group_mem);
        if (best_group < 0 || rank > best_rank) {
          best_rank = rank;
          best_group = g;
        }
      }
      if (best_group < 0) break;  // host full (or nothing allowed here)
      const auto bg = static_cast<std::uint32_t>(best_group);
      state.place(bg, host);
      placed[bg] = true;
      ++placed_count;
      for (const auto& [other, freq] : group_pairs[bg])
        affinity[other] += freq;
    }
  }

  // Fallback pass for anything the greedy sweep could not place (e.g. a
  // location-constrained component whose host ranked late and filled up).
  for (std::uint32_t g = 0; g < g_count && placed_count < g_count &&
                            !search.out_of_budget();
       ++g) {
    if (placed[g]) continue;
    for (const model::HostId host : host_order) {
      if (state.fits(g, host)) {
        state.place(g, host);
        placed[g] = true;
        ++placed_count;
        break;
      }
    }
  }

  if (placed_count == g_count) {
    search.consider(state.to_deployment());
    return search.finish(std::string(name()));
  }

  // The greedy packing painted itself into a corner (fragmentation).
  // Terminal fallbacks: keep the system's current deployment if it is
  // feasible, else construct a random feasible one — Avala must never
  // return infeasible on a solvable instance it was merely greedy about.
  if (options.initial && options.initial->complete() &&
      checker.feasible(*options.initial)) {
    search.consider(*options.initial);
    return search.finish(std::string(name()), "greedy failed; kept initial");
  }
  util::Xoshiro256ss rng(options.seed);
  if (const auto d = build_random_feasible_retry(model, checker, groups, rng,
                                                 32, options.cancel)) {
    search.consider(*d);
    return search.finish(std::string(name()),
                         "greedy failed; random fallback");
  }
  return search.finish(std::string(name()), "no feasible deployment found");
}

}  // namespace dif::algo
