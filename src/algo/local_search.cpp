#include "algo/local_search.h"

#include "algo/random_feasible.h"
#include "model/incremental.h"

namespace dif::algo {

namespace {

/// Loads `d` into a PlacementState; returns false if d is incomplete.
bool load_state(PlacementState& state, const ColocationGroups& groups,
                const model::Deployment& d) {
  for (std::uint32_t g = 0; g < groups.group_count(); ++g) {
    const model::HostId h = d.host_of(groups.members[g].front());
    if (h == model::kNoHost) return false;
    state.place(g, h);
  }
  return true;
}

/// Moves every member of group `g` to `h` in the incremental evaluator.
void move_group(model::IncrementalEvaluator& inc, const ColocationGroups& groups,
                std::uint32_t g, model::HostId h) {
  for (const model::ComponentId c : groups.members[g]) inc.apply(c, h);
}

/// Marks the hosts a probe of one group must read links for: the current
/// host of each interaction partner and that host's physical neighbors.
/// Any other host has no stored link to a partner, so a probe there is a far
/// round trip (IncrementalEvaluator::round_trip). Epoch-stamped: starting a
/// group costs nothing per host. Marking stops once every host is near,
/// which on small densely linked fleets happens after a few partners.
class NearHosts {
 public:
  explicit NearHosts(std::size_t k) : stamp_(k, 0), expanded_(k, 0) {}

  void mark_partners(const model::DeploymentModel& model,
                     const PlacementState& state,
                     std::span<const std::uint32_t> partner_groups) {
    ++epoch_;
    near_count_ = 0;
    for (const std::uint32_t p : partner_groups) {
      if (near_count_ == stamp_.size()) return;
      const model::HostId host = state.host_of_group(p);
      if (expanded_[host] == epoch_) continue;  // partners often share hosts
      expanded_[host] = epoch_;
      mark(host);
      for (const model::HostId neighbor : model.physical_neighbors(host))
        mark(neighbor);
    }
  }

  [[nodiscard]] bool near(model::HostId h) const {
    return stamp_[h] == epoch_;
  }

 private:
  void mark(model::HostId h) {
    if (stamp_[h] == epoch_) return;
    stamp_[h] = epoch_;
    ++near_count_;
  }

  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> expanded_;  // partner hosts already marked
  std::uint32_t epoch_ = 0;
  std::size_t near_count_ = 0;
};

}  // namespace

AlgoResult HillClimbAlgorithm::run(const model::DeploymentModel& model,
                                   const model::Objective& objective,
                                   const model::ConstraintChecker& checker,
                                   const AlgoOptions& options) {
  SearchState search(model, objective, options);
  const ColocationGroups groups =
      ColocationGroups::build(model, checker.constraint_set());
  if (groups.contradictory)
    return search.finish(std::string(name()), "contradictory constraints");
  util::Xoshiro256ss rng(options.seed);

  // Start from the supplied deployment when it is usable, else construct.
  model::Deployment current(model.component_count());
  bool from_initial = false;
  if (options.initial && options.initial->complete() &&
      checker.feasible(*options.initial)) {
    current = *options.initial;
    from_initial = true;
  } else if (const auto d = build_random_feasible_retry(
                 model, checker, groups, rng, 32, options.cancel)) {
    current = *d;
  } else {
    return search.finish(std::string(name()), "no feasible start");
  }

  PlacementState state(model, checker, groups);
  if (!load_state(state, groups, current))
    return search.finish(std::string(name()), "incomplete start");
  double current_value = search.consider(current);

  // Warm-started re-optimization: only the groups touching a dirty
  // component are candidates for moves, plus (transitively) their
  // interaction partners once something actually moves. An unusable initial
  // falls back to the cold full-neighbourhood search.
  const bool warm = options.warm_start && from_initial;
  if (warm && options.dirty_components.empty())
    return search.finish(std::string(name()), "warm-start: no delta");

  // Delta evaluation: probing a move costs O(degree) instead of a full
  // O(interactions) re-score whenever the objective decomposes pairwise.
  std::optional<model::IncrementalEvaluator> inc =
      model::IncrementalEvaluator::try_create(objective, model);
  if (inc) inc->reset(current);

  // Probes group `g` on host `h` (g currently removed from `state`, still on
  // its old host in `inc`): returns the candidate objective value. A far
  // probe skips the link table, and most far probes replay the group's
  // previous one.
  const auto probe = [&](std::uint32_t g, model::HostId from, model::HostId h,
                         bool far) {
    if (inc) {
      const double value = inc->round_trip(groups.members[g], from, h, far);
      search.consider_incremental(value, [&] {
        state.place(g, h);
        model::Deployment d = state.to_deployment();
        state.remove(g);
        return d;
      });
      return value;
    }
    state.place(g, h);
    const double value = search.consider(state.to_deployment());
    state.remove(g);
    return value;
  };

  const std::size_t k = model.host_count();
  const std::size_t g_count = groups.group_count();
  std::size_t passes = 0;

  // Move candidates for the current pass: every group when cold, the dirty
  // neighbourhood when warm.
  std::vector<std::uint32_t> order;
  // Interaction partners per group: the warm worklist's wake-ups and the
  // near hosts of a probe.
  std::vector<std::vector<std::uint32_t>> partners;
  if (warm || inc) {
    partners.resize(g_count);
    for (const model::Interaction& ix : model.interactions()) {
      const std::uint32_t ga = groups.group_of[ix.a];
      const std::uint32_t gb = groups.group_of[ix.b];
      if (ga != gb) {
        partners[ga].push_back(gb);
        partners[gb].push_back(ga);
      }
    }
  }
  std::vector<char> allowed;  // warm only
  if (warm) {
    const std::vector<char> dirty =
        warm_dirty_groups(groups, options.dirty_components);
    for (std::uint32_t g = 0; g < g_count; ++g)
      if (dirty[g]) order.push_back(g);
    // Candidate set: the dirty groups plus their direct interaction
    // partners, fixed up front. Without this bound the worklist grows
    // transitively — when the wider placement is not yet a local optimum,
    // every move wakes its neighbours and the "warm" pass degenerates into
    // a cold sweep wearing a warm label. Bounding to the 1-hop closure
    // keeps the cost proportional to the delta.
    allowed.assign(g_count, 0);
    for (const std::uint32_t g : order) {
      allowed[g] = 1;
      for (const std::uint32_t p : partners[g]) allowed[p] = 1;
    }
  } else {
    order.resize(g_count);
    for (std::uint32_t g = 0; g < g_count; ++g) order[g] = g;
  }

  NearHosts near_hosts(k);
  for (; passes < max_passes_; ++passes) {
    bool improved = false;
    std::vector<std::uint32_t> next_order;
    std::vector<char> queued(warm ? g_count : 0, 0);
    const auto enqueue = [&](std::uint32_t g) {
      if (allowed[g] && !queued[g]) {
        queued[g] = 1;
        next_order.push_back(g);
      }
    };

    // Best single-group move.
    for (const std::uint32_t g : order) {
      if (search.out_of_budget()) break;
      const model::HostId from = state.host_of_group(g);
      state.remove(g);
      if (inc) near_hosts.mark_partners(model, state, partners[g]);
      model::HostId best_host = from;
      double best_value = current_value;
      for (std::size_t h = 0; h < k; ++h) {
        const auto host = static_cast<model::HostId>(h);
        if (host == from || !state.fits(g, host)) continue;
        const double value =
            probe(g, from, host, inc && !near_hosts.near(host));
        if (objective.improves(value, best_value)) {
          best_value = value;
          best_host = host;
        }
        if (search.out_of_budget()) break;
      }
      state.place(g, best_host);
      if (best_host != from) {
        if (inc) move_group(*inc, groups, g, best_host);
        current_value = best_value;
        improved = true;
        if (warm) {
          // The moved group and everything it interacts with may improve
          // further now — that is the whole next pass.
          enqueue(g);
          for (const std::uint32_t p : partners[g]) enqueue(p);
        }
      }
    }
    if (warm) order = std::move(next_order);

    // Pairwise swaps (only attempted when moves alone made no progress;
    // swaps escape "both hosts full" local optima that moves cannot).
    // Skipped when warm: the O(groups^2) sweep is exactly the fleet-scale
    // cost a delta-bounded re-optimization must avoid.
    if (use_swaps_ && !improved && !warm) {
      for (std::uint32_t a = 0; a < g_count && !improved; ++a) {
        for (std::uint32_t b = a + 1; b < g_count && !improved; ++b) {
          if (search.out_of_budget()) break;
          const model::HostId ha = state.host_of_group(a);
          const model::HostId hb = state.host_of_group(b);
          if (ha == hb) continue;
          state.remove(a);
          state.remove(b);
          if (state.fits(a, hb) && state.fits(b, ha)) {
            state.place(a, hb);
            state.place(b, ha);
            double value;
            if (inc) {
              move_group(*inc, groups, a, hb);
              move_group(*inc, groups, b, ha);
              value = inc->value();
              search.consider_incremental(
                  value, [&] { return state.to_deployment(); });
            } else {
              value = search.consider(state.to_deployment());
            }
            if (objective.improves(value, current_value)) {
              current_value = value;
              improved = true;
            } else {
              if (inc) {
                move_group(*inc, groups, a, ha);
                move_group(*inc, groups, b, hb);
              }
              state.remove(a);
              state.remove(b);
              state.place(a, ha);
              state.place(b, hb);
            }
          } else {
            state.place(a, ha);
            state.place(b, hb);
          }
        }
      }
    }

    if (!improved || search.out_of_budget()) break;
  }

  return search.finish(std::string(name()),
                       std::string(warm ? "warm " : "") +
                           "passes=" + std::to_string(passes + 1));
}

}  // namespace dif::algo
