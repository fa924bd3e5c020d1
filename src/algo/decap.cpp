#include "algo/decap.h"

#include <algorithm>
#include <numeric>

#include "algo/random_feasible.h"
#include "model/incremental.h"

namespace dif::algo {

AwarenessGraph AwarenessGraph::full(std::size_t host_count) {
  AwarenessGraph g(host_count);
  for (std::size_t a = 0; a < host_count; ++a)
    for (std::size_t b = a + 1; b < host_count; ++b)
      g.connect(static_cast<model::HostId>(a), static_cast<model::HostId>(b));
  return g;
}

AwarenessGraph AwarenessGraph::from_links(const model::DeploymentModel& m) {
  AwarenessGraph g(m.host_count());
  m.for_each_physical_link([&](model::HostId a, model::HostId b,
                               const model::PhysicalLink& link) {
    if (link.bandwidth > 0.0) g.connect(a, b);
  });
  return g;
}

AwarenessGraph AwarenessGraph::random(std::size_t host_count, double ratio,
                                      util::Xoshiro256ss& rng) {
  AwarenessGraph g(host_count);
  for (std::size_t a = 0; a < host_count; ++a)
    for (std::size_t b = a + 1; b < host_count; ++b)
      if (rng.chance(ratio))
        g.connect(static_cast<model::HostId>(a),
                  static_cast<model::HostId>(b));
  return g;
}

void AwarenessGraph::connect(model::HostId a, model::HostId b) {
  adj_[static_cast<std::size_t>(a) * k_ + b] = 1;
  adj_[static_cast<std::size_t>(b) * k_ + a] = 1;
}

std::vector<model::HostId> AwarenessGraph::neighbors(model::HostId h) const {
  std::vector<model::HostId> out;
  for (std::size_t b = 0; b < k_; ++b)
    if (b != h && adj_[static_cast<std::size_t>(h) * k_ + b])
      out.push_back(static_cast<model::HostId>(b));
  return out;
}

double AwarenessGraph::density() const {
  if (k_ < 2) return 1.0;
  std::size_t edges = 0;
  for (std::size_t a = 0; a < k_; ++a)
    for (std::size_t b = a + 1; b < k_; ++b)
      if (adj_[a * k_ + b]) ++edges;
  return static_cast<double>(edges) / (static_cast<double>(k_) * (k_ - 1) / 2);
}

AlgoResult DecApAlgorithm::run(const model::DeploymentModel& model,
                               const model::Objective& objective,
                               const model::ConstraintChecker& checker,
                               const AlgoOptions& options) {
  stats_ = Stats{};
  SearchState search(model, objective, options);
  const ColocationGroups groups =
      ColocationGroups::build(model, checker.constraint_set());
  if (groups.contradictory)
    return search.finish(std::string(name()), "contradictory constraints");
  util::Xoshiro256ss rng(options.seed);

  const AwarenessGraph awareness =
      awareness_ ? *awareness_ : AwarenessGraph::from_links(model);

  // Starting deployment: the system's current one, else a random feasible
  // construction (in a real decentralized system there is always a current
  // deployment; the constructor stands in for it in benchmarks).
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
  for (std::uint32_t g = 0; g < groups.group_count(); ++g)
    state.place(g, current.host_of(groups.members[g].front()));
  search.consider(current);

  // Warm-started re-optimization: only dirty groups go to auction; clean
  // placements are kept as-is. The protocol structure (rounds, busy rule)
  // is unchanged, so decentralized-execution fidelity is preserved.
  const bool warm = options.warm_start && from_initial;
  std::vector<char> dirty_group;
  if (warm) {
    if (options.dirty_components.empty())
      return search.finish(std::string(name()), "warm-start: no delta");
    dirty_group = warm_dirty_groups(groups, options.dirty_components);
  }

  // Index interactions by group pair for bid computation.
  const auto interactions = model.interactions();
  const std::size_t g_count = groups.group_count();
  std::vector<std::vector<std::size_t>> ix_of_group(g_count);
  for (std::size_t index = 0; index < interactions.size(); ++index) {
    const std::uint32_t ga = groups.group_of[interactions[index].a];
    const std::uint32_t gb = groups.group_of[interactions[index].b];
    if (ga == gb) continue;  // intra-group interactions are always local
    ix_of_group[ga].push_back(index);
    ix_of_group[gb].push_back(index);
  }

  // Bids sum the objective's per-interaction utility; objectives that do not
  // decompose pairwise are bid on with availability semantics.
  const model::PairwiseDecomposition valuer =
      model::PairwiseDecomposition::or_availability(objective, model);

  // A bidder `bidder` values hosting group `g` on itself: it sums utility
  // terms for g's interactions whose partner sits on a host the bidder is
  // aware of (partial knowledge!), and it must be able to fit g.
  const auto bid_for = [&](std::uint32_t g, model::HostId bidder) {
    double bid = 0.0;
    for (const std::size_t index : ix_of_group[g]) {
      const model::Interaction& ix = interactions[index];
      const std::uint32_t other_group = groups.group_of[ix.a] == g
                                            ? groups.group_of[ix.b]
                                            : groups.group_of[ix.a];
      const model::HostId partner_host = state.host_of_group(other_group);
      if (!awareness.aware(bidder, partner_host)) continue;
      bid += valuer.utility(ix, bidder, partner_host);
    }
    return bid;
  };

  std::vector<model::HostId> host_order(model.host_count());
  std::iota(host_order.begin(), host_order.end(), 0u);
  std::vector<std::size_t> moves_of_group(g_count, 0);

  // Convergence: the busy-neighborhood rule can serialize auctions down to
  // a single auctioneer per round (dense awareness), so one move-free round
  // proves nothing — only a full cycle of dry rounds does.
  const std::size_t dry_rounds_needed = model.host_count();
  std::size_t dry_rounds = 0;
  std::size_t round = 0;
  for (; round < params_.max_rounds && dry_rounds < dry_rounds_needed &&
         !search.out_of_budget();
       ++round) {
    bool moved_in_round = false;
    rng.shuffle(host_order);
    // Hosts whose neighborhood already ran an auction this round must wait
    // (paper: "assuming none of its neighboring hosts is already conducting
    // an auction") — emulates the mutual-exclusion of concurrent auctions.
    std::vector<bool> busy(model.host_count(), false);

    for (const model::HostId auctioneer : host_order) {
      if (busy[auctioneer]) continue;
      const std::vector<model::HostId> bidders =
          awareness.neighbors(auctioneer);
      if (bidders.empty()) continue;
      bool conducted = false;

      // Snapshot of the groups currently on this host (auctionable ones
      // only: a warm run never re-auctions clean groups).
      std::vector<std::uint32_t> local_groups;
      for (std::uint32_t g = 0; g < g_count; ++g)
        if (state.host_of_group(g) == auctioneer &&
            (!warm || dirty_group[g]))
          local_groups.push_back(g);

      for (const std::uint32_t g : local_groups) {
        if (search.out_of_budget()) break;
        if (moves_of_group[g] >= params_.max_moves_per_component) continue;
        ++stats_.auctions;
        conducted = true;
        stats_.messages += bidders.size();  // auction announcements

        state.remove(g);
        const double keep_bid =
            state.fits(g, auctioneer) ? bid_for(g, auctioneer) : 0.0;
        double best_bid = keep_bid;
        model::HostId winner = auctioneer;
        for (const model::HostId bidder : bidders) {
          ++stats_.messages;  // bid reply
          if (!state.fits(g, bidder)) continue;
          const double bid = bid_for(g, bidder);
          if (bid > best_bid + params_.min_gain) {
            best_bid = bid;
            winner = bidder;
          }
        }
        state.place(g, winner);
        if (winner != auctioneer) {
          ++stats_.messages;  // component transfer
          ++stats_.migrations;
          ++moves_of_group[g];
          moved_in_round = true;
          search.consider(state.to_deployment());
        }
      }

      if (conducted) {
        busy[auctioneer] = true;
        for (const model::HostId b : bidders) busy[b] = true;
      }
    }
    dry_rounds = moved_in_round ? 0 : dry_rounds + 1;
  }
  stats_.rounds = round;

  AlgoResult result = search.finish(
      std::string(name()),
      std::string(warm ? "warm " : "") +
          "rounds=" + std::to_string(stats_.rounds) +
          " auctions=" + std::to_string(stats_.auctions) +
          " messages=" + std::to_string(stats_.messages) +
          " moves=" + std::to_string(stats_.migrations));

  // A decentralized system ends up in the protocol's final state — report
  // that, not the best deployment that transiently existed (with partial
  // awareness the two can differ).
  const model::Deployment final_deployment = state.to_deployment();
  result.deployment = final_deployment;
  result.value = objective.evaluate(model, final_deployment);
  result.feasible = checker.feasible(final_deployment);
  if (options.initial && options.initial->size() == final_deployment.size())
    result.migrations =
        model::Deployment::diff_count(*options.initial, final_deployment);
  return result;
}

}  // namespace dif::algo
