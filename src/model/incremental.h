// Incremental (delta) objective evaluation.
//
// Availability, latency, and communication cost are sums of independent
// per-interaction terms that depend only on the hosts carrying the two
// endpoints: model::interaction_term (interaction_term.h).
// PairwiseDecomposition binds that kernel to one (objective, model) pair for
// the tree searches and the decentralized utilities; IncrementalEvaluator
// calls it on its SoA columns to re-score a deployment after a single-
// component move in O(degree(component)) instead of O(interactions) — the
// enabling optimization for the move-based searches and the portfolio
// runner's throughput.
//
// The hill climb probes a colocation group on a host and moves it back,
// thousands of times per group: round_trip() is that probe. A far probe
// (the target host has no stored link to any partner's host) is replayed
// from the group's previous far probe instead of recomputed when
//  * the group has no interaction between its own members, so every
//    outbound term reads the all-zero link and does not depend on the
//    target host;
//  * an earlier round trip of this group from this host has left its terms
//    in their return state, and no apply() or reset() has happened since;
//  * the running sum is bit-equal to the one the cached trip started from.
// The same floating-point operations on the same inputs give the same
// bits, so a replay sets the sum and the move count the arithmetic would
// have and returns the same value. DIF_ASSERT builds run the arithmetic
// for every replay too and check the bits.
//
// Objectives that do not decompose pairwise (SecurityObjective's property
// lookups, WeightedObjective's score mixing) are rejected by try_create();
// callers fall back to full Objective::evaluate.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "model/deployment.h"
#include "model/deployment_model.h"
#include "model/interaction_term.h"
#include "model/objective.h"

namespace dif::model {

/// The per-interaction term structure of one decomposable objective.
/// Cheap to copy; the model must outlive it.
class PairwiseDecomposition {
 public:
  /// Returns a decomposition when `objective` is AvailabilityObjective,
  /// LatencyObjective, or CommunicationCostObjective; nullopt otherwise.
  static std::optional<PairwiseDecomposition> try_create(
      const Objective& objective, const DeploymentModel& m);

  /// The decomposition of `objective`, or availability's when `objective`
  /// does not decompose: the per-interaction utility the decentralized
  /// bidders and voters reason with.
  static PairwiseDecomposition or_availability(const Objective& objective,
                                               const DeploymentModel& m);

  [[nodiscard]] Direction direction() const noexcept { return direction_; }

  /// Contribution of interaction `ix` when its endpoints sit on `ha` and
  /// `hb` (either may be kNoHost): this objective's interaction_term().
  [[nodiscard]] double pair_term(const Interaction& ix, HostId ha,
                                 HostId hb) const;

  /// pair_term() oriented so that larger is better: negated for minimized
  /// objectives. Utilities summed across hosts compare the same way for
  /// every objective.
  [[nodiscard]] double utility(const Interaction& ix, HostId ha,
                               HostId hb) const {
    const double term = pair_term(ix, ha, hb);
    return direction_ == Direction::kMaximize ? term : -term;
  }

  /// Best achievable contribution of interaction `ix` over any host pair
  /// (freq for availability; 0 for latency / communication cost).
  [[nodiscard]] double optimistic_term(const Interaction& ix) const;

  /// Converts a completed term sum into the objective's raw value (e.g.
  /// divides by total frequency for availability). Monotone in the sum.
  [[nodiscard]] double finalize(double term_sum) const;

  /// The objective's normalized score for a raw value — matches
  /// Objective::score for the decomposed objective.
  [[nodiscard]] double score_of(double raw_value) const;

 private:
  friend class IncrementalEvaluator;  // hoists the kind switch out of loops

  PairwiseDecomposition(TermKind kind, const DeploymentModel& m,
                        double penalty_ms, double scale);

  TermKind kind_;
  Direction direction_;
  const DeploymentModel* model_;
  double penalty_ms_ = 0.0;
  double scale_ = 1.0;
  double total_frequency_ = 0.0;
};

/// Maintains a deployment assignment plus the objective's term sum, updating
/// both in O(degree) per single-component move. Internally structure-of-
/// arrays: flat component->host assignment, CSR interaction adjacency, and
/// per-interaction parameter columns, so a move streams through contiguous
/// arrays with the objective-kind dispatch hoisted out of the loop.
///
/// Contract: the model's topology and link/interaction parameters must not
/// change between reset() and the last apply()/value() call (the evaluator
/// caches the interaction list and per-interaction terms). Not thread-safe;
/// each search owns its evaluator.
class IncrementalEvaluator {
 public:
  /// Returns an evaluator when the objective decomposes pairwise (see
  /// PairwiseDecomposition::try_create), nullopt otherwise.
  static std::optional<IncrementalEvaluator> try_create(
      const Objective& objective, const DeploymentModel& m);

  /// Loads `d` and recomputes all terms — O(interactions). Must be called
  /// before the first apply(); may be called again to re-sync.
  void reset(const Deployment& d);

  /// Moves component `c` to host `h` (or kNoHost to unassign) and updates
  /// the affected terms — O(degree(c)). A group move is a sequence of
  /// apply() calls; intra-group terms settle once all members have moved.
  void apply(ComponentId c, HostId h);

  /// Probes `group` on `h`: moves every member (all on `from`, h != from)
  /// to `h`, reads value(), and moves them back. Returns the value read on
  /// `h`; afterwards value(), the assignment and moves_applied() are those
  /// of the two apply() sequences. `far` promises that `h` has no stored
  /// physical link (see link_stored) to the host of any interaction partner
  /// outside the group. The outbound moves then score every remote pair
  /// except (h, from) over the all-zero link without reading the table,
  /// running the same floating-point operations in the same order as
  /// apply() on the value the table would have returned, and a far probe
  /// may be replayed (see the top of this file): both are bit-identical to
  /// apply(). The groups a caller passes must be disjoint; a group is
  /// recognized by its first member and size.
  double round_trip(std::span<const ComponentId> group, HostId from, HostId h,
                    bool far);

  /// Raw objective value of the current assignment.
  [[nodiscard]] double value() const { return decomposition_.finalize(sum_); }

  /// Normalized score of the current assignment (== Objective::score).
  [[nodiscard]] double score() const {
    return decomposition_.score_of(value());
  }

  [[nodiscard]] Direction direction() const noexcept {
    return decomposition_.direction();
  }

  [[nodiscard]] HostId host_of(ComponentId c) const {
    return assignment_.at(c);
  }

  /// Materializes the tracked assignment as a Deployment.
  [[nodiscard]] Deployment to_deployment() const {
    return Deployment(assignment_);
  }

  /// Moves applied since construction (reset() does not count).
  [[nodiscard]] std::uint64_t moves_applied() const noexcept { return moves_; }

 private:
  IncrementalEvaluator(PairwiseDecomposition decomposition,
                       const DeploymentModel& m);

  /// The round trip's arithmetic: the outbound moves (far or not), the
  /// value on `h`, the return moves.
  double travel(std::span<const ComponentId> group, HostId from, HostId h,
                bool far);
  /// True when no interaction joins two members of `group`.
  [[nodiscard]] bool external_only(std::span<const ComponentId> group) const;

  /// One move, its terms read through `links`: the table, or a far
  /// outbound move's view of it.
  template <typename Links>
  void move(ComponentId c, HostId h, const Links& links);
  /// The term loops, one instantiation per objective kind so that the
  /// kind switch runs once per call, not once per interaction.
  template <TermKind kKind, typename Links>
  void apply_terms(ComponentId c, HostId h, const Links& links);
  template <TermKind kKind>
  void reset_terms();

  PairwiseDecomposition decomposition_;
  PhysicalLinkTable links_;
  /// Structure-of-arrays copy of the interaction list: endpoint, frequency,
  /// and size columns stay in separate flat arrays so the hot loops stream
  /// through contiguous memory instead of chasing per-component vectors.
  std::vector<ComponentId> ix_a_, ix_b_;
  std::vector<double> ix_freq_, ix_size_;
  /// CSR interaction adjacency: interactions touching component c are
  /// adj_ix_[adj_offsets_[c] .. adj_offsets_[c + 1]); adj_other_ carries the
  /// opposite endpoint so a move never re-derives it from the pair.
  std::vector<std::uint32_t> adj_offsets_;
  std::vector<std::uint32_t> adj_ix_;
  std::vector<ComponentId> adj_other_;
  /// Flat component -> host assignment (the deployment's hot mirror).
  std::vector<HostId> assignment_;
  std::vector<double> term_;
  double sum_ = 0.0;
  std::uint64_t moves_ = 0;

  /// The last round trip's group and origin, and the far trip that can be
  /// replayed for them. apply() and reset() forget it (members = 0).
  struct Trip {
    ComponentId first = 0;
    std::size_t members = 0;
    HostId from = kNoHost;
    bool external_only = false;
    bool primed = false;  // a round trip has left the terms in return state
    bool cached = false;  // the fields below hold a replayable far trip
    std::uint64_t start_bits = 0;
    double value = 0.0;
    double back_sum = 0.0;
    std::uint64_t moves = 0;
  };
  Trip trip_;
};

}  // namespace dif::model
