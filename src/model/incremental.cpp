#include "model/incremental.h"

#include <algorithm>
#include <bit>

#include "util/assert.h"

namespace dif::model {

namespace {

/// The link lookup of a far move to host h: the table for the pair (h, from),
/// and for every other pair kAbsentLink, which the table would return since
/// the caller promises no link is stored there. The kernel calls it with the
/// moving component's new host first and only for two distinct assigned
/// hosts.
struct FarLinks {
  PhysicalLinkTable table;
  HostId from = kNoHost;
};

const PhysicalLink& link_between(const FarLinks& far, HostId h, HostId other) {
  if (other == far.from) return far.table.at(h, other);
  DIF_ASSERT(&far.table.at(h, other) == &kAbsentLink,
             "a far move may skip only pairs the store does not hold");
  return kAbsentLink;
}

}  // namespace

std::optional<PairwiseDecomposition> PairwiseDecomposition::try_create(
    const Objective& objective, const DeploymentModel& m) {
  if (dynamic_cast<const AvailabilityObjective*>(&objective))
    return PairwiseDecomposition(TermKind::kAvailability, m, 0.0, 1.0);
  if (const auto* latency = dynamic_cast<const LatencyObjective*>(&objective))
    return PairwiseDecomposition(TermKind::kLatency, m,
                                 latency->disconnected_penalty_ms(),
                                 latency->reference_scale());
  if (const auto* comm =
          dynamic_cast<const CommunicationCostObjective*>(&objective))
    return PairwiseDecomposition(TermKind::kCommCost, m, 0.0,
                                 comm->reference_scale());
  return std::nullopt;
}

PairwiseDecomposition PairwiseDecomposition::or_availability(
    const Objective& objective, const DeploymentModel& m) {
  if (auto decomposition = try_create(objective, m)) return *decomposition;
  return PairwiseDecomposition(TermKind::kAvailability, m, 0.0, 1.0);
}

PairwiseDecomposition::PairwiseDecomposition(TermKind kind,
                                             const DeploymentModel& m,
                                             double penalty_ms, double scale)
    : kind_(kind),
      direction_(kind == TermKind::kAvailability ? Direction::kMaximize
                                                 : Direction::kMinimize),
      model_(&m),
      penalty_ms_(penalty_ms),
      scale_(scale),
      total_frequency_(m.total_interaction_frequency()) {}

double PairwiseDecomposition::pair_term(const Interaction& ix, HostId ha,
                                        HostId hb) const {
  switch (kind_) {
    case TermKind::kAvailability:
      return interaction_term<TermKind::kAvailability>(
          *model_, ix.frequency, ix.avg_event_size, ha, hb);
    case TermKind::kLatency:
      return interaction_term<TermKind::kLatency>(
          *model_, ix.frequency, ix.avg_event_size, ha, hb, penalty_ms_);
    case TermKind::kCommCost:
      return interaction_term<TermKind::kCommCost>(
          *model_, ix.frequency, ix.avg_event_size, ha, hb);
  }
  return 0.0;
}

double PairwiseDecomposition::optimistic_term(const Interaction& ix) const {
  // Best case: the interaction becomes local (reliability 1, no cost).
  return kind_ == TermKind::kAvailability ? ix.frequency : 0.0;
}

double PairwiseDecomposition::finalize(double term_sum) const {
  if (kind_ != TermKind::kAvailability) return term_sum;
  return total_frequency_ > 0.0 ? term_sum / total_frequency_ : 1.0;
}

double PairwiseDecomposition::score_of(double raw_value) const {
  return kind_ == TermKind::kAvailability ? std::clamp(raw_value, 0.0, 1.0)
                                           : cost_score(raw_value, scale_);
}

std::optional<IncrementalEvaluator> IncrementalEvaluator::try_create(
    const Objective& objective, const DeploymentModel& m) {
  auto decomposition = PairwiseDecomposition::try_create(objective, m);
  if (!decomposition) return std::nullopt;
  return IncrementalEvaluator(*decomposition, m);
}

IncrementalEvaluator::IncrementalEvaluator(PairwiseDecomposition decomposition,
                                           const DeploymentModel& m)
    : decomposition_(decomposition),
      links_(m.physical_link_table()),
      assignment_(m.component_count(), kNoHost) {
  const std::span<const Interaction> interactions = m.interactions();
  const auto ix_count = static_cast<std::uint32_t>(interactions.size());
  ix_a_.resize(ix_count);
  ix_b_.resize(ix_count);
  ix_freq_.resize(ix_count);
  ix_size_.resize(ix_count);
  term_.assign(ix_count, 0.0);
  for (std::uint32_t index = 0; index < ix_count; ++index) {
    ix_a_[index] = interactions[index].a;
    ix_b_[index] = interactions[index].b;
    ix_freq_[index] = interactions[index].frequency;
    ix_size_[index] = interactions[index].avg_event_size;
  }

  // CSR adjacency build: counting pass, prefix sums, fill pass. Rows end up
  // sorted by interaction index (the order the old per-component vectors
  // had), keeping apply()'s floating-point summation order unchanged.
  const std::size_t n = m.component_count();
  adj_offsets_.assign(n + 1, 0);
  for (std::uint32_t index = 0; index < ix_count; ++index) {
    ++adj_offsets_[ix_a_[index] + 1];
    ++adj_offsets_[ix_b_[index] + 1];
  }
  for (std::size_t c = 0; c < n; ++c) adj_offsets_[c + 1] += adj_offsets_[c];
  adj_ix_.resize(adj_offsets_[n]);
  adj_other_.resize(adj_offsets_[n]);
  std::vector<std::uint32_t> cursor(adj_offsets_.begin(),
                                    adj_offsets_.end() - 1);
  for (std::uint32_t index = 0; index < ix_count; ++index) {
    const ComponentId a = ix_a_[index], b = ix_b_[index];
    adj_ix_[cursor[a]] = index;
    adj_other_[cursor[a]++] = b;
    adj_ix_[cursor[b]] = index;
    adj_other_[cursor[b]++] = a;
  }
}

template <TermKind kKind>
void IncrementalEvaluator::reset_terms() {
  sum_ = 0.0;
  for (std::uint32_t index = 0; index < term_.size(); ++index) {
    term_[index] = interaction_term<kKind>(
        links_, ix_freq_[index], ix_size_[index], assignment_[ix_a_[index]],
        assignment_[ix_b_[index]], decomposition_.penalty_ms_);
    sum_ += term_[index];
  }
}

template <TermKind kKind, typename Links>
void IncrementalEvaluator::apply_terms(ComponentId c, HostId h,
                                       const Links& links) {
  const std::uint32_t begin = adj_offsets_[c];
  const std::uint32_t end = adj_offsets_[c + 1];
  for (std::uint32_t j = begin; j < end; ++j) {
    const std::uint32_t index = adj_ix_[j];
    const double updated =
        interaction_term<kKind>(links, ix_freq_[index], ix_size_[index], h,
                                assignment_[adj_other_[j]],
                                decomposition_.penalty_ms_);
    sum_ += updated - term_[index];
    term_[index] = updated;
  }
}

template <typename Links>
void IncrementalEvaluator::move(ComponentId c, HostId h, const Links& links) {
  if (assignment_.at(c) == h) return;
  assignment_[c] = h;
  ++moves_;
  switch (decomposition_.kind_) {
    case TermKind::kAvailability:
      apply_terms<TermKind::kAvailability>(c, h, links);
      break;
    case TermKind::kLatency:
      apply_terms<TermKind::kLatency>(c, h, links);
      break;
    case TermKind::kCommCost:
      apply_terms<TermKind::kCommCost>(c, h, links);
      break;
  }
}

void IncrementalEvaluator::reset(const Deployment& d) {
  for (ComponentId c = 0; c < assignment_.size(); ++c)
    assignment_[c] = c < d.size() ? d.host_of(c) : kNoHost;
  trip_.members = 0;
  switch (decomposition_.kind_) {
    case TermKind::kAvailability:
      reset_terms<TermKind::kAvailability>();
      break;
    case TermKind::kLatency:
      reset_terms<TermKind::kLatency>();
      break;
    case TermKind::kCommCost:
      reset_terms<TermKind::kCommCost>();
      break;
  }
}

void IncrementalEvaluator::apply(ComponentId c, HostId h) {
  trip_.members = 0;
  move(c, h, links_);
}

bool IncrementalEvaluator::external_only(
    std::span<const ComponentId> group) const {
  for (const ComponentId c : group)
    for (std::uint32_t j = adj_offsets_[c]; j < adj_offsets_[c + 1]; ++j)
      if (std::find(group.begin(), group.end(), adj_other_[j]) != group.end())
        return false;
  return true;
}

double IncrementalEvaluator::travel(std::span<const ComponentId> group,
                                    HostId from, HostId h, bool far) {
  for (const ComponentId c : group) {
    if (far)
      move(c, h, FarLinks{links_, from});
    else
      move(c, h, links_);
  }
  const double value = this->value();
  for (const ComponentId c : group) move(c, from, links_);
  return value;
}

double IncrementalEvaluator::round_trip(std::span<const ComponentId> group,
                                        HostId from, HostId h, bool far) {
  DIF_ASSERT(!group.empty() && h != from,
             "a round trip moves a non-empty group to another host");
  if (trip_.members != group.size() || trip_.first != group.front() ||
      trip_.from != from)
    trip_ = Trip{.first = group.front(),
                 .members = group.size(),
                 .from = from,
                 .external_only = external_only(group)};
  const auto start_bits = std::bit_cast<std::uint64_t>(sum_);
  if (far && trip_.cached && start_bits == trip_.start_bits) {
#ifdef DIF_ENABLE_ASSERTS
    const std::uint64_t moves_before = moves_;
    const double value = travel(group, from, h, far);
    DIF_ASSERT(std::bit_cast<std::uint64_t>(value) ==
                       std::bit_cast<std::uint64_t>(trip_.value) &&
                   std::bit_cast<std::uint64_t>(sum_) ==
                       std::bit_cast<std::uint64_t>(trip_.back_sum) &&
                   moves_ - moves_before == trip_.moves,
               "a replayed far round trip must match its arithmetic");
    moves_ = moves_before;
#endif
    sum_ = trip_.back_sum;
    moves_ += trip_.moves;
    return trip_.value;
  }
  const std::uint64_t moves_before = moves_;
  const double value = travel(group, from, h, far);
  if (far && trip_.primed && trip_.external_only) {
    trip_.cached = true;
    trip_.start_bits = start_bits;
    trip_.value = value;
    trip_.back_sum = sum_;
    trip_.moves = moves_ - moves_before;
  }
  trip_.primed = true;
  return value;
}

}  // namespace dif::model
