#include "model/objective.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "model/interaction_term.h"

namespace dif::model {

double Objective::score(const DeploymentModel& model,
                        const Deployment& d) const {
  // Default for maximize objectives whose raw value already lives in [0, 1]
  // (availability, security, weighted). Minimize objectives override.
  return std::clamp(evaluate(model, d), 0.0, 1.0);
}

double Objective::worst() const {
  return direction() == Direction::kMaximize
             ? -std::numeric_limits<double>::infinity()
             : std::numeric_limits<double>::infinity();
}

double AvailabilityObjective::evaluate(const DeploymentModel& model,
                                       const Deployment& d) const {
  double weighted = 0.0;
  double total = 0.0;
  for (const Interaction& ix : model.interactions()) {
    total += ix.frequency;
    weighted += interaction_term<TermKind::kAvailability>(
        model, ix.frequency, ix.avg_event_size, d.host_of(ix.a),
        d.host_of(ix.b));
  }
  return total > 0.0 ? weighted / total : 1.0;
}

double LatencyObjective::evaluate(const DeploymentModel& model,
                                  const Deployment& d) const {
  double latency = 0.0;
  for (const Interaction& ix : model.interactions())
    latency += interaction_term<TermKind::kLatency>(
        model, ix.frequency, ix.avg_event_size, d.host_of(ix.a),
        d.host_of(ix.b), penalty_ms_);
  return latency;
}

double CommunicationCostObjective::evaluate(const DeploymentModel& model,
                                            const Deployment& d) const {
  double cost = 0.0;
  for (const Interaction& ix : model.interactions())
    cost += interaction_term<TermKind::kCommCost>(
        model, ix.frequency, ix.avg_event_size, d.host_of(ix.a),
        d.host_of(ix.b));
  return cost;
}

double SecurityObjective::evaluate(const DeploymentModel& model,
                                   const Deployment& d) const {
  double satisfied = 0.0;
  double total = 0.0;
  for (const Interaction& ix : model.interactions()) {
    const double required =
        model.logical_link(ix.a, ix.b).properties.get_or("required_security",
                                                         0.0);
    total += ix.frequency;
    const HostId ha = d.host_of(ix.a), hb = d.host_of(ix.b);
    if (ha == kNoHost || hb == kNoHost) continue;
    const double provided =
        ha == hb ? std::numeric_limits<double>::infinity()
                 : model.physical_link(ha, hb).properties.get_or("security",
                                                                 0.0);
    if (provided >= required) satisfied += ix.frequency;
  }
  return total > 0.0 ? satisfied / total : 1.0;
}

WeightedObjective::WeightedObjective(std::vector<Term> terms)
    : terms_(std::move(terms)) {
  if (terms_.empty())
    throw std::invalid_argument("WeightedObjective: no terms");
  total_weight_ = 0.0;
  name_ = "weighted(";
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    const Term& term = terms_[i];
    if (!term.objective)
      throw std::invalid_argument("WeightedObjective: null objective");
    if (term.weight < 0.0)
      throw std::invalid_argument("WeightedObjective: negative weight");
    total_weight_ += term.weight;
    if (i) name_ += '+';
    name_ += term.objective->name();
  }
  name_ += ')';
  if (total_weight_ <= 0.0)
    throw std::invalid_argument("WeightedObjective: zero total weight");
}

double WeightedObjective::evaluate(const DeploymentModel& model,
                                   const Deployment& d) const {
  double sum = 0.0;
  for (const Term& term : terms_)
    sum += term.weight * term.objective->score(model, d);
  return sum / total_weight_;
}

}  // namespace dif::model
