#include "analyzer/decentralized.h"

namespace dif::analyzer {

bool VotingProtocol::decide(std::size_t host_count,
                            const LocalUtility& utility) const {
  last_votes_.assign(host_count, false);
  std::size_t ayes = 0;
  for (std::size_t h = 0; h < host_count; ++h) {
    const bool aye = utility(static_cast<model::HostId>(h)) >= -tolerance_;
    last_votes_[h] = aye;
    if (aye) ++ayes;
  }
  return ayes * 2 > host_count;
}

bool PollingProtocol::decide(std::size_t host_count,
                             const LocalUtility& utility) const {
  last_total_ = 0.0;
  for (std::size_t h = 0; h < host_count; ++h)
    last_total_ += utility(static_cast<model::HostId>(h));
  return last_total_ > min_total_gain_;
}

double local_utility(const model::DeploymentModel& m,
                     const model::PairwiseDecomposition& terms,
                     const model::Deployment& d,
                     const algo::AwarenessGraph& awareness,
                     model::HostId host) {
  double total = 0.0;
  for (const model::Interaction& ix : m.interactions()) {
    const model::HostId ha = d.host_of(ix.a), hb = d.host_of(ix.b);
    if (ha == model::kNoHost || hb == model::kNoHost) continue;
    if (ha != host && hb != host) continue;
    const model::HostId partner = ha == host ? hb : ha;
    if (!awareness.aware(host, partner)) continue;
    total += terms.utility(ix, ha, hb);
  }
  return total;
}

Decision DecentralizedAnalyzer::analyze(const model::DeploymentModel& m,
                                        const model::Objective& objective,
                                        const model::ConstraintChecker& checker,
                                        const model::Deployment& current,
                                        const algo::AwarenessGraph& awareness,
                                        std::uint64_t seed) const {
  Decision decision;
  decision.algorithm = "decap";
  decision.value_before = objective.evaluate(m, current);

  algo::DecApAlgorithm decap(config_.decap, awareness);
  algo::AlgoOptions options;
  options.initial = current;
  options.seed = seed;
  const algo::AlgoResult result = decap.run(m, objective, checker, options);
  if (!result.feasible) {
    decision.reason = "DecAp found no feasible deployment";
    return decision;
  }
  decision.value_after = result.value;
  decision.target = result.deployment;
  decision.migrations = result.migrations;
  if (decision.migrations == 0) {
    decision.reason = "DecAp proposes no change";
    return decision;
  }

  const model::PairwiseDecomposition terms =
      model::PairwiseDecomposition::or_availability(objective, m);
  const LocalUtility delta = [&](model::HostId host) {
    return local_utility(m, terms, result.deployment, awareness, host) -
           local_utility(m, terms, current, awareness, host);
  };

  bool accepted = false;
  if (config_.protocol == Protocol::kVoting) {
    accepted = VotingProtocol(config_.threshold)
                   .decide(m.host_count(), delta);
    decision.reason = accepted ? "accepted by majority vote"
                               : "rejected by majority vote";
  } else {
    accepted = PollingProtocol(config_.threshold)
                   .decide(m.host_count(), delta);
    decision.reason = accepted ? "accepted by poll (positive total gain)"
                               : "rejected by poll";
  }
  if (accepted) decision.action = Decision::Action::kRedeploy;
  return decision;
}

}  // namespace dif::analyzer
