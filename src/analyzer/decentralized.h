// Decentralized analyzer coordination (paper Sections 3.2 and 5.2).
//
// "The Decentralized Analyzer on each host synchronizes with its remote
// counterparts to determine an improved deployment architecture and effect
// it" — "the analyzer uses either the voting or the polling protocol to
// decide on the appropriate course of action". Both cooperation protocols
// from the paper are provided as pluggable components; DecentralizedAnalyzer
// runs one per-host evaluation function and applies the chosen protocol.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "algo/decap.h"
#include "analyzer/centralized.h"
#include "model/constraints.h"
#include "model/incremental.h"
#include "model/objective.h"

namespace dif::analyzer {

/// How a host judges a proposed deployment change from its own, partial
/// point of view: its local utility delta (positive = improvement for it).
using LocalUtility = std::function<double(model::HostId host)>;

/// Majority voting [8]: each host casts an accept/reject vote; the proposal
/// passes with more than half of the votes in favor.
class VotingProtocol {
 public:
  /// A host votes to accept when its local utility delta is at least
  /// `-tolerance` (it accepts small local losses for the common good).
  explicit VotingProtocol(double tolerance = 0.0) : tolerance_(tolerance) {}

  [[nodiscard]] bool decide(std::size_t host_count,
                            const LocalUtility& utility) const;

  /// Votes of the last decide() call, for inspection/tests.
  [[nodiscard]] const std::vector<bool>& last_votes() const noexcept {
    return last_votes_;
  }

 private:
  double tolerance_;
  mutable std::vector<bool> last_votes_;
};

/// Polling: a coordinator collects every host's utility delta and accepts
/// when the aggregate benefit is positive — hosts report magnitudes, not
/// just yes/no, so a large gain on one host can outweigh small losses.
class PollingProtocol {
 public:
  explicit PollingProtocol(double min_total_gain = 0.0)
      : min_total_gain_(min_total_gain) {}

  [[nodiscard]] bool decide(std::size_t host_count,
                            const LocalUtility& utility) const;

  [[nodiscard]] double last_total() const noexcept { return last_total_; }

 private:
  double min_total_gain_;
  mutable double last_total_ = 0.0;
};

/// Per-host analyzer for the decentralized instantiation: runs DecAp over
/// the hosts' awareness-restricted views, then ratifies the outcome with
/// voting or polling before it may be effected.
class DecentralizedAnalyzer {
 public:
  enum class Protocol { kVoting, kPolling };

  struct Config {
    Protocol protocol = Protocol::kVoting;
    /// Tolerance / minimum-gain threshold fed to the chosen protocol.
    double threshold = 0.0;
    algo::DecApAlgorithm::Params decap;
  };

  explicit DecentralizedAnalyzer(Config config) : config_(config) {}

  /// Runs DecAp from `current`, computes each host's local utility delta of
  /// the result, and applies the cooperation protocol.
  [[nodiscard]] Decision analyze(const model::DeploymentModel& m,
                                 const model::Objective& objective,
                                 const model::ConstraintChecker& checker,
                                 const model::Deployment& current,
                                 const algo::AwarenessGraph& awareness,
                                 std::uint64_t seed = 1) const;

 private:
  Config config_;
};

/// A host's local utility: the summed per-interaction utility under `terms`
/// (see PairwiseDecomposition::or_availability) of interactions touching
/// components on `host`, computed only over partners on hosts it is aware
/// of. Shared by the analyzer and tests.
[[nodiscard]] double local_utility(const model::DeploymentModel& m,
                                   const model::PairwiseDecomposition& terms,
                                   const model::Deployment& d,
                                   const algo::AwarenessGraph& awareness,
                                   model::HostId host);

}  // namespace dif::analyzer
