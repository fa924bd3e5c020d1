// The Centralized Analyzer (paper Sections 3.1 and 5.1).
//
// A meta-level algorithm that leverages the results obtained from the
// algorithm(s) and the model to determine a course of action:
//
//  * algorithm selection by architecture size — Exact only "for
//    architectures with very small numbers of hosts (~5) and components
//    (~15)" — and by the system's stability profile — "a more expensive
//    algorithm ... if the system is stable", "a less expensive algorithm
//    that could produce faster results" when unstable;
//  * the latency guard — "in rare situations where [the algorithms do not
//    also decrease latency], the analyzer either disallows the results of
//    the algorithms to take effect or modifies the solution";
//  * a minimum-improvement gate, because effecting a redeployment is not
//    free (migrations cost time and bandwidth).
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "algo/registry.h"
#include "analyzer/execution_profile.h"
#include "model/constraints.h"
#include "model/objective.h"
#include "obs/instruments.h"

namespace dif::analyzer {

/// What the analyzer decided to do about the current deployment.
struct Decision {
  enum class Action { kKeep, kRedeploy };
  Action action = Action::kKeep;
  /// Chosen algorithm's name (also set when the result was vetoed).
  std::string algorithm;
  /// The improved deployment (meaningful only for kRedeploy).
  model::Deployment target;
  double value_before = 0.0;
  double value_after = 0.0;
  std::size_t migrations = 0;
  std::string reason;
};

class CentralizedAnalyzer {
 public:
  struct Policy {
    /// Exact-algorithm feasibility envelope (paper's ~5 hosts/~15 comps).
    std::size_t exact_max_hosts = 5;
    std::size_t exact_max_components = 15;
    /// Availability spread below which the system counts as stable.
    double stability_epsilon = 0.02;
    /// Algorithm for stable large systems (expensive, better results) and
    /// for unstable ones (cheap, fast) — both resolved via the registry.
    std::string stable_algorithm = "hillclimb";
    std::string unstable_algorithm = "avala";
    /// Required objective improvement before a redeployment is worth it.
    double min_improvement = 0.01;
    /// Latency guard: veto deployments that worsen latency by more than
    /// this factor relative to the current deployment.
    double latency_tolerance = 1.10;
    bool enable_latency_guard = true;
    /// Evaluation cap handed to whichever algorithm runs (0 = unlimited).
    std::uint64_t max_evaluations = 0;
    /// Warm-start the algorithm run when the caller supplies a dirty set:
    /// the search then only revisits the neighbourhood of the changed
    /// components (AlgoOptions::warm_start). Without a dirty set the run is
    /// cold regardless of this flag.
    bool warm_start = false;
  };

  /// The registry must outlive the analyzer.
  CentralizedAnalyzer(const algo::AlgorithmRegistry& registry, Policy policy);

  /// Picks the algorithm name the policy prescribes for this model/profile
  /// (exposed separately for the E7 bench and for logging).
  [[nodiscard]] std::string select_algorithm(
      const model::DeploymentModel& m, const ExecutionProfile& profile) const;

  /// Runs the selected algorithm and applies the improvement gate and
  /// latency guard. `current` must be the system's present deployment.
  /// `dirty` (optional) lists the components whose model context changed
  /// since `current` was chosen; with Policy::warm_start set, the algorithm
  /// then re-optimizes only that neighbourhood (an empty list degenerates
  /// to "evaluate current once").
  [[nodiscard]] Decision analyze(
      const model::DeploymentModel& m, const model::Objective& objective,
      const model::ConstraintChecker& checker,
      const model::Deployment& current, ExecutionProfile& profile,
      std::uint64_t seed = 1,
      const std::vector<model::ComponentId>* dirty = nullptr) const;

  [[nodiscard]] const Policy& policy() const noexcept { return policy_; }

  /// Runtime policy adjustment — how a meta-level EscalationPolicy swaps
  /// the algorithm the analyzer runs on large stable systems (paper §3.1:
  /// analyzers "modify the framework's behavior by adding or removing"
  /// algorithm components).
  void set_stable_algorithm(std::string name) {
    policy_.stable_algorithm = std::move(name);
  }

  /// Counts analyses and their verdicts under "analyzer.*"; algorithm
  /// wall-clock runtime feeds the "analyzer.algo_wall_ms" histogram (the
  /// analyzer itself has no simulated clock — sim-time tick spans are the
  /// ImprovementLoop's job).
  void set_instruments(obs::Instruments instruments) noexcept {
    obs_ = instruments;
  }

 private:
  const algo::AlgorithmRegistry& registry_;
  Policy policy_;
  obs::Instruments obs_;
};

}  // namespace dif::analyzer
