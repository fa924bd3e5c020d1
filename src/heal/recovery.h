// Self-healing: recovery planning and the heal control loop.
//
// The missing piece of the paper's monitor → analyze → redeploy cycle: the
// runtime so far *survived* injected faults (transactional rounds,
// ownership resolution) but never closed the loop by detecting a dead host
// and autonomously restoring the audited placement. This module does:
//
//   PhiAccrualDetector (failure_detector.h) watches the monitor heartbeat
//   stream; when a host crosses the *condemn* threshold, the
//   RecoveryPlanner marks its components dirty and warm-starts the search
//   stack (algo/ warm_start + dirty_components) from the surviving
//   placement to produce a repair target. The HealController hands that to
//   DeployerComponent::effect_recovery — a regular transactional round
//   whose lost-source migrations ship factory-reconstructible substitute
//   state (__recover_component) instead of requesting the component from
//   its dead holder. The round is preflight-audited, capacity-voted, and
//   ratekeeper-throttled exactly like any other redeployment, so repair
//   traffic cannot violate user SLOs.
//
//   If the condemnation was false (a partition, not a death), the host
//   eventually reports again; the controller notices the rejoin and
//   re-announces the recovered components' locations with their bumped
//   custody versions, so the rejoining host sheds its stale copies
//   (anti-entropy by epoch+custody precedence — see
//   AdminComponent::handle_location_update).
//
// Deterministic in (seed, heartbeat sequence): reports never carry wall
// clock, so recovery-enabled campaign/traffic runs stay byte-identical.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/centralized_instantiation.h"
#include "desi/system_data.h"
#include "heal/failure_detector.h"
#include "prism/deployer.h"
#include "util/json.h"

namespace dif::heal {

/// A repair target: the full desired placement plus which components had to
/// be re-placed because their host was condemned.
struct RecoveryPlan {
  prism::DeployerComponent::TargetDeployment target;
  std::vector<std::string> lost;  // components that were on the dead host
  bool feasible = false;          // every lost component found a live home
};

/// Plans the repair placement for a condemned host: greedy constraint-aware
/// re-placement of the lost components (ConstraintChecker::placement_ok +
/// incremental availability scoring), polished by a warm-started search
/// restricted to the lost components' neighbourhood.
class RecoveryPlanner {
 public:
  struct Options {
    /// Search used for the warm-start polish (algo registry name).
    std::string algorithm = "hillclimb";
    /// Evaluation budget for the polish; repair must be prompt, not
    /// optimal — the improvement loop keeps refining afterwards.
    std::uint64_t max_evaluations = 4'000;
    std::uint64_t seed = 1;
  };

  /// `pristine` supplies ground-truth topology and constraints for
  /// planning; it must outlive the planner.
  RecoveryPlanner(const desi::SystemData& pristine, Options options);

  /// Repair plan for losing `dead` under placement `current`. Hosts in
  /// `avoid` (suspects, other condemned hosts) are not valid targets.
  [[nodiscard]] RecoveryPlan plan(const model::Deployment& current,
                                  model::HostId dead,
                                  const std::vector<model::HostId>& avoid)
      const;

 private:
  const desi::SystemData& pristine_;
  Options options_;
};

/// One detector state change, for reports and tests.
struct StateTransition {
  model::HostId host = 0;
  double at_ms = 0.0;
  HostState from = HostState::kAlive;
  HostState to = HostState::kAlive;
};

/// One condemnation and what recovery did about it.
struct RecoveryRecord {
  model::HostId host = 0;
  double condemned_at_ms = 0.0;
  double committed_at_ms = -1.0;  // < 0 until the repair round commits
  std::size_t components = 0;     // lost components re-placed
  bool committed = false;
  bool rejoined = false;  // the host later reported again (false positive)
};

struct HealConfig {
  DetectorConfig detector;
  /// Detector evaluation cadence (sim ms).
  double check_interval_ms = 1'000.0;
  RecoveryPlanner::Options planner;
  /// Stamped into the planner seed so distinct runs stay reproducible.
  std::uint64_t seed = 1;
};

/// Owns the detector and the repair loop for one centralized instantiation.
/// Construction wires nothing; start() registers the heartbeat tap and the
/// liveness probe with the deployer and schedules detector ticks.
class HealController {
 public:
  /// `instantiation` and `pristine` must outlive the controller. Lost
  /// components are reconstituted as fresh WorkloadComponents configured
  /// from the pristine model's logical links.
  HealController(core::CentralizedInstantiation& instantiation,
                 const desi::SystemData& pristine, HealConfig config);

  void start();
  void stop() noexcept { running_ = false; }

  /// One detector sweep + recovery dispatch, at the current sim time.
  /// start() schedules this on check_interval_ms; tests may call directly.
  void tick();

  [[nodiscard]] const PhiAccrualDetector& detector() const noexcept {
    return detector_;
  }
  [[nodiscard]] const std::vector<StateTransition>& transitions()
      const noexcept {
    return transitions_;
  }
  [[nodiscard]] const std::vector<RecoveryRecord>& recoveries()
      const noexcept {
    return recoveries_;
  }
  [[nodiscard]] std::uint64_t condemnations() const noexcept {
    return condemnations_;
  }
  [[nodiscard]] std::uint64_t suspicions() const noexcept {
    return suspicions_;
  }
  [[nodiscard]] std::uint64_t rejoins() const noexcept { return rejoins_; }
  /// True while a condemned host is awaiting or undergoing repair — the
  /// window whose SLO-violation seconds count as repair-attributable.
  [[nodiscard]] bool repair_in_flight() const noexcept {
    return !pending_.empty() || !open_record_.empty();
  }
  [[nodiscard]] std::uint64_t recoveries_started() const noexcept {
    return started_;
  }
  [[nodiscard]] std::uint64_t recoveries_committed() const noexcept {
    return committed_;
  }
  [[nodiscard]] std::uint64_t recoveries_failed() const noexcept {
    return failed_;
  }
  /// Mean condemnation→commit repair time over committed recoveries
  /// (0 when none committed).
  [[nodiscard]] double mean_mttr_ms() const;
  [[nodiscard]] double max_mttr_ms() const;

  /// The "recovery" object of dif-recovery-v1 payloads (also embedded in
  /// recovery-enabled campaign/traffic reports). Pure function of the run.
  [[nodiscard]] util::json::Value to_json() const;

 private:
  void schedule_tick();
  void sweep_states(double now_ms);
  void dispatch_pending(double now_ms);
  void on_condemned(model::HostId host, double now_ms);
  void on_rejoined(model::HostId host, double now_ms);
  [[nodiscard]] std::vector<model::HostId> unsafe_hosts(double now_ms) const;
  [[nodiscard]] std::optional<prism::RecoveredComponent> recovered_state(
      const std::string& name) const;

  core::CentralizedInstantiation& inst_;
  const desi::SystemData& pristine_;
  HealConfig config_;
  PhiAccrualDetector detector_;
  RecoveryPlanner planner_;
  bool running_ = false;

  std::map<model::HostId, HostState> states_;
  std::vector<StateTransition> transitions_;
  std::vector<RecoveryRecord> recoveries_;
  /// Condemned hosts awaiting a repair round (the effector may be busy).
  std::set<model::HostId> pending_;
  /// Hosts whose loss has been repaired and who have not rejoined yet —
  /// a re-condemnation of a still-absent host must not re-place anything
  /// (the flapping-host double-placement guard).
  std::set<model::HostId> repaired_;
  /// Components a committed repair re-placed; their locations (with bumped
  /// custody) are re-announced on rejoin so the returning host sheds its
  /// stale copies.
  std::set<std::string> recovered_components_;
  /// host -> index into recoveries_ of its open (un-committed) record.
  std::map<model::HostId, std::size_t> open_record_;

  std::uint64_t condemnations_ = 0;
  std::uint64_t suspicions_ = 0;
  std::uint64_t rejoins_ = 0;
  std::uint64_t started_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace dif::heal
