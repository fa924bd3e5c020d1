// The fault-injection campaign engine (the "chaos" layer's public face).
//
// A campaign runs the full improvement stack — generated system, Prism-MW
// instantiation, monitors, analyzer/auction, effectors — under a compiled
// FaultSchedule, once per (seed, mode) pair, and checks dependability
// invariants after every run:
//
//   conservation   delivered + dropped + unroutable never exceeds sent, and
//                  per-link drop shares never exceed the global drop count
//   epoch          the deployer's redeployment epoch is monotonic for the
//                  whole run (sampled periodically), including across master
//                  crashes, and at least one epoch exists per completed round
//   census         after the convergence window every application component
//                  is hosted exactly once — nothing lost by a crash, nothing
//                  duplicated by a recovered transfer
//   atomicity      the last redeployment round left every component it
//                  *resolved* where the round declared it — the proposed
//                  deployment, the checkpoint, or a declared partial
//                  commit — never an undeclared mix (components the round
//                  explicitly declared unresolved are bound only by the
//                  census invariant)
//   availability   the converged deployment, scored on a pristine copy of
//                  the generated model, is no worse than the initial
//                  deployment (within CampaignConfig::availability_tolerance)
//   preflight      the run-time-mutated model still passes the static
//                  checker's pre-flight rule set
//   audit          after a cleanly committed round with a complete runtime
//                  placement, the placement-auditor (check/audit.h) finds
//                  no location/capacity/collocation error against the
//                  pristine model (bandwidth advisories excluded — the sim
//                  mediates unconnected hosts)
//   convergence    (recovery-enabled runs only) within a bounded window
//                  after the last fault heals, the fleet re-reaches a
//                  complete placement that re-audits clean and is no less
//                  k-resilient than the initial placement — the
//                  self-healing loop not only repairs but *converges*
//
// Everything is deterministic in the seed: generation, fault times and
// targets, protocol interleavings, and therefore the whole report —
// identical seeds yield byte-identical JSON (schema "dif-campaign-v1").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "chaos/fault_schedule.h"
#include "chaos/scenario.h"
#include "desi/generator.h"
#include "heal/recovery.h"
#include "obs/instruments.h"
#include "util/json.h"

namespace dif::chaos {

struct CampaignConfig {
  ScenarioSpec scenario;
  /// One run per seed (per enabled mode).
  std::vector<std::uint64_t> seeds = {0, 1, 2, 3};
  /// Which framework instantiations to drive.
  bool centralized = true;
  bool decentralized = true;
  /// The system under test, regenerated per seed.
  desi::GeneratorSpec generator;
  /// Improvement-loop cadence (centralized mode).
  double improve_interval_ms = 5'000.0;
  /// Extra post-scenario time for in-flight transfers to finish before the
  /// census / availability / atomicity invariants are judged. Must exceed
  /// redeploy_timeout_ms + rollback_timeout_ms so a round launched at the
  /// very end of the run is guaranteed closed at judgment time.
  double settle_ms = 30'000.0;
  /// Transactional-effector budgets for the centralized runs: tight enough
  /// that every round (including its rollback) resolves inside settle_ms.
  double redeploy_timeout_ms = 10'000.0;
  double rollback_timeout_ms = 15'000.0;
  /// Graceful degradation: let rolled-back rounds keep their completed
  /// migrations (rounds then close as "partial" instead of "rolled_back").
  bool allow_partial = false;
  /// Slack allowed on the availability invariant: transient faults steer
  /// the adaptation through states optimized against *observed* (degraded)
  /// reliabilities, and hill-climbing back after the heal may stop within
  /// the analyzer's min_improvement of the initial score.
  double availability_tolerance = 0.0;
  /// Epoch-monotonicity sampling period.
  double epoch_probe_ms = 5'000.0;
  /// Self-healing (centralized runs): attach a heal::HealController —
  /// phi-accrual detection over the monitor heartbeats, automatic recovery
  /// re-placement on condemnation — and judge the eighth (convergence)
  /// invariant. Off by default, so recovery-free campaigns are bit-for-bit
  /// what they were before the heal layer existed.
  bool recovery = false;
  heal::HealConfig heal;
  /// Convergence deadline: the placement must re-audit clean within this
  /// many sim ms after scenario.fault_until_ms (recovery runs only).
  double convergence_window_ms = 60'000.0;

  CampaignConfig() {
    generator.hosts = 5;
    generator.components = 14;
    generator.reliability = {0.60, 0.99};
    generator.bandwidth = {50.0, 400.0};
    generator.link_density = 0.5;
    generator.interaction_density = 0.25;
  }
};

/// Campaign configuration for the recovery reference runs (`difctl heal`,
/// tests/test_heal.cpp): killhost scenario, centralized only, recovery
/// enabled, and a generator with genuine capacity pressure.
/// The default campaign generator leaves hosts roomy enough that the exact
/// solver collocates the entire system on one host (availability 1.0) at
/// the first improvement tick — any host killed after that is empty and
/// recovery is vacuously idle. Squeezing host memory below half the total
/// component footprint forces a spread placement, so the killed host
/// always holds components worth repairing.
[[nodiscard]] CampaignConfig recovery_campaign_config();

struct InvariantViolation {
  std::string invariant;  // "conservation", "epoch", "census", ...
  std::string detail;
};

/// Everything observed in one (seed, mode) run. All fields are pure
/// functions of the seed — no wall-clock values.
struct RunReport {
  std::uint64_t seed = 0;
  std::string mode;      // "centralized" | "decentralized"
  std::string scenario;
  std::size_t actions_scheduled = 0;
  std::map<std::string, std::uint64_t> faults;  // injected, per kind

  std::uint64_t net_sent = 0;
  std::uint64_t net_delivered = 0;
  std::uint64_t net_dropped = 0;
  std::uint64_t net_unroutable = 0;
  std::vector<sim::LinkDrops> dropped_links;

  double initial_availability = 0.0;
  double final_availability = 0.0;

  /// Centralized: analyzer redeployments applied / deployer rounds
  /// completed / final epoch / stale acks. Decentralized: auction
  /// migrations under "migrations", the rest stay zero.
  std::uint64_t redeployments = 0;
  std::uint64_t migrations = 0;
  std::uint64_t final_epoch = 0;
  std::uint64_t stale_acks = 0;
  /// Transactional-round outcomes (centralized only), keyed by
  /// prism::TxnOutcome name: committed / aborted / rolled_back / partial /
  /// rollback_failed / crashed.
  std::map<std::string, std::uint64_t> txn_outcomes;

  /// Self-healing observations (recovery-enabled centralized runs only;
  /// all zero / absent otherwise). `recovery` holds the full
  /// dif-recovery-v1 "recovery" object from heal::HealController::to_json.
  bool recovery_enabled = false;
  double converged_at_ms = -1.0;  // first audit-clean probe; <0 = never
  double mean_mttr_ms = 0.0;
  std::uint64_t condemnations = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t recoveries_committed = 0;
  std::optional<util::json::Value> recovery;

  std::vector<InvariantViolation> violations;

  [[nodiscard]] util::json::Value to_json() const;
};

struct CampaignReport {
  CampaignConfig config;
  std::vector<RunReport> runs;

  [[nodiscard]] std::size_t total_violations() const;
  [[nodiscard]] bool ok() const { return total_violations() == 0; }

  /// {"schema": "dif-campaign-v1", ...} — deterministic for a given
  /// (config, seeds): std::map-backed objects serialize in key order and
  /// no field derives from wall clock.
  [[nodiscard]] util::json::Value to_json() const;
};

/// Appends the post-run invariant verdicts (conservation, census,
/// atomicity, availability, preflight, audit) for a finished centralized
/// run to `report.violations`. Factored out of run_centralized_once so
/// perfbench's workloads can judge runs they wire up themselves; the epoch
/// and convergence invariants live in the runner (they need mid-run
/// samples).
void judge_centralized_invariants(core::CentralizedInstantiation& inst,
                                  const desi::SystemData& system,
                                  const desi::SystemData& pristine,
                                  double availability_tolerance,
                                  RunReport& report);

class CampaignRunner {
 public:
  /// `instruments` members may be null; when set, fault counters/spans and
  /// the full per-run network/admin instrumentation accumulate there
  /// across all runs.
  explicit CampaignRunner(CampaignConfig config,
                          obs::Instruments instruments = {})
      : config_(std::move(config)), obs_(instruments) {}

  /// Runs every (seed, enabled mode) combination and returns the report.
  [[nodiscard]] CampaignReport run();

  /// Called with the fully wired instantiation after the fault schedule is
  /// armed and before the simulation starts — the protocol fuzzer's hook
  /// point (it attaches a network interceptor here). May be null.
  using PrepareHook = std::function<void(core::CentralizedInstantiation&)>;

  /// One centralized run, with `prepare` invoked pre-start. The report and
  /// its seven invariant verdicts are exactly what run() would produce for
  /// this seed — which is what makes them usable as a fuzzing oracle.
  [[nodiscard]] RunReport run_centralized_once(std::uint64_t seed,
                                               const PrepareHook& prepare);

 private:
  [[nodiscard]] RunReport run_centralized(std::uint64_t seed) {
    return run_centralized_once(seed, nullptr);
  }
  [[nodiscard]] RunReport run_decentralized(std::uint64_t seed);

  CampaignConfig config_;
  obs::Instruments obs_;
};

}  // namespace dif::chaos
