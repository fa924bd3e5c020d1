// TrafficRunner: the one code path behind `difctl traffic` and the traffic
// tests (tests/test_traffic.cpp, tests/test_heal.cpp).
//
// Generates a system, builds the centralized instantiation with the
// ratekeeper's PrepareThrottle cell bound into the deployer, starts the
// traffic engine + ratekeeper + improvement loop, optionally arms a chaos
// scenario and forces periodic redeployments (so migrations demonstrably
// run *under load*), and renders one deterministic "dif-traffic-v1" JSON
// report — the same seeded options always yield byte-identical bytes,
// which is what the determinism test pins.
#pragma once

#include <cstdint>
#include <string>

#include "desi/generator.h"
#include "heal/recovery.h"
#include "traffic/engine.h"
#include "traffic/ratekeeper.h"
#include "util/json.h"

namespace dif::traffic {

/// Generator defaults tuned for serving live traffic: denser links (so the
/// direct-or-master-mediated data plane covers almost every host pair) and
/// an order of magnitude more bandwidth than the desi baseline (so the app
/// workload does not chronically oversubscribe links — backlog then comes
/// from real events: migrations and flash crowds, not a saturated steady
/// state).
[[nodiscard]] desi::GeneratorSpec traffic_generator_spec();

struct RunOptions {
  desi::GeneratorSpec generator = traffic_generator_spec();
  std::uint64_t seed = 1;
  double duration_ms = 60'000.0;
  EngineConfig engine;          // engine.seed is overwritten with `seed`
  RatekeeperConfig ratekeeper;
  /// Chaos scenario armed over the run ("none" disables injection;
  /// anything else resolves via chaos::scenario_by_name, its duration
  /// clamped to `duration_ms`).
  std::string scenario = "none";
  /// Improvement loop cadence (0 disables the loop).
  double loop_interval_ms = 5'000.0;
  /// Forced redeployment churn: starting at `redeploy_at_ms` (0 = never)
  /// and repeating every `redeploy_every_ms` (0 = once), move
  /// `redeploy_moves` capacity-fitting components to new hosts — skipped
  /// silently while another round is in flight.
  double redeploy_at_ms = 0.0;
  double redeploy_every_ms = 0.0;
  std::size_t redeploy_moves = 0;
  /// Self-healing: attach a heal::HealController (phi-accrual detection,
  /// automatic recovery re-placement) over the live run and add a
  /// "recovery" object to the report. Off by default — recovery-off runs
  /// stay byte-identical to pre-heal builds.
  bool recovery = false;
  heal::HealConfig heal;
};

struct RunResult {
  util::json::Value report;   // the dif-traffic-v1 document
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::size_t max_outstanding = 0;
  double slo_violation_ms = 0.0;
  std::uint64_t rounds = 0;         // closed txn rounds
  std::uint64_t committed = 0;      // clean commits
  std::uint64_t rolled_back = 0;    // aborted/rolled-back/partial rounds
  std::uint64_t migrations = 0;     // components actually moved
  /// Self-healing observations (zero unless RunOptions::recovery).
  std::uint64_t condemnations = 0;
  std::uint64_t recoveries_committed = 0;
  double mean_mttr_ms = 0.0;
  /// SLO-violation ms accrued while a repair was pending or in flight —
  /// the share of user pain attributable to recovery traffic.
  double slo_repair_attrib_ms = 0.0;
  /// The full metrics registry of the run, serialized (dif-metrics-v1).
  util::json::Value metrics;
};

/// Runs one seeded traffic session end to end. Throws std::invalid_argument
/// on an unknown scenario name.
[[nodiscard]] RunResult run_traffic(const RunOptions& options);

}  // namespace dif::traffic
