// Self-healing layer: phi-accrual failure detection (deterministic
// suspicion trajectories, heartbeat delay/reorder tolerance) and the heal
// controller's recovery loop (flapping-host double-placement guard,
// convergence, MTTR and recovery-on vs -off availability of the recovery
// reference campaign, repair under live traffic) —
// heal/failure_detector.h, heal/recovery.h, chaos/campaign.h,
// traffic/runner.h.
#include "heal/recovery.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "core/improvement_loop.h"
#include "desi/generator.h"
#include "heal/failure_detector.h"
#include "prism/event.h"
#include "prism/distribution.h"
#include "traffic/runner.h"

namespace dif::heal {
namespace {

// --- detector ------------------------------------------------------------

TEST(PhiAccrual, TrajectoryIsDeterministicInTheHeartbeatSequence) {
  const DetectorConfig config;
  PhiAccrualDetector one(config);
  PhiAccrualDetector two(config);
  // A jittered but identical schedule: 1000 ms cadence, ±200 ms wobble.
  const double jitter[] = {0.0, 150.0, -200.0, 80.0, -120.0, 200.0};
  double t = 0.0;
  for (int i = 0; i < 24; ++i) {
    t = 1'000.0 * (i + 1) + jitter[i % 6];
    one.heartbeat(3, t);
    two.heartbeat(3, t);
  }
  // Identical samples at every probe instant, and phi is monotone in the
  // silence that follows the last heartbeat.
  double prev = -1.0;
  for (double probe = t; probe < t + 20'000.0; probe += 500.0) {
    const double a = one.phi(3, probe);
    const double b = two.phi(3, probe);
    EXPECT_EQ(a, b) << "probe " << probe;
    EXPECT_GE(a, prev) << "phi must accrue monotonically at " << probe;
    prev = a;
  }
  // The trajectory crosses suspect strictly before condemn.
  double suspected_at = -1.0;
  double condemned_at = -1.0;
  for (double probe = t; probe < t + 60'000.0; probe += 100.0) {
    const HostState s = one.state(3, probe);
    if (suspected_at < 0 && s != HostState::kAlive) suspected_at = probe;
    if (condemned_at < 0 && s == HostState::kCondemned) condemned_at = probe;
  }
  ASSERT_GT(suspected_at, 0.0);
  ASSERT_GT(condemned_at, 0.0);
  EXPECT_LT(suspected_at, condemned_at);
}

TEST(PhiAccrual, ReorderedHeartbeatsAreTolerated) {
  PhiAccrualDetector detector;
  PhiAccrualDetector reference;
  for (int i = 1; i <= 12; ++i) {
    const double t = 1'000.0 * i;
    detector.heartbeat(1, t);
    reference.heartbeat(1, t);
    // A delayed duplicate of an older report arrives out of order: its
    // timestamp is in the past and must not poison the interval window.
    if (i % 3 == 0) detector.heartbeat(1, t - 2'500.0);
  }
  for (double probe = 12'000.0; probe < 30'000.0; probe += 500.0)
    EXPECT_EQ(detector.phi(1, probe), reference.phi(1, probe))
        << "probe " << probe;
}

TEST(PhiAccrual, DelayJitterWithinAcceptablePauseNeverSuspects) {
  const DetectorConfig config;  // acceptable_pause_ms = 2000
  PhiAccrualDetector detector(config);
  // Heartbeats whose delivery wobbles by up to 1.5 s — fuzz-hook delay and
  // reorder territory — must never push a live host past suspect.
  const double delays[] = {0.0, 900.0, 1'500.0, 300.0, 1'200.0, 600.0};
  double t = 0.0;
  for (int i = 0; i < 30; ++i) {
    t = 1'000.0 * (i + 1) + delays[i % 6];
    detector.heartbeat(7, t);
    EXPECT_EQ(detector.state(7, t), HostState::kAlive);
  }
  // Even probed a full cadence after the last (delayed) beat.
  EXPECT_EQ(detector.state(7, t + 1'000.0), HostState::kAlive);
}

TEST(PhiAccrual, NeverSeenHostsScoreZeroUntilBootstrapped) {
  PhiAccrualDetector detector;
  EXPECT_EQ(detector.phi(5, 50'000.0), 0.0);
  EXPECT_EQ(detector.state(5, 50'000.0), HostState::kAlive);
  detector.bootstrap_from(50'000.0);
  EXPECT_EQ(detector.phi(5, 50'000.0), 0.0);
  // After bootstrap, silence accrues suspicion even with zero heartbeats.
  EXPECT_EQ(detector.state(5, 200'000.0), HostState::kCondemned);
}

TEST(PhiAccrual, HeartbeatAfterSilenceRestoresLiveness) {
  PhiAccrualDetector detector;
  for (int i = 1; i <= 10; ++i) detector.heartbeat(2, 1'000.0 * i);
  EXPECT_EQ(detector.state(2, 60'000.0), HostState::kCondemned);
  detector.heartbeat(2, 61'000.0);
  EXPECT_EQ(detector.state(2, 61'500.0), HostState::kAlive);
}

// --- controller + campaign ----------------------------------------------

/// Counts how often each application component exists across all hosts.
std::map<std::string, int> census(core::CentralizedInstantiation& inst,
                                  std::size_t hosts) {
  std::map<std::string, int> counts;
  for (std::size_t h = 0; h < hosts; ++h) {
    for (const std::string& name :
         inst.architecture(static_cast<model::HostId>(h)).component_names()) {
      if (name.rfind("__", 0) == 0) continue;
      ++counts[name];
    }
  }
  return counts;
}

TEST(HealController, NoFalseCondemnationUnderHeartbeatDelayAndReorder) {
  // A faultless run whose monitor reports are adversarially delayed and
  // reordered (within the detector's acceptable pause) must not condemn
  // anyone: the whole point of accrual detection over fixed timeouts.
  chaos::CampaignConfig config = chaos::recovery_campaign_config();
  config.scenario = chaos::scenario_by_name("quiet");
  config.scenario.duration_ms = 60'000.0;
  chaos::CampaignRunner runner(config);

  int tapped = 0;
  const chaos::RunReport report = runner.run_centralized_once(
      3, [&tapped](core::CentralizedInstantiation& inst) {
        inst.network().set_fuzz_hook(
            [&tapped](const sim::NetMessage& msg)
                -> std::optional<sim::FuzzDecision> {
              if (msg.channel != prism::kEventChannel) return std::nullopt;
              const prism::Event event = prism::Event::deserialize(msg.payload);
              if (event.name() != "__monitor_report") return std::nullopt;
              ++tapped;
              sim::FuzzDecision decision;
              // Deterministic delay pattern up to 1.6 s; every 7th report
              // overtakes the next one outright (a reorder).
              decision.delay_ms = 400.0 * (tapped % 5);
              return decision;
            });
      });

  EXPECT_GT(tapped, 0);
  EXPECT_TRUE(report.recovery_enabled);
  EXPECT_EQ(report.condemnations, 0u);
  EXPECT_EQ(report.recoveries_committed, 0u);
  EXPECT_TRUE(report.violations.empty())
      << report.violations.front().invariant << ": "
      << report.violations.front().detail;
}

TEST(HealController, FlappingHostNeverDoublePlaces) {
  desi::GeneratorSpec spec;
  spec.hosts = 5;
  spec.components = 14;
  spec.host_memory = {50.0, 70.0};
  spec.component_memory = {8.0, 12.0};
  spec.reliability = {0.60, 0.99};
  spec.bandwidth = {50.0, 400.0};
  spec.link_density = 0.5;
  spec.interaction_density = 0.25;
  const std::uint64_t seed = 9;
  auto system = desi::Generator::generate(spec, seed);
  const auto pristine = desi::Generator::generate(spec, seed);

  core::FrameworkConfig fc;
  fc.seed = seed;
  core::CentralizedInstantiation inst(*system, fc);
  HealConfig hc;
  hc.seed = seed + 1;
  HealController healer(inst, *pristine, hc);

  // The victim: the non-master host holding the most components initially.
  model::HostId victim = 1;
  {
    std::vector<std::size_t> load(spec.hosts, 0);
    const model::Deployment& d = pristine->deployment();
    for (model::ComponentId c = 0; c < pristine->model().component_count();
         ++c)
      if (d.is_assigned(c)) ++load[d.host_of(c)];
    for (model::HostId h = 1; h < spec.hosts; ++h)
      if (load[h] > load[victim]) victim = h;
  }

  // Flap hard: a long outage (condemned, repaired), a short rejoin, and a
  // second outage right after — the guard must not re-place components a
  // committed repair already moved, and anti-entropy must leave every
  // component hosted exactly once.
  inst.simulator().schedule_at(10'000.0, [&] { inst.crash_host(victim); });
  inst.simulator().schedule_at(35'000.0, [&] { inst.restart_host(victim); });
  inst.simulator().schedule_at(40'000.0, [&] { inst.crash_host(victim); });
  inst.simulator().schedule_at(60'000.0, [&] { inst.restart_host(victim); });

  inst.start();
  healer.start();
  inst.simulator().run_until(100'000.0);
  healer.stop();
  inst.simulator().run_until(130'000.0);

  EXPECT_GE(healer.condemnations(), 1u);
  const auto counts = census(inst, spec.hosts);
  EXPECT_EQ(counts.size(), pristine->model().component_count());
  for (const auto& [name, count] : counts)
    EXPECT_EQ(count, 1) << name << " exists " << count << " times";
  // At most one repair round may have re-placed the victim's components;
  // the re-condemnation after the flap must find nothing left to move.
  std::size_t placements = 0;
  for (const RecoveryRecord& r : healer.recoveries())
    if (r.committed) placements += r.components;
  EXPECT_LE(placements, pristine->model().component_count());
  ASSERT_GE(healer.recoveries().size(), 1u);
}

// Seeds 0 and 2 are the repair-committing corpus (seed 1's crash races an
// in-flight redeployment off the host, leaving nothing to repair).
TEST(HealController, RecoveryReferenceCampaignRepairsAndConverges) {
  chaos::CampaignConfig config = chaos::recovery_campaign_config();
  config.seeds = {0, 2};
  chaos::CampaignRunner runner(config);
  const chaos::CampaignReport report = runner.run();
  ASSERT_EQ(report.runs.size(), 2u);
  double mttr_sum = 0.0;
  double availability_on = 0.0;
  for (const chaos::RunReport& run : report.runs) {
    EXPECT_TRUE(run.recovery_enabled);
    EXPECT_GE(run.condemnations, 1u) << "seed " << run.seed;
    EXPECT_GE(run.recoveries_committed, 1u) << "seed " << run.seed;
    EXPECT_GE(run.converged_at_ms, 0.0) << "seed " << run.seed;
    EXPECT_GT(run.mean_mttr_ms, 0.0) << "seed " << run.seed;
    EXPECT_TRUE(run.violations.empty())
        << "seed " << run.seed << ": " << run.violations.front().invariant
        << ": " << run.violations.front().detail;
    mttr_sum += run.mean_mttr_ms;
    availability_on += run.final_availability;
  }
  // Repair commits before the dead host would have restarted on its own:
  // the mean MTTR beats the scenario's minimum outage.
  EXPECT_LT(mttr_sum / 2.0, config.scenario.min_fault_ms);
  EXPECT_EQ(report.to_json().dump(2),
            chaos::CampaignRunner(config).run().to_json().dump(2));

  // The same seeds without the heal controller converge no higher.
  chaos::CampaignConfig off_config = config;
  off_config.recovery = false;
  double availability_off = 0.0;
  for (const chaos::RunReport& run :
       chaos::CampaignRunner(off_config).run().runs)
    availability_off += run.final_availability;
  EXPECT_GE(availability_on, availability_off);
}

// The killhost outage during a live traffic session, under the same
// capacity pressure as the reference campaign (seed 4: the repair commits
// mid-session), against the recovery-off replay of the identical seed.
// Repair rounds ride the ratekeeper's throttle, so repairing serves more
// of the offered load and accrues no more SLO-violation time.
TEST(HealController, RepairUnderLoadServesMoreAndViolatesNoLonger) {
  traffic::RunOptions opts;
  opts.generator.hosts = 6;
  opts.generator.components = 18;
  opts.generator.host_memory = {60.0, 80.0};
  opts.generator.component_memory = {8.0, 12.0};
  opts.seed = 4;
  opts.duration_ms = 60'000.0;
  opts.scenario = "killhost";
  opts.engine.rps = 120.0;
  opts.recovery = true;
  const traffic::RunResult on = traffic::run_traffic(opts);
  opts.recovery = false;
  const traffic::RunResult off = traffic::run_traffic(opts);

  EXPECT_GE(on.recoveries_committed, 1u);
  ASSERT_GT(on.offered, 0u);
  ASSERT_GT(off.offered, 0u);
  EXPECT_GE(static_cast<double>(on.completed) / static_cast<double>(on.offered),
            static_cast<double>(off.completed) /
                static_cast<double>(off.offered));
  EXPECT_LE(on.slo_violation_ms, off.slo_violation_ms);
}

}  // namespace
}  // namespace dif::heal
