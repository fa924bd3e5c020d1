// Traffic engine + ratekeeper tests: report determinism (byte-identical
// JSON across same-seed runs), the closed-loop concurrency invariant,
// prepare-throttling actually slowing migration fan-outs, tag-budget
// shedding hitting only the over-budget tenant, and the ratekeeper
// earning its keep on a flash crowd under redeployment churn.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "core/centralized_instantiation.h"
#include "desi/generator.h"
#include "obs/instruments.h"
#include "obs/metrics.h"
#include "prism/deployer.h"
#include "traffic/engine.h"
#include "traffic/ratekeeper.h"
#include "traffic/runner.h"

namespace dif::traffic {
namespace {

TEST(TrafficRunner, SameSeedYieldsByteIdenticalReports) {
  RunOptions opts;
  opts.generator.hosts = 5;
  opts.generator.components = 12;
  opts.seed = 11;
  opts.duration_ms = 8'000.0;
  opts.engine.rps = 120.0;
  opts.engine.shape = IntensityShape::kFlash;
  opts.engine.flash_at_ms = 3'000.0;
  opts.engine.flash_duration_ms = 2'000.0;
  opts.engine.tenants = {{"t0", 2.0, 0.6}, {"t1", 1.0, 0.6}};
  opts.loop_interval_ms = 2'000.0;
  opts.redeploy_at_ms = 2'500.0;
  opts.redeploy_every_ms = 3'000.0;
  opts.redeploy_moves = 2;

  const RunResult a = run_traffic(opts);
  const RunResult b = run_traffic(opts);
  EXPECT_GT(a.offered, 0u);
  // The report is the determinism contract. (The raw metrics registry is
  // NOT byte-stable: analyzer.algo_wall_ms records real wall-clock time.)
  EXPECT_EQ(a.report.dump(2), b.report.dump(2));

  opts.seed = 12;
  const RunResult c = run_traffic(opts);
  EXPECT_NE(a.report.dump(2), c.report.dump(2));
}

TEST(TrafficEngine, ClosedLoopBoundsOutstandingAndConservesRequests) {
  desi::GeneratorSpec spec = traffic_generator_spec();
  spec.hosts = 4;
  spec.components = 10;
  const auto system = desi::Generator::generate(spec, 5);
  core::FrameworkConfig fc;
  fc.seed = 5;
  core::CentralizedInstantiation inst(*system, fc);

  EngineConfig config;
  config.arrival = ArrivalModel::kClosed;
  config.closed_users = 16;
  config.think_ms = 50.0;
  config.seed = 5;
  config.tenants = {{"heavy", 2.0, 1.0}, {"light", 1.0, 1.0}};
  TrafficEngine engine(inst, config, obs::Instruments{});

  inst.start();
  engine.start();
  inst.simulator().run_until(5'000.0);

  EXPECT_GT(engine.ticks(), 0u);
  EXPECT_LE(engine.max_outstanding(), config.closed_users);
  std::uint64_t offered = 0;
  for (const TenantStats& s : engine.tenants()) {
    EXPECT_GT(s.offered, 0u);  // both tenants got users
    EXPECT_EQ(s.offered, s.completed + s.failed + s.shed);
    EXPECT_EQ(s.latencies_ms.size(), s.completed + s.failed);
    offered += s.offered;
  }
  EXPECT_GT(offered, 0u);
}

/// Testbed for the prepare-throttle: a generated system whose deployer reads
/// the given throttle cell, with a multi-participant plan built from the
/// live placement.
struct ThrottleBed {
  std::unique_ptr<desi::SystemData> system;
  std::shared_ptr<prism::PrepareThrottle> cell =
      std::make_shared<prism::PrepareThrottle>();
  obs::Registry metrics;
  std::unique_ptr<core::CentralizedInstantiation> inst;

  ThrottleBed() {
    desi::GeneratorSpec spec = traffic_generator_spec();
    spec.hosts = 6;
    spec.components = 18;
    system = desi::Generator::generate(spec, 7);
    core::FrameworkConfig fc;
    fc.seed = 7;
    fc.deployer.throttle = [cell = cell] { return *cell; };
    inst = std::make_unique<core::CentralizedInstantiation>(*system, fc);
    inst->set_instruments({&metrics, nullptr});
    inst->start();
    inst->simulator().run_until(500.0);  // let admins/monitors settle
  }

  /// Moves `moves` components, each to a distinct new host, so the round
  /// spans several participants.
  bool effect(std::size_t moves) {
    const model::DeploymentModel& m = system->model();
    const model::Deployment placement = inst->runtime_deployment();
    prism::DeployerComponent::TargetDeployment target;
    for (model::ComponentId c = 0; c < m.component_count() &&
                                   target.size() < moves; ++c) {
      const model::HostId cur = placement.host_of(c);
      if (cur == model::kNoHost) continue;
      const auto next = static_cast<model::HostId>(
          (cur + 1 + target.size()) % m.host_count());
      if (next == cur) continue;
      target.emplace_back(m.component(c).name, next);
    }
    return inst->deployer().effect_deployment(target,
                                              [](bool, std::size_t) {});
  }

  [[nodiscard]] std::uint64_t counter(const char* name) const {
    const obs::Counter* c = metrics.find_counter(name);
    return c ? c->value() : 0;
  }
};

TEST(Ratekeeper, PrepareThrottleSlowsMigrationFanout) {
  // Unthrottled: the whole prepare fan-out leaves inside effect_deployment.
  ThrottleBed free_bed;
  ASSERT_TRUE(free_bed.effect(3));
  const std::uint64_t unthrottled_sent =
      free_bed.counter("deploy.txn.prepare_sent");
  ASSERT_GE(unthrottled_sent, 2u);
  EXPECT_EQ(free_bed.counter("deploy.txn.prepare_batches"), 1u);
  EXPECT_EQ(free_bed.counter("deploy.txn.prepare_throttled"), 0u);

  // Throttled to one prepare per batch: strictly fewer leave up front, the
  // rest trickle out on the inter-batch delay, and the round still commits.
  ThrottleBed slow_bed;
  slow_bed.cell->max_batch = 1;
  slow_bed.cell->inter_batch_delay_ms = 400.0;
  ASSERT_TRUE(slow_bed.effect(3));
  const std::uint64_t throttled_sent =
      slow_bed.counter("deploy.txn.prepare_sent");
  EXPECT_LT(throttled_sent, unthrottled_sent);
  EXPECT_EQ(throttled_sent, 1u);
  EXPECT_EQ(slow_bed.counter("deploy.txn.prepare_throttled"), 1u);

  slow_bed.inst->simulator().run_until(30'000.0);
  // >= rather than ==: the deployer's renotify path may legitimately
  // re-send prepares to slow participants on top of the batched fan-out.
  EXPECT_GE(slow_bed.counter("deploy.txn.prepare_sent"), unthrottled_sent);
  EXPECT_GT(slow_bed.counter("deploy.txn.prepare_batches"), 1u);
  EXPECT_EQ(slow_bed.inst->deployer().last_outcome(),
            prism::TxnOutcome::kCommitted);
}

TEST(Ratekeeper, ShedsOnlyTheOverBudgetTenantUnderSaturation) {
  desi::GeneratorSpec spec = traffic_generator_spec();
  spec.hosts = 4;
  spec.components = 10;
  const auto system = desi::Generator::generate(spec, 3);
  auto cell = std::make_shared<prism::PrepareThrottle>();
  core::FrameworkConfig fc;
  fc.seed = 3;
  fc.deployer.throttle = [cell] { return *cell; };
  core::CentralizedInstantiation inst(*system, fc);
  obs::Registry metrics;
  obs::Instruments instruments{&metrics, nullptr};
  inst.set_instruments(instruments);

  EngineConfig config;
  config.rps = 200.0;
  config.host_capacity_rps = 20.0;  // saturated from the first tick
  config.seed = 3;
  // heavy holds ~2/3 of the load against a 0.5 budget; light stays within.
  config.tenants = {{"heavy", 2.0, 0.5}, {"light", 1.0, 0.9}};
  TrafficEngine engine(inst, config, instruments);

  RatekeeperConfig rk_config;
  rk_config.slo_p99_ms = 1.0;  // any served sample breaches
  Ratekeeper ratekeeper(engine, inst, instruments, cell, rk_config);

  inst.start();
  engine.start();
  ratekeeper.start();
  inst.simulator().run_until(10'000.0);

  EXPECT_GT(ratekeeper.shed_actions(), 0u);
  EXPECT_GT(engine.shed_level(0), 0.0);
  EXPECT_EQ(engine.shed_level(1), 0.0);
  EXPECT_GT(engine.tenants()[0].shed, 0u);
  EXPECT_EQ(engine.tenants()[1].shed, 0u);
  // Breach accounting ran too, and the throttle ladder escalated.
  EXPECT_GT(ratekeeper.slo_violation_ms(), 0.0);
  EXPECT_GT(ratekeeper.max_level_reached(), 0);
  EXPECT_GE(cell->inter_batch_delay_ms, 0.0);
}

// The flash-crowd session of EXPERIMENTS.md (ET): 6x18, seed 7, 150 rps,
// two forced moves every 8 s from t = 5 s, the noisy tenant t0 at double
// weight against a 1.2x-fair-share budget. With the ratekeeper on, the
// session accrues no more SLO-violation time than the same seed without
// it; both reports conserve every request.
TEST(Ratekeeper, FlashCrowdUnderChurnViolatesNoLongerThanWithout) {
  RunOptions opts;
  opts.generator.hosts = 6;
  opts.generator.components = 18;
  opts.seed = 7;
  opts.duration_ms = 60'000.0;
  opts.engine.rps = 150.0;
  opts.engine.shape = IntensityShape::kFlash;
  opts.engine.tenants = {{"t0", 2.0, 0.6}, {"t1", 1.0, 0.6}};
  opts.redeploy_at_ms = 5'000.0;
  opts.redeploy_every_ms = 8'000.0;
  opts.redeploy_moves = 2;
  const RunResult on = run_traffic(opts);
  opts.ratekeeper.enabled = false;
  const RunResult off = run_traffic(opts);
  EXPECT_LE(on.slo_violation_ms, off.slo_violation_ms);

  for (const RunResult* run : {&on, &off}) {
    const util::json::Value& totals = run->report.at("totals");
    EXPECT_GT(totals.at("offered").as_number(), 0.0);
    EXPECT_EQ(totals.at("offered").as_number(),
              totals.at("completed").as_number() +
                  totals.at("failed").as_number() +
                  totals.at("shed").as_number());
    for (const auto& [tag, t] : run->report.at("tenants").as_object())
      EXPECT_EQ(t.at("offered").as_number(),
                t.at("completed").as_number() + t.at("failed").as_number() +
                    t.at("shed").as_number())
          << tag;
    std::set<std::string> kinds;
    double failed = 0.0;
    for (const auto& [kind, n] : run->report.at("failures").as_object()) {
      kinds.insert(kind);
      failed += n.as_number();
    }
    EXPECT_EQ(kinds, (std::set<std::string>{"host_down", "migrating",
                                            "no_path", "partitioned",
                                            "timeout"}));
    EXPECT_EQ(failed, totals.at("failed").as_number());
    EXPECT_GT(run->rounds, 0u);
    const util::json::Value& rk = run->report.at("ratekeeper");
    EXPECT_EQ(rk.at("slo_violation_ms").as_number(), run->slo_violation_ms);
    EXPECT_GE(rk.at("max_level_reached").as_number(), 0.0);
    EXPECT_GE(rk.at("shed_actions").as_number(), 0.0);
  }
}

}  // namespace
}  // namespace dif::traffic
