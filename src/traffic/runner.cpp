#include "traffic/runner.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "chaos/fault_schedule.h"
#include "chaos/scenario.h"
#include "core/improvement_loop.h"
#include "heal/recovery.h"
#include "model/objective.h"
#include "obs/metrics.h"
#include "prism/deployer.h"

namespace dif::traffic {

namespace {

/// Nearest-rank percentile of an unsorted sample set (0 when empty).
double percentile_ms(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

/// Draws up to `moves` capacity-fitting component moves against the live
/// runtime placement and effects them (no-op while a round is in flight).
void force_redeploy(core::CentralizedInstantiation& inst,
                    util::Xoshiro256ss& rng, std::size_t moves) {
  if (inst.deployer().redeployment_in_flight()) return;
  const model::DeploymentModel& m = inst.system().model();
  const model::Deployment placement = inst.runtime_deployment();

  std::vector<double> usage(m.host_count(), 0.0);
  for (model::ComponentId c = 0; c < m.component_count(); ++c) {
    const model::HostId h = placement.host_of(c);
    if (h != model::kNoHost) usage[h] += m.component(c).memory_size;
  }

  prism::DeployerComponent::TargetDeployment target;
  std::vector<bool> picked(m.component_count(), false);
  for (std::size_t attempt = 0;
       attempt < moves * 8 && target.size() < moves; ++attempt) {
    const auto c =
        static_cast<model::ComponentId>(rng.index(m.component_count()));
    if (picked[c]) continue;
    const model::HostId cur = placement.host_of(c);
    if (cur == model::kNoHost) continue;
    const auto h = static_cast<model::HostId>(rng.index(m.host_count()));
    if (h == cur) continue;
    const double mem = m.component(c).memory_size;
    if (usage[h] + mem > m.host(h).memory_capacity) continue;
    usage[h] += mem;
    usage[cur] -= mem;
    picked[c] = true;
    target.emplace_back(m.component(c).name, h);
  }
  if (!target.empty())
    inst.deployer().effect_deployment(target,
                                      [](bool /*ok*/, std::size_t /*n*/) {});
}

}  // namespace

desi::GeneratorSpec traffic_generator_spec() {
  desi::GeneratorSpec spec;
  spec.link_density = 0.9;
  spec.bandwidth = {200.0, 2'000.0};
  // Serving-grade links: the desi default floor (0.30 — 70% loss) makes
  // component transfers retry for tens of seconds, leaving components
  // detached (and every request to them failing) far longer than any real
  // migration would.
  spec.reliability = {0.90, 0.999};
  return spec;
}

RunResult run_traffic(const RunOptions& options) {
  auto system = desi::Generator::generate(options.generator, options.seed);

  // The throttle cell outlives the instantiation: the deployer samples it
  // on every prepare fan-out, the ratekeeper writes it each control tick.
  auto throttle_cell = std::make_shared<prism::PrepareThrottle>();
  core::FrameworkConfig fc;
  fc.seed = options.seed;
  fc.deployer.throttle = [throttle_cell] { return *throttle_cell; };

  // Seat the master on the best-connected host (the paper's Headquarters
  // sits on the hub): the data plane only routes direct or master-mediated,
  // so a poorly-linked master strands every host pair it cannot bridge.
  {
    const model::DeploymentModel& m = system->model();
    std::size_t best_degree = 0;
    for (model::HostId h = 0; h < m.host_count(); ++h) {
      std::size_t degree = 0;
      for (const model::HostId o : m.physical_neighbors(h))
        if (m.connected(h, o)) ++degree;
      if (degree > best_degree) {
        best_degree = degree;
        fc.master_host = h;
      }
    }
  }
  core::CentralizedInstantiation inst(*system, fc);

  obs::Registry metrics;
  obs::Instruments instruments;
  instruments.metrics = &metrics;
  inst.set_instruments(instruments);

  EngineConfig engine_config = options.engine;
  engine_config.seed = options.seed;
  TrafficEngine engine(inst, engine_config, instruments);
  RatekeeperConfig rk_config = options.ratekeeper;
  Ratekeeper ratekeeper(engine, inst, instruments, throttle_cell, rk_config);

  chaos::FaultInjector injector(inst, instruments);
  if (options.scenario != "none") {
    chaos::ScenarioSpec spec = chaos::scenario_by_name(options.scenario);
    spec.duration_ms = options.duration_ms;
    spec.fault_until_ms = std::min(spec.fault_until_ms, options.duration_ms);
    spec.fault_from_ms = std::min(spec.fault_from_ms, spec.fault_until_ms);
    injector.arm(chaos::FaultSchedule::compile(
        spec, system->model(), fc.master_host, options.seed));
  }

  const model::AvailabilityObjective objective;
  core::ImprovementLoop::Config loop_config;
  loop_config.interval_ms =
      options.loop_interval_ms > 0.0 ? options.loop_interval_ms : 5'000.0;
  loop_config.seed = options.seed;
  core::ImprovementLoop loop(inst, objective, loop_config);
  loop.set_instruments(instruments);

  // Forced churn: schedule every wave up front; each draws its moves from
  // a shared forked stream at fire time (fire order is deterministic).
  auto churn_rng = std::make_shared<util::Xoshiro256ss>(
      util::Xoshiro256ss(options.seed).fork(0x5ede9107));
  if (options.redeploy_at_ms > 0.0 && options.redeploy_moves > 0) {
    for (double at = options.redeploy_at_ms; at < options.duration_ms;
         at += options.redeploy_every_ms > 0.0 ? options.redeploy_every_ms
                                               : options.duration_ms) {
      inst.simulator().schedule_at(at, [&inst, churn_rng,
                                        moves = options.redeploy_moves] {
        force_redeploy(inst, *churn_rng, moves);
      });
    }
  }

  // Self-healing: the healer plans repairs against a pristine regeneration
  // of the system (the live copy's reliabilities drift with observations).
  // A periodic sampler splits the ratekeeper's SLO-violation clock into
  // repair-attributable and background shares: violation ms accrued while
  // a condemned host awaits or undergoes repair are charged to recovery.
  std::unique_ptr<desi::SystemData> heal_pristine;
  std::unique_ptr<heal::HealController> healer;
  double slo_repair_attrib_ms = 0.0;
  double last_slo = 0.0;
  std::function<void()> sampler;  // queued copies refer to it by reference
  if (options.recovery) {
    heal_pristine = desi::Generator::generate(options.generator,
                                              options.seed);
    heal::HealConfig hc = options.heal;
    hc.seed = options.seed + 1;
    healer = std::make_unique<heal::HealController>(inst, *heal_pristine, hc);
    sampler = [&, horizon = options.duration_ms] {
      const double now = ratekeeper.slo_violation_ms();
      if (healer->repair_in_flight()) slo_repair_attrib_ms += now - last_slo;
      last_slo = now;
      if (inst.simulator().now() < horizon)
        inst.simulator().schedule_after(1'000.0, sampler);
    };
    inst.simulator().schedule_after(1'000.0, sampler);
  }

  inst.start();
  engine.start();
  ratekeeper.start();
  if (options.loop_interval_ms > 0.0) loop.start();
  if (healer) healer->start();
  inst.simulator().run_until(options.duration_ms);
  if (healer) healer->stop();
  loop.stop();
  ratekeeper.stop();
  engine.stop();

  // --- assemble the dif-traffic-v1 report --------------------------------
  RunResult result;
  const double duration_s = options.duration_ms / 1'000.0;

  util::json::Object config;
  config["arrival"] = util::json::Value(
      std::string(to_string(engine_config.arrival)));
  config["shape"] =
      util::json::Value(std::string(to_string(engine_config.shape)));
  config["rps"] = util::json::Value(engine_config.rps);
  config["closed_users"] =
      util::json::Value(static_cast<double>(engine_config.closed_users));
  config["think_ms"] = util::json::Value(engine_config.think_ms);
  config["tick_ms"] = util::json::Value(engine_config.tick_ms);
  config["path_hops"] =
      util::json::Value(static_cast<double>(engine_config.path_hops));
  config["slo_p99_ms"] = util::json::Value(rk_config.slo_p99_ms);
  config["ratekeeper_enabled"] = util::json::Value(rk_config.enabled);
  config["duration_ms"] = util::json::Value(options.duration_ms);
  config["seed"] = util::json::Value(static_cast<double>(options.seed));
  config["hosts"] =
      util::json::Value(static_cast<double>(options.generator.hosts));
  config["components"] =
      util::json::Value(static_cast<double>(options.generator.components));
  config["scenario"] = util::json::Value(options.scenario);
  util::json::Array tenants_cfg;
  for (const TenantSpec& t : engine.config().tenants) {
    util::json::Object tc;
    tc["name"] = util::json::Value(t.name);
    tc["weight"] = util::json::Value(t.weight);
    tc["tag_budget"] = util::json::Value(t.tag_budget);
    tenants_cfg.emplace_back(std::move(tc));
  }
  config["tenants"] = util::json::Value(std::move(tenants_cfg));

  util::json::Object tenants_doc;
  for (std::size_t t = 0; t < engine.config().tenants.size(); ++t) {
    const TenantStats& s = engine.tenants()[t];
    result.offered += s.offered;
    result.completed += s.completed;
    result.failed += s.failed;
    result.shed += s.shed;
    util::json::Object td;
    td["offered"] = util::json::Value(static_cast<double>(s.offered));
    td["completed"] = util::json::Value(static_cast<double>(s.completed));
    td["failed"] = util::json::Value(static_cast<double>(s.failed));
    td["shed"] = util::json::Value(static_cast<double>(s.shed));
    td["goodput_rps"] =
        util::json::Value(static_cast<double>(s.completed) / duration_s);
    td["p50_ms"] = util::json::Value(percentile_ms(s.latencies_ms, 0.5));
    td["p99_ms"] = util::json::Value(percentile_ms(s.latencies_ms, 0.99));
    td["slo_violation_ms"] =
        util::json::Value(ratekeeper.tenant_slo_violation_ms(t));
    tenants_doc[engine.config().tenants[t].name] =
        util::json::Value(std::move(td));
  }

  util::json::Object totals;
  totals["offered"] = util::json::Value(static_cast<double>(result.offered));
  totals["completed"] =
      util::json::Value(static_cast<double>(result.completed));
  totals["failed"] = util::json::Value(static_cast<double>(result.failed));
  totals["shed"] = util::json::Value(static_cast<double>(result.shed));
  totals["goodput_rps"] =
      util::json::Value(static_cast<double>(result.completed) / duration_s);
  const std::uint64_t admitted = result.offered - result.shed;
  totals["availability"] = util::json::Value(
      admitted > 0 ? static_cast<double>(result.completed) /
                         static_cast<double>(admitted)
                   : 1.0);

  util::json::Object failures;
  const FailureCounts& f = engine.failures();
  failures["host_down"] =
      util::json::Value(static_cast<double>(f.host_down));
  failures["partitioned"] =
      util::json::Value(static_cast<double>(f.partitioned));
  failures["migrating"] =
      util::json::Value(static_cast<double>(f.migrating));
  failures["no_path"] = util::json::Value(static_cast<double>(f.no_path));
  failures["timeout"] = util::json::Value(static_cast<double>(f.timeout));

  result.slo_violation_ms = ratekeeper.slo_violation_ms();
  util::json::Object rk;
  rk["enabled"] = util::json::Value(rk_config.enabled);
  rk["slo_violation_ms"] = util::json::Value(result.slo_violation_ms);
  rk["throttle_actions"] = util::json::Value(
      static_cast<double>(ratekeeper.throttle_actions()));
  rk["shed_actions"] =
      util::json::Value(static_cast<double>(ratekeeper.shed_actions()));
  rk["max_level_reached"] = util::json::Value(
      static_cast<double>(ratekeeper.max_level_reached()));
  const obs::Counter* batches =
      metrics.find_counter("deploy.txn.prepare_batches");
  rk["prepare_batches"] = util::json::Value(
      static_cast<double>(batches ? batches->value() : 0));
  const obs::Counter* throttled =
      metrics.find_counter("deploy.txn.prepare_throttled");
  rk["prepare_fanouts_throttled"] = util::json::Value(
      static_cast<double>(throttled ? throttled->value() : 0));

  const prism::DeployerComponent& deployer = inst.deployer();
  result.rounds = deployer.round_history().size();
  result.committed = deployer.redeployments_completed();
  result.rolled_back = deployer.rounds_rolled_back();
  for (const prism::RoundRecord& record : deployer.round_history())
    if (record.outcome == prism::TxnOutcome::kCommitted)
      result.migrations += record.moves_requested;
  util::json::Object deploy;
  deploy["rounds"] = util::json::Value(static_cast<double>(result.rounds));
  deploy["committed"] =
      util::json::Value(static_cast<double>(result.committed));
  deploy["rolled_back"] =
      util::json::Value(static_cast<double>(result.rolled_back));
  deploy["migrations"] =
      util::json::Value(static_cast<double>(result.migrations));

  util::json::Object sim;
  sim["events"] = util::json::Value(
      static_cast<double>(inst.simulator().events_processed()));
  sim["ticks"] = util::json::Value(static_cast<double>(engine.ticks()));
  sim["duration_ms"] = util::json::Value(options.duration_ms);

  util::json::Object doc;
  doc["schema"] = util::json::Value(std::string("dif-traffic-v1"));
  doc["config"] = util::json::Value(std::move(config));
  doc["totals"] = util::json::Value(std::move(totals));
  doc["tenants"] = util::json::Value(std::move(tenants_doc));
  doc["failures"] = util::json::Value(std::move(failures));
  doc["ratekeeper"] = util::json::Value(std::move(rk));
  doc["deployer"] = util::json::Value(std::move(deploy));
  // Only recovery-enabled runs carry the extra key, so recovery-off
  // reports stay byte-identical to what the pinned CI seeds expect.
  if (healer) {
    result.condemnations = healer->condemnations();
    result.recoveries_committed = healer->recoveries_committed();
    result.mean_mttr_ms = healer->mean_mttr_ms();
    result.slo_repair_attrib_ms = slo_repair_attrib_ms;
    util::json::Value recovery = healer->to_json();
    recovery.as_object()["slo_repair_attrib_ms"] =
        util::json::Value(slo_repair_attrib_ms);
    doc["recovery"] = std::move(recovery);
  }
  doc["sim"] = util::json::Value(std::move(sim));

  result.max_outstanding = engine.max_outstanding();
  result.report = util::json::Value(std::move(doc));
  result.metrics = metrics.to_json();
  return result;
}

}  // namespace dif::traffic
