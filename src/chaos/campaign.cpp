#include "chaos/campaign.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "check/audit.h"
#include "check/preflight.h"
#include "check/resilience.h"
#include "core/decentralized_instantiation.h"
#include "core/improvement_loop.h"
#include "heal/recovery.h"
#include "model/objective.h"

namespace dif::chaos {

namespace {

void check_conservation(const sim::SimNetwork& net, RunReport& report) {
  const sim::MessageStats& stats = net.stats();
  const std::uint64_t accounted =
      stats.delivered + stats.dropped + stats.unroutable;
  if (accounted > stats.sent)
    report.violations.push_back(
        {"conservation", "delivered+dropped+unroutable (" +
                             std::to_string(accounted) + ") exceeds sent (" +
                             std::to_string(stats.sent) + ")"});
  std::uint64_t per_link = 0;
  for (const sim::LinkDrops& link : net.dropped_links())
    per_link += link.dropped;
  if (per_link > stats.dropped)
    report.violations.push_back(
        {"conservation", "per-link drop shares (" + std::to_string(per_link) +
                             ") exceed total dropped (" +
                             std::to_string(stats.dropped) + ")"});
}

/// Where the application's bricks are attached: the hosts of every model
/// component (by id, in host order), and how often each brick the model
/// does not know is hosted (by name, so reports list them in name order).
struct Placement {
  std::vector<std::vector<model::HostId>> hosts;
  std::map<std::string, std::size_t> unknown;
};

Placement placement_of(core::CentralizedInstantiation& inst,
                       const model::DeploymentModel& m) {
  Placement placement;
  placement.hosts.resize(m.component_count());
  for (model::HostId h = 0; h < m.host_count(); ++h)
    for (const auto& brick : inst.architecture(h).components()) {
      if (prism::is_meta_name(brick->name())) continue;
      if (const model::ComponentId c = inst.component_of(brick->name_id());
          c != model::kNoComponent)
        placement.hosts[c].push_back(h);
      else
        ++placement.unknown[brick->name()];
    }
  return placement;
}

void check_census(const Placement& placement, const model::DeploymentModel& m,
                  RunReport& report) {
  for (std::size_t c = 0; c < m.component_count(); ++c) {
    const std::vector<model::HostId>& hosts = placement.hosts[c];
    if (hosts.size() == 1) continue;
    std::string where;
    for (const model::HostId h : hosts)
      where += (where.empty() ? " on hosts " : ",") + std::to_string(h);
    report.violations.push_back(
        {"census", "component '" +
                       m.component(static_cast<model::ComponentId>(c)).name +
                       "' hosted " + std::to_string(hosts.size()) +
                       " times (expected 1)" + where});
  }
  for (const auto& [name, count] : placement.unknown)
    report.violations.push_back(
        {"census", "unknown component '" + name + "' hosted " +
                       std::to_string(count) + " times"});
}

void check_atomicity(core::CentralizedInstantiation& inst,
                     const Placement& placement, RunReport& report) {
  // The transactional effector's contract: after every closed round the
  // placement of the components it touched equals what the round *declared*
  // — the proposed deployment (committed), the checkpoint (aborted / rolled
  // back), or a declared partial commit — never an undeclared mix. Only the
  // latest round is binding: earlier declarations are superseded.
  const prism::DeployerComponent& deployer = inst.deployer();
  if (deployer.redeployment_in_flight()) {
    report.violations.push_back(
        {"atomicity",
         "a redeployment round is still open after the settle window"});
    return;
  }
  const std::vector<prism::RoundRecord>& history = deployer.round_history();
  if (history.empty()) return;
  const prism::RoundRecord& last = history.back();
  // A crashed master takes its round state down with it; the census
  // invariant still guards exactly-once placement in that case.
  if (last.outcome == prism::TxnOutcome::kCrashed) return;
  for (const auto& [component, declared] : last.declared) {
    const model::ComponentId c = inst.component_of(prism::find_name(component));
    // Lost, duplicated and unknown components are the census invariant's
    // finding; atomicity judges the placement of exactly-once-hosted ones.
    if (c == model::kNoComponent || placement.hosts[c].size() != 1) continue;
    const model::HostId actual = placement.hosts[c].front();
    if (actual == declared) continue;
    // An *unresolved* component is one the round explicitly declared
    // unknown: its migration (or its undo) may have run with every
    // confirmation lost, and — after successive failed rounds planned from
    // stale beliefs — it can legitimately sit anywhere along that failed
    // history. The deployer admits as much in the record, so only the
    // census invariant (exactly-once) binds it; atomicity binds every
    // component the round claims to have *resolved*.
    if (std::find(last.unresolved.begin(), last.unresolved.end(),
                  component) != last.unresolved.end())
      continue;
    report.violations.push_back(
        {"atomicity",
         "component '" + component + "' is on host " +
             std::to_string(actual) + " but round " +
             std::to_string(last.epoch) + " (" +
             prism::to_string(last.outcome) + ") declared host " +
             std::to_string(declared)});
  }
}

void check_availability(const desi::SystemData& pristine,
                        const model::Deployment& final_deployment,
                        double tolerance, RunReport& report) {
  const model::AvailabilityObjective availability;
  report.initial_availability =
      availability.evaluate(pristine.model(), pristine.deployment());
  if (!final_deployment.complete()) return;  // census already flags the loss
  report.final_availability =
      availability.evaluate(pristine.model(), final_deployment);
  if (report.final_availability < report.initial_availability - tolerance)
    report.violations.push_back(
        {"availability",
         "converged availability " +
             std::to_string(report.final_availability) + " below initial " +
             std::to_string(report.initial_availability) + " (tolerance " +
             std::to_string(tolerance) + ")"});
}

void check_preflight(const desi::SystemData& system, RunReport& report) {
  const check::CheckReport result =
      check::preflight_report(system.model(), system.constraints());
  if (result.error_count() > 0)
    report.violations.push_back(
        {"preflight", std::to_string(result.error_count()) +
                          " static-checker errors on the final model"});
}

/// Seventh oracle: the placement a *clean* final round left behind must
/// pass the placement auditor against the pristine model + constraints.
/// Rounds that aborted, rolled back, or crashed legitimately leave the
/// pre-round placement (audited when *it* committed), so only a
/// committed-or-empty history is judged; an incomplete placement is the
/// census invariant's finding, not this one's.
void check_audit(core::CentralizedInstantiation& inst,
                 const desi::SystemData& pristine, RunReport& report) {
  const auto& history = inst.deployer().round_history();
  if (!history.empty() &&
      history.back().outcome != prism::TxnOutcome::kCommitted)
    return;
  const model::Deployment placement = inst.runtime_deployment();
  if (!placement.complete()) return;
  check::AuditOptions options;
  options.check_bandwidth = false;  // advisory; the sim mediates traffic
  const check::CheckReport audit = check::PlacementAuditor(options).audit(
      pristine.model(), pristine.constraints(), placement);
  if (audit.error_count() == 0) return;
  std::string first;
  for (const check::Diagnostic& d : audit.diagnostics())
    if (d.severity == check::Severity::kError) {
      first = d.message;
      break;
    }
  report.violations.push_back(
      {"audit", std::to_string(audit.error_count()) +
                    " placement-audit error(s) after a clean round: " +
                    first});
}

void collect_net(const sim::SimNetwork& net, RunReport& report) {
  const sim::MessageStats& stats = net.stats();
  report.net_sent = stats.sent;
  report.net_delivered = stats.delivered;
  report.net_dropped = stats.dropped;
  report.net_unroutable = stats.unroutable;
  report.dropped_links = net.dropped_links();
}

/// Resilience warnings (k = 1 host sweep) of `deployment` on the pristine
/// model — the convergence invariant's "no less k-resilient" leg compares
/// the converged placement's count against the initial placement's.
std::size_t resilience_warnings(const desi::SystemData& pristine,
                                const model::Deployment& deployment) {
  const check::CheckReport proof =
      check::ResilienceProver().prove(pristine.model(), deployment);
  return proof.diagnostics().size();
}

}  // namespace

CampaignConfig recovery_campaign_config() {
  CampaignConfig config;
  config.scenario = scenario_by_name("killhost");
  config.centralized = true;
  config.decentralized = false;
  config.recovery = true;
  // Capacity pressure: ~140 KB of components against 50-70 KB hosts, so no
  // host fits more than about half a dozen components and the optimizer
  // must keep the placement spread — the killed host is never empty.
  config.generator.host_memory = {50.0, 70.0};
  config.generator.component_memory = {8.0, 12.0};
  // The repaired placement excludes a host until it rejoins, so its score
  // can legitimately settle below the pre-fault optimum within the
  // analyzer's min_improvement band.
  config.availability_tolerance = 0.05;
  return config;
}

void judge_centralized_invariants(core::CentralizedInstantiation& inst,
                                  const desi::SystemData& system,
                                  const desi::SystemData& pristine,
                                  double availability_tolerance,
                                  RunReport& report) {
  check_conservation(inst.network(), report);
  const Placement placement = placement_of(inst, system.model());
  check_census(placement, system.model(), report);
  check_atomicity(inst, placement, report);
  check_availability(pristine, inst.runtime_deployment(),
                     availability_tolerance, report);
  check_preflight(system, report);
  check_audit(inst, pristine, report);
}

RunReport CampaignRunner::run_centralized_once(std::uint64_t seed,
                                               const PrepareHook& prepare) {
  RunReport report;
  report.seed = seed;
  report.mode = "centralized";
  report.scenario = config_.scenario.name;

  const auto system = desi::Generator::generate(config_.generator, seed);
  // Untouched twin of the generated system: the availability invariant is
  // judged against ground-truth link parameters, not the monitor-mutated
  // runtime model.
  const auto pristine = desi::Generator::generate(config_.generator, seed);

  core::FrameworkConfig fc;
  fc.master_host = 0;
  fc.seed = seed;
  fc.deployer.redeploy_timeout_ms = config_.redeploy_timeout_ms;
  fc.deployer.rollback_timeout_ms = config_.rollback_timeout_ms;
  fc.deployer.allow_partial = config_.allow_partial;
  core::CentralizedInstantiation inst(*system, fc);
  inst.set_instruments(obs_);

  const model::AvailabilityObjective objective;
  core::ImprovementLoop::Config lc;
  lc.interval_ms = config_.improve_interval_ms;
  lc.seed = seed;
  // A fault-window redeployment can time out half-applied and leave the
  // system in a state hill-climbing cannot escape; the escalation ladder
  // climbs to stronger algorithms after repeated improvement-free ticks,
  // which is what recovers the availability invariant post-heal.
  lc.enable_escalation = true;
  core::ImprovementLoop loop(inst, objective, lc);
  loop.set_instruments(obs_);

  const FaultSchedule schedule = FaultSchedule::compile(
      config_.scenario, system->model(), fc.master_host, seed);
  report.actions_scheduled = schedule.actions().size();
  FaultInjector injector(inst, obs_);
  injector.arm(schedule);

  // Epoch-monotonicity probe: sample the deployer's epoch on a fixed
  // cadence so a crash/restart that rewound the counter is caught even if
  // the final value looks plausible.
  std::vector<std::uint64_t> epoch_samples;
  std::function<void()> probe = [&] {
    epoch_samples.push_back(inst.deployer().current_epoch());
    if (inst.simulator().now() < config_.scenario.duration_ms)
      inst.simulator().schedule_after(config_.epoch_probe_ms, probe);
  };
  inst.simulator().schedule_at(0.0, probe);

  // Self-healing: the controller taps the deployer's heartbeat stream,
  // vetoes placements onto suspect hosts, and turns condemnations into
  // recovery rounds. Recovery-off runs never construct it, so their event
  // sequence (and report bytes) are untouched by the heal layer.
  std::unique_ptr<heal::HealController> healer;
  if (config_.recovery) {
    heal::HealConfig hc = config_.heal;
    hc.seed = seed + 1;  // planner polish seed; +1 keeps 0 a real seed
    healer = std::make_unique<heal::HealController>(inst, *pristine, hc);
  }

  // Convergence probe (eighth invariant, recovery runs only): from the
  // moment the last fault has healed, sample until the runtime placement is
  // complete, audits clean, and is no less 1-resilient than the initial
  // placement; the first such sample time is the convergence point.
  std::function<void()> convergence_probe;
  if (config_.recovery) {
    convergence_probe = [&, initial_resilience = resilience_warnings(
                                *pristine, pristine->deployment())] {
      if (report.converged_at_ms >= 0.0) return;
      const double horizon =
          config_.scenario.duration_ms + config_.settle_ms;
      if (!inst.deployer().redeployment_in_flight()) {
        const model::Deployment placement = inst.runtime_deployment();
        if (placement.complete()) {
          check::AuditOptions options;
          options.check_bandwidth = false;
          const check::CheckReport audit =
              check::PlacementAuditor(options).audit(
                  pristine->model(), pristine->constraints(), placement);
          if (audit.error_count() == 0 &&
              resilience_warnings(*pristine, placement) <=
                  initial_resilience) {
            report.converged_at_ms = inst.simulator().now();
            return;
          }
        }
      }
      if (inst.simulator().now() < horizon)
        inst.simulator().schedule_after(config_.epoch_probe_ms,
                                        convergence_probe);
    };
    inst.simulator().schedule_at(config_.scenario.fault_until_ms,
                                 convergence_probe);
  }

  if (prepare) prepare(inst);

  loop.start();
  if (healer) healer->start();
  inst.start();
  inst.simulator().run_until(config_.scenario.duration_ms);
  loop.stop();
  // The healer keeps ticking through the settle window: a condemnation at
  // the very end of the scenario still gets its repair round.
  inst.simulator().run_until(config_.scenario.duration_ms +
                             config_.settle_ms);
  if (healer) {
    healer->stop();
    report.recovery_enabled = true;
    report.condemnations = healer->condemnations();
    report.rejoins = healer->rejoins();
    report.recoveries_committed = healer->recoveries_committed();
    report.mean_mttr_ms = healer->mean_mttr_ms();
    util::json::Value recovery = healer->to_json();
    recovery.as_object()["converged_at_ms"] = report.converged_at_ms;
    report.recovery = std::move(recovery);
  }

  report.faults = injector.injected();
  report.redeployments = loop.redeployments_applied();
  report.final_epoch = inst.deployer().current_epoch();
  report.stale_acks = inst.deployer().stale_acks_ignored();
  for (const char* outcome : {"committed", "aborted", "rolled_back",
                              "partial", "rollback_failed", "crashed"})
    report.txn_outcomes[outcome] = 0;
  for (const prism::RoundRecord& round : inst.deployer().round_history())
    ++report.txn_outcomes[prism::to_string(round.outcome)];
  collect_net(inst.network(), report);

  for (std::size_t i = 1; i < epoch_samples.size(); ++i)
    if (epoch_samples[i] < epoch_samples[i - 1]) {
      report.violations.push_back(
          {"epoch", "epoch regressed from " +
                        std::to_string(epoch_samples[i - 1]) + " to " +
                        std::to_string(epoch_samples[i])});
      break;
    }
  if (report.final_epoch < inst.deployer().redeployments_completed())
    report.violations.push_back(
        {"epoch",
         "final epoch " + std::to_string(report.final_epoch) +
             " below completed rounds " +
             std::to_string(inst.deployer().redeployments_completed())});

  judge_centralized_invariants(inst, *system, *pristine,
                               config_.availability_tolerance, report);

  // Eighth invariant — convergence (recovery runs only): the placement
  // must have re-audited clean within the window after the faults healed.
  if (config_.recovery) {
    const double deadline =
        config_.scenario.fault_until_ms + config_.convergence_window_ms;
    if (report.converged_at_ms < 0.0) {
      report.violations.push_back(
          {"convergence",
           "no audit-clean, resilience-preserving placement was reached "
           "after the last fault healed (deadline " +
               std::to_string(deadline) + " ms)"});
    } else if (report.converged_at_ms > deadline) {
      report.violations.push_back(
          {"convergence",
           "placement re-converged at " +
               std::to_string(report.converged_at_ms) +
               " ms, past the deadline of " + std::to_string(deadline) +
               " ms"});
    }
  }
  return report;
}

RunReport CampaignRunner::run_decentralized(std::uint64_t seed) {
  RunReport report;
  report.seed = seed;
  report.mode = "decentralized";
  report.scenario = config_.scenario.name;

  const auto system = desi::Generator::generate(config_.generator, seed);
  const auto pristine = desi::Generator::generate(config_.generator, seed);

  core::DecentralizedInstantiation::Config dc;
  dc.base.seed = seed;
  dc.base.reliability.interval_ms = 500.0;
  core::DecentralizedInstantiation fleet(*system, dc);
  fleet.substrate().set_instruments(obs_);

  const FaultSchedule schedule = FaultSchedule::compile(
      config_.scenario, system->model(),
      fleet.substrate().config().master_host, seed);
  report.actions_scheduled = schedule.actions().size();
  FaultInjector injector(fleet.substrate(), obs_);
  injector.arm(schedule);

  fleet.start();
  fleet.simulator().run_until(5'000.0);  // warm up the monitors
  std::uint64_t round = 0;
  while (fleet.simulator().now() < config_.scenario.duration_ms) {
    fleet.refresh_local_models();
    fleet.gossip_sync();
    fleet.simulator().run_until(fleet.simulator().now() + 2'000.0);
    fleet.auction_sweep(seed * 1'000 + ++round);
    fleet.simulator().run_until(fleet.simulator().now() + 8'000.0);
  }
  fleet.simulator().run_until(config_.scenario.duration_ms +
                              config_.settle_ms);

  report.faults = injector.injected();
  report.migrations = fleet.stats().migrations;
  collect_net(fleet.substrate().network(), report);

  check_conservation(fleet.substrate().network(), report);
  check_census(placement_of(fleet.substrate(), system->model()),
               system->model(), report);
  check_availability(*pristine, fleet.runtime_deployment(),
                     config_.availability_tolerance, report);
  check_preflight(*system, report);
  return report;
}

CampaignReport CampaignRunner::run() {
  CampaignReport report;
  report.config = config_;
  for (const std::uint64_t seed : config_.seeds) {
    if (config_.centralized) report.runs.push_back(run_centralized(seed));
    if (config_.decentralized) report.runs.push_back(run_decentralized(seed));
  }
  return report;
}

std::size_t CampaignReport::total_violations() const {
  std::size_t n = 0;
  for (const RunReport& run : runs) n += run.violations.size();
  return n;
}

util::json::Value RunReport::to_json() const {
  using util::json::Array;
  using util::json::Object;
  Object doc;
  doc["seed"] = seed;
  doc["mode"] = mode;
  doc["scenario"] = scenario;
  doc["actions_scheduled"] = actions_scheduled;

  Object fault_counts;
  for (const auto& [kind, n] : faults) fault_counts[kind] = n;
  doc["faults"] = std::move(fault_counts);

  Object net;
  net["sent"] = net_sent;
  net["delivered"] = net_delivered;
  net["dropped"] = net_dropped;
  net["unroutable"] = net_unroutable;
  Array lossy;
  for (const sim::LinkDrops& link : dropped_links) {
    Object entry;
    entry["a"] = static_cast<std::uint64_t>(link.a);
    entry["b"] = static_cast<std::uint64_t>(link.b);
    entry["dropped"] = link.dropped;
    lossy.emplace_back(std::move(entry));
  }
  net["dropped_links"] = std::move(lossy);
  doc["net"] = std::move(net);

  Object avail;
  avail["initial"] = initial_availability;
  avail["final"] = final_availability;
  doc["availability"] = std::move(avail);

  Object adaptation;
  if (mode == "centralized") {
    adaptation["redeployments"] = redeployments;
    adaptation["final_epoch"] = final_epoch;
    adaptation["stale_acks"] = stale_acks;
    Object txn;
    for (const auto& [outcome, n] : txn_outcomes) txn[outcome] = n;
    adaptation["txn"] = std::move(txn);
    // Only recovery-enabled runs carry the extra key: recovery-off reports
    // must stay byte-identical to the pre-heal schema.
    if (recovery) adaptation["recovery"] = *recovery;
  } else {
    adaptation["migrations"] = migrations;
  }
  doc["adaptation"] = std::move(adaptation);

  Array violation_list;
  for (const InvariantViolation& v : violations) {
    Object entry;
    entry["invariant"] = v.invariant;
    entry["detail"] = v.detail;
    violation_list.emplace_back(std::move(entry));
  }
  doc["violations"] = std::move(violation_list);
  return util::json::Value(std::move(doc));
}

util::json::Value CampaignReport::to_json() const {
  using util::json::Array;
  using util::json::Object;
  Object doc;
  doc["schema"] = "dif-campaign-v1";
  doc["scenario"] = config.scenario.name;

  Array seed_list;
  for (const std::uint64_t seed : config.seeds) seed_list.emplace_back(seed);
  doc["seeds"] = std::move(seed_list);

  Array modes;
  if (config.centralized) modes.push_back("centralized");
  if (config.decentralized) modes.push_back("decentralized");
  doc["modes"] = std::move(modes);

  Object generator;
  generator["hosts"] = static_cast<std::uint64_t>(config.generator.hosts);
  generator["components"] =
      static_cast<std::uint64_t>(config.generator.components);
  doc["generator"] = std::move(generator);

  Array run_list;
  for (const RunReport& run : runs) run_list.push_back(run.to_json());
  doc["runs"] = std::move(run_list);

  doc["total_runs"] = static_cast<std::uint64_t>(runs.size());
  doc["total_violations"] = static_cast<std::uint64_t>(total_violations());
  doc["ok"] = ok();
  return util::json::Value(std::move(doc));
}

}  // namespace dif::chaos
