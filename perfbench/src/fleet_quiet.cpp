// fleet-quiet: one generated 32x128 system under the fault-free `quiet`
// scenario, run for 120 s + 30 s settle under both instantiations, the way
// chaos::CampaignRunner runs a campaign seed. The data plane (simulator,
// network, Prism routing and serialization, monitors) does nearly all the
// work; the centralized improvement loop ticks every 5 s and the
// decentralized fleet refreshes, gossips and auctions on the campaign's
// cadence.
#include <cstdio>
#include <functional>
#include <memory>

#include "chaos/campaign.h"
#include "chaos/fault_schedule.h"
#include "check/preflight.h"
#include "core/decentralized_instantiation.h"
#include "core/improvement_loop.h"
#include "desi/generator.h"
#include "model/objective.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dif;

constexpr double kDurationMs = 120'000.0;
constexpr double kSettleMs = 30'000.0;
constexpr double kWarmupMs = 5'000.0;
constexpr double kStepMs = 1'000.0;
constexpr double kImproveIntervalMs = 5'000.0;
/// Steps between two samples of the machine's speed.
constexpr std::size_t kGaugeEvery = 10;
/// Timed one-second steps per leg: everything after the warm-up.
constexpr std::size_t kStepsPerLeg =
    static_cast<std::size_t>((kDurationMs + kSettleMs - kWarmupMs) / kStepMs);

/// The system under test is the same on every run: the generator seed is
/// fixed and --seed drives only the run's stochastic inputs (workload event
/// timing, monitor sampling, analyzer and auction seeds). Runs on different
/// seeds then measure one fleet, not a lottery of fleets whose sizes of work
/// differ by tens of percent. Seed 1 is the ROADMAP's measured 32x128 point.
constexpr std::uint64_t kSystemSeed = 1;

desi::GeneratorSpec fleet_spec() {
  desi::GeneratorSpec spec = chaos::CampaignConfig().generator;
  spec.hosts = 32;
  spec.components = 128;
  return spec;
}

chaos::ScenarioSpec quiet_scenario() {
  chaos::ScenarioSpec spec = chaos::scenario_by_name("quiet");
  spec.duration_ms = kDurationMs;
  return spec;
}

/// What one leg (one instantiation) leaves behind. Every field except the
/// timings is a pure function of the seed.
struct Leg {
  double setup_s = 0.0;
  double heap_mb = 0.0;
  std::vector<double> step_ms;
  double availability_initial = 0.0;
  double availability_final = 0.0;
  std::uint64_t app_sent = 0;
  std::uint64_t app_received = 0;
  sim::MessageStats net;
  std::uint64_t events = 0;
  std::uint64_t batches = 0;
  std::uint64_t sim_allocs = 0;  // heap allocations inside run_until
  std::size_t checks = 0;
  std::vector<std::string> violations;
  // centralized only
  std::map<std::string, std::uint64_t> txn;
  std::uint64_t redeployments = 0;
  // decentralized only
  std::uint64_t auction_migrations = 0;
};

/// Census from the architectures: every application component hosted
/// exactly once. One check per component.
void census(core::CentralizedInstantiation& inst,
            const model::DeploymentModel& m, Leg& leg) {
  std::map<std::string, std::size_t> hosted;
  for (std::size_t h = 0; h < m.host_count(); ++h)
    for (const std::string& name :
         inst.architecture(static_cast<model::HostId>(h)).component_names())
      if (name.rfind("__", 0) != 0) ++hosted[name];
  for (std::size_t c = 0; c < m.component_count(); ++c) {
    const std::string& name =
        m.component(static_cast<model::ComponentId>(c)).name;
    const std::size_t n = hosted.count(name) ? hosted[name] : 0;
    ++leg.checks;
    if (n != 1)
      leg.violations.push_back("census: " + name + " hosted " +
                               std::to_string(n) + " times");
  }
}

double score(Tracer& tracer, const desi::SystemData& pristine,
             const model::Deployment& d) {
  Scope span(tracer, "model.evaluate");
  return model::AvailabilityObjective().evaluate(pristine.model(), d);
}

void time_preflight(Tracer& tracer, const desi::SystemData& system) {
  if (!tracer.enabled()) return;
  Scope span(tracer, "check.preflight");
  (void)check::preflight_report(system.model(), system.constraints());
}

void collect_sim(core::CentralizedInstantiation& inst, Leg& leg) {
  leg.net = inst.network().stats();
  leg.events = inst.simulator().events_processed();
  leg.batches = inst.simulator().batches_dispatched();
  const auto w = inst.workload_stats();
  leg.app_sent = w.sent;
  leg.app_received = w.received;
}

/// Runs one timed step: control-plane work `before` (may be empty), then
/// one simulated second.
template <typename Fn>
void step(Tracer& tracer, SpeedGauge& gauge, sim::Simulator& sim, Leg& leg,
          Fn&& before) {
  gauge.tick();
  const auto t0 = Clock::now();
  before();
  const std::uint64_t allocs0 = allocations();
  {
    Scope span(tracer, "sim.run_until");
    sim.run_until(sim.now() + kStepMs);
  }
  leg.sim_allocs += allocations() - allocs0;
  leg.step_ms.push_back(seconds_since(t0) * 1e3 * gauge.local_scale());
}

Leg centralized_leg(std::uint64_t seed, Tracer& tracer, SpeedGauge& gauge,
                    obs::Instruments obs, bool setup_only) {
  Leg leg;
  const HeapPeak heap;
  gauge.sample();
  const auto t0 = Clock::now();
  std::unique_ptr<desi::SystemData> system, pristine;
  {
    Scope span(tracer, "desi.generate");
    system = desi::Generator::generate(fleet_spec(), kSystemSeed);
  }
  {
    Scope span(tracer, "desi.generate");
    pristine = desi::Generator::generate(fleet_spec(), kSystemSeed);
  }
  const chaos::CampaignConfig campaign;
  core::FrameworkConfig fc;
  fc.master_host = 0;
  fc.seed = seed;
  fc.deployer.redeploy_timeout_ms = campaign.redeploy_timeout_ms;
  fc.deployer.rollback_timeout_ms = campaign.rollback_timeout_ms;
  std::unique_ptr<core::CentralizedInstantiation> inst;
  {
    Scope span(tracer, "core.build");
    inst = std::make_unique<core::CentralizedInstantiation>(*system, fc);
    inst->set_instruments(obs);
  }
  const model::AvailabilityObjective objective;
  core::ImprovementLoop::Config lc;
  lc.interval_ms = kImproveIntervalMs;
  lc.seed = seed;
  lc.enable_escalation = true;
  core::ImprovementLoop loop(*inst, objective, lc);
  loop.set_instruments(obs);

  chaos::FaultInjector injector(*inst, obs);
  {
    Scope span(tracer, "chaos.arm");
    injector.arm(chaos::FaultSchedule::compile(quiet_scenario(),
                                               system->model(), 0, seed));
  }
  std::vector<std::uint64_t> epochs;
  std::function<void()> probe = [&] {
    epochs.push_back(inst->deployer().current_epoch());
    if (inst->simulator().now() < kDurationMs)
      inst->simulator().schedule_after(campaign.epoch_probe_ms, probe);
  };
  inst->simulator().schedule_at(0.0, probe);

  // The loop's own start() schedules exactly this chain; driving it from
  // here lets the traced pass put a span around every tick.
  bool ticking = true;
  std::function<void()> tick = [&] {
    if (!ticking) return;
    {
      Scope span(tracer, "analyzer.tick");
      (void)loop.tick();
    }
    inst->simulator().schedule_after(kImproveIntervalMs, tick);
  };
  inst->simulator().schedule_after(kImproveIntervalMs, tick);
  {
    Scope span(tracer, "core.start");
    inst->start();
  }
  {
    Scope span(tracer, "sim.run_until");
    inst->simulator().run_until(kWarmupMs);
  }
  leg.setup_s = seconds_since(t0) * gauge.local_scale();
  if (setup_only) return leg;

  sim::Simulator& sim = inst->simulator();
  while (sim.now() < kDurationMs + kSettleMs) {
    step(tracer, gauge, sim, leg, [] {});
    if (sim.now() == kDurationMs) ticking = false;  // campaign: loop.stop()
  }

  collect_sim(*inst, leg);
  leg.redeployments = loop.redeployments_applied();
  for (const char* outcome : {"committed", "aborted", "rolled_back",
                              "partial", "rollback_failed", "crashed"})
    leg.txn[outcome] = 0;
  for (const prism::RoundRecord& round : inst->deployer().round_history())
    ++leg.txn[prism::to_string(round.outcome)];

  {
    Scope span(tracer, "chaos.judge");
    chaos::RunReport report;
    chaos::judge_centralized_invariants(*inst, *system, *pristine, 0.0,
                                        report);
    for (std::size_t i = 1; i < epochs.size(); ++i)
      if (epochs[i] < epochs[i - 1]) {
        report.violations.push_back({"epoch", "epoch regressed"});
        break;
      }
    if (inst->deployer().current_epoch() <
        inst->deployer().redeployments_completed())
      report.violations.push_back({"epoch", "final epoch below rounds"});
    // conservation, epoch, atomicity, availability, preflight, audit
    leg.checks += 6;
    for (const auto& v : report.violations)
      leg.violations.push_back(v.invariant + ": " + v.detail);
    leg.checks += system->model().component_count();  // census
  }
  time_preflight(tracer, *system);
  leg.availability_initial =
      score(tracer, *pristine, pristine->deployment());
  // A lost component counts as unavailable (census reports the loss).
  leg.availability_final =
      score(tracer, *pristine, inst->runtime_deployment());
  leg.heap_mb = heap.mb();
  return leg;
}

Leg decentralized_leg(std::uint64_t seed, Tracer& tracer, SpeedGauge& gauge,
                      obs::Instruments obs, bool setup_only) {
  Leg leg;
  const HeapPeak heap;
  gauge.sample();
  const auto t0 = Clock::now();
  std::unique_ptr<desi::SystemData> system, pristine;
  {
    Scope span(tracer, "desi.generate");
    system = desi::Generator::generate(fleet_spec(), kSystemSeed);
  }
  {
    Scope span(tracer, "desi.generate");
    pristine = desi::Generator::generate(fleet_spec(), kSystemSeed);
  }
  core::DecentralizedInstantiation::Config dc;
  dc.base.seed = seed;
  dc.base.reliability.interval_ms = 500.0;
  std::unique_ptr<core::DecentralizedInstantiation> fleet;
  {
    Scope span(tracer, "core.build");
    fleet = std::make_unique<core::DecentralizedInstantiation>(*system, dc);
    fleet->substrate().set_instruments(obs);
  }
  chaos::FaultInjector injector(fleet->substrate(), obs);
  {
    Scope span(tracer, "chaos.arm");
    injector.arm(chaos::FaultSchedule::compile(
        quiet_scenario(), system->model(),
        fleet->substrate().config().master_host, seed));
  }
  {
    Scope span(tracer, "core.start");
    fleet->start();
  }
  {
    Scope span(tracer, "sim.run_until");
    fleet->simulator().run_until(kWarmupMs);
  }
  leg.setup_s = seconds_since(t0) * gauge.local_scale();
  if (setup_only) return leg;

  // The campaign's cadence: refresh + gossip, 2 s later an auction sweep,
  // 8 s later the next round, while the scenario runs; then settle.
  sim::Simulator& sim = fleet->simulator();
  std::uint64_t round = 0;
  double next_round = kWarmupMs;
  double next_auction = -1.0;
  while (sim.now() < kDurationMs + kSettleMs) {
    step(tracer, gauge, sim, leg, [&] {
      const double now = sim.now();
      if (now == next_round && now < kDurationMs) {
        {
          Scope span(tracer, "analyzer.refresh");
          fleet->refresh_local_models();
        }
        {
          Scope span(tracer, "analyzer.gossip");
          (void)fleet->gossip_sync();
        }
        next_auction = now + 2'000.0;
        next_round = now + 10'000.0;
      }
      if (now == next_auction) {
        Scope span(tracer, "algo.auction");
        (void)fleet->auction_sweep(seed * 1'000 + ++round);
      }
    });
  }

  collect_sim(fleet->substrate(), leg);
  leg.auction_migrations = fleet->stats().migrations;
  {
    Scope span(tracer, "chaos.judge");
    const sim::MessageStats& s = fleet->substrate().network().stats();
    ++leg.checks;
    if (s.delivered + s.dropped + s.unroutable > s.sent)
      leg.violations.push_back("conservation");
    census(fleet->substrate(), system->model(), leg);
    ++leg.checks;
    if (!check::preflight_report(system->model(), system->constraints())
             .ok())
      leg.violations.push_back("preflight");
  }
  time_preflight(tracer, *system);
  leg.availability_initial =
      score(tracer, *pristine, pristine->deployment());
  leg.availability_final =
      score(tracer, *pristine, fleet->runtime_deployment());
  ++leg.checks;  // availability no worse than initial
  if (leg.availability_final < leg.availability_initial)
    leg.violations.push_back("availability");
  leg.heap_mb = heap.mb();
  return leg;
}

/// The simulated outcome of a pass, rendered exactly; two passes of one
/// seed must produce identical bytes.
std::string digest(const Leg& c, const Leg& d) {
  std::string out;
  char buf[96];
  for (const Leg* leg : {&c, &d}) {
    std::snprintf(buf, sizeof buf, "%.17g %.17g ", leg->availability_initial,
                  leg->availability_final);
    out += buf;
    for (const std::uint64_t v :
         {leg->app_sent, leg->app_received, leg->net.sent, leg->net.delivered,
          leg->net.dropped, leg->net.unroutable, leg->events, leg->batches,
          leg->redeployments, leg->auction_migrations})
      out += std::to_string(v) + ' ';
    for (const auto& [k, v] : leg->txn)
      out += k + '=' + std::to_string(v) + ' ';
    for (const std::string& v : leg->violations) out += v + ';';
    out += '|';
  }
  return out;
}

double held_share(const Leg& c, const Leg& d) {
  const double checks = static_cast<double>(c.checks + d.checks);
  const double violations =
      static_cast<double>(c.violations.size() + d.violations.size());
  return std::max(0.0, 1.0 - violations / checks);
}

struct Pass {
  Leg centralized;
  Leg decentralized;
  PassTiming timing;
  std::string digest;
};

Pass run_pass(std::uint64_t seed, Tracer& tracer, SpeedGauge& gauge,
              obs::Instruments obs) {
  Pass pass;
  const auto t0 = Clock::now();
  const double gauge0 = gauge.spent_s();
  pass.centralized = centralized_leg(seed, tracer, gauge, obs, false);
  pass.decentralized = decentralized_leg(seed, tracer, gauge, obs, false);
  // Speed samples taken during the pass are not part of its wall time.
  pass.timing.wall_s = seconds_since(t0) - (gauge.spent_s() - gauge0);
  pass.timing.setup_s.push_back(pass.centralized.setup_s +
                                pass.decentralized.setup_s);
  for (const Leg* leg : {&pass.centralized, &pass.decentralized}) {
    pass.timing.add_unit_steps(leg->step_ms);
    pass.timing.heap_mb.push_back(leg->heap_mb);
  }
  pass.digest = digest(pass.centralized, pass.decentralized);
  return pass;
}

void check_outputs(Outcome& out, const Pass& pass) {
  for (const Leg* leg : {&pass.centralized, &pass.decentralized}) {
    out.check(leg->net.delivered + leg->net.dropped + leg->net.unroutable <=
                  leg->net.sent,
              "network: delivered + dropped + unroutable exceeds sent");
    out.check(leg->step_ms.size() == kStepsPerLeg,
              "fleet-quiet: unexpected step count");
  }
}

}  // namespace

Outcome run_fleet_quiet(const Options& options) {
  Outcome out;
  const std::uint64_t seed = options.seed;
  Tracer off(false);

  if (!options.trace) {
    SpeedGauge gauge(kGaugeEvery);
    std::vector<PassTiming> timings;
    std::vector<Pass> passes;
    const auto t0 = Clock::now();
    do {
      passes.push_back(run_pass(seed, off, gauge, {}));
      timings.push_back(passes.back().timing);
    } while (seconds_since(t0) + passes.back().timing.wall_s <=
             options.seconds);
    // Set-up is short next to a pass; repeat it so its median has samples.
    for (int rep = 0; rep < 4; ++rep)
      timings.front().setup_s.push_back(
          centralized_leg(seed, off, gauge, {}, true).setup_s +
          decentralized_leg(seed, off, gauge, {}, true).setup_s);

    const Pass& first = passes.front();
    for (const Pass& p : passes) {
      check_outputs(out, p);
      out.check(p.digest == first.digest,
                "fleet-quiet: simulated outcome differs between passes");
    }
    out.attempted = passes.size() * 2 * kStepsPerLeg;
    std::map<std::string, double> values;
    timing_metrics(values, out.notes, timings, kStepsPerLeg, gauge);
    const Leg& c = first.centralized;
    const Leg& d = first.decentralized;
    values["availability_final"] =
        0.5 * (c.availability_final + d.availability_final);
    values["goodput_share"] =
        static_cast<double>(c.app_received + d.app_received) /
        static_cast<double>(c.app_sent + d.app_sent);
    values["invariants_held_share"] = held_share(c, d);
    emit_metrics(out, end_to_end_metrics(), values);
    out.notes.push_back(
        "availability initial/final: centralized " +
        std::to_string(c.availability_initial) + " -> " +
        std::to_string(c.availability_final) + ", decentralized " +
        std::to_string(d.availability_initial) + " -> " +
        std::to_string(d.availability_final));
    for (const Leg* leg : {&c, &d})
      for (const std::string& v : leg->violations)
        out.notes.push_back("invariant violation: " + v);
    return out;
  }

  // Traced mode: an untraced pass, then the same pass with the obs
  // instruments and the benchmark's spans attached.
  SpeedGauge plain_gauge(kGaugeEvery), gauge(kGaugeEvery);
  const Pass plain = run_pass(seed, off, plain_gauge, {});
  Tracer tracer(true);
  obs::Registry registry;
  obs::TraceLog trace_log;
  obs::Instruments obs{&registry, &trace_log};
  const Pass traced = run_pass(seed, tracer, gauge, obs);
  check_outputs(out, traced);
  out.check(plain.digest == traced.digest,
            "fleet-quiet: attaching instruments changed the simulated outcome");
  out.attempted = 2 * 2 * kStepsPerLeg;

  LayerReport layers(tracer, {&registry}, plain.timing, traced.timing, gauge);
  const Leg& c = traced.centralized;
  const Leg& d = traced.decentralized;
  sim::MessageStats net = c.net;
  net.sent += d.net.sent;
  net.delivered += d.net.delivered;
  net.dropped += d.net.dropped;
  net.unroutable += d.net.unroutable;
  layers.data_plane(static_cast<double>(c.events + d.events),
                    static_cast<double>(c.batches + d.batches),
                    // Allocations of the untraced pass: the trace log's own
                    // allocations are not the simulator's.
                    static_cast<double>(plain.centralized.sim_allocs +
                                        plain.decentralized.sim_allocs),
                    2.0 * (kDurationMs + kSettleMs) / 1e3, net,
                    static_cast<double>(c.app_sent + d.app_sent),
                    static_cast<double>(c.app_received + d.app_received),
                    median(plain.timing.step_ms));
  const double rounds = static_cast<double>(
      c.txn.at("committed") + c.txn.at("aborted") + c.txn.at("rolled_back") +
      c.txn.at("partial") + c.txn.at("rollback_failed") + c.txn.at("crashed"));
  layers.set("prism.txn_rounds", rounds);
  layers.set("prism.txn_commit_share",
             rounds > 0.0 ? static_cast<double>(c.txn.at("committed")) / rounds
                          : 0.0);
  layers.set("algo.decap_migrations",
             static_cast<double>(d.auction_migrations));
  layers.set("invariant_violations",
             static_cast<double>(c.violations.size() + d.violations.size()));
  // Failure accounting: transactional rounds not cleanly committed.
  FailureShare rounds_failed;
  rounds_failed.add(static_cast<std::uint64_t>(rounds),
                    static_cast<std::uint64_t>(rounds) - c.txn.at("committed"));
  layers.set("ops.attempted", static_cast<double>(rounds_failed.attempted));
  layers.set("ops.failed_share", rounds_failed.share());
  layers.emit(out, static_cast<double>(traced.timing.step_ms.size()),
              tail_percentile(kStepsPerLeg));
  return out;
}

}  // namespace perfbench
