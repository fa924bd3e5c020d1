// serve-faults: a 16x64 centralized stack built from public parts the way
// traffic::run_traffic builds it — open-loop flash traffic at 400 rps, the
// ratekeeper, the `mixed` fault scenario, self-healing recovery, and forced
// churn of 2 moves every 10 s — so requests read the placement while
// transactional migrations write it. The only workload that loads traffic,
// ratekeeper, chaos, heal and transactional rounds together.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "chaos/campaign.h"
#include "chaos/fault_schedule.h"
#include "check/preflight.h"
#include "core/improvement_loop.h"
#include "desi/generator.h"
#include "heal/recovery.h"
#include "model/objective.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prism/deployer.h"
#include "report.h"
#include "traffic/engine.h"
#include "traffic/ratekeeper.h"
#include "traffic/runner.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dif;

constexpr double kDurationMs = 120'000.0;
constexpr double kSettleMs = 30'000.0;
constexpr double kWarmupMs = 5'000.0;
constexpr double kStepMs = 1'000.0;
constexpr double kLoopIntervalMs = 5'000.0;
constexpr double kChurnEveryMs = 10'000.0;
constexpr std::size_t kChurnMoves = 2;
constexpr double kRps = 400.0;
/// Steps between two samples of the machine's speed.
constexpr std::size_t kGaugeEvery = 10;
/// Sessions per pass, each on its own generated system: one session's
/// outcome swings with its seed, the pass's mean much less.
constexpr std::size_t kSessions = 6;
constexpr std::size_t kStepsPerSession = static_cast<std::size_t>(
    (kDurationMs + kSettleMs - kWarmupMs) / kStepMs);

/// Each session runs on one of kSessions fixed generated systems (generator
/// seeds 1..kSessions); --seed drives the sessions' stochastic inputs
/// (arrivals, fault schedule, churn draws, instantiation, loop and healer
/// seeds), so every run measures the same fleets.
desi::GeneratorSpec serve_spec() {
  desi::GeneratorSpec spec = traffic::traffic_generator_spec();
  spec.hosts = 16;
  spec.components = 64;
  return spec;
}

/// The churn move draw of traffic/runner.cpp: up to `moves` capacity-fitting
/// component moves against the live placement, skipped while a round is in
/// flight.
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
    inst.deployer().effect_deployment(target, [](bool, std::size_t) {});
}

/// Everything one session leaves behind; all but the timings are pure
/// functions of the session seed.
struct Session {
  double setup_s = 0.0;
  double heap_mb = 0.0;
  std::vector<double> step_ms;
  std::uint64_t offered = 0, completed = 0, failed = 0, shed = 0;
  std::uint64_t within_slo = 0;
  std::uint64_t in_flight = 0;
  bool tallies_consistent = false;
  std::vector<double> completed_ms;
  double slo_violation_ms = 0.0;
  int ratekeeper_max_level = 0;
  std::uint64_t throttles = 0;
  std::uint64_t faults = 0;
  std::uint64_t condemnations = 0, recoveries_committed = 0;
  double mttr_ms = 0.0;
  std::uint64_t rounds = 0, committed = 0;
  double availability_final = 0.0;
  std::size_t checks = 0;
  std::vector<std::string> violations;
  sim::MessageStats net;
  std::uint64_t events = 0, batches = 0, sim_allocs = 0;
  std::uint64_t app_sent = 0, app_received = 0;
  std::unique_ptr<obs::Registry> registry;

  [[nodiscard]] std::string digest() const {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%.17g %.17g %.17g %d ", availability_final,
                  slo_violation_ms, mttr_ms, ratekeeper_max_level);
    std::string out = buf;
    for (const std::uint64_t v :
         {offered, completed, failed, shed, within_slo, in_flight, throttles,
          faults, condemnations, recoveries_committed, rounds, committed,
          net.sent, net.delivered, net.dropped, net.unroutable, events,
          batches, app_sent, app_received})
      out += std::to_string(v) + ' ';
    for (const double v : completed_ms) {
      std::snprintf(buf, sizeof buf, "%.17g,", v);
      out += buf;
    }
    for (const std::string& v : violations) out += v + ';';
    return out;
  }
};

Session run_session(std::uint64_t system_seed, std::uint64_t seed,
                    Tracer& tracer, SpeedGauge& gauge, obs::TraceLog* trace) {
  Session s;
  const HeapPeak heap;
  s.registry = std::make_unique<obs::Registry>();
  const obs::Instruments obs{s.registry.get(), trace};
  gauge.sample();
  const auto t0 = Clock::now();

  std::unique_ptr<desi::SystemData> system, pristine;
  {
    Scope span(tracer, "desi.generate");
    system = desi::Generator::generate(serve_spec(), system_seed);
  }
  {
    Scope span(tracer, "desi.generate");
    pristine = desi::Generator::generate(serve_spec(), system_seed);
  }

  auto throttle_cell = std::make_shared<prism::PrepareThrottle>();
  core::FrameworkConfig fc;
  fc.seed = seed;
  fc.deployer.throttle = [throttle_cell] { return *throttle_cell; };
  {
    // Master on the best-connected host, as run_traffic seats it.
    const model::DeploymentModel& m = system->model();
    std::size_t best_degree = 0;
    for (model::HostId h = 0; h < m.host_count(); ++h) {
      std::size_t degree = 0;
      for (model::HostId o = 0; o < m.host_count(); ++o)
        if (o != h && m.connected(h, o)) ++degree;
      if (degree > best_degree) {
        best_degree = degree;
        fc.master_host = h;
      }
    }
  }

  std::unique_ptr<core::CentralizedInstantiation> inst;
  std::unique_ptr<traffic::TrafficEngine> engine;
  std::unique_ptr<traffic::Ratekeeper> ratekeeper;
  std::unique_ptr<heal::HealController> healer;
  const model::AvailabilityObjective objective;
  std::unique_ptr<core::ImprovementLoop> loop;
  {
    Scope span(tracer, "core.build");
    inst = std::make_unique<core::CentralizedInstantiation>(*system, fc);
    inst->set_instruments(obs);
    traffic::EngineConfig ec;
    ec.arrival = traffic::ArrivalModel::kOpen;
    ec.shape = traffic::IntensityShape::kFlash;
    ec.rps = kRps;
    ec.seed = seed;
    engine = std::make_unique<traffic::TrafficEngine>(*inst, ec, obs);
    ratekeeper = std::make_unique<traffic::Ratekeeper>(
        *engine, *inst, obs, throttle_cell, traffic::RatekeeperConfig{});
    core::ImprovementLoop::Config lc;
    lc.interval_ms = kLoopIntervalMs;
    lc.seed = seed;
    loop = std::make_unique<core::ImprovementLoop>(*inst, objective, lc);
    loop->set_instruments(obs);
    heal::HealConfig hc;
    hc.seed = seed + 1;
    healer = std::make_unique<heal::HealController>(*inst, *pristine, hc);
  }
  chaos::FaultInjector injector(*inst, obs);
  {
    Scope span(tracer, "chaos.arm");
    chaos::ScenarioSpec spec = chaos::scenario_by_name("mixed");
    spec.duration_ms = kDurationMs;
    spec.fault_until_ms = std::min(spec.fault_until_ms, kDurationMs);
    spec.fault_from_ms = std::min(spec.fault_from_ms, spec.fault_until_ms);
    injector.arm(chaos::FaultSchedule::compile(spec, system->model(),
                                               fc.master_host, seed));
  }
  auto churn_rng = std::make_shared<util::Xoshiro256ss>(
      util::Xoshiro256ss(seed).fork(0x5ede9107));
  for (double at = kChurnEveryMs; at < kDurationMs; at += kChurnEveryMs)
    inst->simulator().schedule_at(at, [&inst, churn_rng] {
      force_redeploy(*inst, *churn_rng, kChurnMoves);
    });

  bool ticking = true;
  std::function<void()> tick = [&] {
    if (!ticking) return;
    {
      Scope span(tracer, "analyzer.tick");
      (void)loop->tick();
    }
    inst->simulator().schedule_after(kLoopIntervalMs, tick);
  };
  {
    Scope span(tracer, "core.start");
    inst->start();
    engine->start();
    ratekeeper->start();
    inst->simulator().schedule_after(kLoopIntervalMs, tick);
    healer->start();
  }
  sim::Simulator& sim = inst->simulator();
  {
    Scope span(tracer, "sim.run_until");
    sim.run_until(kWarmupMs);
  }
  s.setup_s = seconds_since(t0) * gauge.local_scale();

  while (sim.now() < kDurationMs + kSettleMs) {
    gauge.tick();
    const auto step0 = Clock::now();
    const std::uint64_t allocs0 = allocations();
    {
      Scope span(tracer, "sim.run_until");
      sim.run_until(sim.now() + kStepMs);
    }
    s.sim_allocs += allocations() - allocs0;
    if (sim.now() == kDurationMs) {
      // End of the session: traffic, control loop and churn stop; the
      // healer keeps repairing through the settle window.
      ticking = false;
      ratekeeper->stop();
      engine->stop();
      for (const traffic::TenantStats& t : engine->tenants()) {
        s.offered += t.offered;
        s.completed += t.completed;
        s.failed += t.failed;
        s.shed += t.shed;
      }
    }
    s.step_ms.push_back(seconds_since(step0) * 1e3 * gauge.local_scale());
  }
  healer->stop();

  // Open-loop requests resolve within their arrival tick, so nothing is
  // in flight once the engine stops, and settle must not move the tallies.
  const double slo = ratekeeper->config().slo_p99_ms;
  const double penalty = engine->config().failure_penalty_ms;
  std::uint64_t offered_after = 0, resolved_after = 0;
  for (const traffic::TenantStats& t : engine->tenants()) {
    offered_after += t.offered;
    resolved_after += t.completed + t.failed + t.shed;
    for (const double ms : t.latencies_ms) {
      if (ms <= slo) ++s.within_slo;
      // Failed requests carry the failure penalty as their latency.
      if (ms < penalty) s.completed_ms.push_back(ms);
    }
  }
  const std::uint64_t resolved = s.completed + s.failed + s.shed;
  s.in_flight = s.offered - std::min(s.offered, resolved);
  s.tallies_consistent = resolved <= s.offered && offered_after == s.offered &&
                         resolved_after == resolved;
  s.slo_violation_ms = ratekeeper->slo_violation_ms();
  s.ratekeeper_max_level = ratekeeper->max_level_reached();
  s.throttles = ratekeeper->throttle_actions();
  for (const auto& [kind, n] : injector.injected()) s.faults += n;
  s.condemnations = healer->condemnations();
  s.recoveries_committed = healer->recoveries_committed();
  s.mttr_ms = healer->mean_mttr_ms();
  s.rounds = inst->deployer().round_history().size();
  s.committed = 0;
  for (const prism::RoundRecord& r : inst->deployer().round_history())
    if (r.outcome == prism::TxnOutcome::kCommitted) ++s.committed;
  s.net = inst->network().stats();
  s.events = sim.events_processed();
  s.batches = sim.batches_dispatched();
  const auto w = inst->workload_stats();
  s.app_sent = w.sent;
  s.app_received = w.received;

  {
    Scope span(tracer, "chaos.judge");
    chaos::RunReport report;
    chaos::judge_centralized_invariants(*inst, *system, *pristine, 0.05,
                                        report);
    // conservation, atomicity, availability, preflight, audit + census
    s.checks += 5 + system->model().component_count();
    for (const auto& v : report.violations)
      s.violations.push_back(v.invariant + ": " + v.detail);
  }
  if (tracer.enabled()) {
    Scope span(tracer, "check.preflight");
    (void)check::preflight_report(system->model(), system->constraints());
  }
  {
    // A lost component counts as unavailable (census reports the loss).
    Scope span(tracer, "model.evaluate");
    s.availability_final =
        objective.evaluate(pristine->model(), inst->runtime_deployment());
  }
  s.heap_mb = heap.mb();
  return s;
}

struct Pass {
  std::vector<Session> sessions;
  PassTiming timing;
  std::string digest;
};

Pass run_pass(std::uint64_t seed, Tracer& tracer, SpeedGauge& gauge,
              obs::TraceLog* trace) {
  Pass pass;
  const auto t0 = Clock::now();
  const double gauge0 = gauge.spent_s();
  for (std::size_t i = 0; i < kSessions; ++i) {
    pass.sessions.push_back(
        run_session(i + 1, seed * kSessions + i, tracer, gauge, trace));
    const Session& s = pass.sessions.back();
    pass.timing.setup_s.push_back(s.setup_s);
    pass.timing.heap_mb.push_back(s.heap_mb);
    pass.timing.add_unit_steps(s.step_ms);
    pass.digest += s.digest() + '|';
  }
  // Speed samples taken during the pass are not part of its wall time.
  pass.timing.wall_s = seconds_since(t0) - (gauge.spent_s() - gauge0);
  return pass;
}

void check_outputs(Outcome& out, const Pass& pass) {
  for (const Session& s : pass.sessions) {
    out.check(s.net.delivered + s.net.dropped + s.net.unroutable <= s.net.sent,
              "network: delivered + dropped + unroutable exceeds sent");
    out.check(s.tallies_consistent,
              "traffic: offered != completed + failed + shed + in flight");
    out.check(s.offered > 0, "traffic: no requests offered");
    out.check(s.step_ms.size() == kStepsPerSession,
              "serve-faults: unexpected step count");
  }
}

template <typename Fn>
double sum(const Pass& pass, Fn&& field) {
  double total = 0.0;
  for (const Session& s : pass.sessions) total += static_cast<double>(field(s));
  return total;
}

}  // namespace

Outcome run_serve_faults(const Options& options) {
  Outcome out;
  const std::uint64_t seed = options.seed;
  Tracer off(false);
  const double sessions = static_cast<double>(kSessions);

  if (!options.trace) {
    SpeedGauge gauge(kGaugeEvery);
    std::vector<Pass> passes;
    std::vector<PassTiming> timings;
    const auto t0 = Clock::now();
    do {
      passes.push_back(run_pass(seed, off, gauge, nullptr));
      timings.push_back(passes.back().timing);
    } while (seconds_since(t0) + passes.back().timing.wall_s <=
             options.seconds);
    const Pass& first = passes.front();
    for (const Pass& p : passes) {
      check_outputs(out, p);
      out.check(p.digest == first.digest,
                "serve-faults: simulated outcome differs between passes");
    }
    out.attempted = passes.size() * kSessions * kStepsPerSession;
    std::map<std::string, double> values;
    timing_metrics(values, out.notes, timings, kStepsPerSession, gauge);
    values["availability_final"] =
        sum(first, [](const Session& s) { return s.availability_final; }) /
        sessions;
    values["goodput_share"] =
        sum(first, [](const Session& s) { return s.within_slo; }) /
        sum(first, [](const Session& s) { return s.offered; });
    values["invariants_held_share"] = std::max(
        0.0, 1.0 - sum(first, [](const Session& s) {
                     return s.violations.size();
                   }) / sum(first, [](const Session& s) { return s.checks; }));
    emit_metrics(out, end_to_end_metrics(), values);
    for (const Session& s : first.sessions)
      for (const std::string& v : s.violations)
        out.notes.push_back("invariant violation: " + v);
    return out;
  }

  SpeedGauge plain_gauge(kGaugeEvery), gauge(kGaugeEvery);
  const Pass plain = run_pass(seed, off, plain_gauge, nullptr);
  Tracer tracer(true);
  obs::TraceLog trace_log;
  const Pass traced = run_pass(seed, tracer, gauge, &trace_log);
  check_outputs(out, traced);
  out.check(plain.digest == traced.digest,
            "serve-faults: attaching the trace log changed the simulated "
            "outcome");
  out.attempted = 2 * kSessions * kStepsPerSession;

  std::vector<const obs::Registry*> registries;
  for (const Session& s : traced.sessions)
    registries.push_back(s.registry.get());
  LayerReport layers(tracer, registries, plain.timing, traced.timing, gauge);
  sim::MessageStats net;
  for (const Session& s : traced.sessions) {
    net.sent += s.net.sent;
    net.delivered += s.net.delivered;
    net.dropped += s.net.dropped;
    net.unroutable += s.net.unroutable;
  }
  const double sim_s = sessions * (kDurationMs + kSettleMs) / 1e3;
  const double traffic_s = sessions * kDurationMs / 1e3;
  const auto total = [&](auto field) { return sum(traced, field); };
  layers.data_plane(total([](const Session& s) { return s.events; }),
                    total([](const Session& s) { return s.batches; }),
                    // Allocations of the untraced pass: the trace log's own
                    // allocations are not the simulator's.
                    sum(plain, [](const Session& s) { return s.sim_allocs; }),
                    sim_s, net,
                    total([](const Session& s) { return s.app_sent; }),
                    total([](const Session& s) { return s.app_received; }),
                    median(plain.timing.step_ms));
  const double rounds = total([](const Session& s) { return s.rounds; });
  const double offered = total([](const Session& s) { return s.offered; });
  const double failed = total([](const Session& s) { return s.failed; });
  const double shed = total([](const Session& s) { return s.shed; });
  layers.set("prism.txn_rounds", rounds);
  layers.set("prism.txn_commit_share",
             rounds > 0.0
                 ? total([](const Session& s) { return s.committed; }) / rounds
                 : 0.0);
  layers.set("chaos.faults_injected",
             total([](const Session& s) { return s.faults; }));
  layers.set("heal.condemnations",
             total([](const Session& s) { return s.condemnations; }));
  const double recoveries =
      total([](const Session& s) { return s.recoveries_committed; });
  layers.set("heal.recoveries_committed", recoveries);
  layers.set("heal.mttr_sim_s",
             recoveries > 0.0 ? total([](const Session& s) {
                                  return s.mttr_ms * s.recoveries_committed;
                                }) / recoveries / 1e3
                              : 0.0);
  layers.set("traffic.offered_per_sim_s", offered / traffic_s);
  layers.set("traffic.shed_share", shed / offered);
  layers.set("traffic.failed_share", failed / offered);
  double max_level = 0.0;
  std::vector<double> completed_ms;
  for (const Session& s : traced.sessions) {
    max_level =
        std::max(max_level, static_cast<double>(s.ratekeeper_max_level));
    completed_ms.insert(completed_ms.end(), s.completed_ms.begin(),
                        s.completed_ms.end());
  }
  layers.set("traffic.ratekeeper_max_level", max_level);
  layers.set("traffic.ratekeeper_throttles",
             total([](const Session& s) { return s.throttles; }));
  layers.set("request_ms_p99", percentile(completed_ms, 99.0));
  layers.set("slo_violation_s",
             total([](const Session& s) { return s.slo_violation_ms; }) /
                 sessions / 1e3);
  layers.set("invariant_violations",
             total([](const Session& s) { return s.violations.size(); }));
  // Failure accounting: requests offered against failed, timed out or shed.
  FailureShare requests;
  requests.add(static_cast<std::uint64_t>(offered),
               static_cast<std::uint64_t>(failed + shed));
  layers.set("ops.attempted", static_cast<double>(requests.attempted));
  layers.set("ops.failed_share", requests.share());
  layers.emit(out, static_cast<double>(traced.timing.step_ms.size()),
              tail_percentile(kStepsPerSession));
  return out;
}

}  // namespace perfbench
