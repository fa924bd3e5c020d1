// decide-1k: 1024 hosts x 2048 components in 32-host regions, no
// simulator. Each step is a monitor-style write — every link of one region
// redrawn around its generated reliability, so the model fluctuates
// without drifting — followed by a warm-started CentralizedAnalyzer::analyze
// on the dirty set, a plan check of any redeployment, and its application.
// Model, algorithm, analyzer and check at fleet scale do all the work; the
// data plane is bypassed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "algo/registry.h"
#include "analyzer/centralized.h"
#include "analyzer/execution_profile.h"
#include "check/plan_check.h"
#include "check/preflight.h"
#include "desi/generator.h"
#include "model/constraints.h"
#include "model/objective.h"
#include "obs/metrics.h"
#include "report.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dif;

constexpr std::size_t kHosts = 1024;
constexpr std::size_t kComponents = 2048;
constexpr std::size_t kRegionHosts = 32;
/// Two rounds over the 32 regions: every pass redraws each region twice,
/// from a seeded starting region, so passes on any seed do the same kinds
/// of writes.
constexpr std::size_t kStepsPerPass = 64;
/// Evaluation cap of every analysis: the work per decision is fixed by the
/// search, never by a wall-clock budget.
constexpr std::uint64_t kMaxEvaluations = 200'000;
/// A redrawn link reliability lies within this factor of its generated one.
constexpr double kJitter = 0.1;
/// Model time between decisions, for the analyzer's stability profile.
constexpr double kIntervalMs = 5'000.0;
/// Steps between two samples of the machine's speed.
constexpr std::size_t kGaugeEvery = 4;

/// The fleet is the same on every run (fixed generator seed); --seed drives
/// the starting region, the redrawn reliabilities and the analyzer seeds.
constexpr std::uint64_t kSystemSeed = 1;

desi::GeneratorSpec decide_spec() {
  desi::GeneratorSpec spec;
  spec.hosts = kHosts;
  spec.components = kComponents;
  spec.regions = kHosts / kRegionHosts;
  // Constant degree (~8 links per host, ~8 interactions per component), as
  // bench_scalability sweeps fleet sizes: growth in entities, not edges.
  spec.link_density = 8.0 / static_cast<double>(kHosts);
  spec.interaction_density = 8.0 / static_cast<double>(kComponents);
  return spec;
}

struct Link {
  model::HostId a = 0;
  model::HostId b = 0;
  double reliability = 0.0;
};

struct Pass {
  PassTiming timing;
  std::uint64_t decisions = 0;
  std::uint64_t redeployments = 0;
  /// Decisions that ended infeasible, pre-flight rejected, or with a target
  /// the plan check refused.
  std::uint64_t decisions_failed = 0;
  std::size_t checks = 0;
  std::vector<std::string> violations;
  double availability_initial = 0.0;
  double availability_final = 0.0;
  std::string digest;
};

/// Analyzes `current`, checks any redeployment it proposes and applies it.
/// Returns whether a redeployment was applied.
bool decide(Tracer& tracer, const analyzer::CentralizedAnalyzer& analyzer,
            desi::SystemData& system, const model::ConstraintChecker& checker,
            analyzer::ExecutionProfile& profile, std::uint64_t seed,
            const std::vector<model::ComponentId>* dirty, Pass& pass) {
  const model::AvailabilityObjective objective;
  const model::DeploymentModel& m = system.model();
  const model::Deployment current = system.deployment();
  analyzer::Decision decision;
  {
    Scope span(tracer, "analyzer.analyze");
    decision = analyzer.analyze(m, objective, checker, current, profile, seed,
                                dirty);
  }
  ++pass.decisions;
  if (decision.action != analyzer::Decision::Action::kRedeploy) {
    if (decision.reason.rfind("improvement below", 0) != 0 &&
        decision.reason.rfind("vetoed", 0) != 0)
      ++pass.decisions_failed;  // infeasible or pre-flight rejected
    return false;
  }

  std::vector<check::PlanTask> plan;
  for (model::ComponentId c = 0; c < m.component_count(); ++c)
    if (decision.target.host_of(c) != current.host_of(c))
      plan.push_back({m.component(c).name, current.host_of(c),
                      decision.target.host_of(c)});
  std::size_t plan_errors = 0;
  {
    Scope span(tracer, "check.plan");
    plan_errors =
        check::check_plan(m, system.constraints(), current, plan).error_count();
  }
  double rescored = 0.0;
  {
    Scope span(tracer, "model.evaluate");
    rescored = objective.evaluate(m, decision.target);
  }
  pass.checks += 3;
  if (plan_errors > 0)
    pass.violations.push_back("plan check: " + std::to_string(plan_errors) +
                              " error(s)");
  if (!checker.feasible(decision.target))
    pass.violations.push_back("target fails the constraint checker");
  if (std::abs(rescored - decision.value_after) >
      1e-9 * std::max(1.0, std::abs(rescored)))
    pass.violations.push_back("re-scored target differs from the prediction");
  if (plan_errors > 0) {
    ++pass.decisions_failed;
    return false;
  }
  system.set_deployment(decision.target);
  ++pass.redeployments;
  return true;
}

/// One pass: set-up (generation, analyzer stack, first cold decision),
/// then kStepsPerPass decision steps unless `setup_only`.
Pass run_pass(std::uint64_t seed, Tracer& tracer, SpeedGauge& gauge,
              obs::Registry* registry, bool setup_only = false) {
  Pass pass;
  const HeapPeak heap;
  gauge.sample();
  const auto t0 = Clock::now();
  const double gauge0 = gauge.spent_s();
  std::unique_ptr<desi::SystemData> system, pristine;
  {
    Scope span(tracer, "desi.generate");
    system = desi::Generator::generate(decide_spec(), kSystemSeed);
  }
  {
    Scope span(tracer, "desi.generate");
    pristine = desi::Generator::generate(decide_spec(), kSystemSeed);
  }
  // Every link of each region, with its generated reliability.
  const model::DeploymentModel& base = pristine->model();
  std::vector<std::vector<Link>> region_links(base.region_count());
  for (model::HostId a = 0; a < base.host_count(); ++a)
    for (model::HostId b = a + 1; b < base.host_count(); ++b)
      if (base.connected(a, b)) {
        const Link link{a, b, base.physical_link(a, b).reliability};
        region_links[base.host_region(a)].push_back(link);
        if (base.host_region(b) != base.host_region(a))
          region_links[base.host_region(b)].push_back(link);
      }

  std::unique_ptr<algo::AlgorithmRegistry> algorithms;
  std::unique_ptr<analyzer::CentralizedAnalyzer> analyzer;
  std::unique_ptr<model::ConstraintChecker> checker;
  {
    Scope span(tracer, "core.build");
    algorithms = std::make_unique<algo::AlgorithmRegistry>(
        algo::AlgorithmRegistry::with_defaults());
    analyzer::CentralizedAnalyzer::Policy policy;
    policy.warm_start = true;
    policy.max_evaluations = kMaxEvaluations;
    analyzer =
        std::make_unique<analyzer::CentralizedAnalyzer>(*algorithms, policy);
    analyzer->set_instruments({registry, nullptr});
    checker = std::make_unique<model::ConstraintChecker>(
        system->model(), system->constraints());
  }
  analyzer::ExecutionProfile profile;
  const model::AvailabilityObjective objective;
  {
    Scope span(tracer, "model.evaluate");
    pass.availability_initial =
        objective.evaluate(base, pristine->deployment());
  }
  profile.add_sample(0.0, pass.availability_initial);
  {
    Scope span(tracer, "analyzer.tick");
    (void)decide(tracer, *analyzer, *system, *checker, profile, seed, nullptr,
                 pass);
  }
  pass.timing.setup_s.push_back(seconds_since(t0) * gauge.local_scale());
  if (setup_only) return pass;

  util::Xoshiro256ss rng(util::Xoshiro256ss(seed).fork(0xdec1de));
  model::DeploymentModel& m = system->model();
  const std::size_t first_region = rng.index(region_links.size());
  std::vector<double> step_ms;
  for (std::size_t step = 1; step <= kStepsPerPass; ++step) {
    gauge.tick();
    const auto s0 = Clock::now();
    {
      Scope span(tracer, "analyzer.tick");
      const std::size_t region = (first_region + step) % region_links.size();
      std::vector<bool> touched(m.host_count(), false);
      {
        Scope update(tracer, "model.update");
        for (const Link& link : region_links[region]) {
          const double r = link.reliability *
                           (1.0 + kJitter * (2.0 * rng.uniform() - 1.0));
          m.set_link_reliability(link.a, link.b, std::clamp(r, 0.0, 0.999));
          touched[link.a] = touched[link.b] = true;
        }
      }
      std::vector<model::ComponentId> dirty;
      for (model::ComponentId c = 0; c < m.component_count(); ++c)
        if (touched[system->deployment().host_of(c)]) dirty.push_back(c);
      {
        Scope eval(tracer, "model.evaluate");
        profile.add_sample(static_cast<double>(step) * kIntervalMs,
                           objective.evaluate(m, system->deployment()));
      }
      (void)decide(tracer, *analyzer, *system, *checker, profile, seed + step,
                   &dirty, pass);
    }
    step_ms.push_back(seconds_since(s0) * 1e3 * gauge.local_scale());
    if (tracer.enabled()) {
      // What the pre-flight inside analyze costs on this step's model
      // (pre-flight reads the model and constraints, not the placement).
      // It runs outside the timed step, so the tracing overhead leaves it
      // out.
      Scope probe(tracer, "check.preflight");
      (void)check::preflight_report(m, system->constraints());
    }
  }
  {
    Scope span(tracer, "model.evaluate");
    pass.availability_final = objective.evaluate(base, system->deployment());
  }
  // Speed samples taken during the pass are not part of its wall time.
  pass.timing.wall_s = seconds_since(t0) - (gauge.spent_s() - gauge0);
  pass.timing.add_unit_steps(step_ms);
  pass.timing.heap_mb.push_back(heap.mb());

  char buf[128];
  std::snprintf(buf, sizeof buf, "%.17g %.17g %llu %llu %llu ",
                pass.availability_initial, pass.availability_final,
                static_cast<unsigned long long>(pass.decisions),
                static_cast<unsigned long long>(pass.redeployments),
                static_cast<unsigned long long>(pass.decisions_failed));
  pass.digest = buf;
  for (const model::HostId h : system->deployment().assignment())
    pass.digest += std::to_string(h) + ',';
  for (const std::string& v : pass.violations) pass.digest += v + ';';
  return pass;
}

double held_share(const Pass& p) {
  if (p.checks == 0) return 1.0;
  return std::max(0.0, 1.0 - static_cast<double>(p.violations.size()) /
                                 static_cast<double>(p.checks));
}

}  // namespace

Outcome run_decide_1k(const Options& options) {
  Outcome out;
  const std::uint64_t seed = options.seed;
  Tracer off(false);

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
    // A pass sets up once; repeat set-up so its median has samples.
    for (int rep = 0; rep < 3; ++rep)
      timings.front().setup_s.push_back(
          run_pass(seed, off, gauge, nullptr, true).timing.setup_s.front());
    const Pass& first = passes.front();
    for (const Pass& p : passes) {
      out.check(p.digest == first.digest,
                "decide-1k: decisions differ between passes");
      out.check(p.violations.empty(), "decide-1k: a checked target failed");
    }
    out.attempted = passes.size() * kStepsPerPass;
    std::map<std::string, double> values;
    timing_metrics(values, out.notes, timings, kStepsPerPass, gauge);
    values["availability_final"] = first.availability_final;
    values["goodput_share"] =
        1.0 - static_cast<double>(first.decisions_failed) /
                  static_cast<double>(first.decisions);
    values["invariants_held_share"] = held_share(first);
    emit_metrics(out, end_to_end_metrics(), values);
    out.notes.push_back(
        "availability " + std::to_string(first.availability_initial) +
        " -> " + std::to_string(first.availability_final) + ", " +
        std::to_string(first.redeployments) + " of " +
        std::to_string(first.decisions) + " decisions redeployed");
    for (const std::string& v : first.violations)
      out.notes.push_back("violation: " + v);
    return out;
  }

  SpeedGauge plain_gauge(kGaugeEvery), gauge(kGaugeEvery);
  const Pass plain = run_pass(seed, off, plain_gauge, nullptr);
  Tracer tracer(true);
  obs::Registry registry;
  const Pass traced = run_pass(seed, tracer, gauge, &registry);
  out.check(plain.digest == traced.digest,
            "decide-1k: attaching instruments changed the decisions");
  out.check(traced.violations.empty(), "decide-1k: a checked target failed");
  out.attempted = 2 * kStepsPerPass;

  LayerReport layers(tracer, {&registry}, plain.timing, traced.timing, gauge);
  layers.set("invariant_violations",
             static_cast<double>(traced.violations.size()));
  FailureShare decisions;
  decisions.add(traced.decisions, traced.decisions_failed);
  layers.set("ops.attempted", static_cast<double>(decisions.attempted));
  layers.set("ops.failed_share", decisions.share());
  layers.emit(out, static_cast<double>(traced.timing.step_ms.size()),
              tail_percentile(kStepsPerPass));
  return out;
}

}  // namespace perfbench
