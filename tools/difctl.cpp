// difctl — command-line front end to the deployment improvement framework.
//
// Operates on xADL-lite JSON architecture descriptions (desi/xadl.h):
//
//   difctl generate --hosts 6 --components 20 [--seed N] > system.json
//       Generate a random system description (DeSi's Generator).
//
//   difctl evaluate system.json
//       Score the described deployment under every built-in objective and
//       list the errors the placement audit finds. Exit 1 on any.
//
//   difctl improve system.json [--algorithm avala] [--objective availability]
//       Run one algorithm (or, with --algorithm all, every applicable one),
//       print the DeSi results table, and emit the improved description on
//       stdout (redirect to keep it).
//
//   difctl render system.json [--dot]
//       ASCII architecture view, or Graphviz DOT with --dot.
//
//   difctl tables system.json
//       The DeSi table-oriented page: hosts, components, links,
//       interactions, constraints.
//
//   difctl sweep system.json --from host0 --to host1 [--lo 0.1] [--hi 1.0]
//       Sensitivity analysis: sweep the named link's reliability and show
//       the objective on the current deployment vs after re-optimizing.
//
//   difctl portfolio system.json [--threads N] [--deadline SECONDS]
//       Race several algorithms in parallel under a common deadline, print
//       the per-algorithm results, and emit the best deployment on stdout.
//
//   difctl check system.json [--json] [--strict]
//       Static deployment-model analysis: prove specification defects
//       (dangling references, unsatisfiable constraints, capacity
//       pigeonholes, network partitions, parameter-range lints) without
//       running any algorithm. Exit 0 when clean, 1 when defects were
//       found (--strict also fails on warnings), 2 on usage errors.
//
//   difctl audit system.json [--placement] [--plan plan.json]
//                [--resilience-k K] [--json] [--strict]
//       Artifact audit: prove the description's *concrete* placement
//       against its constraints (capacity, location, collocation,
//       bandwidth), prove k-resilience (which components/interactions a
//       k-host or whole-region failure loses, with witness host sets),
//       and/or statically admission-check a migration plan before anything
//       runs. With no selector, placement + resilience at k = 1 run.
//       --json emits the "dif-audit-v1" report. Exit codes match `check`:
//       0 clean, 1 errors (--strict also fails on warnings), 2 usage.
//
//   difctl simulate system.json [--duration-ms D] [--interval-ms I]
//                   [--objective NAME] [--seed S] [--adaptive]
//                   [--allow-partial]
//                   [--metrics-json PATH] [--trace-json PATH]
//       Run the full framework (monitors, admins, deployer, improvement
//       loop) on the simulator for D simulated milliseconds. A run summary
//       goes to stderr and the final system description to stdout.
//       --allow-partial lets rolled-back redeployment rounds keep their
//       completed migrations (graceful degradation to a partial commit).
//       --metrics-json / --trace-json dump the run's metric registry
//       ("dif-metrics-v1") and adaptation trace ("dif-trace-v1"); both
//       flags are also accepted by `portfolio`.
//       Exit 0 on a clean run, 3 when the run finished but at least one
//       redeployment round ended in abort/rollback/partial.
//
//   difctl campaign [--seeds 0..31] [--scenario mixed] [--json [PATH]]
//       Fault-injection campaign: run the centralized and decentralized
//       improvement loops under a seeded fault schedule, once per seed,
//       checking dependability invariants after every run. --json emits
//       the "dif-campaign-v1" report (to PATH, or stdout without one).
//       --allow-partial enables the effector's graceful-degradation mode.
//       --recovery attaches the self-healing controller (phi-accrual
//       failure detection + automatic recovery re-placement) to the
//       centralized runs and judges the eighth (convergence) invariant.
//       Exit 0 when every invariant held and every round committed, 1 on
//       violations, 2 on usage errors, 3 when invariants held but at
//       least one round ended in abort/rollback/partial (informational —
//       atomicity was preserved, the adaptation was not fully applied).
//
//   difctl heal [--seeds 0..3] [--scenario killhost] [--json [PATH]]
//       Self-healing campaign: `difctl campaign --centralized --recovery`
//       with the killhost scenario by default, reported recovery-first —
//       per seed: suspicions, condemnations, rejoins, committed repairs,
//       mean MTTR, and the convergence time. Same JSON schema and exit
//       codes as `campaign`; --convergence-window-ms bounds the eighth
//       invariant's deadline, --phi-suspect/--phi-condemn tune the
//       detector thresholds.
//
//   difctl fuzz [--seed N] [--rounds M] [--rate R] [--json [PATH]]
//       Control-plane protocol fuzzer: run centralized campaigns with a
//       seeded message interceptor that drops, delays, duplicates, and
//       reorders redeployment/custody protocol events, judged by the
//       campaign's seven dependability invariants. Failing seeds shrink to a
//       minimal mutation trace. --json emits the "dif-fuzz-v1" report.
//       Exit 0 when every round held all invariants, 1 on violations, 2 on
//       usage errors.
//
//   difctl traffic [--arrival open|closed] [--rps R] [--users U]
//                  [--tenants T] [--shape flat|diurnal|flash]
//                  [--slo-p99-ms MS] [--scenario NAME] [--no-ratekeeper]
//                  [--json [PATH]]
//       Live-traffic session: drive seeded simulated user requests through
//       a generated, deployed architecture while the improvement loop (and
//       optional forced redeployments / chaos scenario) churn placements
//       underneath, with the ratekeeper throttling migration sagas and
//       shedding over-budget tenants when SLO/saturation degrade. --json
//       emits the "dif-traffic-v1" report (per-tenant goodput, p50/p99,
//       SLO-violation seconds, throttle/shed actions). --recovery attaches
//       the self-healing controller; the report then carries a "recovery"
//       object including slo_repair_attrib_ms — the share of SLO pain
//       accrued while a repair was pending or in flight. Exit 0 on a clean
//       run, 3 when SLO-violation seconds accrued or a redeployment round
//       rolled back (informational), 1 on errors, 2 on usage errors.
//       See docs/difctl.md for the full flag reference.
#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>

#include "algo/portfolio.h"
#include "chaos/campaign.h"
#include "chaos/fuzz.h"
#include "check/audit.h"
#include "check/plan_check.h"
#include "check/resilience.h"
#include "check/static_analyzer.h"
#include "core/improvement_loop.h"
#include "desi/algorithm_container.h"
#include "desi/generator.h"
#include "desi/graph_view.h"
#include "desi/table_view.h"
#include "desi/sensitivity.h"
#include "desi/xadl.h"
#include "obs/instruments.h"
#include "traffic/runner.h"

namespace {

using namespace dif;

int usage() {
  std::fprintf(stderr,
               "usage: difctl <command> [args]\n"
               "  generate --hosts K --components N [--seed S] "
               "[--constraints C] [--regions R]\n"
               "  evaluate <system.json>\n"
               "  improve  <system.json> [--algorithm NAME|all] "
               "[--objective availability|latency|comm-cost] [--seed S]\n"
               "  render   <system.json> [--dot]\n"
               "  tables   <system.json>\n"
               "  sweep    <system.json> --from HOST --to HOST [--lo L] "
               "[--hi H] [--objective NAME] [--steps N]\n"
               "  portfolio <system.json> [--threads N] [--deadline SEC] "
               "[--max-evals N] [--algorithms a,b,c] [--objective NAME] "
               "[--seed S] [--metrics-json PATH] [--trace-json PATH]\n"
               "  check    <system.json> [--json] [--strict]\n"
               "  audit    <system.json> [--placement] [--plan PLAN.json] "
               "[--resilience-k K] [--json] [--strict]\n"
               "  simulate <system.json> [--duration-ms D] [--interval-ms I] "
               "[--objective NAME] [--seed S] [--adaptive] [--allow-partial] "
               "[--metrics-json PATH] [--trace-json PATH]\n"
               "  campaign [--seeds A..B|a,b,c] [--scenario NAME] "
               "[--hosts K] [--components N] [--duration-ms D] "
               "[--tolerance T] [--centralized|--decentralized] "
               "[--allow-partial] [--recovery] [--convergence-window-ms W] "
               "[--phi-suspect P] [--phi-condemn P] [--json [PATH]] "
               "[--metrics-json PATH] [--trace-json PATH]\n"
               "  heal     [--seeds A..B|a,b,c] [--scenario NAME] "
               "[--hosts K] [--components N] [--duration-ms D] "
               "[--tolerance T] [--convergence-window-ms W] "
               "[--phi-suspect P] [--phi-condemn P] [--json [PATH]]\n"
               "  fuzz     [--seed N] [--rounds M] [--rate R] [--scenario "
               "NAME] [--hosts K] [--components N] [--duration-ms D] "
               "[--shrink-budget B] [--json [PATH]]\n"
               "  traffic  [--hosts K] [--components N] [--seed S] "
               "[--arrival open|closed] [--rps R] [--users U] [--tenants T] "
               "[--shape flat|diurnal|flash] [--slo-p99-ms MS] "
               "[--duration-ms D] [--scenario NAME] [--redeploy-at-ms T] "
               "[--redeploy-every-ms T] [--moves K] [--no-ratekeeper] "
               "[--recovery] [--phi-suspect P] [--phi-condemn P] "
               "[--json [PATH]] [--metrics-json PATH]\n");
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_json_file(const std::string& path, const util::json::Value& doc) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << doc.dump(2) << '\n';
}

/// A malformed command line; main() prints it and exits 2.
class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// `text` as a whole unsigned decimal number: no sign, no spaces, no
/// trailing characters, no overflow. `flag` names the source in the error.
std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end)
    throw UsageError("--" + flag + ": expected an unsigned integer, got '" +
                     text + "'");
  return value;
}

/// Very small flag parser: --name [value] after the positional args. A
/// flag followed by another --flag (or nothing) is a value-less boolean,
/// so booleans and valued flags can be freely interleaved. A numeric
/// flag's value must parse whole, or the getter throws UsageError.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) continue;
      const std::string name = argv[i] + 2;
      present_.insert(name);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        values_[name] = argv[++i];
    }
  }
  /// True when `--name` appears anywhere (for value-less boolean flags).
  [[nodiscard]] bool has(const std::string& name) const {
    return present_.count(name) > 0;
  }
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& dflt) const {
    const auto it = values_.find(name);
    return it == values_.end() ? dflt : it->second;
  }
  [[nodiscard]] std::uint64_t get_u64(const std::string& name,
                                      std::uint64_t dflt) const {
    const auto it = values_.find(name);
    return it == values_.end() ? dflt : parse_u64(name, it->second);
  }
  [[nodiscard]] double get_double(const std::string& name,
                                  double dflt) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return dflt;
    const char* text = it->second.c_str();
    char* stop = nullptr;
    errno = 0;
    const double value = std::strtod(text, &stop);
    if (stop == text || *stop != '\0' || errno == ERANGE)
      throw UsageError("--" + name + ": expected a number, got '" +
                       it->second + "'");
    return value;
  }
  [[nodiscard]] bool dot() const { return has("dot"); }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> present_;
};

std::unique_ptr<model::Objective> make_objective(const std::string& name) {
  if (name == "availability")
    return std::make_unique<model::AvailabilityObjective>();
  if (name == "latency") return std::make_unique<model::LatencyObjective>();
  if (name == "comm-cost")
    return std::make_unique<model::CommunicationCostObjective>();
  if (name == "security") return std::make_unique<model::SecurityObjective>();
  throw std::runtime_error("unknown objective '" + name + "'");
}

int cmd_generate(const Flags& flags) {
  desi::GeneratorSpec spec;
  spec.hosts = flags.get_u64("hosts", 4);
  spec.components = flags.get_u64("components", 12);
  const std::uint64_t constraints = flags.get_u64("constraints", 0);
  spec.location_constraints = constraints;
  spec.anti_colocation_pairs = constraints / 2;
  spec.colocation_pairs = constraints / 2;
  spec.regions = flags.get_u64("regions", 1);
  const auto system =
      desi::Generator::generate(spec, flags.get_u64("seed", 1));
  std::printf("%s\n", desi::XadlLite::to_text(*system).c_str());
  return 0;
}

int cmd_evaluate(const std::string& path) {
  const auto system = desi::XadlLite::from_text(read_file(path));
  const model::DeploymentModel& m = system->model();
  std::printf("%zu hosts, %zu components, %zu interactions\n",
              m.host_count(), m.component_count(), m.interactions().size());
  if (!system->deployment().complete()) {
    std::printf("deployment: INCOMPLETE\n");
    return 1;
  }
  for (const char* name :
       {"availability", "latency", "comm-cost", "security"}) {
    const auto objective = make_objective(name);
    std::printf("%-14s %.4f\n", name,
                objective->evaluate(m, system->deployment()));
  }
  // The placement rules are the auditor's; its advisory bandwidth findings
  // stay with `audit`.
  check::AuditOptions options;
  options.check_bandwidth = false;
  const check::CheckReport report = check::PlacementAuditor(options).audit(
      m, system->constraints(), system->deployment());
  if (report.ok()) {
    std::printf("constraints: all satisfied\n");
    return 0;
  }
  std::printf("constraints: %zu violations\n%s", report.error_count(),
              report.render_text().c_str());
  return 1;
}

int cmd_improve(const std::string& path, const Flags& flags) {
  const auto system = desi::XadlLite::from_text(read_file(path));
  const auto objective = make_objective(flags.get("objective",
                                                  "availability"));
  desi::AlgoResultData results;
  desi::AlgorithmContainer container(*system, results);
  const std::string algorithm = flags.get("algorithm", "avala");
  algo::AlgoOptions options;
  options.seed = flags.get_u64("seed", 1);
  if (algorithm == "all") {
    container.invoke_all(*objective, options.seed);
  } else {
    container.invoke(algorithm, *objective, options);
  }
  std::fprintf(stderr, "%s",
               desi::TableView::render_results(results).c_str());

  const auto best = results.best_index(std::string(objective->name()),
                                       objective->direction());
  if (!best) {
    std::fprintf(stderr, "no feasible deployment found\n");
    return 1;
  }
  const desi::ResultEntry& entry = results.entries()[*best];
  std::fprintf(stderr, "best: %s (%s = %.4f, %zu migrations)\n",
               entry.result.algorithm.c_str(), entry.objective.c_str(),
               entry.result.value, entry.result.migrations);
  system->set_deployment(entry.result.deployment);
  std::printf("%s\n", desi::XadlLite::to_text(*system).c_str());
  return 0;
}

int cmd_render(const std::string& path, const Flags& flags) {
  const auto system = desi::XadlLite::from_text(read_file(path));
  if (flags.dot()) {
    desi::GraphViewData layout;
    layout.refresh(*system);
    std::printf("%s", desi::GraphView::to_dot(*system, layout).c_str());
  } else {
    std::printf("%s", desi::GraphView::render_ascii(*system).c_str());
  }
  return 0;
}

int cmd_sweep(const std::string& path, const Flags& flags) {
  const auto system = desi::XadlLite::from_text(read_file(path));
  const std::string from = flags.get("from", "");
  const std::string to = flags.get("to", "");
  if (from.empty() || to.empty())
    throw std::runtime_error("sweep requires --from and --to host names");
  const model::HostId a = system->model().host_by_name(from);
  const model::HostId b = system->model().host_by_name(to);
  const auto objective =
      make_objective(flags.get("objective", "availability"));
  desi::SensitivityAnalysis analysis(*system);
  desi::SweepOptions options;
  options.steps = static_cast<int>(flags.get_u64("steps", 9));
  const auto points = analysis.sweep_link_reliability(
      a, b, flags.get_double("lo", 0.1), flags.get_double("hi", 1.0),
      *objective, options);
  std::printf("%s", desi::SensitivityAnalysis::render(
                        points, from + "--" + to + " reliability")
                        .c_str());
  return 0;
}

int cmd_portfolio(const std::string& path, const Flags& flags) {
  const auto system = desi::XadlLite::from_text(read_file(path));
  const auto objective =
      make_objective(flags.get("objective", "availability"));
  const model::DeploymentModel& m = system->model();
  const model::ConstraintChecker checker(m, system->constraints());

  algo::PortfolioOptions options;
  options.threads = flags.get_u64("threads", 0);
  options.deadline_seconds = flags.get_double("deadline", 0);
  options.max_evaluations = flags.get_u64("max-evals", 0);
  options.seed = flags.get_u64("seed", 1);
  if (system->deployment().complete()) options.initial = system->deployment();

  obs::Registry metrics;
  obs::TraceLog trace;
  const std::string metrics_path = flags.get("metrics-json", "");
  const std::string trace_path = flags.get("trace-json", "");
  if (!metrics_path.empty()) options.instruments.metrics = &metrics;
  if (!trace_path.empty()) options.instruments.trace = &trace;

  std::vector<std::string> lineup;
  std::stringstream list(flags.get("algorithms", ""));
  for (std::string name; std::getline(list, name, ',');)
    if (!name.empty()) lineup.push_back(name);
  if (lineup.empty()) lineup = algo::default_portfolio_lineup();

  const algo::AlgorithmRegistry registry =
      algo::AlgorithmRegistry::with_defaults();
  algo::PortfolioRunner runner(options);
  runner.add_from_registry(registry, lineup);
  const algo::PortfolioResult result = runner.run(m, *objective, checker);

  std::fprintf(stderr, "%-12s %12s %12s %10s\n", "algorithm",
               std::string(objective->name()).c_str(), "evaluations",
               "time[ms]");
  for (const algo::AlgoResult& r : result.runs)
    std::fprintf(stderr, "%-12s %12.4f %12llu %10.1f%s\n",
                 r.algorithm.c_str(), r.value,
                 static_cast<unsigned long long>(r.evaluations),
                 std::chrono::duration<double, std::milli>(r.elapsed).count(),
                 r.budget_exhausted ? "  (budget hit)" : "");
  if (result.deadline_hit)
    std::fprintf(stderr, "deadline hit: stragglers were cancelled\n");
  if (!metrics_path.empty()) write_json_file(metrics_path, metrics.to_json());
  if (!trace_path.empty()) write_json_file(trace_path, trace.to_json());
  if (!result.feasible()) {
    std::fprintf(stderr, "no feasible deployment found\n");
    return 1;
  }
  std::fprintf(stderr, "winner: %s (%s = %.4f)\n",
               result.best.algorithm.c_str(),
               std::string(objective->name()).c_str(), result.best.value);
  system->set_deployment(result.best.deployment);
  std::printf("%s\n", desi::XadlLite::to_text(*system).c_str());
  return 0;
}

int cmd_simulate(const std::string& path, const Flags& flags) {
  const auto system = desi::XadlLite::from_text(read_file(path));
  const auto objective =
      make_objective(flags.get("objective", "availability"));
  const double duration_ms = flags.get_double("duration-ms", 120000);

  core::FrameworkConfig config;
  config.seed = flags.get_u64("seed", 1);
  config.deployer.allow_partial = flags.has("allow-partial");
  core::CentralizedInstantiation inst(*system, config);

  obs::Registry metrics;
  obs::TraceLog trace;
  const std::string metrics_path = flags.get("metrics-json", "");
  const std::string trace_path = flags.get("trace-json", "");
  obs::Instruments instruments;
  if (!metrics_path.empty()) instruments.metrics = &metrics;
  if (!trace_path.empty()) instruments.trace = &trace;
  if (instruments) inst.set_instruments(instruments);

  core::ImprovementLoop::Config loop_config;
  loop_config.interval_ms = flags.get_double("interval-ms", 5000);
  loop_config.adaptive_interval = flags.has("adaptive");
  loop_config.seed = config.seed;
  core::ImprovementLoop loop(inst, *objective, loop_config);
  loop.set_instruments(instruments);

  const double value_before =
      objective->evaluate(system->model(), system->deployment());
  inst.start();
  loop.start();
  inst.simulator().run_until(duration_ms);
  loop.stop();

  if (!metrics_path.empty()) write_json_file(metrics_path, metrics.to_json());
  if (!trace_path.empty()) write_json_file(trace_path, trace.to_json());

  const double value_after =
      objective->evaluate(system->model(), system->deployment());
  const sim::MessageStats& net = inst.network().stats();
  std::fprintf(stderr,
               "simulated %.0f ms: %zu ticks, %zu redeployments applied, "
               "%zu effector rejections, %llu deployer completions, "
               "%llu rounds rolled back, %llu stale acks ignored\n",
               duration_ms, loop.history().size(),
               loop.redeployments_applied(), loop.effector_rejections(),
               static_cast<unsigned long long>(
                   inst.deployer().redeployments_completed()),
               static_cast<unsigned long long>(
                   inst.deployer().rounds_rolled_back()),
               static_cast<unsigned long long>(
                   inst.deployer().stale_acks_ignored()));
  std::fprintf(stderr,
               "network: %llu sent, %llu delivered, %llu dropped, "
               "%llu unroutable\n",
               static_cast<unsigned long long>(net.sent),
               static_cast<unsigned long long>(net.delivered),
               static_cast<unsigned long long>(net.dropped),
               static_cast<unsigned long long>(net.unroutable));
  std::fprintf(stderr, "%s: %.4f -> %.4f\n",
               std::string(objective->name()).c_str(), value_before,
               value_after);
  std::printf("%s\n", desi::XadlLite::to_text(*system).c_str());
  // Exit-code contract: 3 flags a clean run in which at least one
  // redeployment round ended in abort/rollback/partial — atomicity was
  // preserved but the adaptation was not fully applied.
  return inst.deployer().rounds_rolled_back() > 0 ? 3 : 0;
}

/// "A..B" (inclusive range), "a,b,c" (list), or a single number.
std::vector<std::uint64_t> parse_seeds(const std::string& text) {
  std::vector<std::uint64_t> seeds;
  const auto range = text.find("..");
  if (range != std::string::npos) {
    const std::uint64_t lo = parse_u64("seeds", text.substr(0, range));
    const std::uint64_t hi = parse_u64("seeds", text.substr(range + 2));
    if (hi < lo)
      throw std::invalid_argument("empty seed range '" + text + "'");
    for (std::uint64_t s = lo; s <= hi; ++s) seeds.push_back(s);
    return seeds;
  }
  std::stringstream list(text);
  for (std::string item; std::getline(list, item, ',');)
    if (!item.empty()) seeds.push_back(parse_u64("seeds", item));
  if (seeds.empty()) throw std::invalid_argument("no seeds in '" + text + "'");
  return seeds;
}

/// Flags shared by `campaign` and `heal`: generator size, duration,
/// tolerance, graceful degradation, and the self-healing knobs.
void apply_campaign_flags(const Flags& flags, chaos::CampaignConfig& config) {
  config.generator.hosts = flags.get_u64("hosts", config.generator.hosts);
  config.generator.components =
      flags.get_u64("components", config.generator.components);
  if (flags.has("duration-ms"))
    config.scenario.duration_ms = flags.get_double("duration-ms", 0);
  if (flags.has("tolerance"))
    config.availability_tolerance = flags.get_double("tolerance", 0);
  config.allow_partial = flags.has("allow-partial");
  if (flags.has("convergence-window-ms"))
    config.convergence_window_ms = flags.get_double("convergence-window-ms", 0);
  if (flags.has("phi-suspect"))
    config.heal.detector.phi_suspect = flags.get_double("phi-suspect", 0);
  if (flags.has("phi-condemn"))
    config.heal.detector.phi_condemn = flags.get_double("phi-condemn", 0);
}

int cmd_campaign(const Flags& flags) {
  chaos::CampaignConfig config;
  try {
    config.scenario = chaos::scenario_by_name(flags.get("scenario", "mixed"));
    config.seeds = parse_seeds(flags.get("seeds", "0..3"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "difctl campaign: %s\n", e.what());
    return usage();
  }
  apply_campaign_flags(flags, config);
  config.recovery = flags.has("recovery");
  // --centralized / --decentralized restrict to one mode; both (or
  // neither) flags run both.
  if (flags.has("centralized") && !flags.has("decentralized"))
    config.decentralized = false;
  if (flags.has("decentralized") && !flags.has("centralized"))
    config.centralized = false;

  obs::Registry metrics;
  obs::TraceLog trace;
  const std::string metrics_path = flags.get("metrics-json", "");
  const std::string trace_path = flags.get("trace-json", "");
  obs::Instruments instruments;
  if (!metrics_path.empty()) instruments.metrics = &metrics;
  if (!trace_path.empty()) instruments.trace = &trace;

  chaos::CampaignRunner runner(config, instruments);
  const chaos::CampaignReport report = runner.run();

  std::fprintf(stderr, "%-6s %-14s %8s %8s %10s %10s %6s\n", "seed", "mode",
               "faults", "moves", "avail0", "avail1", "viol");
  for (const chaos::RunReport& run : report.runs) {
    std::uint64_t faults = 0;
    for (const auto& [kind, n] : run.faults) faults += n;
    std::fprintf(stderr, "%-6llu %-14s %8llu %8llu %10.4f %10.4f %6zu\n",
                 static_cast<unsigned long long>(run.seed), run.mode.c_str(),
                 static_cast<unsigned long long>(faults),
                 static_cast<unsigned long long>(
                     run.mode == "centralized" ? run.redeployments
                                               : run.migrations),
                 run.initial_availability, run.final_availability,
                 run.violations.size());
    for (const chaos::InvariantViolation& v : run.violations)
      std::fprintf(stderr, "       ! %s: %s\n", v.invariant.c_str(),
                   v.detail.c_str());
  }
  std::fprintf(stderr, "campaign: %zu runs, %zu invariant violations\n",
               report.runs.size(), report.total_violations());

  if (flags.has("json")) {
    const std::string json_path = flags.get("json", "");
    if (json_path.empty())
      std::printf("%s\n", report.to_json().dump(2).c_str());
    else
      write_json_file(json_path, report.to_json());
  }
  if (!metrics_path.empty()) write_json_file(metrics_path, metrics.to_json());
  if (!trace_path.empty()) write_json_file(trace_path, trace.to_json());
  if (!report.ok()) return 1;
  // Exit-code contract: 3 flags a violation-free campaign in which at
  // least one centralized round ended in abort/rollback/partial.
  std::uint64_t rolled = 0;
  for (const chaos::RunReport& run : report.runs)
    for (const char* outcome :
         {"aborted", "rolled_back", "partial", "rollback_failed"}) {
      const auto it = run.txn_outcomes.find(outcome);
      if (it != run.txn_outcomes.end()) rolled += it->second;
    }
  return rolled > 0 ? 3 : 0;
}

int cmd_heal(const Flags& flags) {
  chaos::CampaignConfig config = chaos::recovery_campaign_config();
  try {
    config.scenario =
        chaos::scenario_by_name(flags.get("scenario", "killhost"));
    config.seeds = parse_seeds(flags.get("seeds", "0..3"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "difctl heal: %s\n", e.what());
    return usage();
  }
  apply_campaign_flags(flags, config);

  chaos::CampaignRunner runner(config);
  const chaos::CampaignReport report = runner.run();

  std::fprintf(stderr, "%-6s %8s %8s %8s %8s %10s %12s %6s\n", "seed",
               "suspect", "condemn", "rejoin", "repairs", "mttr_ms",
               "converged", "viol");
  for (const chaos::RunReport& run : report.runs) {
    double suspicions = 0.0;
    if (run.recovery)
      if (const auto s = run.recovery->find("suspicions"))
        suspicions = s->get().as_number();
    std::fprintf(stderr, "%-6llu %8.0f %8llu %8llu %8llu %10.0f %12.0f %6zu\n",
                 static_cast<unsigned long long>(run.seed), suspicions,
                 static_cast<unsigned long long>(run.condemnations),
                 static_cast<unsigned long long>(run.rejoins),
                 static_cast<unsigned long long>(run.recoveries_committed),
                 run.mean_mttr_ms, run.converged_at_ms,
                 run.violations.size());
    for (const chaos::InvariantViolation& v : run.violations)
      std::fprintf(stderr, "       ! %s: %s\n", v.invariant.c_str(),
                   v.detail.c_str());
  }
  std::fprintf(stderr, "heal: %zu runs, %zu invariant violations\n",
               report.runs.size(), report.total_violations());

  if (flags.has("json")) {
    const std::string json_path = flags.get("json", "");
    if (json_path.empty())
      std::printf("%s\n", report.to_json().dump(2).c_str());
    else
      write_json_file(json_path, report.to_json());
  }
  if (!report.ok()) return 1;
  std::uint64_t rolled = 0;
  for (const chaos::RunReport& run : report.runs)
    for (const char* outcome :
         {"aborted", "rolled_back", "partial", "rollback_failed"}) {
      const auto it = run.txn_outcomes.find(outcome);
      if (it != run.txn_outcomes.end()) rolled += it->second;
    }
  return rolled > 0 ? 3 : 0;
}

int cmd_fuzz(const Flags& flags) {
  chaos::FuzzConfig config;
  try {
    config.campaign.scenario =
        chaos::scenario_by_name(flags.get("scenario", "mixed"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "difctl fuzz: %s\n", e.what());
    return usage();
  }
  config.seed = flags.get_u64("seed", 0);
  config.rounds = flags.get_u64("rounds", 1);
  config.shrink_budget = flags.get_u64("shrink-budget", config.shrink_budget);
  config.campaign.generator.hosts =
      flags.get_u64("hosts", config.campaign.generator.hosts);
  config.campaign.generator.components =
      flags.get_u64("components", config.campaign.generator.components);
  if (flags.has("duration-ms"))
    config.campaign.scenario.duration_ms = flags.get_double("duration-ms", 0);
  if (flags.has("rate"))
    config.policy.mutation_rate = flags.get_double("rate", 0);

  chaos::FuzzRunner runner(config);
  const chaos::FuzzReport report = runner.run();

  std::fprintf(stderr, "%-6s %-6s %10s %10s %6s %8s %8s\n", "round", "seed",
               "targeted", "mutations", "viol", "shrunk", "runs");
  for (const chaos::FuzzRound& round : report.rounds) {
    std::fprintf(stderr, "%-6llu %-6llu %10llu %10zu %6zu %8zu %8zu\n",
                 static_cast<unsigned long long>(round.round),
                 static_cast<unsigned long long>(round.seed),
                 static_cast<unsigned long long>(round.targeted),
                 round.mutations.size(), round.report.violations.size(),
                 round.failed ? round.minimal.size() : 0, round.shrink_runs);
    for (const chaos::InvariantViolation& v : round.report.violations)
      std::fprintf(stderr, "       ! %s: %s\n", v.invariant.c_str(),
                   v.detail.c_str());
    if (round.failed)
      for (const chaos::MutationRecord& m : round.minimal)
        std::fprintf(stderr, "       * #%zu %s %s %llu->%llu @%.0fms\n",
                     m.ordinal, std::string(to_string(m.kind)).c_str(),
                     m.event.c_str(), static_cast<unsigned long long>(m.from),
                     static_cast<unsigned long long>(m.to), m.at_ms);
  }
  std::fprintf(stderr, "fuzz: %zu rounds, %zu invariant violations\n",
               report.rounds.size(), report.total_violations());

  if (flags.has("json")) {
    const std::string json_path = flags.get("json", "");
    if (json_path.empty())
      std::printf("%s\n", report.to_json().dump(2).c_str());
    else
      write_json_file(json_path, report.to_json());
  }
  return report.ok() ? 0 : 1;
}

int cmd_check(const std::string& path, const Flags& flags) {
  const auto system = desi::XadlLite::from_text(read_file(path));
  const check::CheckReport report =
      check::run_checks(system->model(), system->constraints());
  if (flags.has("json")) {
    std::printf("%s\n", report.to_json().dump(2).c_str());
  } else {
    std::printf("%s", report.render_text().c_str());
  }
  const bool fail = report.error_count() > 0 ||
                    (flags.has("strict") && report.warning_count() > 0);
  return fail ? 1 : 0;
}

/// A `--plan` file host: a host name string or a numeric host id.
model::HostId plan_host(const util::json::Value& value,
                        const model::DeploymentModel& m) {
  if (value.is_string()) return m.host_by_name(value.as_string());
  return static_cast<model::HostId>(value.as_number());
}

/// Parses {"plan": [{"component": NAME, "to": HOST[, "from": HOST]}, ...]}.
/// An omitted "from" defaults to the component's current placement.
std::vector<check::PlanTask> parse_plan_file(
    const std::string& path, const model::DeploymentModel& m,
    const model::Deployment& current) {
  const util::json::Value doc = util::json::parse(read_file(path));
  const auto plan = doc.find("plan");
  if (!plan || !plan->get().is_array())
    throw std::runtime_error(path + ": expected {\"plan\": [...]}");
  std::vector<check::PlanTask> tasks;
  for (const util::json::Value& entry : plan->get().as_array()) {
    check::PlanTask task;
    task.component = entry.at("component").as_string();
    task.to = plan_host(entry.at("to"), m);
    if (const auto from = entry.find("from")) {
      task.from = plan_host(from->get(), m);
    } else {
      try {
        const model::ComponentId c = m.component_by_name(task.component);
        if (current.is_assigned(c)) task.from = current.host_of(c);
      } catch (const std::out_of_range&) {
        // Unknown component: check_plan reports the dangling reference.
      }
    }
    tasks.push_back(std::move(task));
  }
  return tasks;
}

int cmd_audit(const std::string& path, const Flags& flags) {
  const auto system = desi::XadlLite::from_text(read_file(path));
  const model::DeploymentModel& m = system->model();

  // Selectors compose; with none given, placement + k=1 resilience run.
  bool run_placement = flags.has("placement");
  bool run_resilience = flags.has("resilience-k");
  const bool run_plan = flags.has("plan");
  if (!run_placement && !run_resilience && !run_plan)
    run_placement = run_resilience = true;
  const std::size_t k = flags.get_u64("resilience-k", 1);

  std::vector<std::pair<std::string, check::CheckReport>> sections;
  if (run_placement) {
    const check::AnalysisContext context(m, system->constraints());
    sections.emplace_back(
        "placement",
        check::PlacementAuditor().audit(context, system->deployment()));
  }
  if (run_resilience) {
    check::ResilienceOptions options;
    options.max_failures = k;
    sections.emplace_back("resilience", check::ResilienceProver(options).prove(
                                            m, system->deployment()));
  }
  if (run_plan) {
    const auto plan = parse_plan_file(flags.get("plan", ""), m,
                                      system->deployment());
    sections.emplace_back(
        "plan", check::check_plan(m, system->constraints(),
                                  system->deployment(), plan));
  }

  std::size_t errors = 0;
  std::size_t warnings = 0;
  for (const auto& [name, report] : sections) {
    errors += report.error_count();
    warnings += report.warning_count();
  }

  if (flags.has("json")) {
    util::json::Object doc;
    doc["schema"] = util::json::Value(std::string("dif-audit-v1"));
    for (const auto& [name, report] : sections)
      doc[name] = report.to_json();
    if (run_resilience)
      doc["resilience_k"] = util::json::Value(static_cast<double>(k));
    doc["errors"] = util::json::Value(static_cast<double>(errors));
    doc["warnings"] = util::json::Value(static_cast<double>(warnings));
    doc["ok"] = util::json::Value(errors == 0);
    std::printf("%s\n", util::json::Value(std::move(doc)).dump(2).c_str());
  } else {
    for (const auto& [name, report] : sections)
      std::printf("== %s ==\n%s", name.c_str(),
                  report.clean() ? "clean\n" : report.render_text().c_str());
    std::printf("audit: %zu error(s), %zu warning(s)\n", errors, warnings);
  }
  const bool fail =
      errors > 0 || (flags.has("strict") && warnings > 0);
  return fail ? 1 : 0;
}

int cmd_traffic(const Flags& flags) {
  traffic::RunOptions opts;
  opts.generator.hosts = flags.get_u64("hosts", 8);
  opts.generator.components = flags.get_u64("components", 24);
  opts.seed = flags.get_u64("seed", 1);
  opts.duration_ms = flags.get_double("duration-ms", 60000);
  opts.scenario = flags.get("scenario", "none");
  try {
    if (opts.scenario != "none")
      (void)chaos::scenario_by_name(opts.scenario);
    opts.engine.arrival =
        traffic::arrival_by_name(flags.get("arrival", "open"));
    opts.engine.shape = traffic::shape_by_name(flags.get("shape", "flat"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "difctl traffic: %s\n", e.what());
    return usage();
  }
  opts.engine.rps = flags.get_double("rps", 200);
  opts.engine.closed_users = flags.get_u64("users", 64);
  opts.engine.think_ms = flags.get_double("think-ms", 200);
  opts.ratekeeper.slo_p99_ms = flags.get_double("slo-p99-ms", 250);
  opts.ratekeeper.enabled = !flags.has("no-ratekeeper");
  opts.redeploy_at_ms = flags.get_double("redeploy-at-ms", 0);
  opts.redeploy_every_ms = flags.get_double("redeploy-every-ms", 10000);
  opts.redeploy_moves = flags.get_u64("moves", 2);
  opts.recovery = flags.has("recovery");
  if (flags.has("phi-suspect"))
    opts.heal.detector.phi_suspect = flags.get_double("phi-suspect", 0);
  if (flags.has("phi-condemn"))
    opts.heal.detector.phi_condemn = flags.get_double("phi-condemn", 0);

  // Tenant tags: t0 is the heavy tenant (double weight); every budget is
  // 1.2x the fair share, so the noisy neighbour sits over budget while the
  // rest keep comfortable headroom.
  const std::uint64_t tenant_count = std::max<std::uint64_t>(
      1, flags.get_u64("tenants", 2));
  const double budget =
      std::min(1.0, 1.2 / static_cast<double>(tenant_count));
  for (std::uint64_t t = 0; t < tenant_count; ++t)
    opts.engine.tenants.push_back(
        {std::string("t").append(std::to_string(t)), t == 0 ? 2.0 : 1.0,
         budget});

  const traffic::RunResult result = traffic::run_traffic(opts);

  const std::string metrics_path = flags.get("metrics-json", "");
  if (!metrics_path.empty()) write_json_file(metrics_path, result.metrics);
  if (flags.has("json")) {
    const std::string json_path = flags.get("json", "");
    if (json_path.empty())
      std::printf("%s\n", result.report.dump(2).c_str());
    else
      write_json_file(json_path, result.report);
  } else {
    std::printf("%s\n", result.report.dump(2).c_str());
  }

  std::fprintf(stderr,
               "traffic: %llu offered, %llu completed, %llu failed, "
               "%llu shed; %.0f ms in SLO violation; %llu rounds "
               "(%llu committed, %llu rolled back), %llu migrations\n",
               static_cast<unsigned long long>(result.offered),
               static_cast<unsigned long long>(result.completed),
               static_cast<unsigned long long>(result.failed),
               static_cast<unsigned long long>(result.shed),
               result.slo_violation_ms,
               static_cast<unsigned long long>(result.rounds),
               static_cast<unsigned long long>(result.committed),
               static_cast<unsigned long long>(result.rolled_back),
               static_cast<unsigned long long>(result.migrations));
  // Exit-code contract mirrors simulate/campaign: 3 flags a clean run in
  // which user-facing SLO was breached or an adaptation was not fully
  // applied — degraded, not broken.
  return result.slo_violation_ms > 0.0 || result.rolled_back > 0 ? 3 : 0;
}

int cmd_tables(const std::string& path) {
  const auto system = desi::XadlLite::from_text(read_file(path));
  std::printf("== hosts ==\n%s\n== components ==\n%s\n== links ==\n%s\n"
              "== interactions ==\n%s\n== constraints ==\n%s",
              desi::TableView::render_hosts(*system).c_str(),
              desi::TableView::render_components(*system).c_str(),
              desi::TableView::render_links(*system).c_str(),
              desi::TableView::render_interactions(*system).c_str(),
              desi::TableView::render_constraints(*system).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "generate") return cmd_generate(Flags(argc, argv, 2));
    if (command == "campaign") return cmd_campaign(Flags(argc, argv, 2));
    if (command == "heal") return cmd_heal(Flags(argc, argv, 2));
    if (command == "fuzz") return cmd_fuzz(Flags(argc, argv, 2));
    if (command == "traffic") return cmd_traffic(Flags(argc, argv, 2));
    if (argc < 3) return usage();
    const std::string path = argv[2];
    if (command == "evaluate") return cmd_evaluate(path);
    if (command == "improve") return cmd_improve(path, Flags(argc, argv, 3));
    if (command == "render") return cmd_render(path, Flags(argc, argv, 3));
    if (command == "tables") return cmd_tables(path);
    if (command == "sweep") return cmd_sweep(path, Flags(argc, argv, 3));
    if (command == "portfolio")
      return cmd_portfolio(path, Flags(argc, argv, 3));
    if (command == "check") return cmd_check(path, Flags(argc, argv, 3));
    if (command == "audit") return cmd_audit(path, Flags(argc, argv, 3));
    if (command == "simulate")
      return cmd_simulate(path, Flags(argc, argv, 3));
    return usage();
  } catch (const UsageError& e) {
    std::fprintf(stderr, "difctl: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "difctl: %s\n", e.what());
    return 1;
  }
}
