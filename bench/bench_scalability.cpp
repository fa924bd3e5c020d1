// E2 — Scalability frontier (paper Sections 2 and 5.1), fleet-scale edition.
//
// The paper motivates approximative algorithms with the exponential cost of
// exact search: O(k^n) for Exact vs polynomial Stochastic/Avala. The original
// E2 sweep stopped at 16x192; this harness pushes the frontier to fleet scale
// (default largest point: 1024 hosts x 10240 components) and scores the three
// hot paths that make that size tractable:
//
//  * the SoA incremental evaluator (incremental.moves_per_s) — a move streams
//    through flat CSR adjacency instead of chasing interaction structs;
//  * the batched simulator dispatch (sim.events_per_s) — same-timestamp event
//    runs drain in one heap pop batch;
//  * warm-started re-optimization (reopt.*) — after a single-host link
//    fluctuation, a warm hillclimb re-optimizes only the dirty neighbourhood
//    and must spend measurably fewer evaluations than a cold rerun.
//
// Emits a dif-bench-v1 JSON report; BENCH_scalability.json is the committed
// baseline. ci.sh gates the pinned throughputs against collapse and requires
// the deterministic reopt.* figures to equal the baseline exactly.
//
//   bench_scalability [--sizes KxN,KxN,...] [--iters I] [--seed S]
//                     [--json PATH]
#include "bench_common.h"

#include "model/incremental.h"
#include "sim/simulator.h"
#include "util/json.h"

namespace dif::bench {
namespace {

/// Generates one sweep system. Densities scale as ~8/size so node degree
/// stays constant across the sweep — the fleet-scale points test growth in
/// entities, not a quadratic blowup in edges.
std::unique_ptr<desi::SystemData> make_system(const SizePoint& size,
                                              std::uint64_t seed) {
  desi::GeneratorSpec spec;
  spec.hosts = size.hosts;
  spec.components = size.components;
  spec.interaction_density =
      std::min(1.0, 8.0 / static_cast<double>(size.components));
  spec.link_density = std::min(1.0, 8.0 / static_cast<double>(size.hosts));
  return desi::Generator::generate(spec, seed);
}

/// SoA evaluator throughput: a deterministic stream of single-component
/// moves through the incremental objective on the largest sweep system.
util::json::Value bench_incremental_moves(const desi::SystemData& system,
                                          std::size_t iters) {
  const model::AvailabilityObjective availability;
  auto eval = model::IncrementalEvaluator::try_create(availability,
                                                      system.model());
  if (!eval) return scalar_metric(0.0, "moves/s");
  const std::size_t n = system.model().component_count();
  const std::size_t k = system.model().host_count();
  constexpr std::size_t kMoves = 1'000'000;
  volatile double sink = 0.0;
  const auto samples = time_runs(iters, [&] {
    eval->reset(system.deployment());
    for (std::size_t i = 0; i < kMoves; ++i) {
      eval->apply(static_cast<model::ComponentId>(i % n),
                  static_cast<model::HostId>((i * 31) % k));
    }
    sink = eval->value();
  });
  (void)sink;
  return metric(samples, "moves/s", static_cast<double>(kMoves));
}

/// Batched dispatch throughput: many same-timestamp event runs, the exact
/// shape the network layer produces under load (bursts of deliveries per
/// simulated instant).
util::json::Value bench_sim_events(std::size_t iters) {
  constexpr std::size_t kTimestamps = 2'000;
  constexpr std::size_t kPerTimestamp = 100;
  constexpr std::size_t kEvents = kTimestamps * kPerTimestamp;
  const auto samples = time_runs(iters, [&] {
    sim::Simulator simulator;
    std::uint64_t fired = 0;
    for (std::size_t t = 0; t < kTimestamps; ++t)
      for (std::size_t j = 0; j < kPerTimestamp; ++j)
        simulator.schedule_at(static_cast<sim::TimePoint>(t),
                              [&fired] { ++fired; });
    simulator.run();
    if (fired != kEvents) std::abort();  // dispatch lost events
  });
  return metric(samples, "events/s", static_cast<double>(kEvents));
}

void run(int argc, char** argv) {
  BenchArgs defaults;
  defaults.iters = 5;
  defaults.seed = 99;
  defaults.sizes = {{16, 192}, {64, 640}, {256, 2'560}, {1'024, 10'240}};
  const BenchArgs args = BenchArgs::parse(argc, argv, defaults);

  header("E2", "running time vs system size, to fleet scale",
         "Exact O(k^n) explodes past ~15 components; the approximative "
         "algorithms plus SoA/batched/warm-started hot paths keep a "
         "1k-host / 10k-component sweep point inside the time budget");

  const algo::AlgorithmRegistry registry =
      algo::AlgorithmRegistry::with_defaults();
  const model::AvailabilityObjective availability;
  constexpr double kTimeBudgetSeconds = 0.8;

  const std::vector<std::string> algorithms = {"avala", "stochastic",
                                               "hillclimb", "genetic",
                                               "decap"};

  util::json::Object metrics;
  util::Table table({"hosts", "comps", "algorithm", "time", "evals",
                     "availability", "note"});
  const SizePoint largest = args.sizes.empty() ? SizePoint{16, 192}
                                               : args.sizes.back();
  std::unique_ptr<desi::SystemData> largest_system;
  for (const SizePoint& size : args.sizes) {
    std::fprintf(stderr, "generating %zux%zu...\n", size.hosts,
                 size.components);
    auto system = make_system(size, args.seed);
    // Exact stays inside the paper's ~5-host/~15-component envelope; running
    // it at fleet scale would just burn the whole budget to report "budget
    // exhausted" at every size.
    std::vector<std::string> lineup = algorithms;
    if (size.hosts <= 6 && size.components <= 24)
      lineup.insert(lineup.begin(), "exact");
    for (const std::string& name : lineup) {
      std::fprintf(stderr, "[running %zux%zu %s]\n", size.hosts,
                   size.components, name.c_str());
      const model::ConstraintChecker checker(system->model(),
                                             system->constraints());
      algo::AlgoOptions options;
      options.seed = args.seed;
      options.initial = system->deployment();
      options.time_budget_seconds = kTimeBudgetSeconds;
      const double start = now_ms();
      const algo::AlgoResult result = registry.create(name)->run(
          system->model(), availability, checker, options);
      const double wall_ms = now_ms() - start;
      table.add_row(
          {std::to_string(size.hosts), std::to_string(size.components), name,
           util::fmt_duration_ns(static_cast<double>(result.elapsed.count())),
           std::to_string(result.evaluations),
           result.feasible ? util::fmt(result.value, 4) : "-",
           result.budget_exhausted ? "TIME BUDGET EXHAUSTED" : ""});
      if (size.hosts == largest.hosts &&
          size.components == largest.components) {
        metrics["sweep." + name + ".wall_ms"] =
            scalar_metric(wall_ms, "ms");
        metrics["sweep." + name + ".evaluations"] =
            scalar_metric(static_cast<double>(result.evaluations), "evals");
      }
    }
    if (size.hosts == largest.hosts && size.components == largest.components)
      largest_system = std::move(system);
  }
  std::printf("%s\n", table.render().c_str());

  // --- hot-path microbenches + warm re-optimization, at the frontier ------
  if (largest_system) {
    desi::SystemData& system = *largest_system;
    std::fprintf(stderr, "[microbench: incremental moves]\n");
    metrics["incremental.moves_per_s"] =
        bench_incremental_moves(system, args.iters);
    std::fprintf(stderr, "[microbench: simulator batched dispatch]\n");
    metrics["sim.events_per_s"] = bench_sim_events(args.iters);

    // Warm-vs-cold re-optimization after a single-host fluctuation. First
    // settle the placement near a local optimum (so remaining improvements
    // are confined to the perturbed neighbourhood) under an evaluation cap,
    // so every reopt.* figure is a function of the seed alone, then halve the
    // reliability of every link incident to host 0 (feasibility is
    // untouched — only the objective landscape moves) and re-optimize from
    // the settled placement both ways under the same evaluation cap. Warm
    // hands the algorithm the components on the fluctuated host as the
    // dirty set; it should converge well below the cap the cold full-
    // neighbourhood rerun exhausts.
    std::fprintf(stderr, "[reopt: settle + perturb + warm/cold rerun]\n");
    const model::ConstraintChecker checker(system.model(),
                                           system.constraints());
    algo::AlgoOptions settle;
    settle.seed = args.seed;
    settle.initial = system.deployment();
    settle.max_evaluations = 6'000'000;
    const algo::AlgoResult settled = registry.create("hillclimb")->run(
        system.model(), availability, checker, settle);
    const model::Deployment base =
        settled.feasible ? settled.deployment : system.deployment();

    model::DeploymentModel& m = system.model();
    const model::HostId fluctuated = 0;
    // Rescaling a stored link's reliability leaves it stored, so the row
    // stays valid while it is walked.
    for (const model::HostId h : m.physical_neighbors(fluctuated)) {
      const double reliability = m.physical_link(fluctuated, h).reliability;
      if (reliability > 0.0)
        m.set_link_reliability(fluctuated, h, reliability * 0.5);
    }
    std::vector<model::ComponentId> dirty;
    for (std::size_t c = 0; c < base.size(); ++c)
      if (base.host_of(static_cast<model::ComponentId>(c)) == fluctuated)
        dirty.push_back(static_cast<model::ComponentId>(c));

    // Evaluation caps, not wall-clock: the comparison must be a property of
    // the search structure, not of scheduler noise.
    algo::AlgoOptions cold;
    cold.seed = args.seed + 1;
    cold.initial = base;
    cold.max_evaluations = 1'500'000;
    const algo::AlgoResult cold_result = registry.create("hillclimb")->run(
        m, availability, checker, cold);

    algo::AlgoOptions warm = cold;
    warm.warm_start = true;
    warm.dirty_components = dirty;
    const algo::AlgoResult warm_result = registry.create("hillclimb")->run(
        m, availability, checker, warm);

    metrics["reopt.dirty_components"] =
        scalar_metric(static_cast<double>(dirty.size()), "components");
    metrics["reopt.cold_evaluations"] = scalar_metric(
        static_cast<double>(cold_result.evaluations), "evals");
    metrics["reopt.warm_evaluations"] = scalar_metric(
        static_cast<double>(warm_result.evaluations), "evals");
    metrics["reopt.warm_value"] =
        scalar_metric(warm_result.feasible ? warm_result.value : 0.0,
                      "availability");
    metrics["reopt.cold_value"] =
        scalar_metric(cold_result.feasible ? cold_result.value : 0.0,
                      "availability");
    std::printf("reopt at %zux%zu: cold %llu evals, warm %llu evals "
                "(%zu dirty components)\n",
                largest.hosts, largest.components,
                static_cast<unsigned long long>(cold_result.evaluations),
                static_cast<unsigned long long>(warm_result.evaluations),
                dirty.size());
  }

  util::json::Object config;
  std::string sizes_str;
  for (const SizePoint& size : args.sizes) {
    if (!sizes_str.empty()) sizes_str += ',';
    sizes_str +=
        std::to_string(size.hosts) + 'x' + std::to_string(size.components);
  }
  config["sizes"] = util::json::Value(sizes_str);
  config["iters"] = util::json::Value(static_cast<double>(args.iters));
  config["seed"] = util::json::Value(static_cast<double>(args.seed));
  config["time_budget_s"] = util::json::Value(kTimeBudgetSeconds);

  emit_report("scalability", std::move(config), std::move(metrics),
              {"incremental.moves_per_s", "sim.events_per_s"},
              args.json_path);
}

}  // namespace
}  // namespace dif::bench

int main(int argc, char** argv) { dif::bench::run(argc, argv); }
