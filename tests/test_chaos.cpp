// Chaos layer: scenario presets, deterministic fault-schedule compilation,
// the injector's inject/heal lifecycle, per-link drop accounting, and the
// end-to-end campaign runner's invariant checking, swept over every
// scenario preset (chaos/scenario.h, chaos/fault_schedule.h,
// chaos/campaign.h).
#include "chaos/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "chaos/fault_schedule.h"
#include "chaos/scenario.h"
#include "desi/generator.h"
#include "util/json.h"

namespace dif::chaos {
namespace {

TEST(Scenario, PresetsResolveByName) {
  for (const std::string& name : scenario_names()) {
    const ScenarioSpec spec = scenario_by_name(name);
    EXPECT_EQ(spec.name, name);
  }
  EXPECT_THROW(scenario_by_name("no-such-scenario"), std::invalid_argument);
}

TEST(Scenario, QuietHasNoFaults) {
  const ScenarioSpec quiet = scenario_by_name("quiet");
  EXPECT_EQ(quiet.partitions + quiet.loss_bursts + quiet.degradations +
                quiet.crashes + quiet.noise_bursts,
            0u);
}

desi::GeneratorSpec small_system() {
  desi::GeneratorSpec spec;
  spec.hosts = 5;
  spec.components = 10;
  spec.link_density = 0.5;
  spec.interaction_density = 0.3;
  return spec;
}

TEST(FaultSchedule, CompilationIsDeterministic) {
  const auto system = desi::Generator::generate(small_system(), 11);
  const ScenarioSpec spec = scenario_by_name("mixed");
  const FaultSchedule one = FaultSchedule::compile(spec, system->model(), 0, 3);
  const FaultSchedule two = FaultSchedule::compile(spec, system->model(), 0, 3);
  ASSERT_EQ(one.actions().size(), two.actions().size());
  for (std::size_t i = 0; i < one.actions().size(); ++i) {
    EXPECT_EQ(one.actions()[i].kind, two.actions()[i].kind);
    EXPECT_EQ(one.actions()[i].at_ms, two.actions()[i].at_ms);
    EXPECT_EQ(one.actions()[i].duration_ms, two.actions()[i].duration_ms);
    EXPECT_EQ(one.actions()[i].a, two.actions()[i].a);
    EXPECT_EQ(one.actions()[i].b, two.actions()[i].b);
  }
  // A different seed draws a different concrete schedule.
  const FaultSchedule other =
      FaultSchedule::compile(spec, system->model(), 0, 4);
  bool differs = other.actions().size() != one.actions().size();
  for (std::size_t i = 0; !differs && i < one.actions().size(); ++i)
    differs = one.actions()[i].at_ms != other.actions()[i].at_ms ||
              one.actions()[i].a != other.actions()[i].a ||
              one.actions()[i].b != other.actions()[i].b;
  EXPECT_TRUE(differs);
}

TEST(FaultSchedule, ActionsRespectWindowTopologyAndMaster) {
  const auto system = desi::Generator::generate(small_system(), 11);
  const model::DeploymentModel& m = system->model();
  const ScenarioSpec spec = scenario_by_name("mixed");
  const FaultSchedule schedule = FaultSchedule::compile(spec, m, 0, 3);
  EXPECT_FALSE(schedule.actions().empty());
  for (const FaultAction& action : schedule.actions()) {
    EXPECT_GE(action.at_ms, spec.fault_from_ms);
    EXPECT_LE(action.at_ms + action.duration_ms, spec.fault_until_ms);
    if (action.kind == FaultKind::kCrash) {
      EXPECT_NE(action.a, 0u);  // crash_master defaults to false
    } else {
      EXPECT_LT(action.a, action.b);  // canonical link endpoints
      EXPECT_TRUE(m.connected(action.a, action.b));
    }
  }
  EXPECT_TRUE(std::is_sorted(
      schedule.actions().begin(), schedule.actions().end(),
      [](const FaultAction& x, const FaultAction& y) {
        return x.at_ms < y.at_ms;
      }));
}

TEST(FaultInjector, PartitionInjectsAndHeals) {
  auto system = desi::Generator::generate(small_system(), 11);
  core::CentralizedInstantiation inst(*system, {});
  ScenarioSpec spec = scenario_by_name("partitions");
  const FaultSchedule schedule =
      FaultSchedule::compile(spec, system->model(), 0, 3);
  ASSERT_FALSE(schedule.actions().empty());
  FaultInjector injector(inst, {});
  injector.arm(schedule);

  const FaultAction& first = schedule.actions().front();
  // Mid-fault: the link is severed; after the heal it carries traffic again.
  inst.simulator().run_until(first.at_ms + 1.0);
  EXPECT_TRUE(inst.network().link(first.a, first.b).severed);
  inst.simulator().run_until(spec.fault_until_ms + 1.0);
  EXPECT_FALSE(inst.network().link(first.a, first.b).severed);
  EXPECT_GT(injector.injected().at("partition"), 0u);
}

TEST(FaultInjector, CrashedHostRestarts) {
  auto system = desi::Generator::generate(small_system(), 11);
  core::CentralizedInstantiation inst(*system, {});
  ScenarioSpec spec = scenario_by_name("crashes");
  const FaultSchedule schedule =
      FaultSchedule::compile(spec, system->model(), 0, 3);
  ASSERT_FALSE(schedule.actions().empty());
  FaultInjector injector(inst, {});
  injector.arm(schedule);

  const FaultAction& crash = schedule.actions().front();
  ASSERT_EQ(crash.kind, FaultKind::kCrash);
  inst.simulator().run_until(crash.at_ms + 1.0);
  EXPECT_TRUE(inst.admin(crash.a).crashed());
  inst.simulator().run_until(spec.fault_until_ms + 1.0);
  EXPECT_FALSE(inst.admin(crash.a).crashed());
  EXPECT_EQ(injector.injected().at("crash"), schedule.actions().size());
}

TEST(Network, PerLinkDropSharesMatchTotal) {
  sim::Simulator sim;
  sim::SimNetwork net(sim, 3, /*seed=*/1);
  net.set_link(0, 1, {.reliability = 0.5, .bandwidth = 1000.0,
                      .delay_ms = 1.0});
  net.set_link(1, 2, {.reliability = 0.9, .bandwidth = 1000.0,
                      .delay_ms = 1.0});
  for (int i = 0; i < 400; ++i) {
    net.send({.from = 0, .to = 1, .channel = "t", .payload = {},
              .size_kb = 0.1});
    net.send({.from = 1, .to = 2, .channel = "t", .payload = {},
              .size_kb = 0.1});
  }
  sim.run_until(10'000.0);
  std::uint64_t per_link = 0;
  for (const sim::LinkDrops& link : net.dropped_links())
    per_link += link.dropped;
  EXPECT_EQ(per_link, net.stats().dropped);
  // The lossier link accounts for visibly more of the total.
  EXPECT_GT(net.link_dropped(0, 1), net.link_dropped(1, 2));
  EXPECT_GT(net.link_dropped(1, 2), 0u);
}

TEST(Campaign, RunIsCleanAndReportsDeterministically) {
  CampaignConfig config;
  config.seeds = {3};
  CampaignRunner runner(config);
  const CampaignReport report = runner.run();
  ASSERT_EQ(report.runs.size(), 2u);  // centralized + decentralized
  EXPECT_EQ(report.total_violations(), 0u);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.runs[0].mode, "centralized");
  EXPECT_EQ(report.runs[1].mode, "decentralized");
  for (const RunReport& run : report.runs) {
    EXPECT_EQ(run.seed, 3u);
    EXPECT_GT(run.actions_scheduled, 0u);
    EXPECT_GT(run.net_sent, 0u);
    EXPECT_GT(run.initial_availability, 0.0);
  }

  // Same config, fresh runner: the serialized report is byte-identical.
  CampaignRunner again(config);
  EXPECT_EQ(report.to_json().dump(2), again.run().to_json().dump(2));

  const util::json::Value doc = report.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), "dif-campaign-v1");
  EXPECT_EQ(doc.at("total_runs").as_number(), 2.0);
}

// Known-bad rows of the sweep below, asserted as EXPECTED failures: these
// centralized runs converge below their initial availability, so paper
// claim 3 fails on them. Each must keep failing on exactly this invariant;
// the day a fix makes one hold, its row fails here and must be unpinned.
using SweepRow = std::tuple<std::string, std::uint64_t, std::string,
                            std::string>;  // scenario, seed, mode, invariant
const std::set<SweepRow> kPinnedViolations = {
    {"partitions", 5, "centralized", "availability"},  // 0.5497 < 0.8363
    {"loss", 4, "centralized", "availability"},        // 0.5197 < 0.5378
    {"noise", 4, "centralized", "availability"},       // 0.4677 < 0.5378
    {"killhost", 5, "centralized", "availability"},    // 0.8207 < 0.8363
};

// Every scenario preset at the default 5x14 size, seeds 0..7, both
// instantiations: every invariant holds on every run (bar the pinned rows),
// every run ends with some availability, and the report is deterministic.
class ScenarioSweep : public ::testing::Test {
 public:
  explicit ScenarioSweep(std::string scenario)
      : scenario_(std::move(scenario)) {}

  void TestBody() override {
    CampaignConfig config;
    config.scenario = scenario_by_name(scenario_);
    config.seeds = {0, 1, 2, 3, 4, 5, 6, 7};
    const CampaignReport report = CampaignRunner(config).run();
    ASSERT_EQ(report.runs.size(), 16u);

    std::set<SweepRow> expected;
    for (const SweepRow& row : kPinnedViolations)
      if (std::get<0>(row) == scenario_) expected.insert(row);
    std::set<SweepRow> seen;
    std::uint64_t txn_rounds = 0;
    for (const RunReport& run : report.runs) {
      EXPECT_GT(run.final_availability, 0.0)
          << "seed " << run.seed << " " << run.mode;
      for (const auto& [outcome, n] : run.txn_outcomes) txn_rounds += n;
      for (const InvariantViolation& v : run.violations) {
        const SweepRow row{scenario_, run.seed, run.mode, v.invariant};
        seen.insert(row);
        EXPECT_TRUE(expected.count(row))
            << "seed " << run.seed << " " << run.mode << ": " << v.invariant
            << ": " << v.detail;
      }
    }
    for (const SweepRow& row : expected)
      EXPECT_TRUE(seen.count(row))
          << "seed " << std::get<1>(row) << " " << std::get<2>(row)
          << " no longer violates " << std::get<3>(row)
          << ": the defect appears fixed — unpin this row";

    if (scenario_ == "midmigration") {
      EXPECT_GT(txn_rounds, 0u) << "no transactional round closed";
    }
    if (scenario_ == "mixed" || scenario_ == "midmigration") {
      EXPECT_EQ(report.to_json().dump(2),
                CampaignRunner(config).run().to_json().dump(2));
    }
  }

 private:
  std::string scenario_;
};

// The claim-3 scoreboard: the quiet preset past the 5x14 default, seeds
// 1..4, in both instantiations, pinned as the code behaves today. Each row
// pins the committed transactional rounds and the invariants the run
// breaks, in report order. Centralized rounds commit nowhere yet, and
// three centralized runs break an invariant; the decentralized auction runs
// no transactional rounds and holds every invariant. A fix that changes a
// run flips its row here, in plain view.
struct ScoreboardRow {
  std::size_t hosts;
  std::size_t components;
  std::string mode;
  std::uint64_t seed;
  std::uint64_t committed;
  std::vector<std::string> violations;
};
const std::vector<ScoreboardRow> kScoreboard = {
    // availability initial -> final in the comments
    {8, 32, "centralized", 1, 0, {"census"}},  // 0.4939 -> 0.5533, comp26 x2
    {8, 32, "centralized", 2, 0, {}},          // 0.4960 -> 0.5305
    {8, 32, "centralized", 3, 0, {}},          // 0.4873 -> 0.5863
    {8, 32, "centralized", 4, 0, {}},          // 0.6136 -> 0.6136
    {8, 32, "decentralized", 1, 0, {}},        // 0.4939 -> 0.9655
    {8, 32, "decentralized", 2, 0, {}},        // 0.4960 -> 0.8788
    {8, 32, "decentralized", 3, 0, {}},        // 0.4873 -> 0.8730
    {8, 32, "decentralized", 4, 0, {}},        // 0.6136 -> 0.9761
    {16, 64, "centralized", 1, 0, {}},         // 0.5326 -> 0.5326
    {16, 64, "centralized", 2, 0, {"availability"}},  // 0.6158 -> 0.6127
    {16, 64, "centralized", 3, 0, {}},                // 0.4684 -> 0.4684
    {16, 64, "centralized", 4, 0, {"census"}},  // 0.4497 -> 0, comp1 lost
    {16, 64, "decentralized", 1, 0, {}},        // 0.5326 -> 0.7211
    {16, 64, "decentralized", 2, 0, {}},        // 0.6158 -> 0.8792
    {16, 64, "decentralized", 3, 0, {}},        // 0.4684 -> 0.8089
    {16, 64, "decentralized", 4, 0, {}},        // 0.4497 -> 0.7848
};

class Scoreboard : public ::testing::Test {
 public:
  Scoreboard(std::size_t hosts, std::size_t components, std::string mode)
      : hosts_(hosts), components_(components), mode_(std::move(mode)) {}

  void TestBody() override {
    CampaignConfig config;
    config.scenario = scenario_by_name("quiet");
    config.seeds = {1, 2, 3, 4};
    config.generator.hosts = hosts_;
    config.generator.components = components_;
    config.centralized = mode_ == "centralized";
    config.decentralized = mode_ == "decentralized";
    const CampaignReport report = CampaignRunner(config).run();
    ASSERT_EQ(report.runs.size(), config.seeds.size());
    for (const RunReport& run : report.runs) {
      const auto row = std::find_if(
          kScoreboard.begin(), kScoreboard.end(), [&](const auto& r) {
            return r.hosts == hosts_ && r.components == components_ &&
                   r.mode == run.mode && r.seed == run.seed;
          });
      ASSERT_NE(row, kScoreboard.end()) << run.mode << " seed " << run.seed;
      const auto committed = run.txn_outcomes.find("committed");
      EXPECT_EQ(committed == run.txn_outcomes.end() ? 0 : committed->second,
                row->committed)
          << run.mode << " seed " << run.seed << ": committed rounds changed";
      std::vector<std::string> broken;
      for (const InvariantViolation& v : run.violations)
        broken.push_back(v.invariant);
      EXPECT_EQ(broken, row->violations)
          << run.mode << " seed " << run.seed << ": broken invariants changed";
    }
  }

 private:
  std::size_t hosts_;
  std::size_t components_;
  std::string mode_;
};

// One Campaign.ScenarioSweep/<preset> test per preset, and one
// Campaign.ScenarioSweep/quiet/<size>/<mode> test per scoreboard size and
// mode, registered at static initialization like TEST() itself. Names
// carry no '-': a gtest filter reads it as the start of an exclusion.
[[maybe_unused]] const bool kScenarioSweepRegistered = [] {
  for (const std::string& name : scenario_names())
    ::testing::RegisterTest(
        "Campaign", ("ScenarioSweep/" + name).c_str(), nullptr, nullptr,
        __FILE__, __LINE__,
        [name]() -> ::testing::Test* { return new ScenarioSweep(name); });
  for (const std::size_t hosts : {std::size_t{8}, std::size_t{16}})
    for (const std::string mode : {"centralized", "decentralized"})
      ::testing::RegisterTest(
          "Campaign",
          ("ScenarioSweep/quiet/" + std::to_string(hosts) + "x" +
           std::to_string(4 * hosts) + "/" + mode)
              .c_str(),
          nullptr, nullptr, __FILE__, __LINE__,
          [hosts, mode]() -> ::testing::Test* {
            return new Scoreboard(hosts, 4 * hosts, mode);
          });
  return true;
}();

}  // namespace
}  // namespace dif::chaos
