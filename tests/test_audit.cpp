// Defect corpus for the artifact auditors (check/audit.h,
// check/resilience.h, check/plan_check.h) and the deployer's plan
// preflight gate.
//
// Mirrors test_check.cpp's discipline: every rule gets a seeded-positive
// artifact it must flag (with the correct rule id and witness) and a
// near-miss negative it must stay silent on. The last section proves the
// static/dynamic agreement property: a placement the auditor passes never
// trips the campaign invariants on a fault-free run.
#include "check/audit.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "chaos/campaign.h"
#include "check/plan_check.h"
#include "check/resilience.h"
#include "desi/generator.h"
#include "model/constraints.h"
#include "model/deployment.h"
#include "model/deployment_model.h"
#include "prism/architecture.h"
#include "prism/deployer.h"
#include "util/json.h"
#include "test_names.h"

namespace dif::check {
namespace {

using model::ComponentId;
using model::ConstraintSet;
using model::Deployment;
using model::DeploymentModel;
using model::HostId;

/// k fully-connected hosts (mem 100) and n components (mem 10).
DeploymentModel make_model(std::size_t hosts, std::size_t comps,
                          double host_mem = 100.0, double comp_mem = 10.0) {
  DeploymentModel m;
  for (std::size_t h = 0; h < hosts; ++h)
    m.add_host({.name = test::numbered("h", h), .memory_capacity = host_mem});
  for (std::size_t c = 0; c < comps; ++c)
    m.add_component(
        {.name = test::numbered("c", c), .memory_size = comp_mem});
  for (std::size_t a = 0; a < hosts; ++a)
    for (std::size_t b = a + 1; b < hosts; ++b)
      m.set_physical_link(static_cast<HostId>(a), static_cast<HostId>(b),
                          {.reliability = 0.9, .bandwidth = 100.0});
  return m;
}

std::size_t errors_of(const CheckReport& report, Rule rule) {
  std::size_t n = 0;
  for (const Diagnostic& d : report.diagnostics())
    if (d.rule == rule && d.severity == Severity::kError) ++n;
  return n;
}

/// First diagnostic of `rule`, or nullptr.
const Diagnostic* find_rule(const CheckReport& report, Rule rule) {
  for (const Diagnostic& d : report.diagnostics())
    if (d.rule == rule) return &d;
  return nullptr;
}

// --- placement-capacity ----------------------------------------------------

TEST(AuditCapacity, FlagsOversubscribedHostWithResidentWitness) {
  const DeploymentModel m = make_model(2, 3, /*host_mem=*/25.0);
  // 3 x 10 KB on h0 against 25 KB: over by 5.
  const Deployment d(std::vector<HostId>{0, 0, 0});
  const CheckReport report = PlacementAuditor().audit(m, {}, d);
  ASSERT_EQ(errors_of(report, Rule::kPlacementCapacity), 1u);
  const Diagnostic* diag = find_rule(report, Rule::kPlacementCapacity);
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->witness, (std::vector<std::string>{"c0", "c1", "c2"}));
}

TEST(AuditCapacity, SilentWhenFootprintFitsExactly) {
  const DeploymentModel m = make_model(2, 3, /*host_mem=*/30.0);
  const Deployment d(std::vector<HostId>{0, 0, 0});
  const CheckReport report = PlacementAuditor().audit(m, {}, d);
  EXPECT_FALSE(report.has(Rule::kPlacementCapacity));
  EXPECT_TRUE(report.ok());
}

// --- placement-location ----------------------------------------------------

TEST(AuditLocation, FlagsComponentOnForbiddenHost) {
  const DeploymentModel m = make_model(3, 2);
  ConstraintSet cs;
  cs.allow_only(0, {1});
  const Deployment bad(std::vector<HostId>{0, 0});
  EXPECT_EQ(errors_of(PlacementAuditor().audit(m, cs, bad),
                      Rule::kPlacementLocation),
            1u);
  const Deployment good(std::vector<HostId>{1, 0});
  EXPECT_FALSE(
      PlacementAuditor().audit(m, cs, good).has(Rule::kPlacementLocation));
}

// --- placement-colocation --------------------------------------------------

TEST(AuditColocation, FlagsSplitCollocationClass) {
  const DeploymentModel m = make_model(3, 3);
  ConstraintSet cs;
  cs.require_colocation(0, 1);
  cs.require_colocation(1, 2);  // closure: {c0, c1, c2} must share a host
  const Deployment split(std::vector<HostId>{0, 0, 2});
  const CheckReport report = PlacementAuditor().audit(m, cs, split);
  ASSERT_EQ(errors_of(report, Rule::kPlacementColocation), 1u);
  const Diagnostic* diag = find_rule(report, Rule::kPlacementColocation);
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->witness, (std::vector<std::string>{"h0", "h2"}));
  const Deployment together(std::vector<HostId>{1, 1, 1});
  EXPECT_TRUE(PlacementAuditor().audit(m, cs, together).ok());
}

TEST(AuditColocation, FlagsSeparationPairSharingAHost) {
  const DeploymentModel m = make_model(2, 2);
  ConstraintSet cs;
  cs.forbid_colocation(0, 1);
  const Deployment same(std::vector<HostId>{1, 1});
  EXPECT_EQ(errors_of(PlacementAuditor().audit(m, cs, same),
                      Rule::kPlacementColocation),
            1u);
  const Deployment apart(std::vector<HostId>{0, 1});
  EXPECT_TRUE(PlacementAuditor().audit(m, cs, apart).ok());
}

// --- placement-unassigned --------------------------------------------------

TEST(AuditUnassigned, FlagsUnplacedComponentOnceNotTwice) {
  const DeploymentModel m = make_model(2, 2);
  ConstraintSet cs;
  cs.allow_only(0, {1});  // would also be a location defect if it were placed
  Deployment d(2);
  d.assign(1, 0);
  const CheckReport report = PlacementAuditor().audit(m, cs, d);
  EXPECT_EQ(errors_of(report, Rule::kPlacementUnassigned), 1u);
  // The unplaced component owns its root cause; no phantom location error.
  EXPECT_FALSE(report.has(Rule::kPlacementLocation));
}

// --- placement-bandwidth (advisory) ----------------------------------------

TEST(AuditBandwidth, OversubscribedOrUnlinkedHostPairIsAWarning) {
  DeploymentModel m = make_model(3, 2);
  m.set_physical_link(0, 1, {.reliability = 1.0, .bandwidth = 5.0});
  m.clear_physical_link(0, 2);
  // 4 evt/s * 2 KB = 8 KB/s of traffic over a 5 KB/s link.
  m.set_logical_link(0, 1, {.frequency = 4.0, .avg_event_size = 2.0});
  for (const HostId far : {HostId{1}, HostId{2}}) {
    const Deployment split(std::vector<HostId>{0, far});
    const CheckReport report = PlacementAuditor().audit(m, {}, split);
    const Diagnostic* diag = find_rule(report, Rule::kPlacementBandwidth);
    ASSERT_NE(diag, nullptr) << "h0--h" << far;
    EXPECT_EQ(diag->severity, Severity::kWarning);
    EXPECT_TRUE(report.ok());  // advisory: the placement stays valid

    AuditOptions options;
    options.check_bandwidth = false;
    EXPECT_TRUE(PlacementAuditor(options).audit(m, {}, split).clean());
  }
  // Local placement has no bandwidth footprint.
  const Deployment local(std::vector<HostId>{0, 0});
  EXPECT_TRUE(PlacementAuditor().audit(m, {}, local).clean());
}

// --- clean model -----------------------------------------------------------

TEST(Audit, CleanModelIsAllGreen) {
  const DeploymentModel m = make_model(3, 6);
  ConstraintSet cs;
  cs.allow_only(0, {0, 1});
  cs.require_colocation(1, 2);
  cs.forbid_colocation(3, 4);
  const Deployment d(std::vector<HostId>{0, 1, 1, 0, 2, 2});
  EXPECT_TRUE(PlacementAuditor().audit(m, cs, d).clean());
}

// --- resilience-spof (k = 1) -----------------------------------------------

TEST(Resilience, LineTopologyMiddleHostIsAnArticulationPoint) {
  // h0 -- h1 -- h2, interacting components on the endpoints: h1's failure
  // severs them even though it hosts nothing.
  DeploymentModel m;
  for (int h = 0; h < 3; ++h)
    m.add_host({.name = test::numbered("h", h), .memory_capacity = 100.0});
  m.add_component({.name = "c0", .memory_size = 1.0});
  m.add_component({.name = "c1", .memory_size = 1.0});
  m.set_physical_link(0, 1, {.reliability = 0.9, .bandwidth = 10.0});
  m.set_physical_link(1, 2, {.reliability = 0.9, .bandwidth = 10.0});
  m.set_logical_link(0, 1, {.frequency = 2.0, .avg_event_size = 1.0});
  const Deployment d(std::vector<HostId>{0, 2});
  const CheckReport report = ResilienceProver().prove(m, d);
  const Diagnostic* diag = nullptr;
  for (const Diagnostic& candidate : report.diagnostics())
    if (candidate.witness == std::vector<std::string>{"h1"}) diag = &candidate;
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->rule, Rule::kResilienceSpof);
  EXPECT_NE(diag->message.find("sever"), std::string::npos);
}

TEST(Resilience, TriangleTopologyHasNoEmptyHostSpof) {
  DeploymentModel m;
  for (int h = 0; h < 3; ++h)
    m.add_host({.name = test::numbered("h", h), .memory_capacity = 100.0});
  m.add_component({.name = "c0", .memory_size = 1.0});
  m.add_component({.name = "c1", .memory_size = 1.0});
  for (int a = 0; a < 3; ++a)
    for (int b = a + 1; b < 3; ++b)
      m.set_physical_link(static_cast<HostId>(a), static_cast<HostId>(b),
                          {.reliability = 0.9, .bandwidth = 10.0});
  m.set_logical_link(0, 1, {.frequency = 2.0, .avg_event_size = 1.0});
  const Deployment d(std::vector<HostId>{0, 2});
  // h1 hosts nothing and the alternate path h0--h2 survives it: the only
  // SPOF findings are the endpoint hosts losing their own residents.
  const CheckReport report = ResilienceProver().prove(m, d);
  for (const Diagnostic& diag : report.diagnostics())
    EXPECT_NE(diag.witness, (std::vector<std::string>{"h1"}));
}

// --- resilience-spof (k = 2 min cut) ---------------------------------------

TEST(Resilience, TwoDisjointPathsNeedATwoHostCut) {
  // h0 -> {h1 | h2} -> h3: no single host severs the endpoints, but the
  // pair {h1, h2} is a minimum vertex cut.
  DeploymentModel m;
  for (int h = 0; h < 4; ++h)
    m.add_host({.name = test::numbered("h", h), .memory_capacity = 100.0});
  m.add_component({.name = "c0", .memory_size = 1.0});
  m.add_component({.name = "c1", .memory_size = 1.0});
  m.set_physical_link(0, 1, {.reliability = 0.9, .bandwidth = 10.0});
  m.set_physical_link(0, 2, {.reliability = 0.9, .bandwidth = 10.0});
  m.set_physical_link(1, 3, {.reliability = 0.9, .bandwidth = 10.0});
  m.set_physical_link(2, 3, {.reliability = 0.9, .bandwidth = 10.0});
  m.set_logical_link(0, 1, {.frequency = 2.0, .avg_event_size = 1.0});
  const Deployment d(std::vector<HostId>{0, 3});

  ResilienceOptions k1;
  k1.max_failures = 1;
  const CheckReport single = ResilienceProver(k1).prove(m, d);
  for (const Diagnostic& diag : single.diagnostics())
    EXPECT_EQ(diag.message.find("sever"), std::string::npos)
        << diag.message;

  ResilienceOptions k2;
  k2.max_failures = 2;
  const CheckReport report = ResilienceProver(k2).prove(m, d);
  bool found_cut = false;
  for (const Diagnostic& diag : report.diagnostics())
    if (diag.witness == std::vector<std::string>{"h1", "h2"}) found_cut = true;
  EXPECT_TRUE(found_cut);
}

// --- resilience-region -----------------------------------------------------

TEST(Resilience, RegionLossNamesItsHostsAsWitness) {
  DeploymentModel m = make_model(4, 3);
  m.set_host_region(0, 0);
  m.set_host_region(1, 0);
  m.set_host_region(2, 1);
  m.set_host_region(3, 1);
  const Deployment d(std::vector<HostId>{0, 1, 2});
  const CheckReport report = ResilienceProver().prove(m, d);
  const Diagnostic* diag = find_rule(report, Rule::kResilienceRegion);
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->witness, (std::vector<std::string>{"h0", "h1"}));
}

TEST(Resilience, GeneratedTwoRegionModelNamesModelHostsAsWitnesses) {
  // A generated, constrained, unreplicated model over two regions: its
  // initial placement audits error-free, while single hosts and whole
  // regions are provable points of failure whose witnesses are model hosts.
  desi::GeneratorSpec spec;
  spec.hosts = 6;
  spec.components = 16;
  spec.regions = 2;
  spec.location_constraints = 4;
  spec.colocation_pairs = 2;
  spec.anti_colocation_pairs = 2;
  const auto system = desi::Generator::generate(spec, 3);
  const DeploymentModel& m = system->model();
  EXPECT_EQ(PlacementAuditor()
                .audit(m, system->constraints(), system->deployment())
                .error_count(),
            0u);
  const CheckReport report = ResilienceProver().prove(m, system->deployment());
  EXPECT_EQ(report.error_count(), 0u);

  std::set<std::string> hosts;
  for (HostId h = 0; h < m.host_count(); ++h) hosts.insert(m.host(h).name);
  std::size_t spofs = 0;
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.rule != Rule::kResilienceSpof) continue;
    ++spofs;
    EXPECT_FALSE(d.witness.empty()) << d.message;
    for (const std::string& w : d.witness) EXPECT_TRUE(hosts.count(w)) << w;
  }
  EXPECT_GT(spofs, 0u);
  EXPECT_TRUE(report.has(Rule::kResilienceRegion));
}

TEST(Resilience, SingleRegionModelEmitsNoRegionFindings) {
  const DeploymentModel m = make_model(3, 2);
  const Deployment d(std::vector<HostId>{0, 1});
  EXPECT_FALSE(
      ResilienceProver().prove(m, d).has(Rule::kResilienceRegion));
}

// --- plan checker ----------------------------------------------------------

TEST(PlanCheck, FlagsConflictingTasksForOneComponent) {
  PlanContext ctx;
  ctx.host_count = 3;
  const std::vector<PlanTask> plan = {{"a", 0, 1}, {"a", 0, 2}};
  const CheckReport report = MigrationPlanChecker().check(plan, ctx);
  EXPECT_EQ(errors_of(report, Rule::kPlanConflict), 1u);
}

TEST(PlanCheck, FlagsStaleCustody) {
  PlanContext ctx;
  ctx.host_count = 3;
  ctx.locations["a"] = 2;  // believed at h2, plan claims h0
  const std::vector<PlanTask> plan = {{"a", 0, 1}};
  EXPECT_EQ(errors_of(MigrationPlanChecker().check(plan, ctx),
                      Rule::kPlanCustody),
            1u);
  ctx.locations["a"] = 0;
  EXPECT_TRUE(MigrationPlanChecker().check(plan, ctx).ok());
}

TEST(PlanCheck, SteadyStateOverloadIsAnErrorTransientIsAWarning) {
  PlanContext ctx;
  ctx.host_count = 2;
  ctx.host_capacity_kb[1] = 10.0;
  ctx.component_memory_kb["in"] = 8.0;
  ctx.component_memory_kb["out"] = 8.0;
  ctx.host_used_memory_kb[1] = 5.0;

  // 5 used + 8 inbound = 13 > 10 steady state: the prepare vote is a
  // certain veto.
  ctx.locations["in"] = 0;
  const CheckReport steady =
      MigrationPlanChecker().check({{"in", 0, 1}}, ctx);
  EXPECT_EQ(errors_of(steady, Rule::kPlanOverload), 1u);

  // Swap: 8 used − 8 outbound + 8 inbound = 8 ≤ 10 steady, but 16 KB
  // double occupancy during the window: advisory only.
  ctx.host_used_memory_kb[1] = 8.0;
  ctx.locations["out"] = 1;
  const CheckReport swap = MigrationPlanChecker().check(
      {{"in", 0, 1}, {"out", 1, 0}}, ctx);
  EXPECT_TRUE(swap.ok());
  const Diagnostic* diag = find_rule(swap, Rule::kPlanTransientOverload);
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->severity, Severity::kWarning);
}

TEST(PlanCheck, FlagsNoopAndDanglingHosts) {
  PlanContext ctx;
  ctx.host_count = 2;
  const CheckReport report =
      MigrationPlanChecker().check({{"a", 1, 1}, {"b", 0, 5}}, ctx);
  EXPECT_EQ(report.count(Rule::kPlanNoop), 1u);
  EXPECT_EQ(errors_of(report, Rule::kDanglingReference), 1u);
}

TEST(PlanCheck, FreeFunctionAuditsThePostPlanPlacement) {
  const DeploymentModel m = make_model(2, 2);
  ConstraintSet cs;
  cs.allow_only(0, {0});
  const Deployment current(std::vector<HostId>{0, 1});
  // Structurally fine plan whose destination violates c0's allow-list.
  const CheckReport report =
      check_plan(m, cs, current, {{"c0", 0, 1}});
  EXPECT_EQ(errors_of(report, Rule::kPlacementLocation), 1u);
  const Diagnostic* diag = find_rule(report, Rule::kPlacementLocation);
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->message.rfind("post-plan: ", 0), 0u);
}

// --- diagnostic JSON escaping ----------------------------------------------

TEST(DiagnosticJson, HostileNamesSurviveARoundTrip) {
  const std::string hostile = "quote\" back\\slash\nnewline\x01ctl";
  CheckReport report;
  Diagnostic diag;
  diag.rule = Rule::kPlacementCapacity;
  diag.subjects = {"host " + hostile};
  diag.message = "message with " + hostile;
  diag.hint = "hint with " + hostile;
  diag.witness = {hostile};
  report.add(diag);

  const std::string text = report.to_json().dump(2);
  const util::json::Value parsed = util::json::parse(text);
  const util::json::Value& entry = parsed.at("diagnostics").as_array().at(0);
  EXPECT_EQ(entry.at("subjects").as_array().at(0).as_string(),
            "host " + hostile);
  EXPECT_EQ(entry.at("message").as_string(), "message with " + hostile);
  EXPECT_EQ(entry.at("hint").as_string(), "hint with " + hostile);
  EXPECT_EQ(entry.at("witness").as_array().at(0).as_string(), hostile);
}

// --- static/dynamic agreement ----------------------------------------------

TEST(AuditProperty, AuditorPassingPlacementHoldsOnFaultFreeCampaign) {
  // A generated system whose initial placement the auditor passes must run
  // a fault-free ("quiet") campaign without tripping any invariant — the
  // static verdict and the dynamic oracles agree on clean inputs.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    chaos::CampaignConfig config;
    config.scenario = chaos::scenario_by_name("quiet");
    config.scenario.duration_ms = 60'000.0;
    config.seeds = {seed};
    config.decentralized = false;
    config.generator.hosts = 4;
    config.generator.components = 10;

    const auto system = desi::Generator::generate(config.generator, seed);
    AuditOptions options;
    options.check_bandwidth = false;  // the sim mediates unlinked hosts
    const CheckReport audit = PlacementAuditor(options).audit(
        system->model(), system->constraints(), system->deployment());
    ASSERT_TRUE(audit.ok()) << audit.render_text();

    const chaos::CampaignReport report =
        chaos::CampaignRunner(config).run();
    ASSERT_EQ(report.runs.size(), 1u);
    for (const auto& violation : report.runs[0].violations)
      ADD_FAILURE() << "seed " << seed << ": [" << violation.invariant
                    << "] " << violation.detail;
  }
}

}  // namespace
}  // namespace dif::check

// --- deployer preflight gate -----------------------------------------------

namespace dif::prism {
namespace {

/// Minimal migratable component.
class Pawn final : public Component {
 public:
  explicit Pawn(std::string name) : Component(std::move(name)) {}
  void handle(const Event&) override {}
  [[nodiscard]] std::string type_name() const override { return "pawn"; }
  [[nodiscard]] double memory_kb() const override { return 8.0; }
};

/// Minimal two-phase testbed (see test_txn_redeploy.cpp for the full one).
struct PreflightBed {
  sim::Simulator sim;
  sim::SimNetwork net;
  SimScaffold scaffold{sim};
  ComponentFactory factory;
  std::vector<std::unique_ptr<Architecture>> archs;
  std::vector<DistributionConnector*> connectors;
  DeployerComponent* deployer = nullptr;
  obs::Registry metrics;

  PreflightBed(std::size_t k,
               DeployerComponent::DeployerParams deployer_params)
      : net(sim, k, 1) {
    factory.register_type("pawn", [](std::string name) {
      return std::make_unique<Pawn>(std::move(name));
    });
    AdminComponent::Params admin_params;
    for (std::size_t h = 0; h < k; ++h) {
      archs.push_back(std::make_unique<Architecture>(
          test::numbered("arch", h), scaffold,
          static_cast<model::HostId>(h)));
      connectors.push_back(&static_cast<DistributionConnector&>(
          archs[h]->add_connector(std::make_unique<DistributionConnector>(
              test::numbered("dist", h), net,
              static_cast<model::HostId>(h)))));
    }
    for (std::size_t a = 0; a < k; ++a)
      for (std::size_t b = a + 1; b < k; ++b) {
        net.set_link(static_cast<model::HostId>(a),
                     static_cast<model::HostId>(b),
                     {.reliability = 1.0, .bandwidth = 1000.0,
                      .delay_ms = 100.0});
        connectors[a]->add_peer(static_cast<model::HostId>(b));
        connectors[b]->add_peer(static_cast<model::HostId>(a));
      }
    std::vector<model::HostId> all_hosts;
    for (std::size_t h = 0; h < k; ++h)
      all_hosts.push_back(static_cast<model::HostId>(h));
    admin_params.fleet = all_hosts;
    deployer_params.admin_hosts = all_hosts;
    std::vector<AdminComponent*> admins;
    for (std::size_t h = 0; h < k; ++h) {
      connectors[h]->set_mediator(0);
      for (std::size_t g = 0; g < k; ++g)
        connectors[h]->set_location(
            prism::intern(admin_name(static_cast<model::HostId>(g))),
            static_cast<model::HostId>(g));
      connectors[h]->set_location(prism::intern(deployer_name()), 0);
      auto admin = std::make_unique<AdminComponent>(
          static_cast<model::HostId>(h), *connectors[h], factory, nullptr,
          nullptr, admin_params);
      admins.push_back(&static_cast<AdminComponent&>(
          archs[h]->add_component(std::move(admin))));
      archs[h]->weld(*admins[h], *connectors[h]);
    }
    auto dep = std::make_unique<DeployerComponent>(
        0, *connectors[0], factory, nullptr, nullptr, admin_params,
        deployer_params);
    deployer = &static_cast<DeployerComponent&>(
        archs[0]->add_component(std::move(dep)));
    archs[0]->weld(*deployer, *connectors[0]);
    deployer->set_instruments({&metrics, nullptr});
  }

  void place_pawn(std::size_t host, const std::string& name) {
    auto& pawn = static_cast<Pawn&>(
        archs[host]->add_component(std::make_unique<Pawn>(name)));
    archs[host]->weld(pawn, *connectors[host]);
    for (auto* connector : connectors)
      connector->set_location(prism::intern(name),
                              static_cast<model::HostId>(host));
  }

  /// Hand-crafts the __monitor_report a Slave Admin would send, seeding
  /// the deployer's belief state (host usage + component footprints).
  void report_host(model::HostId host, double used_kb,
                   const std::vector<std::pair<std::string, double>>& comps) {
    Event evt("__monitor_report");
    evt.set("host", static_cast<double>(host));
    evt.set("memory_kb", used_kb);
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(comps.size()));
    for (const auto& [name, mem] : comps) {
      w.str(name);
      w.f64(mem);
    }
    evt.set("components", w.take());
    deployer->handle(evt);
  }

  [[nodiscard]] std::uint64_t counter_value(const char* name) const {
    const obs::Counter* c = metrics.find_counter(name);
    return c ? c->value() : 0;
  }
};

TEST(DeployerPreflight, RejectsInfeasiblePlanBeforeAnyPrepare) {
  // Host 1 already uses 4 KB of its 6 KB budget; moving an 8 KB component
  // there is a certain capacity veto. The preflight must reject the round
  // without shipping a single __prepare.
  DeployerComponent::DeployerParams params;
  params.host_capacity_kb = {{1, 6.0}};
  PreflightBed bed(2, params);
  bed.place_pawn(0, "mover");
  bed.report_host(0, 8.0, {{"mover", 8.0}});
  bed.report_host(1, 4.0, {});

  bool completed = false;
  bool success = true;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"mover", 1}}, [&](bool ok, std::size_t) {
        completed = true;
        success = ok;
      }));
  bed.sim.run_until(5'000.0);

  EXPECT_TRUE(completed);
  EXPECT_FALSE(success);
  EXPECT_EQ(bed.deployer->last_outcome(), TxnOutcome::kAborted);
  EXPECT_EQ(bed.deployer->plans_rejected(), 1u);
  EXPECT_EQ(bed.deployer->rounds_rolled_back(), 1u);
  EXPECT_EQ(bed.counter_value("deploy.preflight_rejected"), 1u);
  EXPECT_EQ(bed.counter_value("deploy.txn.prepare_sent"), 0u);
  EXPECT_EQ(bed.counter_value("deploy.txn.votes_yes"), 0u);
  EXPECT_EQ(bed.counter_value("deploy.txn.votes_no"), 0u);

  ASSERT_EQ(bed.deployer->round_history().size(), 1u);
  const RoundRecord& record = bed.deployer->round_history().back();
  EXPECT_EQ(record.outcome, TxnOutcome::kAborted);
  EXPECT_EQ(record.moves_requested, 1u);
  EXPECT_EQ(record.moves_completed, 0u);
  ASSERT_TRUE(record.declared.count("mover"));
  EXPECT_EQ(record.declared.at("mover"), 0u);

  ASSERT_TRUE(bed.deployer->last_preflight().has_value());
  EXPECT_TRUE(
      bed.deployer->last_preflight()->has(check::Rule::kPlanOverload));
}

TEST(DeployerPreflight, RejectsConflictingTasksWithoutACapacityMap) {
  // Structural checks need no capacity knowledge: two targets for one
  // component are contradictory on their face.
  PreflightBed bed(3, {});
  bed.place_pawn(0, "mover");

  bool completed = false;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"mover", 1}, {"mover", 2}},
      [&](bool, std::size_t) { completed = true; }));
  bed.sim.run_until(5'000.0);

  EXPECT_TRUE(completed);
  EXPECT_EQ(bed.deployer->last_outcome(), TxnOutcome::kAborted);
  EXPECT_EQ(bed.deployer->plans_rejected(), 1u);
  EXPECT_EQ(bed.counter_value("deploy.txn.prepare_sent"), 0u);
  ASSERT_TRUE(bed.deployer->last_preflight().has_value());
  EXPECT_TRUE(
      bed.deployer->last_preflight()->has(check::Rule::kPlanConflict));
}

TEST(DeployerPreflight, CleanPlanStillRunsTheFullProtocol) {
  DeployerComponent::DeployerParams params;
  params.host_capacity_kb = {{1, 100.0}};
  PreflightBed bed(2, params);
  bed.place_pawn(0, "mover");
  bed.report_host(0, 8.0, {{"mover", 8.0}});
  bed.report_host(1, 4.0, {});

  // The plan is feasible; the preflight must wave it through to PREPARE.
  ASSERT_TRUE(
      bed.deployer->effect_deployment({{"mover", 1}}, nullptr));
  bed.sim.run_until(20'000.0);

  EXPECT_EQ(bed.deployer->plans_rejected(), 0u);
  EXPECT_GT(bed.counter_value("deploy.txn.prepare_sent"), 0u);
  ASSERT_TRUE(bed.deployer->last_preflight().has_value());
  EXPECT_TRUE(bed.deployer->last_preflight()->ok());
}

}  // namespace
}  // namespace dif::prism
