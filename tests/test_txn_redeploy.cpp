// Transactional-redeployment tests: the two-phase effector protocol in
// DeployerComponent/TxnRound — prepare votes and capacity vetoes, forced
// rollback with compensating migrations, graceful degradation to a partial
// commit, timeout paths (abort with unresolved names, rollback_failed), and
// the improvement loop recording a rolled-back round as an effector
// rejection.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/improvement_loop.h"
#include "desi/generator.h"
#include "obs/instruments.h"
#include "obs/metrics.h"
#include "prism/architecture.h"
#include "prism/deployer.h"

namespace dif::prism {
namespace {

/// Migratable test component with observable state.
class Counter final : public Component {
 public:
  explicit Counter(std::string name) : Component(std::move(name)) {}
  void handle(const Event& event) override {
    if (event.name() == "app.tick") ++count;
  }
  [[nodiscard]] std::string type_name() const override { return "counter"; }
  void serialize_state(ByteWriter& w) const override { w.u64(count); }
  void restore_state(ByteReader& r) override { count = r.u64(); }
  [[nodiscard]] double memory_kb() const override { return 4.0; }
  std::uint64_t count = 0;
};

/// Full-mesh testbed with complete control over the deployer's
/// transactional parameters. Slow links (500 ms) make the protocol's
/// phases land at predictable times so faults can be injected between them.
struct TxnBed {
  sim::Simulator sim;
  sim::SimNetwork net;
  SimScaffold scaffold{sim};
  ComponentFactory factory;
  std::vector<std::unique_ptr<Architecture>> archs;
  std::vector<DistributionConnector*> connectors;
  std::vector<AdminComponent*> admins;
  DeployerComponent* deployer = nullptr;
  obs::Registry metrics;

  TxnBed(std::size_t k, AdminComponent::Params admin_params,
         DeployerComponent::DeployerParams deployer_params,
         double link_delay_ms = 500.0)
      : net(sim, k, 1) {
    factory.register_type("counter", [](std::string name) {
      return std::make_unique<Counter>(std::move(name));
    });
    for (std::size_t h = 0; h < k; ++h) {
      archs.push_back(std::make_unique<Architecture>(
          "arch" + std::to_string(h), scaffold,
          static_cast<model::HostId>(h)));
      connectors.push_back(&static_cast<DistributionConnector&>(
          archs[h]->add_connector(std::make_unique<DistributionConnector>(
              "dist" + std::to_string(h), net,
              static_cast<model::HostId>(h)))));
    }
    for (std::size_t a = 0; a < k; ++a)
      for (std::size_t b = a + 1; b < k; ++b) {
        net.set_link(static_cast<model::HostId>(a),
                     static_cast<model::HostId>(b),
                     {.reliability = 1.0, .bandwidth = 1000.0,
                      .delay_ms = link_delay_ms});
        connectors[a]->add_peer(static_cast<model::HostId>(b));
        connectors[b]->add_peer(static_cast<model::HostId>(a));
      }
    std::vector<model::HostId> all_hosts;
    for (std::size_t h = 0; h < k; ++h)
      all_hosts.push_back(static_cast<model::HostId>(h));
    admin_params.fleet = all_hosts;
    deployer_params.admin_hosts = all_hosts;
    for (std::size_t h = 0; h < k; ++h) {
      connectors[h]->set_mediator(0);
      for (std::size_t g = 0; g < k; ++g)
        connectors[h]->set_location(
            intern(admin_name(static_cast<model::HostId>(g))),
            static_cast<model::HostId>(g));
      connectors[h]->set_location(intern(deployer_name()), 0);
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

  Counter& place_counter(std::size_t host, const std::string& name) {
    auto& counter = static_cast<Counter&>(
        archs[host]->add_component(std::make_unique<Counter>(name)));
    archs[host]->weld(counter, *connectors[host]);
    for (auto* connector : connectors)
      connector->set_location(intern(name), static_cast<model::HostId>(host));
    return counter;
  }

  [[nodiscard]] std::uint64_t counter_value(const char* name) const {
    const obs::Counter* c = metrics.find_counter(name);
    return c ? c->value() : 0;
  }
};

TEST(TxnRedeploy, CapacityVetoAbortsRoundAndNothingMoves) {
  // Host 1 already holds 8 KB against a 6 KB capacity: its prepare vote is
  // a veto, the round aborts, and the component never leaves host 0.
  AdminComponent::Params admin_params;
  admin_params.memory_capacity_kb = 6.0;
  DeployerComponent::DeployerParams params;
  params.redeploy_timeout_ms = 20'000.0;
  TxnBed bed(2, admin_params, params);
  bed.place_counter(0, "mover");
  bed.place_counter(1, "resident_a");
  bed.place_counter(1, "resident_b");

  bool completed = false;
  bool success = true;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"mover", 1}}, [&](bool ok, std::size_t) {
        completed = true;
        success = ok;
      }));
  bed.sim.run_until(10'000.0);

  EXPECT_TRUE(completed);
  EXPECT_FALSE(success);
  EXPECT_EQ(bed.deployer->last_outcome(), TxnOutcome::kAborted);
  EXPECT_EQ(bed.deployer->rounds_rolled_back(), 1u);
  EXPECT_NE(bed.archs[0]->find_component(intern("mover")), nullptr);
  EXPECT_EQ(bed.archs[1]->find_component(intern("mover")), nullptr);
  ASSERT_EQ(bed.deployer->round_history().size(), 1u);
  const RoundRecord& record = bed.deployer->round_history().back();
  EXPECT_EQ(record.outcome, TxnOutcome::kAborted);
  EXPECT_EQ(record.moves_completed, 0u);
  ASSERT_TRUE(record.declared.count("mover"));
  EXPECT_EQ(record.declared.at("mover"), 0u);  // declared = checkpoint
  EXPECT_EQ(bed.counter_value("deploy.txn.votes_no"), 1u);
  EXPECT_EQ(bed.counter_value("deploy.txn.aborted"), 1u);
  EXPECT_EQ(bed.counter_value("deploy.txn.committed"), 0u);
}

TEST(TxnRedeploy, VetoedRoundDoesNotPoisonTheNextOne) {
  // After an abort the protocol must be reusable immediately: drop the
  // oversubscription and the same target then commits cleanly.
  AdminComponent::Params admin_params;
  admin_params.memory_capacity_kb = 6.0;
  TxnBed bed(2, admin_params, {});
  Counter& mover = bed.place_counter(0, "mover");
  mover.count = 9;
  bed.place_counter(1, "resident_a");
  bed.place_counter(1, "resident_b");

  ASSERT_TRUE(
      bed.deployer->effect_deployment({{"mover", 1}}, [](bool, std::size_t) {}));
  bed.sim.run_until(10'000.0);
  ASSERT_EQ(bed.deployer->last_outcome(), TxnOutcome::kAborted);

  // Free capacity on host 1, then retry the same plan.
  (void)bed.archs[1]->detach_component(intern("resident_b"));
  bool success = false;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"mover", 1}}, [&](bool ok, std::size_t) { success = ok; }));
  bed.sim.run_until(25'000.0);
  EXPECT_TRUE(success);
  EXPECT_EQ(bed.deployer->last_outcome(), TxnOutcome::kCommitted);
  auto* landed = dynamic_cast<Counter*>(
      bed.archs[1]->find_component(intern("mover")));
  ASSERT_NE(landed, nullptr);
  EXPECT_EQ(landed->count, 9u);
  EXPECT_EQ(bed.counter_value("deploy.txn.aborted"), 1u);
  EXPECT_EQ(bed.counter_value("deploy.txn.committed"), 1u);
}

TEST(TxnRedeploy, SeveredCommitRollsBackBeforeAnythingMoves) {
  // Host 2 votes yes, then drops off the network before the commit-phase
  // configuration can reach it: the migration starves, the round rolls
  // back, and — since nothing ever moved — the rollback confirms the
  // checkpoint in place.
  DeployerComponent::DeployerParams params;
  params.redeploy_timeout_ms = 6'000.0;
  params.rollback_timeout_ms = 10'000.0;
  params.renotify_interval_ms = 1'000.0;
  params.migration_max_attempts = 3;
  TxnBed bed(3, {}, params);
  bed.place_counter(1, "pinned");

  bool completed = false;
  bool success = true;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"pinned", 2}}, [&](bool ok, std::size_t) {
        completed = true;
        success = ok;
      }));
  // __prepare lands at 0.5 s, the vote is back at 1.0 s, commit config is
  // in flight at ~1.0 s. Kill host 2 at 1.2 s: the config dies on the wire.
  bed.sim.schedule_at(1'200.0, [&] { bed.net.fail_host(2); });
  bed.sim.run_until(30'000.0);

  EXPECT_TRUE(completed);
  EXPECT_FALSE(success);
  EXPECT_EQ(bed.deployer->last_outcome(), TxnOutcome::kRolledBack);
  EXPECT_EQ(bed.deployer->rounds_rolled_back(), 1u);
  EXPECT_NE(bed.archs[1]->find_component(intern("pinned")), nullptr);
  EXPECT_EQ(bed.archs[2]->find_component(intern("pinned")), nullptr);
  ASSERT_EQ(bed.deployer->round_history().size(), 1u);
  const RoundRecord& record = bed.deployer->round_history().back();
  EXPECT_EQ(record.outcome, TxnOutcome::kRolledBack);
  ASSERT_TRUE(record.declared.count("pinned"));
  EXPECT_EQ(record.declared.at("pinned"), 1u);
  ASSERT_TRUE(record.proposed.count("pinned"));
  EXPECT_EQ(record.proposed.at("pinned"), 2u);
  EXPECT_TRUE(record.unresolved.empty());
  EXPECT_GE(bed.counter_value("deploy.txn.rollbacks"), 1u);
  EXPECT_GE(bed.counter_value("deploy.txn.compensations"), 1u);
}

TEST(TxnRedeploy, ForcedRollbackRestoresCheckpointExactly) {
  // Two migrations: "lucky" completes, then its sibling's target dies and
  // the round rolls back. The compensation must physically move "lucky"
  // back — same host, same state — leaving the checkpoint restored
  // exactly.
  DeployerComponent::DeployerParams params;
  params.redeploy_timeout_ms = 8'000.0;
  params.rollback_timeout_ms = 20'000.0;
  params.renotify_interval_ms = 1'000.0;
  params.migration_max_attempts = 3;
  TxnBed bed(4, {}, params);
  Counter& lucky = bed.place_counter(1, "lucky");
  lucky.count = 42;
  bed.place_counter(1, "doomed");

  bool completed = false;
  bool success = true;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"lucky", 2}, {"doomed", 3}}, [&](bool ok, std::size_t) {
        completed = true;
        success = ok;
      }));
  // Votes are in at ~1.0 s; "lucky"'s transfer 1->2 lands ~2.5 s and its
  // ack reaches the deployer ~3.0 s. Kill host 3 at 1.2 s so "doomed"
  // never moves and the deadline forces the rollback.
  bed.sim.schedule_at(1'200.0, [&] { bed.net.fail_host(3); });
  bed.sim.run_until(60'000.0);

  EXPECT_TRUE(completed);
  EXPECT_FALSE(success);
  EXPECT_EQ(bed.deployer->last_outcome(), TxnOutcome::kRolledBack);
  // Checkpoint restored exactly: both components back on host 1, state
  // preserved through the round trip.
  auto* restored =
      dynamic_cast<Counter*>(bed.archs[1]->find_component(intern("lucky")));
  ASSERT_NE(restored, nullptr) << "compensation must move 'lucky' back";
  EXPECT_EQ(restored->count, 42u);
  EXPECT_NE(bed.archs[1]->find_component(intern("doomed")), nullptr);
  EXPECT_EQ(bed.archs[2]->find_component(intern("lucky")), nullptr);
  ASSERT_EQ(bed.deployer->round_history().size(), 1u);
  const RoundRecord& record = bed.deployer->round_history().back();
  EXPECT_EQ(record.outcome, TxnOutcome::kRolledBack);
  EXPECT_GE(record.moves_completed, 1u);  // "lucky" did commit first
  EXPECT_GE(record.compensations, 1u);
  EXPECT_EQ(record.declared.at("lucky"), 1u);
  EXPECT_EQ(record.declared.at("doomed"), 1u);
}

TEST(TxnRedeploy, AllowPartialKeepsCompletedMigrations) {
  // Same forced rollback, but with allow_partial the round degrades
  // gracefully: "lucky" stays at its new host, only "doomed" is declared
  // back at the checkpoint, and the round closes as partial.
  DeployerComponent::DeployerParams params;
  params.redeploy_timeout_ms = 8'000.0;
  params.rollback_timeout_ms = 20'000.0;
  params.renotify_interval_ms = 1'000.0;
  params.migration_max_attempts = 3;
  params.allow_partial = true;
  TxnBed bed(4, {}, params);
  Counter& lucky = bed.place_counter(1, "lucky");
  lucky.count = 7;
  bed.place_counter(1, "doomed");

  bool completed = false;
  bool success = true;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"lucky", 2}, {"doomed", 3}}, [&](bool ok, std::size_t) {
        completed = true;
        success = ok;
      }));
  bed.sim.schedule_at(1'200.0, [&] { bed.net.fail_host(3); });
  bed.sim.run_until(60'000.0);

  EXPECT_TRUE(completed);
  EXPECT_FALSE(success);  // a partial commit is still not a success
  EXPECT_EQ(bed.deployer->last_outcome(), TxnOutcome::kPartial);
  EXPECT_EQ(bed.deployer->rounds_rolled_back(), 1u);
  auto* kept = dynamic_cast<Counter*>(
      bed.archs[2]->find_component(intern("lucky")));
  ASSERT_NE(kept, nullptr) << "allow_partial must keep the completed move";
  EXPECT_EQ(kept->count, 7u);
  EXPECT_EQ(bed.archs[1]->find_component(intern("lucky")), nullptr);
  EXPECT_NE(bed.archs[1]->find_component(intern("doomed")), nullptr);
  ASSERT_EQ(bed.deployer->round_history().size(), 1u);
  const RoundRecord& record = bed.deployer->round_history().back();
  EXPECT_EQ(record.outcome, TxnOutcome::kPartial);
  // Declared = checkpoint overlaid with the kept sub-plan.
  EXPECT_EQ(record.declared.at("lucky"), 2u);
  EXPECT_EQ(record.declared.at("doomed"), 1u);
  EXPECT_EQ(bed.counter_value("deploy.txn.partial"), 1u);
}

// ---- timeout paths ------------------------------------------------------

TEST(TxnRedeploy, PrepareTimeoutAbortsWithUnresolvedNames) {
  // The lone participant is unreachable from the start: no vote ever
  // arrives, the round aborts at the deadline, and the record names the
  // components whose placement the round could not confirm.
  DeployerComponent::DeployerParams params;
  params.redeploy_timeout_ms = 5'000.0;
  params.renotify_interval_ms = 1'000.0;
  params.prepare_max_attempts = 3;
  TxnBed bed(2, {}, params);
  bed.place_counter(0, "stuck");
  bed.net.sever(0, 1);

  bool completed = false;
  bool success = true;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"stuck", 1}}, [&](bool ok, std::size_t) {
        completed = true;
        success = ok;
      }));
  bed.sim.run_until(30'000.0);

  EXPECT_TRUE(completed);
  EXPECT_FALSE(success);
  EXPECT_EQ(bed.deployer->last_outcome(), TxnOutcome::kAborted);
  EXPECT_FALSE(bed.deployer->redeployment_in_flight());
  ASSERT_EQ(bed.deployer->round_history().size(), 1u);
  const RoundRecord& record = bed.deployer->round_history().back();
  ASSERT_EQ(record.unresolved.size(), 1u);
  EXPECT_EQ(record.unresolved.front(), "stuck");
  EXPECT_EQ(record.declared.at("stuck"), 0u);
  // Nothing moved: the component is still exactly where it was.
  EXPECT_NE(bed.archs[0]->find_component(intern("stuck")), nullptr);
  EXPECT_EQ(bed.archs[1]->find_component(intern("stuck")), nullptr);
}

TEST(TxnRedeploy, RollbackTimeoutClosesAsRollbackFailed) {
  // "lucky" commits to host 2, then host 2 *and* host 3 die: the rollback
  // cannot confirm lucky's compensation and the round must give up as
  // rollback_failed, naming lucky unresolved — with `proposed` recording
  // where it was last confirmed so the atomicity invariant can reason
  // about the wreckage.
  DeployerComponent::DeployerParams params;
  params.redeploy_timeout_ms = 6'000.0;
  params.rollback_timeout_ms = 6'000.0;
  params.renotify_interval_ms = 1'000.0;
  params.migration_max_attempts = 3;
  TxnBed bed(4, {}, params);
  Counter& lucky = bed.place_counter(1, "lucky");
  lucky.count = 5;
  bed.place_counter(1, "doomed");

  bool completed = false;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"lucky", 2}, {"doomed", 3}},
      [&](bool ok, std::size_t) { completed = !ok; }));
  bed.sim.schedule_at(1'200.0, [&] { bed.net.fail_host(3); });
  // lucky's commit ack reaches the deployer ~3.0 s; kill its host before
  // the rollback (deadline at 6 s) can pull it back.
  bed.sim.schedule_at(4'000.0, [&] { bed.net.fail_host(2); });
  bed.sim.run_until(60'000.0);

  EXPECT_TRUE(completed);
  EXPECT_EQ(bed.deployer->last_outcome(), TxnOutcome::kRollbackFailed);
  EXPECT_EQ(bed.deployer->rounds_rolled_back(), 1u);
  ASSERT_EQ(bed.deployer->round_history().size(), 1u);
  const RoundRecord& record = bed.deployer->round_history().back();
  EXPECT_EQ(record.outcome, TxnOutcome::kRollbackFailed);
  EXPECT_FALSE(record.unresolved.empty());
  EXPECT_NE(std::find(record.unresolved.begin(), record.unresolved.end(),
                      std::string("lucky")),
            record.unresolved.end());
  EXPECT_EQ(record.declared.at("lucky"), 1u);   // where it *should* be
  EXPECT_EQ(record.proposed.at("lucky"), 2u);   // where it last was
  EXPECT_EQ(bed.counter_value("deploy.txn.rollback_failed"), 1u);
}

TEST(TxnRedeploy, StaleAcksFromAbandonedRoundDoNotCorruptTheNext) {
  // A round aborts; later its epoch-1 acks straggle in while epoch 2 is in
  // flight. They must be counted as stale and must not complete epoch 2's
  // tasks.
  DeployerComponent::DeployerParams params;
  params.redeploy_timeout_ms = 5'000.0;
  params.prepare_max_attempts = 2;
  TxnBed bed(2, {}, params);
  bed.place_counter(0, "worker");
  bed.net.sever(0, 1);

  bool first_done = false;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"worker", 1}}, [&](bool, std::size_t) { first_done = true; }));
  bed.sim.run_until(20'000.0);
  ASSERT_TRUE(first_done);
  ASSERT_EQ(bed.deployer->last_outcome(), TxnOutcome::kAborted);

  // Epoch 2, still severed so it stays in flight while we inject.
  ASSERT_TRUE(bed.deployer->effect_deployment({{"worker", 1}},
                                              [](bool, std::size_t) {}));
  ASSERT_TRUE(bed.deployer->redeployment_in_flight());
  ASSERT_EQ(bed.deployer->current_epoch(), 2u);
  const std::uint64_t stale_before = bed.deployer->stale_acks_ignored();

  Event straggler("__migration_ack");
  straggler.set("component", std::string("worker"));
  straggler.set("host", 1.0);
  straggler.set("epoch", 1.0);
  bed.deployer->handle(straggler);
  EXPECT_TRUE(bed.deployer->redeployment_in_flight())
      << "an abandoned epoch's ack must not complete the current round";
  EXPECT_EQ(bed.deployer->stale_acks_ignored(), stale_before + 1);

  Event stale_vote("__prepare_ack");
  stale_vote.set("host", 1.0);
  stale_vote.set("epoch", 1.0);
  stale_vote.set("ok", true);
  bed.deployer->handle(stale_vote);
  EXPECT_TRUE(bed.deployer->redeployment_in_flight())
      << "an abandoned epoch's vote must not advance the current prepare";
}

TEST(TxnRedeploy, LocationUpdateRecoversLostAck) {
  // The explicit __migration_ack is injected as lost; the target's
  // epoch-stamped ownership announcement must complete the round instead,
  // and the recovery is counted.
  TxnBed bed(2, {}, {});
  bed.place_counter(0, "worker");
  bed.net.sever(0, 1);
  bool done = false;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"worker", 1}}, [&](bool ok, std::size_t) { done = ok; }));

  Event update("__location_update");
  update.set("component", std::string("worker"));
  update.set("host", 1.0);
  update.set("restored", false);
  update.set("epoch", 1.0);
  bed.deployer->handle(update);
  EXPECT_TRUE(done);
  EXPECT_FALSE(bed.deployer->redeployment_in_flight());
  EXPECT_EQ(bed.counter_value("deploy.acks_recovered_via_location"), 1u);
}

}  // namespace
}  // namespace dif::prism

// ---- improvement-loop integration ---------------------------------------

namespace dif::core {
namespace {

TEST(TxnRedeploy, RolledBackRoundIsRecordedAsEffectorRejection) {
  // Every host's capacity is far below any component's footprint, so every
  // prepare phase vetoes and every analyzer-launched round aborts. The
  // improvement loop must record those as effector rejections — the tick's
  // history entry flips to effected=false with the round outcome in its
  // reason — and the deployment must stay exactly where it started.
  auto system = desi::Generator::generate(
      {.hosts = 4, .components = 10, .link_density = 0.8,
       .interaction_density = 0.3},
      7);
  const model::AvailabilityObjective availability;

  FrameworkConfig config;
  config.seed = 7;
  config.admin.report_interval_ms = 500.0;
  config.admin.stability_window = 2;
  config.admin.stability_epsilon = 1.0;
  config.admin.memory_capacity_kb = 0.001;  // every inbound move vetoes
  config.deployer.redeploy_timeout_ms = 5'000.0;
  config.deployer.rollback_timeout_ms = 5'000.0;
  CentralizedInstantiation inst(*system, config);

  ImprovementLoop::Config loop_config;
  loop_config.interval_ms = 5'000.0;
  loop_config.policy.min_improvement = 0.01;
  loop_config.policy.enable_latency_guard = false;
  ImprovementLoop loop(inst, availability, loop_config);

  const auto placement_before = inst.runtime_deployment();
  inst.start();
  loop.start();
  inst.simulator().run_until(120'000.0);
  loop.stop();
  inst.simulator().run_until(140'000.0);

  ASSERT_GT(inst.deployer().rounds_rolled_back(), 0u)
      << "the scenario must actually force aborted rounds";
  EXPECT_GT(loop.effector_rejections(), 0u);
  bool recorded = false;
  for (const ImprovementLoop::TickRecord& tick : loop.history())
    if (!tick.effected && tick.reason.find("(effector:") != std::string::npos)
      recorded = true;
  EXPECT_TRUE(recorded)
      << "a rolled-back round must amend its tick record with the outcome";
  EXPECT_EQ(inst.runtime_deployment(), placement_before)
      << "aborted rounds must leave the placement untouched";
}

}  // namespace
}  // namespace dif::core

namespace dif::prism {
namespace {

TEST(TxnRedeploy, DuplicateAckAfterCustodyRetirementIsCountedAndInert) {
  // The custody edge the protocol fuzzer keeps hitting: a __migration_ack
  // duplicated by the network arrives *after* the round committed and the
  // transferred copy's custody was retired. It matches the current epoch —
  // the epoch filter cannot reject it — yet re-applying it would re-point
  // the location table at whatever stale host value the duplicate carries,
  // poisoning routing until the next round.
  TxnBed bed(2, {}, {});
  bed.place_counter(0, "mover");

  bool success = false;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"mover", 1}}, [&](bool ok, std::size_t) { success = ok; }));
  bed.sim.run_until(30'000.0);
  ASSERT_TRUE(success);
  ASSERT_EQ(bed.deployer->last_outcome(), TxnOutcome::kCommitted);
  ASSERT_EQ(bed.connectors[0]->location(intern("mover")),
            std::optional<model::HostId>(1));

  // A clean commit may itself retire one redundant confirmation (the
  // __location_update recovery can close the round before the explicit
  // __migration_ack lands), so judge deltas from the post-commit baseline.
  const std::uint64_t base = bed.deployer->stale_acks_total();
  const std::uint64_t base_counter =
      bed.counter_value("deploy.stale_acks_total");

  Event dup("__migration_ack");
  dup.set("component", std::string("mover"));
  dup.set("host", 0.0);  // poisonous: the retired source copy's host
  dup.set("epoch", static_cast<double>(bed.deployer->current_epoch()));
  bed.deployer->handle(dup);

  // Counted as a duplicate, never re-applied: the location table still
  // points at the committed placement, no round re-opened, the component
  // itself untouched.
  EXPECT_EQ(bed.deployer->stale_acks_total(), base + 1);
  EXPECT_EQ(bed.counter_value("deploy.stale_acks_total"), base_counter + 1);
  // The wrong-epoch path stayed untouched — this is the same-epoch edge.
  EXPECT_EQ(bed.deployer->stale_acks_ignored(), 0u);
  EXPECT_EQ(bed.connectors[0]->location(intern("mover")),
            std::optional<model::HostId>(1));
  EXPECT_FALSE(bed.deployer->redeployment_in_flight());
  EXPECT_NE(bed.archs[1]->find_component(intern("mover")), nullptr);
  EXPECT_EQ(bed.archs[0]->find_component(intern("mover")), nullptr);

  // And it stays inert under repetition (every copy of a duplicated burst).
  bed.deployer->handle(dup);
  bed.deployer->handle(dup);
  EXPECT_EQ(bed.deployer->stale_acks_total(), base + 3);
  EXPECT_EQ(bed.connectors[0]->location(intern("mover")),
            std::optional<model::HostId>(1));
}

}  // namespace
}  // namespace dif::prism
