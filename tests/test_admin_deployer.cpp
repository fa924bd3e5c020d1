// Integration tests for the monitoring + redeployment protocol:
// AdminComponent, DeployerComponent, ComponentFactory, event buffering,
// transfer retransmission, and deployer mediation (prism/admin.h,
// prism/deployer.h).
#include "prism/deployer.h"

#include <gtest/gtest.h>

#include "obs/instruments.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prism/architecture.h"

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

/// A small distributed testbed: `k` hosts in a line or a star around host 0.
struct Testbed {
  sim::Simulator sim;
  sim::SimNetwork net;
  SimScaffold scaffold{sim};
  ComponentFactory factory;
  std::vector<std::unique_ptr<Architecture>> archs;
  std::vector<DistributionConnector*> connectors;
  std::vector<AdminComponent*> admins;
  DeployerComponent* deployer = nullptr;

  explicit Testbed(std::size_t k, double reliability = 1.0,
                   bool star = false, AdminComponent::Params admin_params = {},
                   double redeploy_timeout_ms = 20'000.0,
                   double renotify_interval_ms = 4'000.0)
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
    // Topology: star around host 0, or a full mesh.
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b) {
        if (star && a != 0) continue;
        net.set_link(static_cast<model::HostId>(a),
                     static_cast<model::HostId>(b),
                     {.reliability = reliability, .bandwidth = 1000.0,
                      .delay_ms = 1.0});
        connectors[a]->add_peer(static_cast<model::HostId>(b));
        connectors[b]->add_peer(static_cast<model::HostId>(a));
      }
    }
    std::vector<model::HostId> all_hosts;
    for (std::size_t h = 0; h < k; ++h)
      all_hosts.push_back(static_cast<model::HostId>(h));
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
    DeployerComponent::DeployerParams params;
    params.admin_hosts = all_hosts;
    params.redeploy_timeout_ms = redeploy_timeout_ms;
    params.renotify_interval_ms = renotify_interval_ms;
    auto dep = std::make_unique<DeployerComponent>(
        0, *connectors[0], factory, nullptr, nullptr, admin_params, params);
    deployer = &static_cast<DeployerComponent&>(
        archs[0]->add_component(std::move(dep)));
    archs[0]->weld(*deployer, *connectors[0]);
  }

  Counter& place_counter(std::size_t host, const std::string& name) {
    auto& counter = static_cast<Counter&>(
        archs[host]->add_component(std::make_unique<Counter>(name)));
    archs[host]->weld(counter, *connectors[host]);
    for (auto* connector : connectors)
      connector->set_location(intern(name), static_cast<model::HostId>(host));
    return counter;
  }
};

TEST(Migration, MovesComponentWithState) {
  Testbed bed(2);
  Counter& counter = bed.place_counter(0, "worker");
  counter.count = 123;

  bool done = false;
  std::size_t moved = 0;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"worker", 1}}, [&](bool success, std::size_t migrations) {
        done = success;
        moved = migrations;
      }));
  bed.sim.run_until(5000.0);
  EXPECT_TRUE(done);
  EXPECT_EQ(moved, 1u);
  EXPECT_EQ(bed.archs[0]->find_component(intern("worker")), nullptr);
  auto* migrated =
      dynamic_cast<Counter*>(bed.archs[1]->find_component(intern("worker")));
  ASSERT_NE(migrated, nullptr);
  EXPECT_EQ(migrated->count, 123u);  // state travelled with the component
  EXPECT_EQ(bed.admins[0]->components_shipped(), 1u);
  EXPECT_EQ(bed.admins[1]->components_received(), 1u);
}

TEST(Migration, NoOpWhenAlreadyInPlace) {
  Testbed bed(2);
  bed.place_counter(0, "worker");
  bool done = false;
  std::size_t moved = 99;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"worker", 0}}, [&](bool success, std::size_t migrations) {
        done = success;
        moved = migrations;
      }));
  EXPECT_TRUE(done);  // completes synchronously
  EXPECT_EQ(moved, 0u);
}

TEST(Migration, RejectsConcurrentRedeployments) {
  Testbed bed(2);
  bed.place_counter(0, "worker");
  ASSERT_TRUE(bed.deployer->effect_deployment({{"worker", 1}},
                                              [](bool, std::size_t) {}));
  EXPECT_TRUE(bed.deployer->redeployment_in_flight());
  EXPECT_FALSE(bed.deployer->effect_deployment({{"worker", 0}},
                                               [](bool, std::size_t) {}));
  bed.sim.run_until(5000.0);
  EXPECT_FALSE(bed.deployer->redeployment_in_flight());
}

TEST(Migration, MultipleComponentsAcrossHosts) {
  Testbed bed(3);
  bed.place_counter(0, "a");
  bed.place_counter(0, "b");
  bed.place_counter(1, "c");

  bool done = false;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"a", 1}, {"b", 2}, {"c", 0}},
      [&](bool success, std::size_t) { done = success; }));
  bed.sim.run_until(10'000.0);
  EXPECT_TRUE(done);
  EXPECT_NE(bed.archs[1]->find_component(intern("a")), nullptr);
  EXPECT_NE(bed.archs[2]->find_component(intern("b")), nullptr);
  EXPECT_NE(bed.archs[0]->find_component(intern("c")), nullptr);
  EXPECT_EQ(bed.deployer->redeployments_completed(), 1u);
}

TEST(Migration, MediatedTransferBetweenUnconnectedHosts) {
  // Star around host 0: hosts 1 and 2 are not directly connected; the
  // transfer must ride through the deployer's host (paper Section 4.3).
  Testbed bed(3, 1.0, /*star=*/true);
  bed.place_counter(1, "edge");
  bool done = false;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"edge", 2}}, [&](bool success, std::size_t) { done = success; }));
  bed.sim.run_until(30'000.0);
  EXPECT_TRUE(done);
  EXPECT_NE(bed.archs[2]->find_component(intern("edge")), nullptr);
  EXPECT_EQ(bed.archs[1]->find_component(intern("edge")), nullptr);
}

TEST(Migration, RetransmissionSurvivesLossyLink) {
  // 60% reliability: some transfers/acks drop; retries must finish the job.
  AdminComponent::Params params;
  params.transfer_retry_interval_ms = 500.0;
  params.transfer_max_attempts = 10;
  Testbed bed(2, 0.6, false, params);
  Counter& counter = bed.place_counter(0, "fragile");
  counter.count = 7;
  bool done = false;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"fragile", 1}}, [&](bool success, std::size_t) { done = success; }));
  bed.sim.run_until(60'000.0);
  // Either the migration completed or timed out, but the component must
  // exist exactly once either way.
  const bool on0 = bed.archs[0]->find_component(intern("fragile")) != nullptr;
  const bool on1 = bed.archs[1]->find_component(intern("fragile")) != nullptr;
  EXPECT_NE(on0, on1) << "component lost or duplicated";
  if (done) {
    EXPECT_TRUE(on1);
    auto* migrated =
        dynamic_cast<Counter*>(bed.archs[1]->find_component(intern("fragile")));
    ASSERT_NE(migrated, nullptr);
    EXPECT_EQ(migrated->count, 7u);
  }
}

TEST(Migration, EventsBufferedDuringFlightAreDelivered) {
  Testbed bed(2);
  Counter& counter = bed.place_counter(0, "sink");
  auto& sender = static_cast<Counter&>(bed.archs[1]->add_component(
      std::make_unique<Counter>("source")));
  bed.archs[1]->weld(sender, *bed.connectors[1]);
  for (auto* connector : bed.connectors)
    connector->set_location(intern("source"), 1);
  (void)counter;

  // Start the migration, and while it is in flight keep sending ticks at
  // the (stale) location.
  bed.deployer->effect_deployment({{"sink", 1}}, [](bool, std::size_t) {});
  for (int i = 0; i < 10; ++i) {
    bed.sim.schedule_at(i * 2.0, [&sender] {
      Event tick("app.tick");
      tick.set_to("sink");
      sender.send(std::move(tick));
    });
  }
  bed.sim.run_until(30'000.0);
  auto* migrated = dynamic_cast<Counter*>(
      bed.archs[1]->find_component(intern("sink")));
  ASSERT_NE(migrated, nullptr);
  // Every tick eventually reached the component (re-routed or buffered).
  EXPECT_EQ(migrated->count, 10u);
}

TEST(Monitoring, ReportsReachDeployerAndCarryInventory) {
  AdminComponent::Params params;
  params.report_interval_ms = 500.0;
  Testbed bed(2, 1.0, false, params);
  bed.place_counter(1, "w1");
  bed.place_counter(1, "w2");

  std::vector<HostReport> reports;
  bed.deployer->set_report_handler(
      [&](const HostReport& r) { reports.push_back(r); });
  bed.admins[1]->start_reporting();
  bed.sim.run_until(2000.0);
  ASSERT_FALSE(reports.empty());
  const HostReport& latest = reports.back();
  EXPECT_EQ(latest.host, 1u);
  ASSERT_EQ(latest.components.size(), 2u);
  EXPECT_EQ(latest.components[0].name, "w1");
  EXPECT_DOUBLE_EQ(latest.components[0].memory_kb, 4.0);
  EXPECT_DOUBLE_EQ(latest.memory_kb, bed.archs[1]->total_memory_kb());
}

TEST(Monitoring, StopReportingHalts) {
  AdminComponent::Params params;
  params.report_interval_ms = 100.0;
  Testbed bed(2, 1.0, false, params);
  std::size_t count = 0;
  bed.deployer->set_report_handler([&](const HostReport&) { ++count; });
  bed.admins[1]->start_reporting();
  bed.sim.run_until(1000.0);
  const std::size_t before = count;
  EXPECT_GT(before, 0u);
  bed.admins[1]->stop_reporting();
  bed.sim.run_until(5000.0);
  EXPECT_LE(count, before + 1);
}

TEST(ComponentFactory, RegisterCreateAndErrors) {
  ComponentFactory factory;
  EXPECT_FALSE(factory.contains("counter"));
  EXPECT_THROW(factory.create("counter", "x"), std::out_of_range);
  factory.register_type("counter", [](std::string name) {
    return std::make_unique<Counter>(std::move(name));
  });
  EXPECT_TRUE(factory.contains("counter"));
  const auto component = factory.create("counter", "c1");
  EXPECT_EQ(component->name(), "c1");
  EXPECT_EQ(component->type_name(), "counter");
}

TEST(Migration, TimeoutReportsFailure) {
  AdminComponent::Params params;
  params.transfer_retry_interval_ms = 1e9;  // effectively no retries
  Testbed bed(2, 1.0, false, params);
  bed.place_counter(0, "worker");
  bed.net.sever(0, 1);  // nothing can get through

  bool completed = false;
  bool success = true;
  bed.deployer->effect_deployment(
      {{"worker", 1}}, [&](bool ok, std::size_t) {
        completed = true;
        success = ok;
      });
  bed.sim.run_until(60'000.0);  // past the 20 s deployer timeout
  EXPECT_TRUE(completed);
  EXPECT_FALSE(success);
}

}  // namespace
}  // namespace dif::prism

namespace dif::prism {
namespace {

TEST(Migration, DuplicateFromLostAcksIsResolvedByReclaimProtocol) {
  // Deterministic construction of the nasty case: the transfer arrives at
  // the target, but the source crashes before any confirmation can reach
  // it. On recovery the source has restored a provisional copy -> two
  // copies exist. The reclaim protocol must converge back to exactly one.
  AdminComponent::Params params;
  params.transfer_retry_interval_ms = 500.0;
  params.transfer_max_attempts = 3;
  Testbed bed(2, 1.0, false, params);
  // Slow the link so there is a window between delivery and confirmation.
  bed.net.set_link(0, 1, {.reliability = 1.0, .bandwidth = 1000.0,
                          .delay_ms = 500.0});
  Counter& counter = bed.place_counter(0, "dup");
  counter.count = 42;

  bed.deployer->effect_deployment({{"dup", 1}}, [](bool, std::size_t) {});
  // Two-phase timeline: prepare (0.5 s) + ack (0.5 s) + commit config
  // (0.5 s) + request (0.5 s) + transfer (0.5 s) => arrives ~2.5 s. Crash
  // the source at 2.7 s: the component is at host 1 but every ack/update
  // toward host 0 is lost.
  bed.sim.schedule_at(2'700.0, [&] { bed.net.fail_host(0); });
  // Source (still "up" CPU-wise, network-dead) exhausts its 3 retries and
  // restores a provisional copy around 2.7s + 3*0.5s.
  bed.sim.run_until(6'000.0);
  EXPECT_NE(bed.archs[0]->find_component(intern("dup")), nullptr)
      << "source should have provisionally restored";
  EXPECT_NE(bed.archs[1]->find_component(intern("dup")), nullptr);

  // Heal: reclaims (backed off, capped) eventually cross; the target
  // re-asserts; the provisional copy yields.
  bed.net.recover_host(0);
  bed.sim.run_until(120'000.0);
  const bool on0 = bed.archs[0]->find_component(intern("dup")) != nullptr;
  const bool on1 = bed.archs[1]->find_component(intern("dup")) != nullptr;
  EXPECT_FALSE(on0) << "provisional copy must yield";
  EXPECT_TRUE(on1);
  auto* survivor = dynamic_cast<Counter*>(
      bed.archs[1]->find_component(intern("dup")));
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(survivor->count, 42u);
}

}  // namespace
}  // namespace dif::prism

// ---- fault-path + epoch-bookkeeping scenarios --------------------------

namespace dif::prism {
namespace {

TEST(Migration, TimeoutWithPartitionedAdminRecordsFailureSpan) {
  // Host 1's admin is unreachable for the whole round: the deployer must
  // time out, report failure, and leave a trace span that says so.
  AdminComponent::Params admin_params;
  admin_params.transfer_retry_interval_ms = 1e9;
  Testbed bed(2, 1.0, false, admin_params,
              /*redeploy_timeout_ms=*/5'000.0);
  obs::Registry metrics;
  obs::TraceLog trace;
  bed.deployer->set_instruments({&metrics, &trace});
  bed.place_counter(0, "worker");
  bed.net.sever(0, 1);

  bool completed = false;
  bool success = true;
  bed.deployer->effect_deployment({{"worker", 1}},
                                  [&](bool ok, std::size_t) {
                                    completed = true;
                                    success = ok;
                                  });
  bed.sim.run_until(30'000.0);
  EXPECT_TRUE(completed);
  EXPECT_FALSE(success);
  ASSERT_NE(metrics.find_counter("deploy.timeouts"), nullptr);
  EXPECT_EQ(metrics.find_counter("deploy.timeouts")->value(), 1u);
  ASSERT_NE(metrics.find_counter("deploy.redeployments_failed"), nullptr);
  EXPECT_EQ(metrics.find_counter("deploy.redeployments_failed")->value(), 1u);
  EXPECT_EQ(metrics.find_counter("deploy.redeployments_succeeded"), nullptr);

  const auto spans = trace.find("deploy.redeploy");
  ASSERT_EQ(spans.size(), 1u);
  const obs::FieldValue* span_success = spans[0]->field("success");
  ASSERT_NE(span_success, nullptr);
  EXPECT_FALSE(std::get<bool>(*span_success));
  const obs::FieldValue* epoch = spans[0]->field("epoch");
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(std::get<std::int64_t>(*epoch), 1);
  // The span's duration is the timeout the deployer sat through.
  EXPECT_DOUBLE_EQ(spans[0]->dur_ms, 5'000.0);
}

TEST(Migration, RenotifyResumesAfterPartitionHeals) {
  // The initial __new_config dies on a severed link; once the link heals,
  // the renotify rebroadcasts must carry the round to completion well
  // before the (generous) timeout.
  Testbed bed(2, 1.0, false, {}, /*redeploy_timeout_ms=*/60'000.0,
              /*renotify_interval_ms=*/1'000.0);
  obs::Registry metrics;
  bed.deployer->set_instruments({&metrics, nullptr});
  bed.place_counter(0, "worker");
  bed.net.sever(0, 1);

  bool done = false;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"worker", 1}}, [&](bool ok, std::size_t) { done = ok; }));
  bed.sim.run_until(4'000.0);
  EXPECT_FALSE(done);
  EXPECT_TRUE(bed.deployer->redeployment_in_flight());

  bed.net.restore(0, 1);
  bed.sim.run_until(30'000.0);
  EXPECT_TRUE(done);
  EXPECT_NE(bed.archs[1]->find_component(intern("worker")), nullptr);
  ASSERT_NE(metrics.find_counter("deploy.renotify_total"), nullptr);
  EXPECT_GE(metrics.find_counter("deploy.renotify_total")->value(), 3u);
  ASSERT_NE(metrics.find_counter("deploy.redeployments_succeeded"), nullptr);
  EXPECT_EQ(metrics.find_counter("deploy.redeployments_succeeded")->value(),
            1u);
}

TEST(Migration, StaleEpochAckIsIgnored) {
  // A late __migration_ack from an abandoned epoch must not complete the
  // current round's bookkeeping; a matching-epoch ack must.
  Testbed bed(2);
  obs::Registry metrics;
  bed.deployer->set_instruments({&metrics, nullptr});
  bed.place_counter(0, "worker");
  bed.net.sever(0, 1);  // keep the round pending while we inject acks

  bool done = false;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"worker", 1}}, [&](bool ok, std::size_t) { done = ok; }));
  ASSERT_TRUE(bed.deployer->redeployment_in_flight());
  EXPECT_EQ(bed.deployer->current_epoch(), 1u);

  // Ack stamped with a previous epoch: ignored, counted.
  Event stale("__migration_ack");
  stale.set("component", std::string("worker"));
  stale.set("host", 1.0);
  stale.set("epoch", 0.0);
  bed.deployer->handle(stale);
  EXPECT_TRUE(bed.deployer->redeployment_in_flight());
  EXPECT_FALSE(done);
  EXPECT_EQ(bed.deployer->stale_acks_ignored(), 1u);

  // Ack with no epoch at all (pre-protocol peer / replayed message):
  // equally stale.
  Event unstamped("__migration_ack");
  unstamped.set("component", std::string("worker"));
  unstamped.set("host", 1.0);
  bed.deployer->handle(unstamped);
  EXPECT_TRUE(bed.deployer->redeployment_in_flight());
  EXPECT_EQ(bed.deployer->stale_acks_ignored(), 2u);
  ASSERT_NE(metrics.find_counter("deploy.stale_acks_ignored"), nullptr);
  EXPECT_EQ(metrics.find_counter("deploy.stale_acks_ignored")->value(), 2u);

  // The current epoch's ack completes the round.
  Event fresh("__migration_ack");
  fresh.set("component", std::string("worker"));
  fresh.set("host", 1.0);
  fresh.set("epoch", 1.0);
  bed.deployer->handle(fresh);
  EXPECT_FALSE(bed.deployer->redeployment_in_flight());
  EXPECT_TRUE(done);
  EXPECT_EQ(bed.deployer->stale_acks_ignored(), 2u);
}

TEST(Migration, StaleLocationUpdateDoesNotAck) {
  // __location_update doubles as an implicit ack — but only for the
  // current epoch. A replay from an earlier round must be ignored.
  Testbed bed(2);
  bed.place_counter(0, "worker");
  bed.net.sever(0, 1);
  bool done = false;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"worker", 1}}, [&](bool ok, std::size_t) { done = ok; }));

  Event replay("__location_update");
  replay.set("component", std::string("worker"));
  replay.set("host", 1.0);
  replay.set("restored", false);
  replay.set("epoch", 0.0);
  bed.deployer->handle(replay);
  EXPECT_TRUE(bed.deployer->redeployment_in_flight());
  EXPECT_FALSE(done);
  EXPECT_EQ(bed.deployer->stale_acks_ignored(), 1u);

  Event current("__location_update");
  current.set("component", std::string("worker"));
  current.set("host", 1.0);
  current.set("restored", false);
  current.set("epoch", 1.0);
  bed.deployer->handle(current);
  EXPECT_FALSE(bed.deployer->redeployment_in_flight());
  EXPECT_TRUE(done);
}

TEST(CrashRestart, TargetRestartMidRedeploymentDoesNotStrandComponent) {
  // The migration target dies while the component is in flight toward it.
  // After restart + re-registration the source's retransmit loop must
  // still land the component: exactly one copy, on the intended host.
  AdminComponent::Params params;
  params.transfer_retry_interval_ms = 500.0;
  params.transfer_max_attempts = 20;
  Testbed bed(3, 1.0, false, params);
  // Slow links: the transfer is reliably in flight when the crash hits.
  for (int a = 0; a < 3; ++a)
    for (int b = a + 1; b < 3; ++b)
      bed.net.set_link(a, b, {.reliability = 1.0, .bandwidth = 1000.0,
                              .delay_ms = 500.0});
  Counter& counter = bed.place_counter(1, "mover");
  counter.count = 7;

  bool done = false;
  ASSERT_TRUE(bed.deployer->effect_deployment(
      {{"mover", 2}}, [&](bool ok, std::size_t) { done = ok; }));
  // Request reaches host 1 ~0.5s in, the transfer lands ~1s in. Kill the
  // target at 1.2s wall: the in-flight delivery is dropped, acks are dead.
  bed.sim.schedule_at(1'200.0, [&] {
    bed.net.fail_host(2);
    bed.admins[2]->crash();
  });
  bed.sim.run_until(5'000.0);
  EXPECT_TRUE(bed.admins[2]->crashed());
  EXPECT_EQ(bed.archs[2]->find_component(intern("mover")), nullptr);

  bed.net.recover_host(2);
  bed.admins[2]->restart(/*resume_reporting=*/false);
  bed.sim.run_until(40'000.0);

  int copies = 0;
  for (int h = 0; h < 3; ++h)
    if (bed.archs[h]->find_component(intern("mover"))) ++copies;
  EXPECT_EQ(copies, 1) << "component stranded or duplicated";
  auto* landed = dynamic_cast<Counter*>(
      bed.archs[2]->find_component(intern("mover")));
  ASSERT_NE(landed, nullptr) << "migration never completed after restart";
  EXPECT_EQ(landed->count, 7u);
  EXPECT_TRUE(done);
}

TEST(CrashRestart, ForkedAuthoritativeCopiesResolveAcrossHops) {
  // Two *authoritative* copies on hosts that are not directly connected
  // (star topology, hub host 0): arbitration claims must relay through the
  // hub, the junior (higher id) copy demotes itself to provisional, and the
  // reclaim cycle destroys it — exactly one copy survives, on the senior.
  AdminComponent::Params params;
  params.transfer_retry_interval_ms = 500.0;
  params.fleet = {0, 1, 2};
  Testbed bed(3, 1.0, /*star=*/true, params);
  bed.place_counter(1, "twin");
  bed.place_counter(2, "twin");  // the fork; location tables now say host 2

  bed.sim.run_until(100.0);
  // A restart's re-registration broadcast is what surfaces the conflict.
  bed.admins[1]->crash();
  bed.admins[1]->restart(/*resume_reporting=*/false);
  bed.sim.run_until(60'000.0);

  EXPECT_NE(bed.archs[1]->find_component(intern("twin")), nullptr)
      << "senior authoritative copy must survive";
  EXPECT_EQ(bed.archs[2]->find_component(intern("twin")), nullptr)
      << "junior copy must demote and yield";
  int copies = 0;
  for (int h = 0; h < 3; ++h)
    if (bed.archs[h]->find_component(intern("twin"))) ++copies;
  EXPECT_EQ(copies, 1);
}

}  // namespace
}  // namespace dif::prism
