// Unit tests for monitoring facilities (prism/monitors.h) and the
// DistributionConnector (prism/distribution.h).
#include "prism/monitors.h"

#include <gtest/gtest.h>

#include "prism/architecture.h"

namespace dif::prism {
namespace {

TEST(StabilityFilter, ReleasesOnlyWhenWindowIsTight) {
  StabilityFilter filter(3, 0.1);
  EXPECT_FALSE(filter.add(1.0).has_value());   // window not full
  EXPECT_FALSE(filter.add(2.0).has_value());
  EXPECT_FALSE(filter.add(1.5).has_value());   // full, spread 1.0 > 0.1
  EXPECT_FALSE(filter.add(1.52).has_value());  // {1.52,2.0,1.5} still wide
  // window now {1.52,1.48,1.5}: spread 0.04 < 0.1 -> stable, returns mean
  const auto stable = filter.add(1.48);
  ASSERT_TRUE(stable.has_value());
  EXPECT_NEAR(*stable, 1.5, 0.02);
}

TEST(StabilityFilter, ConstantSeriesStabilizesAtWindowFill) {
  StabilityFilter filter(4, 0.01);
  EXPECT_FALSE(filter.add(5.0).has_value());
  EXPECT_FALSE(filter.add(5.0).has_value());
  EXPECT_FALSE(filter.add(5.0).has_value());
  const auto stable = filter.add(5.0);
  ASSERT_TRUE(stable.has_value());
  EXPECT_DOUBLE_EQ(*stable, 5.0);
  EXPECT_TRUE(filter.stable());
}

TEST(StabilityFilter, ResetForgetsHistory) {
  StabilityFilter filter(2, 0.1);
  (void)filter.add(1.0);
  (void)filter.add(1.0);
  EXPECT_TRUE(filter.stable());
  filter.reset();
  EXPECT_FALSE(filter.stable());
}

class Probe final : public Component {
 public:
  explicit Probe(std::string name) : Component(std::move(name)) {}
  void handle(const Event&) override {}
  [[nodiscard]] std::string type_name() const override { return "probe"; }
};

TEST(EvtFrequencyMonitor, MeasuresPairFrequencies) {
  sim::Simulator sim;
  SimScaffold scaffold(sim);
  Architecture arch("a", scaffold, 0);
  auto& a = arch.add_component(std::make_unique<Probe>("a"));
  auto& b = arch.add_component(std::make_unique<Probe>("b"));
  auto& bus = arch.add_connector(std::make_unique<Connector>("bus"));
  arch.weld(a, bus);
  arch.weld(b, bus);
  auto monitor = std::make_shared<EvtFrequencyMonitor>(scaffold);
  a.add_monitor(monitor);
  b.add_monitor(monitor);

  // 20 events from a (broadcast; received by b) over 2 simulated seconds.
  for (int i = 0; i < 20; ++i) {
    sim.schedule_at(i * 100.0, [&a] {
      Event e("app.msg");
      e.set("payload", std::vector<std::uint8_t>(2048));
      a.send(std::move(e));
    });
  }
  sim.run_until(2000.0);
  const auto pairs = monitor->collect();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].from, "a");
  EXPECT_EQ(pairs[0].to, "b");
  EXPECT_NEAR(pairs[0].frequency, 10.0, 0.5);  // 20 events / 2 s
  EXPECT_GT(pairs[0].avg_event_size_kb, 1.9);
  // collect() resets the counters, but a recently-active pair keeps being
  // reported — with an explicit zero — so consumers observe the interaction
  // stopping rather than the pair silently vanishing.
  const auto quiet = monitor->collect();
  ASSERT_EQ(quiet.size(), 1u);
  EXPECT_EQ(quiet[0].from, "a");
  EXPECT_EQ(quiet[0].to, "b");
  EXPECT_DOUBLE_EQ(quiet[0].frequency, 0.0);
}

TEST(EvtFrequencyMonitor, SilentPairReportsZeroThenRetires) {
  sim::Simulator sim;
  SimScaffold scaffold(sim);
  Architecture arch("a", scaffold, 0);
  auto& a = arch.add_component(std::make_unique<Probe>("a"));
  auto& b = arch.add_component(std::make_unique<Probe>("b"));
  auto& bus = arch.add_connector(std::make_unique<Connector>("bus"));
  arch.weld(a, bus);
  arch.weld(b, bus);
  auto monitor = std::make_shared<EvtFrequencyMonitor>(scaffold,
                                                       /*retain_windows=*/2);
  a.add_monitor(monitor);
  b.add_monitor(monitor);

  sim.schedule_at(100.0, [&a] { a.send(Event("app.msg")); });
  sim.run_until(1000.0);
  ASSERT_EQ(monitor->collect().size(), 1u);  // active window

  // Two quiet windows report the pair at zero, then it is retired.
  for (int window = 0; window < 2; ++window) {
    const auto pairs = monitor->collect();
    ASSERT_EQ(pairs.size(), 1u) << "window " << window;
    EXPECT_DOUBLE_EQ(pairs[0].frequency, 0.0);
    EXPECT_DOUBLE_EQ(pairs[0].avg_event_size_kb, 0.0);
  }
  EXPECT_TRUE(monitor->collect().empty());
}

TEST(EvtFrequencyMonitor, ReactivatedPairResetsRetirementClock) {
  sim::Simulator sim;
  SimScaffold scaffold(sim);
  Architecture arch("a", scaffold, 0);
  auto& a = arch.add_component(std::make_unique<Probe>("a"));
  auto& b = arch.add_component(std::make_unique<Probe>("b"));
  auto& bus = arch.add_connector(std::make_unique<Connector>("bus"));
  arch.weld(a, bus);
  arch.weld(b, bus);
  auto monitor = std::make_shared<EvtFrequencyMonitor>(scaffold,
                                                       /*retain_windows=*/2);
  a.add_monitor(monitor);
  b.add_monitor(monitor);

  sim.schedule_at(100.0, [&a] { a.send(Event("app.msg")); });
  sim.run_until(1000.0);
  ASSERT_EQ(monitor->collect().size(), 1u);
  ASSERT_EQ(monitor->collect().size(), 1u);  // quiet window 1 of 2

  // Activity within the retention horizon restarts the clock: the pair is
  // live again and afterwards survives two further quiet windows.
  sim.schedule_at(1500.0, [&a] { a.send(Event("app.msg")); });
  sim.run_until(2000.0);
  auto pairs = monitor->collect();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_GT(pairs[0].frequency, 0.0);
  EXPECT_EQ(monitor->collect().size(), 1u);
  EXPECT_EQ(monitor->collect().size(), 1u);
  EXPECT_TRUE(monitor->collect().empty());
}

TEST(EvtFrequencyMonitor, IgnoresControlEvents) {
  sim::Simulator sim;
  SimScaffold scaffold(sim);
  Architecture arch("a", scaffold, 0);
  auto& a = arch.add_component(std::make_unique<Probe>("a"));
  auto& b = arch.add_component(std::make_unique<Probe>("b"));
  auto& bus = arch.add_connector(std::make_unique<Connector>("bus"));
  arch.weld(a, bus);
  arch.weld(b, bus);
  auto monitor = std::make_shared<EvtFrequencyMonitor>(scaffold);
  b.add_monitor(monitor);
  a.send(Event("__monitor_report"));
  a.send(Event("__location_update"));
  sim.run();
  EXPECT_EQ(monitor->events_observed(), 0u);
}

TEST(EvtFrequencyMonitor, CollectReportsPairsInNameOrder) {
  // Interned in reverse name order, so id order and name order disagree.
  sim::Simulator sim;
  SimScaffold scaffold(sim);
  Architecture arch("a", scaffold, 0);
  auto& z = arch.add_component(std::make_unique<Probe>("order.z"));
  auto& m = arch.add_component(std::make_unique<Probe>("order.m"));
  auto& a = arch.add_component(std::make_unique<Probe>("order.a"));
  auto& bus = arch.add_connector(std::make_unique<Connector>("bus"));
  auto monitor = std::make_shared<EvtFrequencyMonitor>(scaffold);
  for (Component* c : {&z, &m, &a}) {
    arch.weld(*c, bus);
    c->add_monitor(monitor);
  }
  for (Component* from : {&z, &m, &a}) {
    for (const char* to : {"order.m", "order.a", "order.z"}) {
      if (from->name() == to) continue;
      Event e("app.msg");
      e.set_to(to);
      from->send(std::move(e));
    }
  }
  sim.run_until(1000.0);
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"order.a", "order.m"}, {"order.a", "order.z"}, {"order.m", "order.a"},
      {"order.m", "order.z"}, {"order.z", "order.a"}, {"order.z", "order.m"}};
  const auto names = [](const auto& pairs) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& p : pairs) out.emplace_back(p.from, p.to);
    return out;
  };
  EXPECT_EQ(names(monitor->collect()), expected);
  // The same pairs, now silent, come back as zeros in the same order.
  const auto quiet = monitor->collect();
  EXPECT_EQ(names(quiet), expected);
  for (const auto& p : quiet) EXPECT_DOUBLE_EQ(p.frequency, 0.0);
}

struct NetFixture {
  sim::Simulator sim;
  sim::SimNetwork net{sim, 2, 1};
  SimScaffold scaffold{sim};
  Architecture arch0{"a0", scaffold, 0};
  Architecture arch1{"a1", scaffold, 1};
  DistributionConnector* d0 = nullptr;
  DistributionConnector* d1 = nullptr;

  explicit NetFixture(double reliability) {
    net.set_link(0, 1, {.reliability = reliability, .bandwidth = 1e6,
                        .delay_ms = 1.0});
    d0 = &static_cast<DistributionConnector&>(arch0.add_connector(
        std::make_unique<DistributionConnector>("d0", net, 0)));
    d1 = &static_cast<DistributionConnector&>(arch1.add_connector(
        std::make_unique<DistributionConnector>("d1", net, 1)));
    d0->add_peer(1);
    d1->add_peer(0);
  }
};

TEST(NetworkReliabilityMonitor, PerfectLinkMeasuresOne) {
  NetFixture f(1.0);
  NetworkReliabilityMonitor monitor(*f.d0, f.sim,
                                    {.interval_ms = 100.0,
                                     .pings_per_round = 4});
  monitor.start();
  f.sim.run_until(2000.0);
  monitor.stop();
  f.sim.run_until(2100.0);  // let the final round's pongs land
  const auto estimates = monitor.collect();
  ASSERT_EQ(estimates.size(), 1u);
  EXPECT_EQ(estimates[0].peer, 1u);
  EXPECT_DOUBLE_EQ(estimates[0].reliability, 1.0);
  EXPECT_GT(estimates[0].probes, 0u);
}

TEST(NetworkReliabilityMonitor, LossyLinkEstimateNearTruth) {
  NetFixture f(0.8);
  NetworkReliabilityMonitor monitor(*f.d0, f.sim,
                                    {.interval_ms = 10.0,
                                     .pings_per_round = 16});
  monitor.start();
  f.sim.run_until(30'000.0);
  const auto estimates = monitor.collect();
  ASSERT_EQ(estimates.size(), 1u);
  // sqrt(round-trip success) estimates the one-way reliability.
  EXPECT_NEAR(estimates[0].reliability, 0.8, 0.05);
}

TEST(NetworkReliabilityMonitor, SeveredLinkMeasuresZero) {
  NetFixture f(1.0);
  f.net.sever(0, 1);
  NetworkReliabilityMonitor monitor(*f.d0, f.sim,
                                    {.interval_ms = 100.0,
                                     .pings_per_round = 2});
  monitor.start();
  f.sim.run_until(1000.0);
  const auto estimates = monitor.collect();
  ASSERT_EQ(estimates.size(), 1u);
  EXPECT_DOUBLE_EQ(estimates[0].reliability, 0.0);
}

TEST(NetworkReliabilityMonitor, StopHaltsProbing) {
  NetFixture f(1.0);
  NetworkReliabilityMonitor monitor(*f.d0, f.sim, {.interval_ms = 100.0,
                                                   .pings_per_round = 1});
  monitor.start();
  f.sim.run_until(500.0);
  monitor.stop();
  (void)monitor.collect();
  f.sim.run_until(2000.0);
  EXPECT_TRUE(monitor.collect().empty());
}

}  // namespace
}  // namespace dif::prism
