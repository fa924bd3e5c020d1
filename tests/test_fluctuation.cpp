// Unit tests for fluctuation and partition scheduling (sim/fluctuation.h).
#include "sim/fluctuation.h"

#include <gtest/gtest.h>

namespace dif::sim {
namespace {

struct Fixture {
  Simulator sim;
  SimNetwork net{sim, 3, 1};
  Fixture() {
    net.set_link(0, 1, {.reliability = 0.8, .bandwidth = 100.0});
    net.set_link(1, 2, {.reliability = 0.5, .bandwidth = 50.0});
  }
};

TEST(Fluctuation, StepsAtConfiguredInterval) {
  Fixture f;
  FluctuationModel fluct(f.net, {.interval_ms = 100.0}, 2);
  fluct.start();
  f.sim.run_until(1000.0);
  EXPECT_EQ(fluct.steps(), 10u);
  fluct.stop();
  f.sim.run_until(2000.0);
  EXPECT_EQ(fluct.steps(), 10u);
}

TEST(Fluctuation, ReliabilityStaysClamped) {
  Fixture f;
  FluctuationModel::Params params;
  params.interval_ms = 10.0;
  params.reliability_step = 0.5;  // violent walk
  params.reliability_floor = 0.1;
  params.reliability_ceil = 0.9;
  FluctuationModel fluct(f.net, params, 3);
  fluct.start();
  for (int i = 0; i < 100; ++i) {
    f.sim.run_until(f.sim.now() + 10.0);
    for (const auto& [a, b] : {std::pair{0, 1}, std::pair{1, 2}}) {
      const double r = f.net.link(a, b).reliability;
      EXPECT_GE(r, 0.1);
      EXPECT_LE(r, 0.9);
    }
  }
}

TEST(Fluctuation, BandwidthStaysWithinFactorOfBase) {
  Fixture f;
  FluctuationModel::Params params;
  params.interval_ms = 10.0;
  params.bandwidth_step_fraction = 0.5;
  params.bandwidth_floor_fraction = 0.5;
  params.bandwidth_ceil_fraction = 1.5;
  FluctuationModel fluct(f.net, params, 4);
  fluct.start();
  f.sim.run_until(5000.0);
  EXPECT_GE(f.net.link(0, 1).bandwidth, 50.0);
  EXPECT_LE(f.net.link(0, 1).bandwidth, 150.0);
  EXPECT_GE(f.net.link(1, 2).bandwidth, 25.0);
  EXPECT_LE(f.net.link(1, 2).bandwidth, 75.0);
}

TEST(Fluctuation, NeverCreatesLinks) {
  Fixture f;
  FluctuationModel fluct(f.net, {.interval_ms = 10.0}, 5);
  fluct.start();
  f.sim.run_until(1000.0);
  EXPECT_FALSE(f.net.reachable(0, 2));
}

TEST(Fluctuation, DeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    Fixture f;
    FluctuationModel fluct(f.net, {.interval_ms = 10.0}, seed);
    fluct.start();
    f.sim.run_until(500.0);
    return f.net.link(0, 1).reliability;
  };
  EXPECT_DOUBLE_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

TEST(Fluctuation, StepOnceChangesParameters) {
  Fixture f;
  FluctuationModel fluct(f.net, {}, 6);
  const double before = f.net.link(0, 1).reliability;
  fluct.step_once();
  EXPECT_NE(f.net.link(0, 1).reliability, before);
}

TEST(Fluctuation, RejectsNonPositiveInterval) {
  Fixture f;
  EXPECT_THROW(FluctuationModel(f.net, {.interval_ms = 0.0}, 1),
               std::invalid_argument);
}

TEST(PartitionSchedule, OutageWindowSeversAndRestores) {
  Fixture f;
  PartitionSchedule schedule(f.net);
  schedule.add_outage(0, 1, 100.0, 200.0);
  f.sim.run_until(50.0);
  EXPECT_TRUE(f.net.reachable(0, 1));
  f.sim.run_until(150.0);
  EXPECT_FALSE(f.net.reachable(0, 1));
  f.sim.run_until(250.0);
  EXPECT_TRUE(f.net.reachable(0, 1));
}

TEST(PartitionSchedule, RejectsInvertedWindow) {
  Fixture f;
  PartitionSchedule schedule(f.net);
  EXPECT_THROW(schedule.add_outage(0, 1, 200.0, 100.0),
               std::invalid_argument);
}

TEST(PartitionSchedule, FluctuationPreservesSeveredState) {
  Fixture f;
  FluctuationModel fluct(f.net, {.interval_ms = 10.0}, 7);
  fluct.start();
  f.net.sever(0, 1);
  f.sim.run_until(100.0);
  EXPECT_FALSE(f.net.reachable(0, 1));
}

}  // namespace
}  // namespace dif::sim
