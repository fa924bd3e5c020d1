// Unit tests for the discrete-event kernel (sim/simulator.h).
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace dif::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30.0, [&] { order.push_back(3); });
  sim.schedule_at(10.0, [&] { order.push_back(1); });
  sim.schedule_at(20.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 30.0);
}

TEST(Simulator, TiesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(7.0, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(100.0, [&] {
    sim.schedule_after(25.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 125.0);
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator sim;
  sim.schedule_at(50.0, [] {});
  sim.run();
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] { fired_at = sim.now(); });  // in the past
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 50.0);
  sim.schedule_after(-5.0, [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 50.0);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.schedule_at(20.0, [&] { ++fired; });
  sim.schedule_at(30.0, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(20.0), 2u);  // inclusive boundary
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 20.0);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run_until(25.0), 0u);  // no event, clock still advances
  EXPECT_DOUBLE_EQ(sim.now(), 25.0);
}

TEST(Simulator, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.schedule_after(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  EXPECT_EQ(sim.run(), 10u);
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(sim.now(), 9.0);
}

TEST(Simulator, RunWithEventCap) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i, [] {});
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_EQ(sim.pending(), 6u);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, StepFiresExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ClearDropsPendingEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.clear();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

// --- batched same-timestamp dispatch ---------------------------------------

TEST(Simulator, BatchesDispatchedCountsTimestampRuns) {
  Simulator sim;
  for (int i = 0; i < 3; ++i) sim.schedule_at(1.0, [] {});
  for (int i = 0; i < 2; ++i) sim.schedule_at(2.0, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 5u);
  // One heap drain per distinct timestamp, not per event.
  EXPECT_EQ(sim.batches_dispatched(), 2u);
}

TEST(Simulator, SameTimeCascadeKeepsSchedulingOrder) {
  // An event scheduled *during* a same-timestamp batch carries a larger
  // sequence number, so it must fire after everything already queued at that
  // time — batching may not let it jump the line.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] {
    order.push_back(0);
    sim.schedule_at(5.0, [&] { order.push_back(2); });
  });
  sim.schedule_at(5.0, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, EventCapSplitsSameTimestampBatch) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(3.0, [&order, i] { order.push_back(i); });
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ClearInsideHandlerDropsRestOfBatch) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.clear();
  });
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ThrowingHandlerLeavesRestOfBatchRunnable) {
  // Three events share t=5; the second throws. The third must not be
  // stranded in the drained batch: a later run() fires it, and before the
  // event the thrower scheduled at t=5, because it keeps its smaller
  // sequence number.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] { order.push_back(1); });
  sim.schedule_at(5.0, [&] {
    order.push_back(2);
    sim.schedule_at(5.0, [&] { order.push_back(4); });
    throw std::runtime_error("handler failure");
  });
  sim.schedule_at(5.0, [&] { order.push_back(3); });
  sim.schedule_at(7.0, [&] { order.push_back(5); });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.pending(), 3u);
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 7.0);
}

TEST(Simulator, ReservedSeqFiresWhereItWasReserved) {
  // A sequence number reserved before another event at the same time keeps
  // its place even though its event is scheduled later, from a handler
  // firing strictly before that time.
  Simulator sim;
  std::vector<int> order;
  const std::uint64_t seq = sim.reserve_seq();
  sim.schedule_at(10.0, [&] { order.push_back(2); });
  sim.schedule_at(5.0, [&] {
    sim.schedule_at(10.0, seq, [&] {
      order.push_back(1);
      EXPECT_EQ(sim.firing_seq(), seq);
    });
  });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.batches_dispatched(), 2u);
}

TEST(Simulator, ClearIsCounted) {
  Simulator sim;
  EXPECT_EQ(sim.clears(), 0u);
  sim.schedule_at(1.0, [] {});
  sim.clear();
  EXPECT_EQ(sim.clears(), 1u);
  EXPECT_EQ(sim.run(), 0u);
}

TEST(Simulator, BatchedDispatchIsDeterministic) {
  // Two identical schedules — including mid-batch cascades — must replay in
  // exactly the same order.
  const auto record = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
      sim.schedule_at(1.0, [&sim, &order, i] {
        order.push_back(i);
        if (i % 2 == 0)
          sim.schedule_at(1.0, [&order, i] { order.push_back(100 + i); });
        sim.schedule_after(1.0, [&order, i] { order.push_back(200 + i); });
      });
    sim.run();
    return order;
  };
  EXPECT_EQ(record(), record());
}

}  // namespace
}  // namespace dif::sim
