// Unit tests for streaming/batch statistics (util/statistics.h).
#include "util/statistics.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace dif::util {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, SingleSample) {
  OnlineStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(OnlineStats, MatchesClosedForm) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  Xoshiro256ss rng(1);
  OnlineStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(10.0, 3.0);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Summarize, EmptyInput) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Summarize, PercentilesOfKnownData) {
  std::vector<double> data;
  for (int i = 1; i <= 100; ++i) data.push_back(i);
  const Summary s = summarize(data);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_NEAR(s.p95, 95.05, 1e-9);
}

TEST(PercentileSorted, InterpolatesBetweenPoints) {
  const std::vector<double> sorted{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_sorted({7.0}, 0.3), 7.0);
}

TEST(SlidingWindow, RejectsZeroCapacity) {
  EXPECT_THROW(SlidingWindow(0), std::invalid_argument);
}

TEST(SlidingWindow, FillsThenEvictsOldest) {
  SlidingWindow w(3);
  EXPECT_FALSE(w.full());
  w.add(1.0);
  w.add(2.0);
  w.add(3.0);
  EXPECT_TRUE(w.full());
  EXPECT_DOUBLE_EQ(w.mean(), 2.0);
  w.add(10.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_DOUBLE_EQ(w.spread(), 8.0);
}

TEST(SlidingWindow, LatestTracksInsertionAcrossWrap) {
  SlidingWindow w(2);
  EXPECT_THROW((void)w.latest(), std::logic_error);
  w.add(1.0);
  EXPECT_DOUBLE_EQ(w.latest(), 1.0);
  w.add(2.0);
  EXPECT_DOUBLE_EQ(w.latest(), 2.0);
  w.add(3.0);
  EXPECT_DOUBLE_EQ(w.latest(), 3.0);
  w.add(4.0);
  EXPECT_DOUBLE_EQ(w.latest(), 4.0);
}

TEST(SlidingWindow, ClearEmpties) {
  SlidingWindow w(2);
  w.add(5.0);
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_DOUBLE_EQ(w.spread(), 0.0);
}

TEST(SlidingWindow, SpreadOfConstantSeriesIsZero) {
  SlidingWindow w(4);
  for (int i = 0; i < 10; ++i) w.add(3.3);
  EXPECT_DOUBLE_EQ(w.spread(), 0.0);
}

}  // namespace
}  // namespace dif::util
