//===- perfbench/tests/HelpersTest.cpp - the benchmark's statistics -------===//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Helpers.h"

#include <gtest/gtest.h>

using namespace perfbench;

namespace {

std::vector<double> iota(size_t N) {
  std::vector<double> V(N);
  for (size_t I = 0; I < N; ++I)
    V[I] = static_cast<double>(I + 1);
  return V;
}

TEST(Quantile, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(iota(101), 0.99), 100.0);
  EXPECT_TRUE(std::isnan(quantile({}, 0.5)));
}

TEST(TailPercentile, CountsSamplesBeyond) {
  EXPECT_EQ(samplesBeyond(1000, 99), 10u);
  EXPECT_EQ(samplesBeyond(999, 99), 9u);
  EXPECT_EQ(samplesBeyond(100, 90), 10u);
  EXPECT_EQ(samplesBeyond(10000, 99.9), 10u);
  EXPECT_EQ(samplesBeyond(20, 50), 10u);
  EXPECT_EQ(samplesBeyond(5, 100), 0u);
}

TEST(TailPercentile, PicksHighestWithTenBeyond) {
  TailChoice C = chooseTailPercentile(iota(1000));
  EXPECT_EQ(C.Percentile, 99.0);
  EXPECT_EQ(C.Count, 1000u);
  EXPECT_DOUBLE_EQ(C.Value, quantile(iota(1000), 0.99));

  C = chooseTailPercentile(iota(999));
  EXPECT_EQ(C.Percentile, 95.0) << "p99 of 999 samples has only 9 beyond";
  EXPECT_EQ(C.Count, 999u);

  EXPECT_EQ(chooseTailPercentile(iota(10000)).Percentile, 99.9);
  EXPECT_EQ(chooseTailPercentile(iota(100)).Percentile, 90.0);
  EXPECT_EQ(chooseTailPercentile(iota(20)).Percentile, 50.0);

  C = chooseTailPercentile(iota(19));
  EXPECT_EQ(C.Percentile, 0.0) << "no percentile has 10 samples beyond";
  EXPECT_TRUE(std::isnan(C.Value));
  EXPECT_EQ(C.Count, 19u);
}

TEST(Geomean, OfPositiveValues) {
  EXPECT_DOUBLE_EQ(geomean({1, 4}), 2.0);
  EXPECT_NEAR(geomean({2, 8, 4}), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(geomean({7}), 7.0);
  EXPECT_NEAR(geomean({1e-300, 1e300}), 1.0, 1e-9) << "no overflow";
}

TEST(Geomean, RejectsEmptyZeroNegativeAndInfinite) {
  EXPECT_TRUE(std::isnan(geomean({})));
  EXPECT_TRUE(std::isnan(geomean({1, 0})));
  EXPECT_TRUE(std::isnan(geomean({1, -2})));
  EXPECT_TRUE(std::isnan(geomean({1, Inf})));
  EXPECT_TRUE(std::isnan(geomean({1, NaN})));
}

TEST(QuietMedian, KeepsTheSamplesWithTheLowestSlowdowns) {
  // Twenty samples; the two with the lowest slowdowns (1.0 and 1.1) are
  // kept whatever their values, so a busy moment's sample never counts.
  std::vector<Timing> Samples;
  for (int I = 0; I < 20; ++I)
    Samples.push_back({100.0 + I, 3.0 - 0.1 * I});
  Samples.push_back({7.0, 1.1});
  Samples.push_back({9.0, 1.0});
  EXPECT_EQ(Samples.size(), 22u);
  // ceil(0.1 * 22) = 3 kept: 9, 7 and the sample at slowdown 1.1 (119).
  EXPECT_DOUBLE_EQ(quietMedian(Samples), 9.0);
  Samples.resize(20);
  // Two kept: slowdowns 1.1 (119) and 1.2 (118).
  EXPECT_DOUBLE_EQ(quietMedian(Samples), 118.5);
}

TEST(QuietMedian, KeepsAtLeastOneSample) {
  EXPECT_DOUBLE_EQ(quietMedian({{5.0, 2.0}, {6.0, 1.5}, {4.0, 1.8}}), 6.0);
  EXPECT_DOUBLE_EQ(quietMedian({{5.0, 2.0}}), 5.0);
  EXPECT_TRUE(std::isnan(quietMedian({})));
}

TEST(Spearman, MonotoneAndReversed) {
  EXPECT_DOUBLE_EQ(spearman({1, 2, 3, 4}, {10, 20, 35, 100}), 1.0);
  EXPECT_DOUBLE_EQ(spearman({1, 2, 3, 4}, {4, 3, 2, 1}), -1.0);
}

TEST(Spearman, TiesShareAverageRanks) {
  std::vector<double> Ranks = averageRanks({10, 20, 20, 30});
  EXPECT_EQ(Ranks, (std::vector<double>{1, 2.5, 2.5, 4}));
  EXPECT_EQ(averageRanks({5, 5, 5}), (std::vector<double>{2, 2, 2}));
  // Ranks {1, 2.5, 2.5, 4} against {1, 2, 3, 4}: 4.5 / sqrt(4.5 * 5).
  EXPECT_NEAR(spearman({1, 2, 2, 3}, {1, 2, 3, 4}), 4.5 / std::sqrt(22.5),
              1e-12);
}

TEST(Spearman, UndefinedCases) {
  EXPECT_TRUE(std::isnan(spearman({1}, {2})));
  EXPECT_TRUE(std::isnan(spearman({1, 2}, {1, 2, 3})));
  EXPECT_TRUE(std::isnan(spearman({3, 3, 3}, {1, 2, 3})));
}

TEST(OpenLoop, LatencyRunsFromTheDueTime) {
  std::vector<RequestTimes> Reqs(4);
  Reqs[0] = {0.000, 0.000, 0.010, true}; // On time: 10 ms.
  Reqs[1] = {0.001, 0.005, 0.006, true}; // Sent 4 ms late: 5 ms, not 1.
  Reqs[2] = {0.002, 0.002, 0.003, false}; // Completed with an error.
  Reqs[3] = {0.003, -1.0, -1.0, false};   // No free slot: never sent.
  OpenLoopAccount A = accountOpenLoop(Reqs);
  EXPECT_EQ(A.Attempted, 4u);
  EXPECT_EQ(A.Sent, 3u);
  EXPECT_EQ(A.Completed, 2u);
  EXPECT_EQ(A.Failed, 2u);
  ASSERT_EQ(A.LatencyMs.size(), 4u);
  EXPECT_NEAR(A.LatencyMs[0], 10.0, 1e-9);
  EXPECT_NEAR(A.LatencyMs[1], 5.0, 1e-9);
  EXPECT_TRUE(std::isinf(A.LatencyMs[2])) << "failures miss every limit";
  EXPECT_TRUE(std::isinf(A.LatencyMs[3]));
  ASSERT_EQ(A.LatenessUs.size(), 3u);
  EXPECT_NEAR(A.LatenessUs[0], 0.0, 1e-6);
  EXPECT_NEAR(A.LatenessUs[1], 4000.0, 1e-6);
}

TEST(OpenLoop, StallChargesEveryRequestQueuedBehindIt) {
  // Ten requests due 1 ms apart; the generator stalls 20 ms before the
  // first send and then sends everything at once; each completes 1 ms
  // after its send.
  std::vector<RequestTimes> Reqs;
  for (int I = 0; I < 10; ++I)
    Reqs.push_back({I * 0.001, 0.020, 0.021, true});
  OpenLoopAccount A = accountOpenLoop(Reqs);
  for (int I = 0; I < 10; ++I)
    EXPECT_NEAR(A.LatencyMs[I], 21.0 - I, 1e-9);
  EXPECT_NEAR(quantile(A.LatenessUs, 1.0), 20000.0, 1e-6);
}

TEST(OpenLoop, BacklogGrowsWhenCompletionsFallBehind) {
  EXPECT_FALSE(backlogGrowing(1000, 3, 3)) << "requests in service";
  EXPECT_FALSE(backlogGrowing(1000, 50, 3)) << "within 5% of those sent";
  EXPECT_TRUE(backlogGrowing(1000, 51, 3));
  EXPECT_TRUE(backlogGrowing(20, 4, 3)) << "few sends: the workers bound it";
}

} // namespace
