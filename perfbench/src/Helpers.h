//===- perfbench/src/Helpers.h - Statistics of the benchmark -----*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own statistics, kept free of daisy headers so that
/// tests/HelpersTest.cpp can check them in isolation: percentiles and the
/// choice of the highest one a sample supports, the quiet median of
/// host-normalized timings, a checked geometric mean, Spearman rank
/// correlation with ties, and the open-loop accounting that times every
/// request from its due time.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HELPERS_H
#define PERFBENCH_HELPERS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <vector>

namespace perfbench {

constexpr double NaN = std::numeric_limits<double>::quiet_NaN();
constexpr double Inf = std::numeric_limits<double>::infinity();

/// Quantile \p Q in [0, 1] of \p Samples, interpolating linearly between
/// the closest ranks (numpy's default). NaN for an empty sample.
inline double quantile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return NaN;
  std::sort(Samples.begin(), Samples.end());
  double Pos = std::clamp(Q, 0.0, 1.0) * static_cast<double>(Samples.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  if (Frac == 0.0 || Samples[Lo] == Samples[Hi])
    return Samples[Lo];
  return Samples[Lo] + Frac * (Samples[Hi] - Samples[Lo]);
}

inline double median(const std::vector<double> &Samples) {
  return quantile(Samples, 0.5);
}

/// How many of \p Count samples lie beyond the \p Percentile-th
/// percentile: those ranked above ceil(Count * Percentile / 100).
inline size_t samplesBeyond(size_t Count, double Percentile) {
  double Rank = std::ceil(static_cast<double>(Count) * Percentile / 100.0 - 1e-9);
  return Rank >= static_cast<double>(Count) ? 0
                                            : Count - static_cast<size_t>(Rank);
}

/// A tail percentile together with the evidence behind it.
struct TailChoice {
  double Percentile = 0.0; ///< 0 when no candidate qualifies.
  double Value = NaN;
  size_t Count = 0; ///< Sample count.
};

/// The highest of p99.9, p99, p95, p90, p75 and p50 that has at least 10
/// samples beyond it (Hoefler & Belli: never report a tail the sample
/// cannot resolve), plus the sample count.
inline TailChoice chooseTailPercentile(const std::vector<double> &Samples) {
  TailChoice Choice;
  Choice.Count = Samples.size();
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (samplesBeyond(Samples.size(), P) >= 10) {
      Choice.Percentile = P;
      Choice.Value = quantile(Samples, P / 100.0);
      return Choice;
    }
  }
  return Choice;
}

/// One timed operation: its time, already divided by the host slowdown
/// the probe before it read, and that slowdown (see Harness.h).
struct Timing {
  double Value = 0.0;
  double Slowdown = 1.0;
};

/// Share of a series' samples that quietMedian keeps.
constexpr double QuietShare = 0.1;

/// The median Value of the quietest QuietShare of \p Samples: those whose
/// probe read the lowest slowdowns (at least one sample). The probe slows
/// with its core, so dividing by it removes most of a co-tenant's load,
/// but at the busiest moments it overstates what the operation lost. Over
/// eight runs on a shared 4-vCPU host, in which from 3% to 79% of the
/// probes read a slowdown under 1.3, the geomean of these medians over
/// the 45 PolyBench programs' warm runs varied by 7% (243-260 us), that of
/// the medians of all normalized samples by 23% (201-248 us), and that of
/// the wall-clock medians by 68% (245-410 us). NaN for an empty input.
inline double quietMedian(std::vector<Timing> Samples) {
  if (Samples.empty())
    return NaN;
  std::stable_sort(Samples.begin(), Samples.end(),
                   [](const Timing &A, const Timing &B) {
                     return A.Slowdown < B.Slowdown;
                   });
  size_t Keep = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(QuietShare * Samples.size() - 1e-9)));
  std::vector<double> Values;
  for (size_t I = 0; I < Keep; ++I)
    Values.push_back(Samples[I].Value);
  return median(Values);
}

/// The Values of \p Samples.
inline std::vector<double> valuesOf(const std::vector<Timing> &Samples) {
  std::vector<double> Values;
  for (const Timing &T : Samples)
    Values.push_back(T.Value);
  return Values;
}

/// Geometric mean; NaN for an empty input or any value that is not
/// positive (a time or ratio of zero means a measurement went wrong).
inline double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return NaN;
  double LogSum = 0.0;
  for (double V : Values) {
    if (!(V > 0.0) || std::isinf(V))
      return NaN;
    LogSum += std::log(V);
  }
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

/// Ranks starting at 1; tied values share the mean of their ranks.
inline std::vector<double> averageRanks(const std::vector<double> &Values) {
  std::vector<size_t> Order(Values.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(),
                   [&](size_t A, size_t B) { return Values[A] < Values[B]; });
  std::vector<double> Ranks(Values.size());
  for (size_t I = 0; I < Order.size();) {
    size_t J = I;
    while (J + 1 < Order.size() && Values[Order[J + 1]] == Values[Order[I]])
      ++J;
    double Shared = (static_cast<double>(I + J) / 2.0) + 1.0;
    for (size_t K = I; K <= J; ++K)
      Ranks[Order[K]] = Shared;
    I = J + 1;
  }
  return Ranks;
}

/// Spearman rank correlation: the Pearson correlation of the average
/// ranks, so ties are handled exactly. NaN when fewer than two pairs or
/// either side is constant.
inline double spearman(const std::vector<double> &X,
                       const std::vector<double> &Y) {
  if (X.size() != Y.size() || X.size() < 2)
    return NaN;
  std::vector<double> RX = averageRanks(X), RY = averageRanks(Y);
  double N = static_cast<double>(X.size());
  double MX = std::accumulate(RX.begin(), RX.end(), 0.0) / N;
  double MY = std::accumulate(RY.begin(), RY.end(), 0.0) / N;
  double Sxy = 0.0, Sxx = 0.0, Syy = 0.0;
  for (size_t I = 0; I < RX.size(); ++I) {
    Sxy += (RX[I] - MX) * (RY[I] - MY);
    Sxx += (RX[I] - MX) * (RX[I] - MX);
    Syy += (RY[I] - MY) * (RY[I] - MY);
  }
  if (Sxx == 0.0 || Syy == 0.0)
    return NaN;
  return Sxy / std::sqrt(Sxx * Syy);
}

//===----------------------------------------------------------------------===//
// Open-loop accounting
//===----------------------------------------------------------------------===//

/// One request of an open-loop step, in seconds on one clock. Sent < 0:
/// the generator never sent it (no free argument slot). Done < 0: it
/// never completed.
struct RequestTimes {
  double Due = 0.0;
  double Sent = -1.0;
  double Done = -1.0;
  bool Ok = false; ///< Completed with RunStatus Ok and a correct output.
};

/// What a step's requests add up to.
struct OpenLoopAccount {
  /// Due time to completion, one entry per request. A request that failed
  /// or was never sent counts as +infinity: it misses every latency limit.
  std::vector<double> LatencyMs;
  std::vector<double> LatenessUs; ///< Send time minus due time, sent only.
  size_t Attempted = 0, Sent = 0, Completed = 0, Failed = 0;
};

/// Times every request from its due time, not from when the generator got
/// round to sending it, so a stall also charges the requests queued
/// behind it (coordinated omission).
inline OpenLoopAccount accountOpenLoop(const std::vector<RequestTimes> &Reqs) {
  OpenLoopAccount A;
  A.Attempted = Reqs.size();
  for (const RequestTimes &R : Reqs) {
    if (R.Sent >= 0.0) {
      ++A.Sent;
      A.LatenessUs.push_back(std::max(0.0, R.Sent - R.Due) * 1e6);
    }
    if (R.Sent >= 0.0 && R.Done >= 0.0 && R.Ok) {
      ++A.Completed;
      A.LatencyMs.push_back((R.Done - R.Due) * 1e3);
    } else {
      ++A.Failed;
      A.LatencyMs.push_back(Inf);
    }
  }
  return A;
}

/// A step's backlog grows when, at its last send, more requests are still
/// outstanding than the larger of the worker count and 5% of those sent:
/// completions fell behind sends.
inline bool backlogGrowing(size_t Sent, size_t Outstanding, int Workers) {
  double Allowed = std::max(static_cast<double>(Workers), 0.05 * Sent);
  return static_cast<double>(Outstanding) > Allowed;
}

} // namespace perfbench

#endif // PERFBENCH_HELPERS_H
