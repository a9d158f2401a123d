//===- support/Histogram.h - Lock-free bucketed histograms ------*- C++ -*-===//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-bucket, lock-free histograms for hot-path telemetry, extracted
/// from the serving runtime (serve/Server.cpp used to hand-roll two of
/// these) so every subsystem records into the same structure and the
/// metrics exporter (obs/Metrics.h) can expose any of them uniformly.
///
/// AtomicHistogram<N, Bucketing> is an array of N relaxed atomic cells; a
/// record() is one fetch_add, so any number of worker lanes record
/// concurrently with readers snapshotting — a racing snapshot sees each
/// cell's count at some instant, which is all a histogram promises.
/// The Bucketing policy maps a sample value to a cell and back to the
/// bucket's bounds/midpoint, so quantile estimation and Prometheus-style
/// cumulative exposition derive from one definition instead of three.
///
/// Two bucketings cover the runtime's needs:
///
///   - Log2Bucketing: bucket B counts samples in [2^B, 2^(B+1)) (bucket 0
///     takes 0 and 1). Queue depths: 16 buckets reach 65k.
///   - LogLinearBucketing: exact buckets below 4, then four sub-buckets
///     per octave (resolution about ±12.5%). 256 buckets span past
///     centuries of microseconds, so the top clamp is theoretical.
///     Latencies: accurate at the microsecond floor, log-compact at the
///     tail.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_SUPPORT_HISTOGRAM_H
#define DAISY_SUPPORT_HISTOGRAM_H

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace daisy {

/// Power-of-two bucketing: floor(log2(Value)), clamped to the histogram.
struct Log2Bucketing {
  static size_t bucket(uint64_t Value, size_t Buckets) {
    size_t B = 0;
    while (Value > 1 && B + 1 < Buckets) {
      Value >>= 1;
      ++B;
    }
    return B;
  }
  /// Bucket 0 starts at 0 (it also holds the zero samples).
  static double lowerBound(size_t Idx, size_t /*Buckets*/) {
    return Idx == 0 ? 0.0 : static_cast<double>(1ull << Idx);
  }
  /// Exclusive upper bound; the clamp bucket is unbounded.
  static double upperBound(size_t Idx, size_t Buckets) {
    if (Idx + 1 >= Buckets)
      return std::numeric_limits<double>::infinity();
    return static_cast<double>(1ull << (Idx + 1));
  }
  static double midpoint(size_t Idx, size_t Buckets) {
    if (Idx + 1 >= Buckets)
      return lowerBound(Idx, Buckets);
    return 0.5 * (lowerBound(Idx, Buckets) + upperBound(Idx, Buckets));
  }
};

/// Log-linear bucketing: exact below 4, then four sub-buckets per octave
/// (±12.5% resolution). The bucket layout (and therefore every quantile
/// the serving runtime ever reported) is exactly the one serve/Server.cpp
/// introduced; it now lives here so the three per-stage histograms and
/// the exporter share it.
struct LogLinearBucketing {
  static size_t bucket(uint64_t Value, size_t Buckets) {
    if (Value < 4)
      return static_cast<size_t>(Value);
    size_t E = 63 - static_cast<size_t>(__builtin_clzll(Value));
    size_t Sub = static_cast<size_t>((Value >> (E - 2)) & 3);
    size_t Idx = (E - 1) * 4 + Sub;
    return Idx < Buckets ? Idx : Buckets - 1;
  }
  static double lowerBound(size_t Idx, size_t /*Buckets*/) {
    if (Idx < 4)
      return static_cast<double>(Idx);
    size_t E = Idx / 4 + 1;
    size_t Sub = Idx % 4;
    return static_cast<double>((4ull + Sub) << (E - 2));
  }
  /// Exclusive upper bound; below 4 the buckets are single integers, and
  /// the clamp bucket is unbounded.
  static double upperBound(size_t Idx, size_t Buckets) {
    if (Idx + 1 >= Buckets)
      return std::numeric_limits<double>::infinity();
    if (Idx < 4)
      return static_cast<double>(Idx + 1);
    size_t E = Idx / 4 + 1;
    return lowerBound(Idx, Buckets) + static_cast<double>(1ull << (E - 2));
  }
  /// The quantile estimate of a bucket. Exact buckets report their exact
  /// value (not value + 0.5): a 0µs sample is 0µs, not half a microsecond.
  static double midpoint(size_t Idx, size_t Buckets) {
    if (Idx < 4)
      return static_cast<double>(Idx);
    if (Idx + 1 >= Buckets)
      return lowerBound(Idx, Buckets);
    return 0.5 * (lowerBound(Idx, Buckets) + upperBound(Idx, Buckets));
  }
};

/// The histogram: N lock-free cells under a Bucketing policy. All methods
/// are safe against concurrent record() calls; mutators other than
/// record() (reset, merge destination) are for quiesced phases.
template <size_t N, typename Bucketing> class AtomicHistogram {
  static_assert(N >= 2, "a histogram needs at least two buckets");

public:
  AtomicHistogram() {
    for (auto &Cell : Cells)
      Cell.store(0, std::memory_order_relaxed);
  }

  static constexpr size_t size() { return N; }

  /// One sample. The hot-path cost: one relaxed fetch_add.
  void record(uint64_t Value) {
    Cells[Bucketing::bucket(Value, N)].fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t count() const {
    uint64_t Total = 0;
    for (const auto &Cell : Cells)
      Total += Cell.load(std::memory_order_relaxed);
    return Total;
  }

  std::array<uint64_t, N> snapshot() const {
    std::array<uint64_t, N> Out;
    for (size_t I = 0; I < N; ++I)
      Out[I] = Cells[I].load(std::memory_order_relaxed);
    return Out;
  }

  /// Quantile (0 <= Q <= 1) estimated at the covering bucket's midpoint;
  /// 0 when the histogram is empty.
  double quantile(double Q) const {
    std::array<uint64_t, N> Counts = snapshot();
    uint64_t Total = 0;
    for (uint64_t C : Counts)
      Total += C;
    if (Total == 0)
      return 0.0;
    Q = std::min(std::max(Q, 0.0), 1.0);
    uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(Total - 1));
    uint64_t Seen = 0;
    for (size_t I = 0; I < N; ++I) {
      Seen += Counts[I];
      if (Seen > Rank)
        return Bucketing::midpoint(I, N);
    }
    return Bucketing::midpoint(N - 1, N);
  }

  /// Midpoint-weighted estimate of the sum of all recorded samples.
  /// Error is bounded by the bucketing resolution per sample.
  double approxSum() const {
    double Sum = 0.0;
    for (size_t I = 0; I < N; ++I)
      Sum += static_cast<double>(Cells[I].load(std::memory_order_relaxed)) *
             Bucketing::midpoint(I, N);
    return Sum;
  }

  /// Adds \p Other's cells into this histogram, e.g. to combine the
  /// samples of several recorders into one distribution.
  void merge(const AtomicHistogram &Other) {
    for (size_t I = 0; I < N; ++I)
      Cells[I].fetch_add(Other.Cells[I].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  }

  void reset() {
    for (auto &Cell : Cells)
      Cell.store(0, std::memory_order_relaxed);
  }

  // Bucket-bounds iteration for exporters and quantile consumers.
  static double lowerBound(size_t Idx) { return Bucketing::lowerBound(Idx, N); }
  static double upperBound(size_t Idx) { return Bucketing::upperBound(Idx, N); }
  static double midpoint(size_t Idx) { return Bucketing::midpoint(Idx, N); }

private:
  std::array<std::atomic<uint64_t>, N> Cells;
};

/// The serving runtime's two shapes, shared with tests and the exporter.
using DepthHistogram = AtomicHistogram<16, Log2Bucketing>;
using LatencyHistogram = AtomicHistogram<256, LogLinearBucketing>;

} // namespace daisy

#endif // DAISY_SUPPORT_HISTOGRAM_H
