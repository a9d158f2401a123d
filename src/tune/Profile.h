//===- tune/Profile.h - Lock-free runtime profile collector ------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement half of the online adaptive tuner (tune/Tuner.h): a
/// per-kernel, lock-free sampling ring fed from the Kernel::run hot
/// paths.
///
/// Measuring every run would put two clock reads and a ring store on the
/// hottest path in the system, so the collector samples 1-in-SampleEvery
/// runs: the steady-state cost of an attached profile is one relaxed
/// fetch_add on the sampling tick, and only the sampled run pays the
/// steady_clock pair. Each sample packs (plan-version id, elapsed
/// nanoseconds) into a single atomic<uint64_t> ring cell, so readers can
/// never observe a torn sample — a racing overwrite yields either the old
/// or the new sample, both of which really happened.
///
/// The ring is also the probe window: it holds the most recent RingSize
/// samples across all plan versions, and snapshot() aggregates
/// count/mean/p50/p99 per version from exactly that window. The tuner
/// compares a candidate version's window against the incumbent's to make
/// the promote-or-rollback call.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_TUNE_PROFILE_H
#define DAISY_TUNE_PROFILE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace daisy {

/// Construction-time configuration of one kernel's profile collector.
struct ProfileOptions {
  /// Sampling period: run K is timed iff K % SampleEvery == 0. 1 times
  /// every run (tests / benchmarks); clamped to >= 1.
  uint32_t SampleEvery = 16;
  /// Capacity of the sample ring — the measurement window the tuner
  /// aggregates over. Clamped to >= 16.
  uint32_t RingSize = 1024;
};

/// One kernel's measurement state. Thread-safe throughout: any number of
/// running threads record concurrently with the tuner lane snapshotting.
class KernelProfile {
public:
  explicit KernelProfile(ProfileOptions Options = {});

  /// Hot-path gate: advances the run tick and returns whether this run
  /// should be timed. One relaxed fetch_add.
  bool shouldSample() const {
    return Tick.fetch_add(1, std::memory_order_relaxed) % SampleEvery == 0;
  }

  /// Records one timed run of plan version \p Version (0 = the base
  /// plan). \p Nanos is clamped into the 48-bit payload (overflow would
  /// need a 3-day kernel run).
  void record(uint32_t Version, uint64_t Nanos) const;

  /// Aggregate view of one plan version's samples currently in the ring.
  struct VersionStats {
    uint32_t Version = 0;
    uint64_t Count = 0;
    double MeanUs = 0.0;
    double P50Us = 0.0;
    double P99Us = 0.0;
    double TotalUs = 0.0;
  };

  /// Everything the tuner ranks and gates on, computed from one pass
  /// over the ring.
  struct Snapshot {
    std::vector<VersionStats> Versions; ///< Sorted by version id.
    uint64_t WindowCount = 0;           ///< Samples currently in the ring.
    double WindowTotalUs = 0.0;         ///< Sum over the window.
    uint64_t SampledCount = 0;          ///< Lifetime samples recorded.
    double SampledTotalUs = 0.0;        ///< Lifetime timed microseconds.

    /// The row of \p Version, or null when it has no samples in window.
    const VersionStats *versionStats(uint32_t Version) const {
      for (const VersionStats &V : Versions)
        if (V.Version == Version)
          return &V;
      return nullptr;
    }
  };

  /// Aggregates the current ring contents per version. Safe against
  /// concurrent record() calls: every cell read is a whole sample.
  Snapshot snapshot() const;

  /// Lifetime samples recorded (the tuner's hotness rank is lifetime
  /// timed microseconds — see snapshot().SampledTotalUs).
  uint64_t sampledCount() const {
    return Recorded.load(std::memory_order_relaxed);
  }
  double sampledTotalUs() const {
    return static_cast<double>(TotalNanos.load(std::memory_order_relaxed)) /
           1000.0;
  }

  uint32_t sampleEvery() const { return SampleEvery; }

private:
  const uint32_t SampleEvery;
  const uint32_t RingSize;

  /// Run counter driving the 1-in-SampleEvery gate.
  mutable std::atomic<uint64_t> Tick{0};
  /// Next ring cell to claim (monotonic; cell = Head % RingSize).
  mutable std::atomic<uint64_t> Head{0};
  /// Lifetime aggregates for hotness ranking (relaxed).
  mutable std::atomic<uint64_t> Recorded{0};
  mutable std::atomic<uint64_t> TotalNanos{0};
  /// Packed samples: bits 63..48 = version id, 47..0 = nanoseconds + 1
  /// (0 = empty cell, so a half-filled ring aggregates cleanly).
  std::unique_ptr<std::atomic<uint64_t>[]> Ring;
};

} // namespace daisy

#endif // DAISY_TUNE_PROFILE_H
