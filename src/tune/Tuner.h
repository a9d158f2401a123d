//===- tune/Tuner.h - Online adaptive tuning lane ----------------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision half of the online adaptive tuner — the closed loop the
/// paper's transfer tuning was always pointing at, taken to production:
///
///   measure -> calibrate -> re-search -> probe -> promote or roll back
///
/// Every kernel an Engine compiles under EngineOptions::OnlineTuning
/// carries a KernelProfile (tune/Profile.h) sampling measured runtimes
/// from live traffic. The tuner lane periodically
///
/// 1. ranks tracked kernels by total measured time and picks the top K
///    with enough samples;
/// 2. calibrates the machine-model simulator against reality — one
///    measured/simulated scale factor per routing key, recorded into the
///    TransferTuningDatabase so checkpoints persist it across restarts;
/// 3. re-runs the scheduling pipeline (normalize, BLAS idioms, transfer
///    tuning against the database as seeded *now*) on the kernel's base
///    program and compiles the candidate plan off the hot path;
/// 4. gates the candidate on calibrated predicted gain AND
///    semanticallyEquivalent bit-identity (Eps = 0.0: the swapped plan
///    must produce byte-for-byte the results of the base program), then
///    installs it as a *probe* behind the live Kernel handles
///    (KernelImpl's versioned swap point — no rebinding, existing
///    BoundArgs keep working);
/// 5. once the probe has MinSamples measured runs, promotes it when the
///    measured gain is >= MinGainPct, or rolls back to the prior plan —
///    the circuit-breaker shape: probe, then commit or revert, plus a
///    cooldown before the same kernel is retried and a rejected-candidate
///    memory so a failed plan is not re-proposed every cycle.
///
/// Counters: Engine.TuneProbes / TuneSwaps / TuneRollbacks /
/// TuneCalibrations / TuneRejects. The "tune.promote" fail point forces
/// the promote decision to see a regression, driving rollback
/// deterministically in tests.
///
/// Layering: tune/ sits beside api/ — this header is included by
/// api/Engine.h (for OnlineTuningOptions and the owned lane) and sees
/// Engine/KernelImpl only as forward declarations; the .cpp includes the
/// api headers.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_TUNE_TUNER_H
#define DAISY_TUNE_TUNER_H

#include "ir/Program.h"
#include "tune/Profile.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace daisy {

class Engine;
class KernelImpl;

/// Configuration of an Engine's online tuning loop
/// (EngineOptions::OnlineTuning).
struct OnlineTuningOptions {
  /// Master switch. Off (the default) attaches no profiles and starts no
  /// lane: compiled kernels are exactly the pre-tuning kernels.
  bool Enable = false;
  /// Background cycle cadence. 0 starts no thread — cycles then run only
  /// when the owner calls OnlineTuner::runCycle() explicitly, the
  /// deterministic mode tests and benchmarks drive.
  std::chrono::microseconds Interval{0};
  /// Runtime sampling period of each kernel's profile: 1-in-SampleEvery
  /// runs is timed (tune/Profile.h). 1 times every run.
  uint32_t SampleEvery = 16;
  /// Capacity of each kernel's sample ring (the probe window).
  uint32_t RingSize = 1024;
  /// Measured samples a kernel (and later its probe version) must have
  /// before the tuner acts on it.
  uint32_t MinSamples = 32;
  /// Promotion gate: measured mean gain of the probe over the prior
  /// plan, in percent. A probe below it is rolled back. Negative values
  /// promote even regressions (test/bench forcing).
  double MinGainPct = 3.0;
  /// Hot kernels re-searched per cycle.
  size_t TopK = 4;
  /// Cycles a kernel sits out after a rollback before being retried.
  uint32_t CooldownCycles = 4;
  /// Seed of the bit-identity check's deterministic input fill.
  uint64_t EquivalenceSeed = 1;
};

/// The background tuner lane owned by an Engine. Thread-safe: the
/// serving threads register kernels through Engine::compile while the
/// lane (or an explicit runCycle caller) tunes.
class OnlineTuner {
public:
  OnlineTuner(Engine &Owner, OnlineTuningOptions Options);
  ~OnlineTuner();
  OnlineTuner(const OnlineTuner &) = delete;
  OnlineTuner &operator=(const OnlineTuner &) = delete;

  /// Starts the background lane (no-op when Interval is 0).
  void start();

  /// Stops and joins the background lane; no cycle is running on return.
  /// Idempotent. The registry and counters survive — runCycle() still
  /// works after stop().
  void stop();

  /// Blocks until any in-flight cycle completes (the serving runtime's
  /// drain barrier: after drainTuning, calibration recorded so far is
  /// checkpoint-visible).
  void drain();

  /// Tracks a freshly compiled kernel under its routing key. Re-register
  /// of the same key (plan-cache eviction recompiled it) rebinds the
  /// entry to the new instance and abandons any in-flight probe state —
  /// the old impl keeps its plan until the last handle drops. Kernels
  /// without a plan (tree-walk fallbacks) are skipped: there is nothing
  /// to swap.
  void registerKernel(uint64_t RoutingKey,
                      std::shared_ptr<const KernelImpl> Impl);

  /// One tuning cycle: rank, calibrate, re-search, probe, decide.
  /// Serialized against itself and the background lane. Returns the
  /// number of actions taken (probes installed + promotes + rollbacks).
  size_t runCycle();

  /// Point-in-time counters (per engine, unlike the process-global
  /// Engine.Tune* statistics — serve::Server::health reads these).
  struct Stats {
    bool Enabled = false;
    size_t Tracked = 0;       ///< Live kernels in the registry.
    size_t ProbesInFlight = 0;///< Installed, awaiting a decision.
    int64_t Cycles = 0;
    int64_t Probes = 0;
    int64_t Swaps = 0;
    int64_t Rollbacks = 0;
    int64_t Rejects = 0;      ///< Candidates killed by a gate.
    int64_t Calibrations = 0; ///< Scale factors recorded.
  };
  Stats stats() const;

  const OnlineTuningOptions &options() const { return Opts; }

private:
  /// Registry row of one tracked kernel. All fields are guarded by
  /// RegMutex; the heavy work of a cycle runs on local copies.
  struct Entry {
    std::weak_ptr<const KernelImpl> Impl;
    Program Base;         ///< Base program snapshot (re-search input).
    uint64_t CurrentHash = 0; ///< routingKey of the running plan's program.
    bool Probing = false;
    uint32_t ProbeId = 0;
    uint64_t CandidateHash = 0;
    double PriorMeanUs = 0.0; ///< Incumbent's measured mean at install.
    uint32_t Cooldown = 0;    ///< Cycles left before retrying.
    std::unordered_set<uint64_t> RejectedHashes;
  };

  /// Attempts calibrate + re-search + probe-install for \p Key. Returns
  /// true when a probe was installed.
  bool tryImprove(uint64_t Key, const std::shared_ptr<const KernelImpl> &Impl);

  /// Promote-or-rollback decision for \p Key's in-flight probe. Returns
  /// true when a decision was made (either way).
  bool decideProbe(uint64_t Key, const std::shared_ptr<const KernelImpl> &Impl);

  void laneLoop();

  Engine &Owner;
  const OnlineTuningOptions Opts;

  mutable std::mutex RegMutex;
  std::unordered_map<uint64_t, Entry> Registry;

  /// Held for the duration of every cycle: serializes runCycle against
  /// the lane and gives drain() its barrier.
  std::mutex CycleMutex;

  std::atomic<int64_t> NCycles{0}, NProbes{0}, NSwaps{0}, NRollbacks{0},
      NRejects{0}, NCalibrations{0};

  std::mutex LaneMutex;
  std::condition_variable LaneCV;
  bool LaneStop = false;
  std::thread Lane; ///< Last member: joined before the rest tears down.
};

} // namespace daisy

#endif // DAISY_TUNE_TUNER_H
