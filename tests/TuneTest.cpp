//===- tests/TuneTest.cpp - online adaptive tuning tests -------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The online tuning subsystem's contracts (this suite runs under
// ThreadSanitizer in CI alongside the serving suites):
//
// - profile collector: the 1-in-SampleEvery gate fires on the exact
//   cadence, and snapshot() aggregates count/mean per plan version over
//   the ring window with the lifetime totals intact across wraps;
// - versioned hot-swap: an installed PlanVersion executes behind the
//   existing handles (SlotMap remaps the caller's base-slot table,
//   version-local transients are kernel-managed), promote keeps it,
//   rollback restores the prior plan; a second probe is refused while
//   one is in flight;
// - swap-under-fire: 8 reader threads hammer one kernel while a writer
//   loops install/promote/rollback — every read result is bit-identical
//   to the reference, no torn plan (the TSan target);
// - end-to-end promote: an Engine with OnlineTuning enabled samples live
//   runs, runCycle() calibrates the simulator, re-searches, installs a
//   bit-identity-gated probe, and a later cycle promotes it on measured
//   gain (Engine.TuneSwaps), with results bit-identical across the swap;
// - forced rollback: the "tune.promote" fail point makes the decision
//   see a regression — the probe rolls back (Engine.TuneRollbacks), the
//   candidate lands in the rejected set, and the kernel cools down;
// - calibration persistence: recorded scale factors survive an Engine
//   checkpoint round-trip (DatabaseFormatVersion 2);
// - serving surface: Server::health reports the engine's tuner lane.
//
//===----------------------------------------------------------------------===//

#include "api/Engine.h"
#include "api/KernelImpl.h"
#include "ir/Builder.h"
#include "serve/Server.h"
#include "support/FailPoint.h"
#include "support/Statistics.h"
#include "tune/Profile.h"
#include "tune/Tuner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace daisy;
using namespace daisy::serve;

namespace {

/// GEMM with a chosen loop order — the canonical re-search subject: the
/// scheduler lifts it to a BLAS call whose per-(i,j) ascending-k
/// accumulation matches the ijk nest exactly, so the candidate passes
/// the tuner's Eps = 0.0 bit-identity gate while hashing differently.
Program makeGemm(const std::string &O1, const std::string &O2,
                 const std::string &O3, int N) {
  Program Prog("gemm_" + O1 + O2 + O3);
  Prog.addArray("A", {N, N});
  Prog.addArray("B", {N, N});
  Prog.addArray("C", {N, N});
  Prog.append(forLoop(
      O1, 0, N,
      {forLoop(O2, 0, N,
               {forLoop(O3, 0, N,
                        {assign("S0", "C", {ax("i"), ax("j")},
                                read("C", {ax("i"), ax("j")}) +
                                    read("A", {ax("i"), ax("k")}) *
                                        read("B", {ax("k"), ax("j")}))})})}));
  return Prog;
}

/// Base program of the direct hot-swap tests: Out[i] = In[i] * 2 + 1 in
/// one nest, no transients.
Program makePairProgram(int N) {
  Program Prog("pair");
  Prog.addArray("In", {N});
  Prog.addArray("Out", {N});
  Prog.append(forLoop("i", 0, N,
                      {assign("S0", "Out", {ax("i")},
                              read("In", {ax("i")}) * lit(2.0) + lit(1.0))}));
  return Prog;
}

/// Bit-identical alternative with a different shape: arrays declared in
/// a different order plus a version-local transient, two nests. Exercises
/// SlotMap remapping ({1, 0, -1} against makePairProgram) and
/// version-managed scratch.
Program makePairVariant(int N) {
  Program Prog("pair_variant");
  Prog.addArray("Out", {N});
  Prog.addArray("In", {N});
  Prog.addArray("Tmp", {N}, /*Transient=*/true);
  Prog.append(forLoop("i", 0, N,
                      {assign("S0", "Tmp", {ax("i")},
                              read("In", {ax("i")}) * lit(2.0))}));
  Prog.append(forLoop("i", 0, N,
                      {assign("S1", "Out", {ax("i")},
                              read("Tmp", {ax("i")}) + lit(1.0))}));
  return Prog;
}

/// Caller-owned argument storage initialized like a deterministic
/// DataEnv so results are comparable across paths.
struct OwnedArgs {
  std::vector<std::pair<std::string, std::vector<double>>> Buffers;

  explicit OwnedArgs(const Program &Prog, uint64_t Seed = 1) {
    DataEnv Env(Prog);
    Env.initDeterministic(Seed);
    for (const ArrayDecl &Decl : Prog.arrays())
      if (!Decl.Transient)
        Buffers.emplace_back(Decl.Name, Env.buffer(Decl.Name));
  }

  ArgBinding binding() {
    ArgBinding Args;
    for (auto &[Name, Storage] : Buffers)
      Args.bind(Name, Storage);
    return Args;
  }
};

/// A unique checkpoint path under the test temp dir, cleaned up on both
/// ends (current, rotation, and temp slots).
struct TempCkpt {
  std::string Path;

  explicit TempCkpt(const std::string &Name)
      : Path(::testing::TempDir() + "daisy_tune_" +
             std::to_string(::getpid()) + "_" + Name + ".ckpt") {
    cleanup();
  }
  ~TempCkpt() { cleanup(); }

  void cleanup() {
    std::remove(Path.c_str());
    std::remove((Path + ".prev").c_str());
    std::remove((Path + ".tmp").c_str());
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Profile collector
//===----------------------------------------------------------------------===//

TEST(ProfileTest, SamplingGateFiresOnCadence) {
  ProfileOptions Opts;
  Opts.SampleEvery = 4;
  KernelProfile Prof(Opts);
  int Fired = 0;
  for (int I = 0; I < 16; ++I)
    if (Prof.shouldSample())
      ++Fired;
  EXPECT_EQ(Fired, 4); // Ticks 0, 4, 8, 12.
  EXPECT_EQ(Prof.sampleEvery(), 4u);
}

TEST(ProfileTest, SampleEveryOneTimesEveryRun) {
  ProfileOptions Opts;
  Opts.SampleEvery = 1;
  KernelProfile Prof(Opts);
  for (int I = 0; I < 8; ++I)
    EXPECT_TRUE(Prof.shouldSample());
}

TEST(ProfileTest, SnapshotAggregatesPerVersion) {
  KernelProfile Prof;
  Prof.record(0, 1000);
  Prof.record(0, 3000);
  Prof.record(1, 2000);

  KernelProfile::Snapshot Snap = Prof.snapshot();
  EXPECT_EQ(Snap.WindowCount, 3u);
  EXPECT_EQ(Snap.SampledCount, 3u);
  EXPECT_DOUBLE_EQ(Snap.WindowTotalUs, 6.0);

  const KernelProfile::VersionStats *Base = Snap.versionStats(0);
  ASSERT_NE(Base, nullptr);
  EXPECT_EQ(Base->Count, 2u);
  EXPECT_DOUBLE_EQ(Base->MeanUs, 2.0);

  const KernelProfile::VersionStats *Probe = Snap.versionStats(1);
  ASSERT_NE(Probe, nullptr);
  EXPECT_EQ(Probe->Count, 1u);
  EXPECT_DOUBLE_EQ(Probe->MeanUs, 2.0);

  EXPECT_EQ(Snap.versionStats(7), nullptr);
}

TEST(ProfileTest, RingWrapKeepsWindowBoundedAndLifetimeTotals) {
  ProfileOptions Opts;
  Opts.RingSize = 16; // The documented clamp floor.
  KernelProfile Prof(Opts);
  for (int I = 0; I < 40; ++I)
    Prof.record(0, 1000);

  KernelProfile::Snapshot Snap = Prof.snapshot();
  EXPECT_EQ(Snap.WindowCount, 16u);  // Ring holds the most recent window.
  EXPECT_EQ(Snap.SampledCount, 40u); // Lifetime count survives the wrap.
  EXPECT_DOUBLE_EQ(Prof.sampledTotalUs(), 40.0);
}

//===----------------------------------------------------------------------===//
// Versioned plan hot-swap (direct KernelImpl surface)
//===----------------------------------------------------------------------===//

TEST(HotSwapTest, InstalledVersionRunsWithSlotMapRemap) {
  constexpr int N = 64;
  Program Base = makePairProgram(N);
  auto Impl = std::make_shared<KernelImpl>(Base, PlanOptions{});

  std::vector<double> In(N, 3.0), Out(N, 0.0);
  std::vector<BufferRef> Slots = {{In.data(), In.size()},
                                  {Out.data(), Out.size()}};

  runPreparedSlots(*Impl, Slots.data());
  EXPECT_EQ(Out[0], 7.0);
  EXPECT_EQ(Impl->currentVersionId(), 0u); // Base plan.

  // Variant slot order is (Out, In, Tmp); base order is (In, Out).
  uint32_t Id = Impl->claimVersionId();
  auto V = std::make_shared<const PlanVersion>(
      makePairVariant(N), PlanOptions{}, std::vector<int32_t>{1, 0, -1}, Id);
  ASSERT_TRUE(Impl->installProbe(V));
  EXPECT_TRUE(Impl->probeInFlight());
  EXPECT_EQ(Impl->currentVersionId(), Id);

  // A second probe is refused while one is in flight.
  EXPECT_FALSE(Impl->installProbe(V));

  std::fill(Out.begin(), Out.end(), 0.0);
  runPreparedSlots(*Impl, Slots.data());
  EXPECT_EQ(Out[0], 7.0);
  EXPECT_EQ(Out[N - 1], 7.0);

  ASSERT_TRUE(Impl->promoteProbe());
  EXPECT_FALSE(Impl->probeInFlight());
  EXPECT_EQ(Impl->currentVersionId(), Id); // Promoted version stays.

  // Promote with nothing in flight is a no-op.
  EXPECT_FALSE(Impl->promoteProbe());
}

TEST(HotSwapTest, RollbackRestoresPriorVersion) {
  constexpr int N = 32;
  Program Base = makePairProgram(N);
  auto Impl = std::make_shared<KernelImpl>(Base, PlanOptions{});

  uint32_t Id = Impl->claimVersionId();
  auto V = std::make_shared<const PlanVersion>(
      makePairVariant(N), PlanOptions{}, std::vector<int32_t>{1, 0, -1}, Id);
  ASSERT_TRUE(Impl->installProbe(V));
  ASSERT_TRUE(Impl->rollbackProbe());
  EXPECT_EQ(Impl->currentVersionId(), 0u); // Back to the base plan.
  EXPECT_FALSE(Impl->probeInFlight());
  EXPECT_FALSE(Impl->rollbackProbe()); // Nothing left to roll back.

  std::vector<double> In(N, 5.0), Out(N, 0.0);
  std::vector<BufferRef> Slots = {{In.data(), In.size()},
                                  {Out.data(), Out.size()}};
  runPreparedSlots(*Impl, Slots.data());
  EXPECT_EQ(Out[0], 11.0);
}

// The TSan target: 8 readers run the kernel through pooled contexts
// (each resolving the version through the epoch-cached lock-free path)
// while a writer loops install/promote and install/rollback. Every
// result must be exactly the reference — a torn or half-installed plan
// would produce garbage (and TSan would flag the race).
TEST(HotSwapStressTest, ReadersSeeNoTornPlanAcrossSwaps) {
  constexpr int N = 256;
  constexpr int Readers = 8;
  Program Base = makePairProgram(N);
  auto Impl = std::make_shared<KernelImpl>(Base, PlanOptions{});

  std::atomic<bool> Stop{false};
  std::atomic<int> Mismatches{0};

  std::vector<std::thread> Threads;
  for (int R = 0; R < Readers; ++R)
    Threads.emplace_back([&, R] {
      std::vector<double> In(N), Out(N);
      for (int I = 0; I < N; ++I)
        In[I] = static_cast<double>(R + 1) + I * 0.5;
      std::vector<BufferRef> Slots = {{In.data(), In.size()},
                                      {Out.data(), Out.size()}};
      while (!Stop.load(std::memory_order_relaxed)) {
        std::fill(Out.begin(), Out.end(), 0.0);
        runPreparedSlots(*Impl, Slots.data());
        for (int I = 0; I < N; ++I)
          if (Out[I] != In[I] * 2.0 + 1.0) {
            Mismatches.fetch_add(1, std::memory_order_relaxed);
            break;
          }
      }
    });

  // Writer: 200 full install/decide rounds, alternating promote and
  // rollback, each round publishing a freshly compiled version.
  for (int Round = 0; Round < 200; ++Round) {
    uint32_t Id = Impl->claimVersionId();
    auto V = std::make_shared<const PlanVersion>(
        makePairVariant(N), PlanOptions{}, std::vector<int32_t>{1, 0, -1}, Id);
    ASSERT_TRUE(Impl->installProbe(std::move(V)));
    std::this_thread::yield();
    if (Round % 2 == 0)
      ASSERT_TRUE(Impl->promoteProbe());
    else
      ASSERT_TRUE(Impl->rollbackProbe());
  }
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Mismatches.load(), 0);
}

//===----------------------------------------------------------------------===//
// End-to-end: measure -> calibrate -> re-search -> probe -> promote
//===----------------------------------------------------------------------===//

namespace {

/// Tuning-enabled engine in deterministic mode: no background lane
/// (Interval 0), every run sampled, tiny probe window.
EngineOptions tuningOptions(double MinGainPct) {
  EngineOptions Opts;
  Opts.OnlineTuning.Enable = true;
  Opts.OnlineTuning.Interval = std::chrono::microseconds(0);
  Opts.OnlineTuning.SampleEvery = 1;
  Opts.OnlineTuning.MinSamples = 4;
  Opts.OnlineTuning.MinGainPct = MinGainPct;
  return Opts;
}

} // namespace

TEST(TunerCycleTest, PromotesBitIdenticalCandidateFromLiveSamples) {
  // Negative gate: promote on any measured delta — the swap mechanics,
  // not the timing noise, are under test.
  Engine Eng(tuningOptions(/*MinGainPct=*/-1e9));
  Program G = makeGemm("i", "j", "k", 24);
  Kernel K = Eng.compile(G);
  ASSERT_TRUE(Eng.tuner() != nullptr);
  EXPECT_TRUE(Eng.tuner()->stats().Enabled);
  EXPECT_EQ(Eng.tuner()->stats().Tracked, 1u);

  // Reference result from the tree-walk interpreter (the semantics both
  // plans are measured against).
  Kernel Ref = Kernel::treeWalk(G);
  OwnedArgs Expected(G, 7);
  ASSERT_TRUE(Ref.run(Expected.binding()));

  // Live traffic: every run is sampled (SampleEvery = 1).
  for (int I = 0; I < 8; ++I) {
    OwnedArgs Args(G, 7);
    ASSERT_TRUE(K.run(Args.binding()));
    EXPECT_EQ(Args.Buffers, Expected.Buffers);
  }

  // Cycle 1: calibrates the simulator and installs the re-searched
  // candidate (the BLAS-call lift of the gemm nest) as a probe.
  EXPECT_GE(Eng.tuner()->runCycle(), 1u);
  OnlineTuner::Stats S = Eng.tuner()->stats();
  EXPECT_EQ(S.Probes, 1);
  EXPECT_EQ(S.ProbesInFlight, 1u);
  EXPECT_GE(S.Calibrations, 1);
  EXPECT_GT(Eng.calibrationFor(Engine::routingKey(G)), 0.0);

  // Probe traffic — bit-identical behind the unchanged handle.
  for (int I = 0; I < 8; ++I) {
    OwnedArgs Args(G, 7);
    ASSERT_TRUE(K.run(Args.binding()));
    EXPECT_EQ(Args.Buffers, Expected.Buffers);
  }

  // Cycle 2: the probe window is full; the measured decision promotes.
  EXPECT_GE(Eng.tuner()->runCycle(), 1u);
  S = Eng.tuner()->stats();
  EXPECT_EQ(S.Swaps, 1);
  EXPECT_EQ(S.Rollbacks, 0);
  EXPECT_EQ(S.ProbesInFlight, 0u);
  EXPECT_GE(statsCounter("Engine.TuneSwaps"), 1);

  // Post-swap runs stay bit-identical to the reference.
  for (int I = 0; I < 4; ++I) {
    OwnedArgs Args(G, 7);
    ASSERT_TRUE(K.run(Args.binding()));
    EXPECT_EQ(Args.Buffers, Expected.Buffers);
  }
}

TEST(TunerCycleTest, DisabledTuningAttachesNothing) {
  Engine Eng; // Default options: tuning off.
  EXPECT_EQ(Eng.tuner(), nullptr);
  Eng.drainTuning(); // No-op, not a crash.
  Kernel K = Eng.compile(makeGemm("i", "j", "k", 8));
  OwnedArgs Args(makeGemm("i", "j", "k", 8), 3);
  EXPECT_TRUE(K.run(Args.binding()));
}

TEST(TunerRollbackTest, ForcedRegressionRollsBackAndCoolsDown) {
  // Real gate (0%): the probe must not regress. The "tune.promote" fail
  // point forces the decision to see one, driving rollback
  // deterministically regardless of actual timings.
  Engine Eng(tuningOptions(/*MinGainPct=*/0.0));
  Program G = makeGemm("i", "j", "k", 24);
  Kernel K = Eng.compile(G);

  Kernel Ref = Kernel::treeWalk(G);
  OwnedArgs Expected(G, 7);
  ASSERT_TRUE(Ref.run(Expected.binding()));

  for (int I = 0; I < 8; ++I) {
    OwnedArgs Args(G, 7);
    ASSERT_TRUE(K.run(Args.binding()));
  }
  ASSERT_GE(Eng.tuner()->runCycle(), 1u); // Installs the probe.
  ASSERT_EQ(Eng.tuner()->stats().ProbesInFlight, 1u);

  for (int I = 0; I < 8; ++I) {
    OwnedArgs Args(G, 7);
    ASSERT_TRUE(K.run(Args.binding()));
  }

  armFailPoint("tune.promote", {FailAction::Trigger, 1.0}, /*Seed=*/42);
  EXPECT_GE(Eng.tuner()->runCycle(), 1u); // Decision: forced regression.
  disarmAllFailPoints();

  OnlineTuner::Stats S = Eng.tuner()->stats();
  EXPECT_EQ(S.Rollbacks, 1);
  EXPECT_EQ(S.Swaps, 0);
  EXPECT_EQ(S.ProbesInFlight, 0u);
  EXPECT_GE(statsCounter("Engine.TuneRollbacks"), 1);
  EXPECT_GE(failPointFireCount("tune.promote"), 0u); // Disarmed resets.

  // Rolled back: the base plan serves, bit-identical.
  for (int I = 0; I < 4; ++I) {
    OwnedArgs Args(G, 7);
    ASSERT_TRUE(K.run(Args.binding()));
    EXPECT_EQ(Args.Buffers, Expected.Buffers);
  }

  // The rejected candidate is remembered and the kernel cools down: more
  // traffic plus more cycles install no new probe.
  for (int I = 0; I < 8; ++I) {
    OwnedArgs Args(G, 7);
    ASSERT_TRUE(K.run(Args.binding()));
  }
  for (int C = 0; C < 6; ++C)
    Eng.tuner()->runCycle();
  S = Eng.tuner()->stats();
  EXPECT_EQ(S.Probes, 1); // Still just the original probe.
  EXPECT_EQ(S.ProbesInFlight, 0u);
}

//===----------------------------------------------------------------------===//
// Calibration persistence
//===----------------------------------------------------------------------===//

TEST(CalibrationPersistTest, ScalesSurviveCheckpointRoundTrip) {
  TempCkpt P("calibration");
  {
    EngineOptions Opts;
    Opts.DatabasePath = P.Path;
    Engine Eng(Opts);
    Eng.recordCalibration(0x1234, 2.5);
    Eng.recordCalibration(0x5678, 0.75);
    EXPECT_TRUE(Eng.checkpointNow());
    // Unchanged state is recognized through both snapshots.
    EXPECT_FALSE(Eng.checkpointNow());
  }
  {
    EngineOptions Opts;
    Opts.DatabasePath = P.Path;
    Engine Eng(Opts);
    EXPECT_DOUBLE_EQ(Eng.calibrationFor(0x1234), 2.5);
    EXPECT_DOUBLE_EQ(Eng.calibrationFor(0x5678), 0.75);
    EXPECT_DOUBLE_EQ(Eng.calibrationFor(0x9999), 0.0); // Never recorded.
  }
}

//===----------------------------------------------------------------------===//
// Serving surface: health rows
//===----------------------------------------------------------------------===//

TEST(ServeTuneTest, HealthReportsTuner) {
  ServerOptions Options;
  Options.Workers = 1;
  Options.QueueCapacity = 256;
  Options.Engine.OnlineTuning.Enable = true;
  Server S(Options);

  Program G = makeGemm("i", "j", "k", 12);
  Kernel K = S.compile(G);

  Kernel Ref = Kernel::treeWalk(G);
  OwnedArgs Expected(G, 5);
  ASSERT_TRUE(Ref.run(Expected.binding()));

  // A same-kernel flood the tuner samples while the lane serves it.
  constexpr int Reps = 64;
  std::vector<std::unique_ptr<OwnedArgs>> Owned;
  std::vector<std::future<RunStatus>> Futures;
  for (int R = 0; R < Reps; ++R) {
    Owned.push_back(std::make_unique<OwnedArgs>(G, 5));
    BoundArgs Bound = K.bind(Owned.back()->binding());
    ASSERT_TRUE(Bound.ok());
    Futures.push_back(S.submit(K, std::move(Bound)));
  }
  for (auto &F : Futures)
    EXPECT_TRUE(F.get().ok());
  for (const auto &O : Owned)
    EXPECT_EQ(O->Buffers, Expected.Buffers);

  S.drain();

  HealthSnapshot Health = S.health();
  ASSERT_NE(S.engine().tuner(), nullptr);
  EXPECT_TRUE(Health.TuningEnabled);
  EXPECT_GE(Health.TuneTracked, 1u);
}

TEST(ServeTuneTest, TuningOffHealthRowsStayDark) {
  ServerOptions Options;
  Options.Workers = 1;
  Server S(Options);
  HealthSnapshot Health = S.health();
  EXPECT_EQ(S.engine().tuner(), nullptr);
  EXPECT_FALSE(Health.TuningEnabled);
  EXPECT_EQ(Health.TuneTracked, 0u);
  EXPECT_EQ(Health.TuneSwaps, 0);
}
