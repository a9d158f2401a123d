//===- tests/ServeFaultTest.cpp - fault-injection serving tests -----------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The serving runtime's failure contracts, proven under injected faults
// (support/FailPoint via serve/FaultInjector; fail points are compiled
// into every build, so the suite runs in Release as well):
//
// - determinism: a fault schedule is a pure function of its seed;
// - the fault matrix — compile-throw, queue-full burst, slow kernel,
//   worker stall, run fault, each crossed with every scheduler policy
//   (FIFO, priority lanes, EDF, fair share):
//   every submitted future completes with a definite status, the counter
//   invariant Serve.Submitted == Completed + Rejected + Expired holds
//   after drain — globally AND per tenant — and every Completed result
//   is bit-identical to synchronous execution on an unfaulted reference
//   kernel;
// - graceful degradation: a compile that throws serves tree-walk
//   kernels (Engine.CompileFallbacks) whose results are still exact;
// - poison-kernel quarantine: injected "kernel.run" faults on
//   Engine-compiled kernels heal bit-identically on the tree-walk path;
//   FailureThreshold faults open the per-routing-key circuit breaker
//   (Engine.Quarantined), open-state requests reroute without touching
//   the plan (Engine.QuarantineReroutes), and a half-open probe
//   re-closes the breaker once faults stop; kernels without a breaker
//   (raw Kernel::compile) surface RunStatus::Faulted instead;
// - env arming robustness: armFailPointsFromEnv (the DAISY_FAILPOINTS
//   entry) ignores malformed specs instead of aborting, and its seed
//   text reproduces the exact spec-armed fault schedule.
//
// ctest runs this binary at its default seed, and as the fault matrix
// ServeFaultTest_seed<1-3> (DAISY_FAILPOINTS_SEED).
//
//===----------------------------------------------------------------------===//

#include "serve/FaultInjector.h"
#include "serve/Server.h"

#include "ir/Builder.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace daisy;
using namespace daisy::serve;

namespace {

/// GEMM with a chosen loop order (the canonical many-variants program).
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

/// Two-nest program with a kernel-managed transient temporary.
Program makeTransientProgram(int N) {
  Program Prog("transient");
  Prog.addArray("In", {N});
  Prog.addArray("Out", {N});
  Prog.addArray("Tmp", {N}, /*Transient=*/true);
  Prog.append(forLoop("i", 0, N,
                      {assign("S0", "Tmp", {ax("i")},
                              read("In", {ax("i")}) * lit(2.0))}));
  Prog.append(forLoop("i", 0, N,
                      {assign("S1", "Out", {ax("i")},
                              read("Tmp", {ax("i")}) + lit(1.0))}));
  return Prog;
}

/// Caller-owned argument storage for one request, initialized like a
/// deterministic DataEnv so results are comparable across paths.
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

constexpr uint64_t DefaultSeed = 0xDA15Eull;

//===----------------------------------------------------------------------===//
// The fault matrix
//===----------------------------------------------------------------------===//

/// Runs one fault scenario against one scheduler policy: a two-thread
/// submit storm of two kernels with mixed priorities, deadlines, retry
/// budgets, and three tenants, under the armed spec. Asserts the failure
/// contracts, including the per-tenant drain invariant, and that the
/// scenario's own site fired.
void runFaultScenario(const std::string &Spec, const std::string &Site,
                      SchedulerPolicy Policy) {
  SCOPED_TRACE("spec '" + Spec + "'");
  resetStatsCounters();
  uint64_t Seed = FaultInjector::seedFromEnv(DefaultSeed);

  Program SmallProg = makeGemm("i", "j", "k", 10);
  Program OtherProg = makeTransientProgram(48);

  // Ground truth bypasses the Engine and is computed before arming, so
  // no fault site can degrade the reference itself.
  Kernel RefSmall = Kernel::compile(SmallProg);
  Kernel RefOther = Kernel::compile(OtherProg);
  OwnedArgs ExpSmall(SmallProg, 5), ExpOther(OtherProg, 5);
  ASSERT_TRUE(RefSmall.run(ExpSmall.binding()));
  ASSERT_TRUE(RefOther.run(ExpOther.binding()));

  FaultInjector Inj(Spec, Seed);

  constexpr int Threads = 2;
  constexpr int Reps = 15;
  ServerOptions Options;
  Options.Workers = 2;
  // The queue admits the whole storm, so every request reaches the
  // per-run sites however the submitters and lanes interleave: a seeded
  // stream can fire late (at seed 2, "kernel.run"@0.3 first fires on its
  // 17th evaluation, and 20 requests carry no deadline). Rejections come
  // from the "serve.queue.push" scenario; ServeTest covers a full queue.
  Options.QueueCapacity = Threads * Reps;
  Options.Policy = BackpressurePolicy::Reject;
  Options.Scheduling = Policy;
  Server S(Options);
  // Server-side compiles run with the scenario armed: under the
  // compile-throw spec these fall back to tree-walk kernels, and the
  // bit-identity assertion below then proves the degraded path exact.
  std::vector<Kernel> Kernels{S.compile(SmallProg), S.compile(OtherProg)};
  std::vector<const Program *> Progs{&SmallProg, &OtherProg};
  std::vector<OwnedArgs *> Expected{&ExpSmall, &ExpOther};

  struct Pending {
    std::unique_ptr<OwnedArgs> Args;
    std::future<RunStatus> Done;
    size_t Kind = 0;
  };
  std::vector<std::vector<Pending>> All(Threads);
  std::vector<std::thread> Submitters;
  for (int T = 0; T < Threads; ++T)
    Submitters.emplace_back([&, T] {
      for (int R = 0; R < Reps; ++R) {
        Pending P;
        P.Kind = static_cast<size_t>((T + R) % 2);
        P.Args = std::make_unique<OwnedArgs>(*Progs[P.Kind], 5);
        SubmitOptions SO;
        SO.Prio = static_cast<Priority>(R % 3);
        SO.Tenant = static_cast<uint32_t>(R % 3);
        if (R % 3 == 0)
          SO.Timeout = std::chrono::milliseconds(2);
        if (R % 4 == 1) {
          SO.MaxRetries = 3;
          SO.Backoff = std::chrono::microseconds(100);
        }
        P.Done = S.submit(Kernels[P.Kind],
                          Kernels[P.Kind].bind(P.Args->binding()), SO);
        All[T].push_back(std::move(P));
      }
    });
  for (std::thread &W : Submitters)
    W.join();
  S.drain();

  // Every future has a definite status; completed work is exact.
  int64_t Ok = 0, Failed = 0;
  for (auto &PerThread : All)
    for (Pending &P : PerThread) {
      ASSERT_EQ(P.Done.wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << "a submitted future has no status after drain()";
      RunStatus Status = P.Done.get();
      switch (Status.Why) {
      case RunStatus::Ok:
        EXPECT_TRUE(Status.ok());
        EXPECT_EQ(P.Args->Buffers, Expected[P.Kind]->Buffers)
            << "completed request diverged from synchronous execution";
        ++Ok;
        break;
      case RunStatus::Overloaded:
      case RunStatus::ShutDown:
      case RunStatus::Expired:
      case RunStatus::Faulted:
        EXPECT_FALSE(Status.ok());
        ++Failed;
        break;
      case RunStatus::BindError:
        ADD_FAILURE() << "unexpected bind error: " << Status.Error;
        ++Failed;
        break;
      case RunStatus::NumKinds_:
        ADD_FAILURE() << "sentinel kind reached a future";
        break;
      }
    }
  EXPECT_EQ(Ok + Failed, int64_t(Threads) * Reps);

  // The counter invariant, and the fault actually fired.
  EXPECT_EQ(statsCounter("Serve.Submitted"), int64_t(Threads) * Reps);
  EXPECT_EQ(statsCounter("Serve.Submitted"),
            statsCounter("Serve.Completed") + statsCounter("Serve.Rejected") +
                statsCounter("Serve.Expired"));
  // The same invariant per tenant: each tenant's flood accounts for its
  // own outcomes (Reps spread evenly over tenants 0..2 per thread).
  for (int Tenant = 0; Tenant < 3; ++Tenant) {
    std::string Prefix = "Serve.Tenant" + std::to_string(Tenant) + ".";
    EXPECT_EQ(statsCounter(Prefix + "Submitted"),
              int64_t(Threads) * (Reps / 3))
        << "tenant " << Tenant;
    EXPECT_EQ(statsCounter(Prefix + "Submitted"),
              statsCounter(Prefix + "Completed") +
                  statsCounter(Prefix + "Rejected") +
                  statsCounter(Prefix + "Expired"))
        << "tenant " << Tenant;
  }
  EXPECT_GT(Inj.fireCount(Site), 0u) << "scenario never fired " << Site;
}

const SchedulerPolicy AllPolicies[] = {
    SchedulerPolicy::Fifo, SchedulerPolicy::PriorityLane,
    SchedulerPolicy::EarliestDeadlineFirst, SchedulerPolicy::FairShare};

} // namespace

TEST(ServeFaultTest, CompileThrowFallsBackAndStaysExact) {
  for (SchedulerPolicy Policy : AllPolicies) {
    // x2: exactly the two server-side compiles throw; the per-request
    // path never re-compiles.
    runFaultScenario("engine.compile=throw@1.0x2", "engine.compile", Policy);
    EXPECT_GE(statsCounter("Engine.CompileFallbacks"), 2);
  }
}

TEST(ServeFaultTest, QueueFullBurstRejectsOrRetriesEveryRequest) {
  for (SchedulerPolicy Policy : AllPolicies)
    runFaultScenario("serve.queue.push=trigger@0.4", "serve.queue.push",
                     Policy);
}

TEST(ServeFaultTest, SlowKernelKeepsStatusesDefinite) {
  for (SchedulerPolicy Policy : AllPolicies)
    runFaultScenario("kernel.run=delay:1500@0.3", "kernel.run", Policy);
}

TEST(ServeFaultTest, WorkerStallShedsDeadlinesNotInvariants) {
  // Lanes stall between pop and dispatch: queued deadlines lapse and are
  // shed, yet every future still gets a status and the drain invariant
  // holds.
  for (SchedulerPolicy Policy : AllPolicies)
    runFaultScenario("serve.worker=delay:3000@0.8", "serve.worker", Policy);
}

//===----------------------------------------------------------------------===//
// Poison-kernel quarantine
//===----------------------------------------------------------------------===//

TEST(ServeFaultTest, RunFaultsHealBitIdenticalAcrossPolicies) {
  for (SchedulerPolicy Policy : AllPolicies) {
    // Half of all prepared runs fault. Every fault on an Engine-compiled
    // kernel heals on the tree-walk reference path — the matrix already
    // asserted every Ok result is bit-identical, so here the heal
    // counters prove the faults really happened and were all healed.
    runFaultScenario("kernel.run=trigger@0.5", "kernel.run", Policy);
    EXPECT_GE(statsCounter("Engine.RunFaults"), 1);
    EXPECT_EQ(statsCounter("Engine.RunFaults"),
              statsCounter("Engine.FaultHeals"));
  }
}

TEST(ServeFaultTest, QuarantineOpensReroutesThenProbeRecloses) {
  resetStatsCounters();
  uint64_t Seed = FaultInjector::seedFromEnv(DefaultSeed);

  Program Prog = makeGemm("i", "j", "k", 10);
  Kernel Ref = Kernel::compile(Prog);
  OwnedArgs Expected(Prog, 5);
  ASSERT_TRUE(Ref.run(Expected.binding()));

  ServerOptions Options;
  Options.Workers = 1;
  // The cooldown must outlast the submit loop below so the open state is
  // observed as reroutes, not as premature half-open probes.
  Options.Engine.Quarantine.FailureThreshold = 3;
  Options.Engine.Quarantine.Cooldown = std::chrono::milliseconds(250);
  Server S(Options);
  Kernel K = S.compile(Prog);

  {
    // Every prepared run faults: the breaker must open within
    // FailureThreshold failures, and every result — healed or rerouted —
    // stays Ok and bit-identical.
    FaultInjector Inj("kernel.run=trigger@1.0", Seed);
    for (int I = 0; I < 6; ++I) {
      OwnedArgs Args(Prog, 5);
      RunStatus Status = S.submit(K, K.bind(Args.binding())).get();
      EXPECT_TRUE(Status.ok()) << Status.Error;
      EXPECT_EQ(Args.Buffers, Expected.Buffers);
    }
    EXPECT_GE(statsCounter("Engine.RunFaults"), 3);
    EXPECT_GE(statsCounter("Engine.Quarantined"), 1);
    EXPECT_GE(statsCounter("Engine.QuarantineReroutes"), 1);
    EXPECT_EQ(S.engine().quarantinedCount(), 1u);
    HealthSnapshot Sick = S.health();
    EXPECT_EQ(Sick.Quarantined, 1u);
    EXPECT_FALSE(Sick.healthy());
  } // faults stop (injector disarms its site)

  // Past the cooldown, the half-open probe runs the real plan again,
  // succeeds, and re-closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (int I = 0; I < 3 && S.engine().quarantinedCount() != 0; ++I) {
    OwnedArgs Args(Prog, 5);
    EXPECT_TRUE(S.submit(K, K.bind(Args.binding())).get().ok());
    EXPECT_EQ(Args.Buffers, Expected.Buffers);
  }
  EXPECT_EQ(S.engine().quarantinedCount(), 0u);
  EXPECT_GE(statsCounter("Engine.QuarantineProbes"), 1);
  EXPECT_TRUE(S.health().healthy());

  S.drain();
  EXPECT_EQ(statsCounter("Serve.Submitted"),
            statsCounter("Serve.Completed") + statsCounter("Serve.Rejected") +
                statsCounter("Serve.Expired"));
}

TEST(ServeFaultTest, ForcedQuarantineReroutesImmediately) {
  resetStatsCounters();
  uint64_t Seed = FaultInjector::seedFromEnv(DefaultSeed);

  Program Prog = makeGemm("i", "j", "k", 10);
  Kernel Ref = Kernel::compile(Prog);
  OwnedArgs Expected(Prog, 5);
  ASSERT_TRUE(Ref.run(Expected.binding()));

  ServerOptions Options;
  Options.Workers = 1;
  Server S(Options);
  Kernel K = S.compile(Prog);

  // "engine.quarantine" slams the closed breaker open with no real
  // faults at all: the very request that fired it reroutes to the
  // tree-walker and still completes bit-identically.
  FaultInjector Inj("engine.quarantine=trigger@1.0x1", Seed);
  OwnedArgs Args(Prog, 5);
  EXPECT_TRUE(S.submit(K, K.bind(Args.binding())).get().ok());
  EXPECT_EQ(Args.Buffers, Expected.Buffers);
  EXPECT_EQ(Inj.fireCount("engine.quarantine"), 1u);
  EXPECT_GE(statsCounter("Engine.Quarantined"), 1);
  EXPECT_GE(statsCounter("Engine.QuarantineReroutes"), 1);
  EXPECT_EQ(statsCounter("Engine.RunFaults"), 0);
  EXPECT_EQ(S.engine().quarantinedCount(), 1u);
  S.drain();
}

TEST(ServeFaultTest, RawKernelWithoutBreakerSurfacesFaulted) {
  Program Prog = makeGemm("i", "j", "k", 8);
  Kernel K = Kernel::compile(Prog);
  OwnedArgs Args(Prog);

  FaultInjector Inj(FaultInjector::seedFromEnv(DefaultSeed));
  FailPointConfig Config;
  Config.MaxFires = 1;
  Inj.arm("kernel.run", Config);
  RunStatus Status = K.run(Args.binding());
  EXPECT_EQ(Status.Why, RunStatus::Faulted);
  EXPECT_FALSE(Status.ok());
  EXPECT_NE(Status.Error.find("kernel.run"), std::string::npos);
  // The site disarmed itself after its single fire: the same kernel
  // runs clean — a fault is a status, never a poisoned handle.
  EXPECT_TRUE(K.run(Args.binding()).ok());
}

//===----------------------------------------------------------------------===//
// FailPoint mechanics
//===----------------------------------------------------------------------===//

TEST(FailPointTest, SeededStreamsAreReproducible) {
  auto pattern = [](uint64_t Seed) {
    FaultInjector Inj(Seed);
    FailPointConfig Config;
    Config.Probability = 0.5;
    Inj.arm("test.det", Config);
    std::vector<char> Fired;
    for (int I = 0; I < 64; ++I)
      Fired.push_back(DAISY_FAILPOINT("test.det") ? 1 : 0);
    return Fired;
  };
  EXPECT_EQ(pattern(7), pattern(7));
  EXPECT_NE(pattern(7), pattern(8));
}

TEST(FailPointTest, MaxFiresDisarmsTheSite) {
  FaultInjector Inj(3);
  FailPointConfig Config;
  Config.MaxFires = 2;
  Inj.arm("test.cap", Config);
  int Fires = 0;
  for (int I = 0; I < 10; ++I)
    Fires += DAISY_FAILPOINT("test.cap") ? 1 : 0;
  EXPECT_EQ(Fires, 2);
  EXPECT_EQ(Inj.fireCount("test.cap"), 2u);
}

TEST(FailPointTest, ThrowActionThrows) {
  FaultInjector Inj(3);
  FailPointConfig Config;
  Config.Action = FailAction::Throw;
  Inj.arm("test.throw", Config);
  EXPECT_THROW((void)DAISY_FAILPOINT("test.throw"), std::runtime_error);
}

TEST(FailPointTest, UnarmedSitesAreFree) {
  EXPECT_FALSE(DAISY_FAILPOINT("test.never.armed"));
  EXPECT_EQ(failPointFireCount("test.never.armed"), 0u);
}

TEST(FailPointTest, SpecGrammarParsesAndRejects) {
  {
    FaultInjector Inj("a.site=trigger@0.5;b.site=delay:100@0.25x3;"
                      "c.site=throw",
                      1);
    EXPECT_FALSE(DAISY_FAILPOINT("unrelated.site"));
  }
  // Scenario teardown disarmed everything it armed.
  EXPECT_THROW((void)armFailPointsFromSpec("nonsense", 1),
               std::invalid_argument);
  EXPECT_THROW((void)armFailPointsFromSpec("x=explode", 1),
               std::invalid_argument);
  disarmAllFailPoints();
}

TEST(FailPointTest, EnvArmingIsANoOpOnNullOrEmpty) {
  EXPECT_EQ(armFailPointsFromEnv(nullptr, nullptr), 0u);
  EXPECT_EQ(armFailPointsFromEnv("", nullptr), 0u);
  EXPECT_EQ(armFailPointsFromEnv("", "123"), 0u);
}

TEST(FailPointTest, EnvArmingIgnoresMalformedSpecsInsteadOfAborting) {
  // A malformed DAISY_FAILPOINTS must never take down the process it was
  // meant to observe: warned (stderr) and ignored, not thrown.
  EXPECT_EQ(armFailPointsFromEnv("nonsense", nullptr), 0u);
  EXPECT_EQ(armFailPointsFromEnv("x=explode", nullptr), 0u);
  // Sites armed before the malformed entry stay armed.
  EXPECT_EQ(armFailPointsFromEnv("env.early=trigger@1.0;broken", nullptr),
            0u);
  EXPECT_TRUE(DAISY_FAILPOINT("env.early"));
  disarmAllFailPoints();
}

TEST(FailPointTest, EnvSeedTextRoundTripsTheFaultSchedule) {
  auto pattern = [](const char *SeedText) {
    disarmAllFailPoints();
    EXPECT_EQ(armFailPointsFromEnv("env.seeded=trigger@0.5", SeedText), 1u);
    std::vector<char> Fired;
    for (int I = 0; I < 64; ++I)
      Fired.push_back(DAISY_FAILPOINT("env.seeded") ? 1 : 0);
    return Fired;
  };
  // The decimal seed text selects the stream, reproducibly.
  EXPECT_EQ(pattern("7"), pattern("7"));
  EXPECT_NE(pattern("7"), pattern("8"));
  // Null seed text draws the documented default stream (0xDA15E), the
  // same one spec arming under that seed draws.
  std::vector<char> Defaulted = pattern(nullptr);
  disarmAllFailPoints();
  ASSERT_EQ(armFailPointsFromSpec("env.seeded=trigger@0.5", DefaultSeed), 1u);
  std::vector<char> Spec;
  for (int I = 0; I < 64; ++I)
    Spec.push_back(DAISY_FAILPOINT("env.seeded") ? 1 : 0);
  EXPECT_EQ(Defaulted, Spec);
  disarmAllFailPoints();
}
