//===- tests/ApiTest.cpp - Engine/Kernel facade tests ----------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The public facade's contracts:
//
// - compile-once: structurally identical programs compiled through one
//   Engine share a single kernel (counter-asserted), with LRU eviction
//   and explicit invalidation recompiling;
// - zero-copy ArgBinding runs validate against the array declarations
//   (shape mismatch, unknown/duplicate/missing/transient arrays and
//   overlapping storage are diagnostics, not UB) and produce results
//   bit-identical to the tree-walking semantics definition;
// - concurrent Kernel::run calls from many threads, on caller-owned
//   buffers and on pooled deterministic environments, are bit-identical
//   to serial execution (this suite runs under ThreadSanitizer in CI);
// - every run form agrees in every kernel mode: compiled and tree-walk
//   kernels are bit-identical, and an exhausted kernel reports
//   ResourceExhausted (status forms) or throws (void forms) without
//   touching the caller's data;
// - Engine::optimize chains normalization, idiom replacement, and
//   transfer tuning into a runnable kernel that preserves semantics.
//
//===----------------------------------------------------------------------===//

#include "api/Engine.h"
#include "exec/Interpreter.h"
#include "frontends/PolyBench.h"
#include "ir/Builder.h"
#include "serve/BoundArgs.h"
#include "support/FailPoint.h"
#include "support/Statistics.h"
#include "transform/Parallelize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace daisy;

namespace {

/// GEMM with a chosen loop order — the canonical many-variants program.
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

/// A two-nest program whose first nest writes a transient temporary the
/// second consumes — the shape transformations produce via scalar
/// expansion. Exercises kernel-managed transient scratch: the first nest
/// accumulates into Tmp, so Out = 2 * In + 1 only when the scratch starts
/// each run zeroed.
Program makeTransientProgram(int N) {
  Program Prog("transient");
  Prog.addArray("In", {N});
  Prog.addArray("Out", {N});
  Prog.addArray("Tmp", {N}, /*Transient=*/true);
  Prog.append(forLoop("i", 0, N,
                      {assign("S0", "Tmp", {ax("i")},
                              read("Tmp", {ax("i")}) +
                                  read("In", {ax("i")}) * lit(2.0))}));
  Prog.append(forLoop("i", 0, N,
                      {assign("S1", "Out", {ax("i")},
                              read("Tmp", {ax("i")}) + lit(1.0))}));
  return Prog;
}

/// Deterministically fills caller-owned buffers with the same pattern a
/// DataEnv would hold, by copying out of one.
void fillLikeDataEnv(const Program &Prog, uint64_t Seed,
                     std::vector<std::pair<std::string, std::vector<double>>>
                         &Buffers) {
  DataEnv Env(Prog);
  Env.initDeterministic(Seed);
  Buffers.clear();
  for (const ArrayDecl &Decl : Prog.arrays())
    if (!Decl.Transient)
      Buffers.emplace_back(Decl.Name, Env.buffer(Decl.Name));
}

/// Binds every buffer filled by fillLikeDataEnv.
ArgBinding bindAll(std::vector<std::pair<std::string, std::vector<double>>>
                       &Buffers) {
  ArgBinding Args;
  for (auto &[Name, Storage] : Buffers)
    Args.bind(Name, Storage);
  return Args;
}

} // namespace

//===----------------------------------------------------------------------===//
// Plan cache
//===----------------------------------------------------------------------===//

TEST(PlanCacheTest, CompilesIdenticalProgramOnce) {
  Engine Eng;
  Program Prog = makeGemm("i", "j", "k", 12);
  resetStatsCounters();

  Kernel K1 = Eng.compile(Prog);
  Kernel K2 = Eng.compile(Prog);
  EXPECT_EQ(statsCounter("Engine.PlanCompiles"), 1);
  EXPECT_EQ(statsCounter("Engine.PlanCacheHits"), 1);
  // The handles share one kernel, not merely equivalent ones.
  EXPECT_EQ(&K1.plan(), &K2.plan());

  // A structurally identical rebuild (different object, same structure)
  // hits as well — the cache keys on structure, not identity.
  Kernel K3 = Eng.compile(makeGemm("i", "j", "k", 12));
  EXPECT_EQ(statsCounter("Engine.PlanCompiles"), 1);
  EXPECT_EQ(&K1.plan(), &K3.plan());
}

TEST(PlanCacheTest, DistinctOptionsCompileSeparately) {
  Engine Eng;
  Program Prog = makeGemm("i", "j", "k", 12);
  resetStatsCounters();

  PlanOptions Serial;
  Serial.NumThreads = 1;
  PlanOptions NoSpec;
  NoSpec.NumThreads = 1;
  NoSpec.EnableSpecialization = false;
  Kernel K1 = Eng.compile(Prog, Serial);
  Kernel K2 = Eng.compile(Prog, NoSpec);
  EXPECT_EQ(statsCounter("Engine.PlanCompiles"), 2);
  EXPECT_NE(&K1.plan(), &K2.plan());
}

TEST(PlanCacheTest, MarksAndDataChangeTheKey) {
  Engine Eng;
  // PolyBench GEMM takes the parallel mark on its outermost loops, which
  // must change the cache key — the marked plan forks.
  Program Prog = buildPolyBench(PolyBenchKernel::Gemm, VariantKind::A);
  resetStatsCounters();

  Eng.compile(Prog);
  Program Marked = Prog.clone();
  bool AnyMarked = false;
  for (const NodePtr &Node : Marked.topLevel())
    AnyMarked |= parallelizeOutermost(Node, Marked.params(), &Marked);
  ASSERT_TRUE(AnyMarked);
  Eng.compile(Marked);
  EXPECT_EQ(statsCounter("Engine.PlanCompiles"), 2);

  // Same structure, different array extents: offsets differ.
  resetStatsCounters();
  Eng.compile(makeGemm("i", "j", "k", 12));
  Eng.compile(makeGemm("i", "j", "k", 16));
  EXPECT_EQ(statsCounter("Engine.PlanCompiles"), 2);
}

TEST(PlanCacheTest, ClearInvalidatesAndLruEvicts) {
  EngineOptions Options;
  Options.PlanCacheCapacity = 2;
  Engine Eng(Options);
  Program P1 = makeGemm("i", "j", "k", 8);
  Program P2 = makeGemm("i", "k", "j", 8);
  Program P3 = makeGemm("j", "i", "k", 8);
  resetStatsCounters();

  Eng.compile(P1);
  Eng.compile(P2);
  EXPECT_EQ(Eng.planCacheSize(), 2u);

  // Touch P1 so P2 is the least recently used, then overflow: P2 goes.
  Eng.compile(P1);
  Eng.compile(P3);
  EXPECT_EQ(Eng.planCacheSize(), 2u);
  EXPECT_EQ(statsCounter("Engine.PlanCacheEvictions"), 1);
  int64_t Before = statsCounter("Engine.PlanCompiles");
  Eng.compile(P1); // still cached
  EXPECT_EQ(statsCounter("Engine.PlanCompiles"), Before);
  Eng.compile(P2); // evicted: recompiles
  EXPECT_EQ(statsCounter("Engine.PlanCompiles"), Before + 1);

  // Explicit invalidation drops everything.
  Eng.clearPlanCache();
  EXPECT_EQ(Eng.planCacheSize(), 0u);
  Before = statsCounter("Engine.PlanCompiles");
  Eng.compile(P1);
  EXPECT_EQ(statsCounter("Engine.PlanCompiles"), Before + 1);
}

TEST(PlanCacheTest, ZeroCapacityBuildsEveryKernelWithoutCaching) {
  EngineOptions Options;
  Options.PlanCacheCapacity = 0;
  Program Prog = makeGemm("i", "j", "k", 8);
  {
    Engine Eng(Options);
    int64_t Before = statsCounter("Engine.PlanCompiles");
    Kernel K1 = Eng.compile(Prog);
    Kernel K2 = Eng.compile(Prog);
    EXPECT_NE(&K1.plan(), &K2.plan());
    EXPECT_EQ(Eng.planCacheSize(), 0u);
    EXPECT_EQ(statsCounter("Engine.PlanCompiles"), Before + 2);
  }

  // The uncached build degrades, propagates, and runs out of budget the
  // same way the cached miss does.
  FailPointConfig Throws;
  Throws.Action = FailAction::Throw;
  armFailPoint("engine.compile", Throws, /*Seed=*/1);
  {
    Engine Eng(Options);
    EXPECT_TRUE(Eng.compile(Prog).isTreeWalk());
  }
  Options.FallbackOnCompileError = false;
  {
    Engine Eng(Options);
    EXPECT_THROW((void)Eng.compile(Prog), std::runtime_error);
  }
  disarmFailPoint("engine.compile");
  Options.FallbackOnCompileError = true;
  Options.MemoryBudgetBytes = 1;
  Engine Eng(Options);
  EXPECT_TRUE(Eng.compile(Prog).isExhausted());
  EXPECT_EQ(Eng.planCacheSize(), 0u);
}

TEST(PlanCacheTest, SharedEngineBacksFreeFunctions) {
  Program Prog = makeGemm("k", "i", "j", 10);
  DataEnv First = runProgram(Prog);
  int64_t Compiles = statsCounter("Engine.PlanCompiles");
  DataEnv Second = runProgram(Prog);
  // The second execution reuses the shared engine's cached kernel.
  EXPECT_EQ(statsCounter("Engine.PlanCompiles"), Compiles);
  EXPECT_EQ(DataEnv::maxAbsDifference(First, Second, Prog), 0.0);
}

//===----------------------------------------------------------------------===//
// ArgBinding validation
//===----------------------------------------------------------------------===//

TEST(ArgBindingTest, RejectsInvalidBindings) {
  Kernel K = Kernel::compile(makeGemm("i", "j", "k", 8));
  std::vector<double> A(64), B(64), C(64), Small(63);

  // Shape mismatch.
  RunStatus Status =
      K.run(ArgBinding().bind("A", Small).bind("B", B).bind("C", C));
  EXPECT_FALSE(Status.ok());
  EXPECT_NE(Status.Error.find("shape mismatch"), std::string::npos);
  EXPECT_NE(Status.Error.find("'A'"), std::string::npos);

  // Unknown array.
  Status = K.run(
      ArgBinding().bind("A", A).bind("B", B).bind("C", C).bind("D", A));
  EXPECT_FALSE(Status.ok());
  EXPECT_NE(Status.Error.find("unknown array"), std::string::npos);

  // Missing array.
  Status = K.run(ArgBinding().bind("A", A).bind("B", B));
  EXPECT_FALSE(Status.ok());
  EXPECT_NE(Status.Error.find("not bound"), std::string::npos);

  // Duplicate binding.
  Status = K.run(
      ArgBinding().bind("A", A).bind("B", B).bind("C", C).bind("A", A));
  EXPECT_FALSE(Status.ok());
  EXPECT_NE(Status.Error.find("twice"), std::string::npos);

  // Null storage.
  ArgBinding Null;
  Null.bind("A", nullptr, 64).bind("B", B).bind("C", C);
  Status = K.run(Null);
  EXPECT_FALSE(Status.ok());

  // Overlapping storage: B's binding starts inside A's.
  std::vector<double> Shared(100);
  Status = K.run(ArgBinding()
                     .bind("A", Shared.data(), 64)
                     .bind("B", Shared.data() + 36, 64)
                     .bind("C", C));
  EXPECT_FALSE(Status.ok());
  EXPECT_EQ(Status.Why, RunStatus::BindError);
  EXPECT_NE(Status.Error.find("overlapping"), std::string::npos);
  EXPECT_NE(Status.Error.find("'A'"), std::string::npos);
  EXPECT_NE(Status.Error.find("'B'"), std::string::npos);

  // A failed run leaves the outputs untouched.
  C.assign(64, -1.0);
  Status = K.run(ArgBinding().bind("A", A).bind("B", B));
  EXPECT_FALSE(Status.ok());
  for (double V : C)
    EXPECT_EQ(V, -1.0);
}

TEST(ArgBindingTest, BindRejectsAliasedStorage) {
  // B[i] = A[i-1] + 1 with A and B on one buffer: the plan's in-place
  // update and the tree-walker's staged copies disagree, so no answer is
  // the program's.
  int N = 300;
  Program Prog("shift");
  Prog.addArray("A", {N});
  Prog.addArray("B", {N});
  Prog.append(forLoop("i", 1, N,
                      {assign("S0", "B", {ax("i")},
                              read("A", {ax("i") - 1}) + lit(1.0))}));
  Kernel K = Kernel::compile(Prog);

  size_t Len = static_cast<size_t>(N);
  std::vector<double> X(2 * Len, 0.0);
  BoundArgs Aliased =
      K.bind(ArgBinding().bind("A", X.data(), Len).bind("B", X.data(), Len));
  EXPECT_FALSE(Aliased.ok());
  EXPECT_NE(Aliased.error().find("overlapping"), std::string::npos);
  EXPECT_NE(Aliased.error().find("'A'"), std::string::npos);
  EXPECT_NE(Aliased.error().find("'B'"), std::string::npos);
  RunStatus Status = K.run(Aliased);
  EXPECT_EQ(Status.Why, RunStatus::BindError);
  EXPECT_EQ(X[200], 0.0);

  // Adjacent halves of one buffer do not overlap and run like the
  // tree-walker.
  BoundArgs Adjacent = K.bind(
      ArgBinding().bind("A", X.data() + Len, Len).bind("B", X.data(), Len));
  ASSERT_TRUE(Adjacent.ok()) << Adjacent.error();
  ASSERT_TRUE(K.run(Adjacent));
  DataEnv Ref(Prog);
  interpretTreeWalk(Prog, Ref);
  EXPECT_EQ(std::vector<double>(X.begin(), X.begin() + N), Ref.buffer("B"));
}

TEST(ArgBindingTest, RejectsBindingTransientArrays) {
  Kernel K = Kernel::compile(makeTransientProgram(16));
  std::vector<double> In(16), Out(16), Tmp(16);
  RunStatus Status =
      K.run(ArgBinding().bind("In", In).bind("Out", Out).bind("Tmp", Tmp));
  EXPECT_FALSE(Status.ok());
  EXPECT_NE(Status.Error.find("transient"), std::string::npos);
}

TEST(ArgBindingTest, ZeroCopyMatchesTreeWalk) {
  Program Prog = makeGemm("j", "k", "i", 12);
  Kernel K = Kernel::compile(Prog);

  // Reference: the tree-walking semantics definition.
  DataEnv Ref(Prog);
  Ref.initDeterministic(5);
  interpretTreeWalk(Prog, Ref);

  // Same initial data in caller-owned storage, run zero-copy.
  std::vector<std::pair<std::string, std::vector<double>>> Buffers;
  fillLikeDataEnv(Prog, 5, Buffers);
  ArgBinding Args;
  for (auto &[Name, Storage] : Buffers)
    Args.bind(Name, Storage);
  ASSERT_TRUE(K.run(Args));

  for (auto &[Name, Storage] : Buffers) {
    const std::vector<double> &Expected = Ref.buffer(Name);
    ASSERT_EQ(Storage.size(), Expected.size());
    for (size_t I = 0; I < Storage.size(); ++I)
      ASSERT_EQ(Storage[I], Expected[I]) << Name << "[" << I << "]";
  }
}

TEST(ArgBindingTest, TransientScratchIsZeroedEachRun) {
  Program Prog = makeTransientProgram(8);
  Kernel K = Kernel::compile(Prog);
  std::vector<double> In(8, 3.0), Out(8, 0.0);
  ArgBinding Args;
  Args.bind("In", In).bind("Out", Out);

  ASSERT_TRUE(K.run(Args));
  std::vector<double> FirstOut = Out;
  // Second run through the pooled (now dirty) context must see identical
  // transient semantics.
  ASSERT_TRUE(K.run(Args));
  EXPECT_EQ(Out, FirstOut);
  EXPECT_EQ(Out[0], 3.0 * 2.0 + 1.0);
}

//===----------------------------------------------------------------------===//
// Concurrency
//===----------------------------------------------------------------------===//

TEST(KernelConcurrencyTest, ConcurrentZeroCopyRunsAreBitIdentical) {
  // A parallel-marked program makes the runs themselves fork onto the
  // shared pool while several caller threads run the same kernel.
  Program Prog = makeGemm("i", "j", "k", 24);
  for (const NodePtr &Node : Prog.topLevel())
    parallelizeOutermost(Node, Prog.params(), &Prog);
  Kernel K = Kernel::compile(Prog);

  DataEnv Ref(Prog);
  Ref.initDeterministic(9);
  interpretTreeWalk(Prog, Ref);
  const std::vector<double> &Expected = Ref.buffer("C");

  constexpr int Threads = 8;
  constexpr int RunsPerThread = 4;
  std::vector<int> Failures(Threads, 0);
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      std::vector<std::pair<std::string, std::vector<double>>> Buffers;
      fillLikeDataEnv(Prog, 9, Buffers);
      ArgBinding Args;
      for (auto &[Name, Storage] : Buffers)
        Args.bind(Name, Storage);
      for (int R = 0; R < RunsPerThread; ++R) {
        // Re-fill C (the in/out array) for each run.
        for (auto &[Name, Storage] : Buffers)
          if (Name == "C") {
            DataEnv Fresh(Prog);
            Fresh.initDeterministic(9);
            Storage = Fresh.buffer("C");
          }
        if (!K.run(Args)) {
          ++Failures[T];
          continue;
        }
        for (auto &[Name, Storage] : Buffers)
          if (Name == "C" && Storage != Expected)
            ++Failures[T];
      }
    });
  for (std::thread &W : Workers)
    W.join();
  for (int T = 0; T < Threads; ++T)
    EXPECT_EQ(Failures[T], 0) << "thread " << T;
}

TEST(KernelConcurrencyTest, ConcurrentDeterministicRunsAreBitIdentical) {
  Program Prog = buildPolyBench(PolyBenchKernel::Atax, VariantKind::A);
  Engine Eng;
  Kernel K = Eng.compile(Prog);

  DataEnv Ref(Prog);
  Ref.initDeterministic(1);
  interpretTreeWalk(Prog, Ref);

  constexpr int Threads = 8;
  std::vector<double> MaxDiff(Threads, -1.0);
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      DataEnv Env = K.run(/*Seed=*/1);
      MaxDiff[T] = DataEnv::maxAbsDifference(Ref, Env, Prog);
    });
  for (std::thread &W : Workers)
    W.join();
  for (int T = 0; T < Threads; ++T)
    EXPECT_EQ(MaxDiff[T], 0.0) << "thread " << T;
}

TEST(KernelConcurrencyTest, ConcurrentEngineCompilesShareOneKernel) {
  Engine Eng;
  Program Prog = makeGemm("i", "k", "j", 16);
  resetStatsCounters();

  constexpr int Threads = 8;
  std::vector<Kernel> Kernels(Threads);
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] { Kernels[T] = Eng.compile(Prog); });
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(statsCounter("Engine.PlanCompiles"), 1);
  for (int T = 1; T < Threads; ++T)
    EXPECT_EQ(&Kernels[T].plan(), &Kernels[0].plan());
}

TEST(KernelTest, ContextPoolReusesAcrossRuns) {
  Kernel K = Kernel::compile(makeGemm("i", "j", "k", 8));
  EXPECT_EQ(K.contextPoolSize(), 0u);
  K.run(/*Seed=*/1);
  EXPECT_EQ(K.contextPoolSize(), 1u);
  K.run(/*Seed=*/2);
  // Serial runs reuse the one pooled context instead of growing the pool.
  EXPECT_EQ(K.contextPoolSize(), 1u);
}

//===----------------------------------------------------------------------===//
// End-to-end optimization
//===----------------------------------------------------------------------===//

TEST(EngineTest, OptimizeReplacesGemmIdiomAndPreservesSemantics) {
  Engine Eng;
  Program Prog = makeGemm("j", "k", "i", 16);
  Kernel Optimized = Eng.optimize(Prog);

  // The canonical form matches the BLAS-3 idiom.
  ASSERT_FALSE(Optimized.program().topLevel().empty());
  EXPECT_EQ(Optimized.program().topLevel()[0]->kind(), NodeKind::Call);

  // And the optimized kernel computes what the source program computes.
  DataEnv Ref(Prog);
  Ref.initDeterministic(3);
  interpretTreeWalk(Prog, Ref);
  DataEnv Env = Optimized.run(/*Seed=*/3);
  EXPECT_LE(DataEnv::maxAbsDifference(Ref, Env, Prog), 1e-9);
}

TEST(EngineTest, ConcurrentSeedAndScheduleSynchronize) {
  // Seeding and scheduling on one engine from two threads must be safe:
  // seedDatabase inserts under the database lock that schedule's snapshot
  // of the entries takes too. Exercised under TSan in CI.
  Engine Eng;

  TuneOptions Tune;
  Tune.Budget.MctsRollouts = 4;
  Tune.Budget.PopulationSize = 2;
  Tune.Budget.IterationsPerEpoch = 1;
  Tune.Budget.Epochs = 1;

  Program G = makeGemm("i", "j", "k", 8);
  Program J = buildPolyBench(PolyBenchKernel::Jacobi2d, VariantKind::A);
  std::thread Seeder([&] { Eng.seedDatabase(G, Tune); });
  std::thread Scheduler([&] {
    for (int I = 0; I < 4; ++I)
      Eng.schedule(J, Tune);
  });
  Seeder.join();
  Scheduler.join();
  EXPECT_GT(Eng.database().size(), 0u);
}

TEST(EngineTest, SeedDatabaseIsOrderIndependent) {
  SearchBudget Tiny;
  Tiny.MctsRollouts = 4;
  Tiny.PopulationSize = 2;
  Tiny.IterationsPerEpoch = 1;
  Tiny.Epochs = 1;
  TuneOptions Tune;
  Tune.Budget = Tiny;

  Program G = makeGemm("i", "j", "k", 8);
  Program J = buildPolyBench(PolyBenchKernel::Jacobi2d, VariantKind::A);

  auto SeedBoth = [&](const Program &First, const Program &Second) {
    Engine Eng;
    Eng.seedDatabase(First, Tune);
    Eng.seedDatabase(Second, Tune);
    std::vector<std::string> Entries;
    for (const DatabaseEntry &Entry : Eng.database().entries())
      Entries.push_back(Entry.Name + "=" + Entry.Optimization.toString());
    std::sort(Entries.begin(), Entries.end());
    return Entries;
  };
  // Per-program derived random streams: with a single-epoch budget (no
  // similarity re-seeding from earlier entries, the one deliberate
  // order-sensitive channel) the same recipes emerge regardless of
  // seeding order.
  EXPECT_EQ(SeedBoth(G, J), SeedBoth(J, G));
}

//===----------------------------------------------------------------------===//
// Degraded-mode kernels: the tree-walk fallback
//===----------------------------------------------------------------------===//

TEST(TreeWalkKernelTest, FallbackKernelIsBitIdenticalOnEveryRunPath) {
  // Every run form, in every mode: compiled and tree-walk kernels must
  // reproduce the tree-walk reference bit for bit on each form, and an
  // exhausted kernel's status forms must report ResourceExhausted without
  // touching the outputs (its void forms throw; see EngineBudgetTest).
  EngineOptions NoRoom;
  NoRoom.MemoryBudgetBytes = 1;
  Engine Tight(NoRoom);
  std::vector<Program> Progs;
  Progs.push_back(makeGemm("i", "j", "k", 12));
  Progs.push_back(makeTransientProgram(8));
  for (const Program &Prog : Progs) {
    SCOPED_TRACE(Prog.name());
    std::vector<std::pair<std::string, std::vector<double>>> Input, Expected;
    fillLikeDataEnv(Prog, 5, Input);
    DataEnv Ref(Prog);
    Ref.initDeterministic(5);
    interpretTreeWalk(Prog, Ref);
    for (const auto &[Name, Storage] : Input)
      Expected.emplace_back(Name, Ref.buffer(Name));

    Kernel Fast = Kernel::compile(Prog);
    Kernel Slow = Kernel::treeWalk(Prog);
    Kernel Exhausted = Tight.compile(Prog);
    EXPECT_FALSE(Fast.isTreeWalk());
    EXPECT_TRUE(Slow.isTreeWalk());
    ASSERT_TRUE(Exhausted.isExhausted());
    // A tree-walk kernel has no plan to report.
    EXPECT_THROW((void)Slow.plan(), std::logic_error);

    for (const Kernel &K : {Fast, Slow, Exhausted}) {
      SCOPED_TRACE(K.isExhausted()  ? "exhausted"
                   : K.isTreeWalk() ? "tree-walk"
                                    : "compiled");
      RunStatus::Kind Want =
          K.isExhausted() ? RunStatus::ResourceExhausted : RunStatus::Ok;
      const auto &Out = K.isExhausted() ? Input : Expected;
      // Each round reuses the kernel's pooled contexts dirty from the
      // last run, so the transient program sees its scratch re-zeroed.
      for (int Round = 0; Round < 2; ++Round) {
        auto Bufs = Input;
        EXPECT_EQ(K.run(bindAll(Bufs)).Why, Want);
        EXPECT_EQ(Bufs, Out) << "run(ArgBinding)";

        Bufs = Input;
        BoundArgs Bound = K.bind(bindAll(Bufs));
        ASSERT_TRUE(Bound.ok()) << Bound.error();
        EXPECT_EQ(K.run(Bound).Why, Want);
        EXPECT_EQ(Bufs, Out) << "run(BoundArgs)";
        if (K.isExhausted())
          continue;

        DataEnv Env(Prog);
        Env.initDeterministic(5);
        K.run(Env);
        DataEnv Seeded = K.run(/*Seed=*/5);
        for (const auto &[Name, Storage] : Expected) {
          EXPECT_EQ(Env.buffer(Name), Storage) << "run(DataEnv&) " << Name;
          EXPECT_EQ(Seeded.buffer(Name), Storage) << "run(Seed) " << Name;
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Engine memory budgets
//===----------------------------------------------------------------------===//

TEST(EngineBudgetTest, EvictsUnderPressureAndNeverExceedsTheBound) {
  // Size the budget off a real kernel so the test tracks footprint
  // estimator changes: room for two and a half gemm variants.
  size_t OneKernel = Kernel::compile(makeGemm("i", "j", "k", 8)).memoryBytes();
  ASSERT_GT(OneKernel, 0u);
  EngineOptions Options;
  Options.MemoryBudgetBytes = OneKernel * 5 / 2;
  Engine Eng(Options);
  resetStatsCounters();

  (void)Eng.compile(makeGemm("i", "j", "k", 8));
  (void)Eng.compile(makeGemm("i", "k", "j", 8));
  EXPECT_EQ(Eng.planCacheSize(), 2u);
  EXPECT_LE(Eng.memoryBytesPeak(), Options.MemoryBudgetBytes);

  // The third variant does not fit next to the first two: the LRU tail
  // is evicted to make room, and the charged total stays bounded at
  // every instant (peak, not just the final value).
  Kernel Third = Eng.compile(makeGemm("j", "i", "k", 8));
  EXPECT_FALSE(Third.isExhausted());
  EXPECT_GE(statsCounter("Engine.BudgetEvictions"), 1);
  EXPECT_LT(Eng.planCacheSize(), 3u);
  EXPECT_LE(Eng.memoryBytesUsed(), Options.MemoryBudgetBytes);
  EXPECT_LE(Eng.memoryBytesPeak(), Options.MemoryBudgetBytes);
}

TEST(EngineBudgetTest, ExhaustionSurfacesAsAStatusAndIsNeverCached) {
  // A budget no kernel fits: compile() must still return — a kernel whose
  // runs complete with ResourceExhausted — rather than throw into the
  // serving loop.
  EngineOptions Options;
  Options.MemoryBudgetBytes = 1;
  Engine Eng(Options);
  resetStatsCounters();
  Program Prog = makeGemm("i", "j", "k", 8);

  Kernel K = Eng.compile(Prog);
  ASSERT_TRUE(K.isExhausted());
  EXPECT_GE(statsCounter("Engine.ResourceExhausted"), 1);
  EXPECT_EQ(Eng.memoryBytesUsed(), 0u);
  // Not cached: the key retries once pressure subsides.
  EXPECT_EQ(Eng.planCacheSize(), 0u);
  int64_t Before = statsCounter("Engine.PlanCompiles");
  EXPECT_TRUE(Eng.compile(Prog).isExhausted());
  EXPECT_EQ(statsCounter("Engine.PlanCompiles"), Before + 1);

  // Every status-returning run form surfaces the exhaustion; none throw
  // and none touch the outputs.
  std::vector<double> A(64, 1.0), B(64, 1.0), C(64, -1.0);
  ArgBinding Args;
  Args.bind("A", A).bind("B", B).bind("C", C);
  RunStatus Status = K.run(Args);
  EXPECT_EQ(Status.Why, RunStatus::ResourceExhausted);
  EXPECT_FALSE(Status.ok());

  BoundArgs Bound = K.bind(Args);
  ASSERT_TRUE(Bound.ok());
  Status = K.run(Bound);
  EXPECT_EQ(Status.Why, RunStatus::ResourceExhausted);
  for (double V : C)
    EXPECT_EQ(V, -1.0);

  // The void forms have no status to carry the exhaustion: they throw
  // instead of returning as if the kernel had run, and leave the
  // environment untouched.
  DataEnv Env(Prog), Untouched(Prog);
  Env.initDeterministic(3);
  Untouched.initDeterministic(3);
  try {
    K.run(Env);
    ADD_FAILURE() << "run(DataEnv&) returned on an exhausted kernel";
  } catch (const std::runtime_error &E) {
    EXPECT_EQ(std::string(E.what()), RunStatus::resourceExhausted().Error);
  }
  for (const ArrayDecl &Decl : Prog.arrays())
    EXPECT_EQ(Env.buffer(Decl.Name), Untouched.buffer(Decl.Name)) << Decl.Name;
  EXPECT_THROW((void)K.run(/*Seed=*/3), std::runtime_error);
  // Nor has it a plan to report.
  EXPECT_THROW((void)K.plan(), std::logic_error);
}

TEST(EngineBudgetTest, PooledContextsAreDroppedNotRetainedUnderPressure) {
  // An exact-fit budget: the kernel itself is charged, leaving zero
  // headroom, so the pool must drop its context after the run instead of
  // retaining it beyond the bound.
  Program Prog = makeGemm("i", "j", "k", 8);
  size_t OneKernel = Kernel::compile(Prog).memoryBytes();
  EngineOptions Options;
  Options.MemoryBudgetBytes = OneKernel;
  Engine Eng(Options);
  resetStatsCounters();

  Kernel K = Eng.compile(Prog);
  ASSERT_FALSE(K.isExhausted());
  DataEnv Env = K.run(/*Seed=*/1);
  EXPECT_EQ(K.contextPoolSize(), 0u);
  EXPECT_GE(statsCounter("Engine.ContextsDropped"), 1);
  EXPECT_LE(Eng.memoryBytesPeak(), Options.MemoryBudgetBytes);

  // Dropped, not wrong: the run still computed the real result.
  DataEnv Ref(Prog);
  Ref.initDeterministic(1);
  interpretTreeWalk(Prog, Ref);
  EXPECT_EQ(DataEnv::maxAbsDifference(Ref, Env, Prog), 0.0);
}

TEST(EngineBudgetTest, ArmedBudgetFailPointForcesTheExhaustionPath) {
  // The "engine.budget" site makes charge failure deterministic even with
  // an ample budget — the fault-matrix hook CI arms.
  FailPointConfig Fire;
  Fire.Action = FailAction::Trigger;
  armFailPoint("engine.budget", Fire, /*Seed=*/1);

  EngineOptions Options;
  Options.MemoryBudgetBytes = 64 * 1024 * 1024;
  Engine Eng(Options);
  resetStatsCounters();
  Kernel K = Eng.compile(makeGemm("i", "j", "k", 8));
  disarmFailPoint("engine.budget");

  EXPECT_TRUE(K.isExhausted());
  EXPECT_GE(statsCounter("Engine.ResourceExhausted"), 1);
  EXPECT_EQ(Eng.memoryBytesUsed(), 0u);

  // Disarmed, the same engine compiles the same program for real.
  Kernel Healed = Eng.compile(makeGemm("i", "j", "k", 8));
  EXPECT_FALSE(Healed.isExhausted());
}

TEST(EngineFallbackTest, CompileFailureDegradesToTreeWalkAndSelfHeals) {
  resetStatsCounters();
  Program Prog = makeGemm("i", "j", "k", 12);

  FailPointConfig Throws;
  Throws.Action = FailAction::Throw;
  armFailPoint("engine.compile", Throws, /*Seed=*/1);

  Engine Eng;
  Kernel Degraded = Eng.compile(Prog);
  EXPECT_TRUE(Degraded.isTreeWalk());
  EXPECT_EQ(statsCounter("Engine.CompileFallbacks"), 1);

  // Degraded, not wrong: results still match the semantics definition.
  DataEnv Ref(Prog);
  Ref.initDeterministic(5);
  interpretTreeWalk(Prog, Ref);
  std::vector<std::pair<std::string, std::vector<double>>> Buffers;
  fillLikeDataEnv(Prog, 5, Buffers);
  ArgBinding Args;
  for (auto &[Name, Storage] : Buffers)
    Args.bind(Name, Storage);
  ASSERT_TRUE(Degraded.run(Args));
  for (auto &[Name, Storage] : Buffers)
    EXPECT_EQ(Storage, Ref.buffer(Name)) << Name;

  // Self-healing: the fallback is not cached, so once compilation works
  // again the same engine produces a real kernel.
  disarmFailPoint("engine.compile");
  Kernel Healed = Eng.compile(Prog);
  EXPECT_FALSE(Healed.isTreeWalk());
  EXPECT_EQ(statsCounter("Engine.CompileFallbacks"), 1);
}

TEST(EngineFallbackTest, FallbackOffPropagatesTheCompileError) {
  FailPointConfig Throws;
  Throws.Action = FailAction::Throw;
  armFailPoint("engine.compile", Throws, /*Seed=*/1);

  EngineOptions Options;
  Options.FallbackOnCompileError = false;
  Engine Eng(Options);
  EXPECT_THROW((void)Eng.compile(makeGemm("i", "j", "k", 8)),
               std::runtime_error);
  disarmFailPoint("engine.compile");
}
