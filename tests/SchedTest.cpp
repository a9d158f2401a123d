//===- tests/SchedTest.cpp - scheduler stack tests -------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Legality.h"
#include "cloudsc/Cloudsc.h"
#include "exec/Interpreter.h"
#include "frontends/PolyBench.h"
#include "ir/Builder.h"
#include "ir/Printer.h"
#include "normalize/Pipeline.h"
#include "sched/Evaluator.h"
#include "sched/FrameworkModels.h"
#include "ir/StructuralHash.h"
#include "sched/Idiom.h"
#include "sched/Schedulers.h"
#include "support/Statistics.h"
#include "transform/Parallelize.h"

#include <gtest/gtest.h>

using namespace daisy;

namespace {

Program makeGemmVariant(const std::string &O1, const std::string &O2,
                        const std::string &O3, int N = 32) {
  Program Prog("gemm");
  Prog.addArray("A", {N, N});
  Prog.addArray("B", {N, N});
  Prog.addArray("C", {N, N});
  Prog.append(forLoop(
      O1, 0, N,
      {forLoop(O2, 0, N,
               {forLoop(O3, 0, N,
                        {assign("S0", "C", {ax("i"), ax("j")},
                                read("C", {ax("i"), ax("j")}) +
                                    lit(1.5) * read("A", {ax("i"), ax("k")}) *
                                        read("B", {ax("k"), ax("j")}))})})}));
  return Prog;
}

Program makeSyrkProgram(int N = 24) {
  Program Prog("syrk");
  Prog.addArray("A", {N, N});
  Prog.addArray("C", {N, N});
  Prog.append(forLoop(
      "i", 0, N,
      {forLoop("j", ac(0), ax("i") + 1,
               {forLoop("k", 0, N,
                        {assign("S0", "C", {ax("i"), ax("j")},
                                read("C", {ax("i"), ax("j")}) +
                                    lit(1.5) * read("A", {ax("i"), ax("k")}) *
                                        read("A", {ax("j"), ax("k")}))})})}));
  return Prog;
}

/// Small evaluation options so search-based tests stay fast.
SimOptions fastOptions() {
  SimOptions Options;
  return Options;
}

SearchBudget tinyBudget() {
  SearchBudget Budget;
  Budget.MctsRollouts = 8;
  Budget.PopulationSize = 3;
  Budget.IterationsPerEpoch = 1;
  Budget.Epochs = 2;
  return Budget;
}

} // namespace

//===----------------------------------------------------------------------===//
// SimCache
//===----------------------------------------------------------------------===//

namespace {

/// gemm with every iterator (loops and subscripts) spelled as given —
/// unlike makeGemmVariant, which only permutes the loop order.
Program makeRenamedGemm(const std::string &I, const std::string &J,
                        const std::string &K, int N) {
  Program Prog("gemm");
  Prog.addArray("A", {N, N});
  Prog.addArray("B", {N, N});
  Prog.addArray("C", {N, N});
  Prog.append(forLoop(
      I, 0, N,
      {forLoop(J, 0, N,
               {forLoop(K, 0, N,
                        {assign("S0", "C", {ax(I), ax(J)},
                                read("C", {ax(I), ax(J)}) +
                                    lit(1.5) * read("A", {ax(I), ax(K)}) *
                                        read("B", {ax(K), ax(J)}))})})}));
  return Prog;
}

} // namespace

TEST(SimCacheTest, HitsOnStructurallyIdenticalNests) {
  // Same nest modulo iterator spelling: the canonicalized hash matches,
  // so the second simulation is served from the cache.
  Program P1 = makeRenamedGemm("i", "j", "k", 16);
  Program P2 = makeRenamedGemm("x", "y", "z", 16);
  ASSERT_TRUE(structurallyEqual(P1.topLevel()[0], P2.topLevel()[0]));
  SimOptions Options;
  resetStatsCounters();
  SimCache Cache;
  double S1 = Cache.seconds(P1, Options);
  double S2 = Cache.seconds(P2, Options);
  EXPECT_EQ(S1, S2);
  EXPECT_EQ(statsCounter("SimCache.Misses"), 1);
  EXPECT_EQ(statsCounter("SimCache.Hits"), 1);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(SimCacheTest, MissesOnDifferingSimOptions) {
  Program Prog = makeGemmVariant("i", "j", "k", 16);
  SimOptions OneThread;
  SimOptions FourThreads;
  FourThreads.Threads = 4;
  resetStatsCounters();
  SimCache Cache;
  Cache.seconds(Prog, OneThread);
  Cache.seconds(Prog, FourThreads);
  EXPECT_EQ(statsCounter("SimCache.Misses"), 2);
  EXPECT_EQ(statsCounter("SimCache.Hits"), 0);
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(SimCacheTest, MissesOnDifferingMarks) {
  // structuralHash ignores scheduling marks; the cache key must not —
  // a parallel-marked nest simulates to a different runtime.
  Program Plain = makeGemmVariant("i", "j", "k", 16);
  Program Marked = Plain.clone();
  dynCast<Loop>(Marked.topLevel()[0])->setParallel(true);
  ASSERT_EQ(structuralHash(Plain.topLevel()[0]),
            structuralHash(Marked.topLevel()[0]));
  SimOptions Options;
  Options.Threads = 4;
  resetStatsCounters();
  SimCache Cache;
  Cache.seconds(Plain, Options);
  Cache.seconds(Marked, Options);
  EXPECT_EQ(statsCounter("SimCache.Misses"), 2);
  EXPECT_EQ(statsCounter("SimCache.Hits"), 0);
}

TEST(SimCacheTest, CachedValueMatchesUncachedEvaluation) {
  Program Prog = makeGemmVariant("i", "j", "k", 16);
  Recipe R = Recipe::defaultParallelRecipe();
  EvalConfig Cached;
  Cached.NumThreads = 1;
  EvalConfig Uncached;
  Uncached.NumThreads = 1;
  Uncached.EnableCache = false;
  Evaluator WithCache(fastOptions(), Cached);
  Evaluator WithoutCache(fastOptions(), Uncached);
  double First = WithCache.recipeSeconds(Prog, 0, R);
  double Second = WithCache.recipeSeconds(Prog, 0, R); // served from cache
  EXPECT_EQ(First, Second);
  EXPECT_EQ(First, WithoutCache.recipeSeconds(Prog, 0, R));
  EXPECT_EQ(First, evaluateRecipe(R, Prog, 0, fastOptions()));
}

//===----------------------------------------------------------------------===//
// Evaluator batches
//===----------------------------------------------------------------------===//

TEST(EvaluatorTest, BatchMatchesSerialAtEveryThreadCount) {
  Program Prog = makeGemmVariant("j", "k", "i", 16);
  std::vector<Recipe> Recipes;
  Recipes.push_back(Recipe::defaultParallelRecipe());
  Recipes.push_back(Recipe::blasRecipe());
  Rng Rand(3);
  for (int I = 0; I < 6; ++I)
    Recipes.push_back(mutateRecipe(Recipe::defaultParallelRecipe(), 3, Rand));

  std::vector<double> Reference;
  for (const Recipe &R : Recipes)
    Reference.push_back(evaluateRecipe(R, Prog, 0, fastOptions()));

  for (int Threads : {1, 2, 4})
    for (bool Cache : {false, true}) {
      EvalConfig Config;
      Config.NumThreads = Threads;
      Config.EnableCache = Cache;
      Evaluator Eval(fastOptions(), Config);
      std::vector<double> Batch = Eval.recipeSecondsBatch(Prog, 0, Recipes);
      ASSERT_EQ(Batch.size(), Reference.size());
      for (size_t I = 0; I < Batch.size(); ++I)
        EXPECT_EQ(Batch[I], Reference[I])
            << "threads=" << Threads << " cache=" << Cache << " i=" << I;
    }
}

TEST(EvaluatorTest, BatchSimulatesEachDistinctCandidateOnce) {
  // Eight candidates, three distinct: every lane count simulates each
  // distinct candidate once and counts its repeats as hits, as scoring
  // them one at a time does.
  Program Prog = makeGemmVariant("j", "k", "i", 32);
  Recipe Plain;
  Recipe Marked = Recipe::defaultParallelRecipe();
  Recipe Tiled;
  RecipeStep Tile;
  Tile.StepKind = RecipeStep::Kind::Tile;
  Tile.Tiles = {8, 8, 8};
  Tiled.Steps.push_back(Tile);
  // Repeats sit next to each other, where lanes pick them up together.
  std::vector<Recipe> Recipes = {Marked, Marked, Plain, Plain,
                                 Tiled,  Tiled,  Marked, Plain};

  for (int Threads : {1, 2, 4}) {
    EvalConfig Config;
    Config.NumThreads = Threads;
    Evaluator Eval(fastOptions(), Config);
    resetStatsCounters();
    std::vector<double> Batch = Eval.recipeSecondsBatch(Prog, 0, Recipes);
    EXPECT_EQ(statsCounter("SimCache.Misses"), 3) << "threads=" << Threads;
    EXPECT_EQ(statsCounter("SimCache.Hits"), 5) << "threads=" << Threads;
    EXPECT_EQ(statsCounter("Evaluator.Candidates"), 8);
    ASSERT_EQ(Batch.size(), Recipes.size());
    for (size_t I = 0; I < Recipes.size(); ++I)
      EXPECT_EQ(Batch[I], evaluateRecipe(Recipes[I], Prog, 0, fastOptions()))
          << "threads=" << Threads << " i=" << I;
  }
}

TEST(EvaluatorTest, SharedContextIsNotMutated) {
  Program Prog = makeGemmVariant("i", "j", "k", 16);
  uint64_t Before = structuralHashWithMarks(Prog.topLevel()[0]);
  Evaluator Eval(fastOptions());
  Eval.recipeSeconds(Prog, 0, Recipe::defaultParallelRecipe());
  EXPECT_EQ(structuralHashWithMarks(Prog.topLevel()[0]), Before);
  EXPECT_EQ(Prog.topLevel().size(), 1u);
}

//===----------------------------------------------------------------------===//
// Search determinism matrix
//===----------------------------------------------------------------------===//

namespace {

/// Joined digest of an ordered recipe list.
std::string recipesDigest(const std::vector<Recipe> &Recipes) {
  std::string Result;
  for (const Recipe &R : Recipes)
    Result += R.toString() + "\n";
  return Result;
}

/// Runs \p Body under every (threads, cache) evaluator configuration and
/// expects the digest it returns to be identical everywhere, and every
/// cached configuration to simulate the same number of candidates.
template <typename Fn> void expectDeterministicAcrossConfigs(const Fn &Body) {
  std::string Reference;
  int64_t ReferenceMisses = -1;
  for (int Threads : {1, 2, 4})
    for (bool Cache : {false, true}) {
      EvalConfig Config;
      Config.NumThreads = Threads;
      Config.EnableCache = Cache;
      Evaluator Eval(fastOptions(), Config);
      resetStatsCounters();
      std::string Digest = Body(Eval);
      if (Reference.empty())
        Reference = Digest;
      EXPECT_EQ(Digest, Reference)
          << "diverged at threads=" << Threads << " cache=" << Cache;
      if (!Cache)
        continue;
      int64_t Misses = statsCounter("SimCache.Misses");
      if (ReferenceMisses < 0)
        ReferenceMisses = Misses;
      EXPECT_EQ(Misses, ReferenceMisses)
          << "simulation count diverged at threads=" << Threads;
    }
}

} // namespace

TEST(SearchDeterminismTest, MctsCandidatesMatrix) {
  Program Prog = makeGemmVariant("j", "k", "i", 16);
  expectDeterministicAcrossConfigs([&](Evaluator &Eval) {
    return recipesDigest(
        mctsCandidates(Prog, 0, Eval, tinyBudget(), /*TopK=*/3));
  });
}

TEST(SearchDeterminismTest, EvolveRecipeMatrix) {
  Program Prog = makeGemmVariant("i", "j", "k", 16);
  expectDeterministicAcrossConfigs([&](Evaluator &Eval) {
    TransferTuningDatabase Db;
    Rng Rand(7);
    return evolveRecipe(Prog, 0, Db, Eval, tinyBudget(), Rand).toString();
  });
}

TEST(SearchDeterminismTest, SeedDatabaseMatrix) {
  // Two-nest program (scale + matmul after normalization stays one nest
  // each); idioms disabled so every nest runs the evolutionary search.
  Program Prog = makeGemmVariant("i", "j", "k", 16);
  DaisyOptions Options;
  Options.Idioms.clear();
  expectDeterministicAcrossConfigs([&](Evaluator &Eval) {
    TransferTuningDatabase Db;
    Rng Rand(7);
    DaisyScheduler::seedDatabase(Db, Prog, Eval, tinyBudget(), Rand,
                                 Options);
    std::string Digest;
    for (const DatabaseEntry &Entry : Db.entries())
      Digest += Entry.Name + "#" + std::to_string(Entry.CanonicalHash) +
                "=" + Entry.Optimization.toString() + "\n";
    return Digest;
  });
}

//===----------------------------------------------------------------------===//
// Embeddings
//===----------------------------------------------------------------------===//

TEST(EmbeddingTest, IdenticalNestsAtDistanceZero) {
  Program P1 = makeGemmVariant("i", "j", "k");
  Program P2 = makeGemmVariant("i", "j", "k");
  PerformanceEmbedding E1 = embedNest(P1.topLevel()[0], P1);
  PerformanceEmbedding E2 = embedNest(P2.topLevel()[0], P2);
  EXPECT_DOUBLE_EQ(E1.distance(E2), 0.0);
}

TEST(EmbeddingTest, DissimilarNestsFarApart) {
  Program Gemm = makeGemmVariant("i", "j", "k");
  Program Stencil("st");
  Stencil.addArray("A", {64});
  Stencil.append(forLoop("i", 1, 63,
                         {assign("S0", "A", {ax("i")},
                                 read("A", {ax("i") - 1}) + lit(1.0))}));
  PerformanceEmbedding EG = embedNest(Gemm.topLevel()[0], Gemm);
  PerformanceEmbedding ES = embedNest(Stencil.topLevel()[0], Stencil);
  EXPECT_GT(EG.distance(ES), 1.0);
}

TEST(EmbeddingTest, PermutationChangesStrideFeatures) {
  Program Good = makeGemmVariant("i", "k", "j");
  Program Bad = makeGemmVariant("j", "k", "i");
  PerformanceEmbedding EGood = embedNest(Good.topLevel()[0], Good);
  PerformanceEmbedding EBad = embedNest(Bad.topLevel()[0], Bad);
  EXPECT_GT(EGood.distance(EBad), 0.0);
}

//===----------------------------------------------------------------------===//
// Idiom detection
//===----------------------------------------------------------------------===//

TEST(IdiomTest, DetectsGemm) {
  Program Prog = makeGemmVariant("i", "j", "k");
  auto Match = detectBlasIdiom(Prog.topLevel()[0], Prog);
  ASSERT_TRUE(Match.has_value());
  EXPECT_EQ(Match->Kind, BlasKind::Gemm);
  EXPECT_EQ(Match->Call->args()[0], "C");
  EXPECT_DOUBLE_EQ(Match->Call->alpha(), 1.5);
}

TEST(IdiomTest, DetectsGemmInAnyLoopOrder) {
  for (auto [O1, O2, O3] :
       {std::tuple{"k", "i", "j"}, {"j", "k", "i"}, {"i", "k", "j"}}) {
    Program Prog = makeGemmVariant(O1, O2, O3);
    EXPECT_TRUE(detectBlasIdiom(Prog.topLevel()[0], Prog).has_value());
  }
}

TEST(IdiomTest, DetectsSyrk) {
  Program Prog = makeSyrkProgram();
  auto Match = detectBlasIdiom(Prog.topLevel()[0], Prog);
  ASSERT_TRUE(Match.has_value());
  EXPECT_EQ(Match->Kind, BlasKind::Syrk);
}

TEST(IdiomTest, DetectsSyr2k) {
  int N = 16;
  Program Prog("syr2k");
  Prog.addArray("A", {N, N});
  Prog.addArray("B", {N, N});
  Prog.addArray("C", {N, N});
  Prog.append(forLoop(
      "i", 0, N,
      {forLoop(
          "j", ac(0), ax("i") + 1,
          {forLoop("k", 0, N,
                   {assign("S0", "C", {ax("i"), ax("j")},
                           read("C", {ax("i"), ax("j")}) +
                               (lit(1.5) * read("A", {ax("i"), ax("k")}) *
                                    read("B", {ax("j"), ax("k")}) +
                                lit(1.5) * read("B", {ax("i"), ax("k")}) *
                                    read("A", {ax("j"), ax("k")})))})})}));
  auto Match = detectBlasIdiom(Prog.topLevel()[0], Prog);
  ASSERT_TRUE(Match.has_value());
  EXPECT_EQ(Match->Kind, BlasKind::Syr2k);
}

TEST(IdiomTest, DetectsGemv) {
  int N = 32;
  Program Prog("gemv");
  Prog.addArray("A", {N, N});
  Prog.addArray("x", {N});
  Prog.addArray("y", {N});
  Prog.append(forLoop(
      "i", 0, N,
      {forLoop("j", 0, N,
               {assign("S0", "y", {ax("i")},
                       read("y", {ax("i")}) +
                           read("A", {ax("i"), ax("j")}) *
                               read("x", {ax("j")}))})}));
  auto Match = detectBlasIdiom(Prog.topLevel()[0], Prog);
  ASSERT_TRUE(Match.has_value());
  EXPECT_EQ(Match->Kind, BlasKind::Gemv);
}

TEST(IdiomTest, RejectsFusedNest) {
  // Two statements in one nest: not a standalone BLAS kernel.
  int N = 16;
  Program Prog("fused");
  Prog.addArray("A", {N, N});
  Prog.addArray("B", {N, N});
  Prog.addArray("C", {N, N});
  Prog.append(forLoop(
      "i", 0, N,
      {forLoop("j", 0, N,
               {assign("S0", "C", {ax("i"), ax("j")},
                       read("C", {ax("i"), ax("j")}) * lit(1.2)),
                forLoop("k", 0, N,
                        {assign("S1", "C", {ax("i"), ax("j")},
                                read("C", {ax("i"), ax("j")}) +
                                    read("A", {ax("i"), ax("k")}) *
                                        read("B", {ax("k"), ax("j")}))})})}));
  EXPECT_FALSE(detectBlasIdiom(Prog.topLevel()[0], Prog).has_value());
}

TEST(IdiomTest, RespectsEnabledSet) {
  Program Prog = makeSyrkProgram();
  EXPECT_FALSE(detectBlasIdiom(Prog.topLevel()[0], Prog,
                               pythonFrameworkOperators())
                   .has_value());
}

TEST(IdiomTest, CallNodeSemanticsMatchLoops) {
  Program Prog = makeGemmVariant("i", "j", "k", 12);
  Program WithCall = Prog.clone();
  auto Match = detectBlasIdiom(WithCall.topLevel()[0], WithCall);
  ASSERT_TRUE(Match.has_value());
  WithCall.topLevel()[0] = Match->Call;
  EXPECT_TRUE(semanticallyEquivalent(Prog, WithCall, 1e-9));
}

//===----------------------------------------------------------------------===//
// Recipes
//===----------------------------------------------------------------------===//

TEST(RecipeTest, ApplyPreservesSemantics) {
  Program Prog = makeGemmVariant("j", "k", "i", 16);
  Recipe R;
  RecipeStep Perm;
  Perm.StepKind = RecipeStep::Kind::Permute;
  Perm.Perm = {2, 1, 0};
  R.Steps.push_back(Perm);
  RecipeStep Tile;
  Tile.StepKind = RecipeStep::Kind::Tile;
  Tile.Tiles = {8, 8, 8};
  R.Steps.push_back(Tile);
  RecipeStep Par;
  Par.StepKind = RecipeStep::Kind::ParallelizeOutermost;
  R.Steps.push_back(Par);
  RecipeStep Vec;
  Vec.StepKind = RecipeStep::Kind::VectorizeInnermost;
  R.Steps.push_back(Vec);

  Program Transformed = Prog.clone();
  Transformed.topLevel()[0] =
      applyRecipe(R, Prog.topLevel()[0], Transformed);
  EXPECT_TRUE(semanticallyEquivalent(Prog, Transformed));
}

TEST(RecipeTest, IllegalPermutationSkipped) {
  Program Prog = makeSyrkProgram(12);
  Recipe R;
  RecipeStep Perm;
  Perm.StepKind = RecipeStep::Kind::Permute;
  Perm.Perm = {1, 0, 2}; // j above i: illegal for the triangular nest
  R.Steps.push_back(Perm);
  Program Transformed = Prog.clone();
  Transformed.topLevel()[0] =
      applyRecipe(R, Prog.topLevel()[0], Transformed);
  EXPECT_TRUE(semanticallyEquivalent(Prog, Transformed));
}

TEST(RecipeTest, ToStringRoundtrip) {
  Recipe R = Recipe::defaultParallelRecipe();
  EXPECT_EQ(R.toString(), "parallel ; vectorize");
}

//===----------------------------------------------------------------------===//
// Database
//===----------------------------------------------------------------------===//

TEST(DatabaseTest, ExactHashWins) {
  TransferTuningDatabase Db;
  Program Prog = makeGemmVariant("i", "j", "k");
  DatabaseEntry Near;
  Near.Name = "near";
  Near.Embedding = embedNest(Prog.topLevel()[0], Prog);
  Db.insert(Near);
  DatabaseEntry Exact;
  Exact.Name = "exact";
  Exact.CanonicalHash = structuralHash(Prog.topLevel()[0]);
  // Give the exact entry a far-away embedding.
  Exact.Embedding.Features[0] = 100.0;
  Db.insert(Exact);
  const DatabaseEntry *Found =
      Db.lookup(embedNest(Prog.topLevel()[0], Prog),
                structuralHash(Prog.topLevel()[0]));
  ASSERT_NE(Found, nullptr);
  EXPECT_EQ(Found->Name, "exact");
}

TEST(DatabaseTest, SnapshotsAreImmutableAndCopiesAreCheap) {
  // The entry vector lives behind a copy-on-write shared_ptr: snapshots
  // and database copies share it in O(1), and insert un-shares before
  // mutating so existing readers keep the exact view they took. This is
  // what bounds the engine's DbMutex critical sections to constant size.
  TransferTuningDatabase Db;
  DatabaseEntry First;
  First.Name = "first";
  Db.insert(First);

  std::shared_ptr<const std::vector<DatabaseEntry>> Snap = Db.snapshot();
  TransferTuningDatabase Copy = Db;
  // Copying shares storage, it does not duplicate it.
  EXPECT_EQ(Copy.snapshot().get(), Snap.get());
  EXPECT_EQ(&Db.entries(), Snap.get());

  DatabaseEntry Second;
  Second.Name = "second";
  Db.insert(Second);
  // The mutated database re-seated its vector; the snapshot and the copy
  // still see exactly one entry.
  EXPECT_EQ(Db.size(), 2u);
  ASSERT_EQ(Snap->size(), 1u);
  EXPECT_EQ((*Snap)[0].Name, "first");
  EXPECT_EQ(Copy.size(), 1u);
  EXPECT_NE(&Db.entries(), Snap.get());

  // The copy is independently mutable (its own un-share).
  Copy.insert(Second);
  EXPECT_EQ(Copy.size(), 2u);
  EXPECT_EQ(Snap->size(), 1u);
}

TEST(DatabaseTest, MaxDistanceRespected) {
  TransferTuningDatabase Db;
  DatabaseEntry Far;
  Far.Embedding.Features[0] = 1000.0;
  Db.insert(Far);
  PerformanceEmbedding Key;
  EXPECT_EQ(Db.lookup(Key, /*CanonicalHash=*/1, /*MaxDistance=*/10.0),
            nullptr);
  EXPECT_NE(Db.lookup(Key, /*CanonicalHash=*/1, /*MaxDistance=*/1e6),
            nullptr);
}

TEST(DatabaseTest, NearestOrdering) {
  TransferTuningDatabase Db;
  for (double D : {5.0, 1.0, 3.0}) {
    DatabaseEntry E;
    E.Name = std::to_string(D);
    E.Embedding.Features[0] = D;
    Db.insert(E);
  }
  PerformanceEmbedding Key;
  auto Nearest = Db.nearest(Key, 2);
  ASSERT_EQ(Nearest.size(), 2u);
  EXPECT_EQ(Nearest[0]->Name, "1.000000");
  EXPECT_EQ(Nearest[1]->Name, "3.000000");
}

//===----------------------------------------------------------------------===//
// Schedulers
//===----------------------------------------------------------------------===//

TEST(SchedulerTest, BaselinesPreserveSemantics) {
  Program Prog = makeGemmVariant("i", "j", "k", 16);
  ClangScheduler Clang;
  IccScheduler Icc;
  PollyScheduler Polly;
  for (Scheduler *S :
       std::initializer_list<Scheduler *>{&Clang, &Icc, &Polly}) {
    auto Result = S->schedule(Prog);
    ASSERT_TRUE(Result.has_value()) << S->name();
    EXPECT_TRUE(semanticallyEquivalent(Prog, *Result)) << S->name();
  }
}

TEST(SchedulerTest, PollyTilesAndParallelizes) {
  Program Prog = makeGemmVariant("i", "j", "k", 64);
  PollyScheduler Polly;
  auto Result = Polly.schedule(Prog);
  ASSERT_TRUE(Result.has_value());
  // Tiling deepened the band; some loop is parallel.
  EXPECT_GT(loopDepth(Result->topLevel()[0]), 3);
  bool AnyParallel = false;
  for (const auto &L : collectLoops(Result->topLevel()[0]))
    AnyParallel |= L->isParallel();
  EXPECT_TRUE(AnyParallel);
}

TEST(SchedulerTest, TiramisuRejectsTriangular) {
  Program Prog = makeSyrkProgram();
  TiramisuScheduler Tiramisu(fastOptions(), tinyBudget());
  EXPECT_FALSE(Tiramisu.schedule(Prog).has_value());
}

TEST(SchedulerTest, TiramisuHandlesRectangularAndPreservesSemantics) {
  Program Prog = makeGemmVariant("j", "k", "i", 16);
  TiramisuScheduler Tiramisu(fastOptions(), tinyBudget());
  auto Result = Tiramisu.schedule(Prog);
  ASSERT_TRUE(Result.has_value());
  EXPECT_TRUE(semanticallyEquivalent(Prog, *Result));
}

TEST(SchedulerTest, DaisyLiftsBlasAfterNormalization) {
  auto Db = std::make_shared<TransferTuningDatabase>();
  DaisyScheduler Daisy(Db);
  Program Prog = makeGemmVariant("k", "j", "i", 16);
  auto Result = Daisy.schedule(Prog);
  ASSERT_TRUE(Result.has_value());
  bool HasCall = false;
  for (const NodePtr &Node : Result->topLevel())
    HasCall |= Node->kind() == NodeKind::Call;
  EXPECT_TRUE(HasCall);
  EXPECT_TRUE(semanticallyEquivalent(Prog, *Result));
}

TEST(SchedulerTest, DaisyWithoutNormalizationMissesBlas) {
  // The B-style composition hides the idiom from direct detection.
  int N = 16;
  Program Prog("fused");
  Prog.addArray("A", {N, N});
  Prog.addArray("B", {N, N});
  Prog.addArray("C", {N, N});
  Prog.append(forLoop(
      "i", 0, N,
      {forLoop("j", 0, N,
               {assign("S0", "C", {ax("i"), ax("j")},
                       read("C", {ax("i"), ax("j")}) * lit(1.2)),
                forLoop("k", 0, N,
                        {assign("S1", "C", {ax("i"), ax("j")},
                                read("C", {ax("i"), ax("j")}) +
                                    read("A", {ax("i"), ax("k")}) *
                                        read("B", {ax("k"), ax("j")}))})})}));
  auto Db = std::make_shared<TransferTuningDatabase>();
  DaisyOptions NoNorm;
  NoNorm.EnableNormalization = false;
  DaisyScheduler DaisyNoNorm(Db, NoNorm);
  auto ResultNoNorm = DaisyNoNorm.schedule(Prog);
  ASSERT_TRUE(ResultNoNorm.has_value());
  bool HasCall = false;
  for (const NodePtr &Node : ResultNoNorm->topLevel())
    HasCall |= Node->kind() == NodeKind::Call;
  EXPECT_FALSE(HasCall);

  DaisyScheduler DaisyNorm(Db);
  auto ResultNorm = DaisyNorm.schedule(Prog);
  ASSERT_TRUE(ResultNorm.has_value());
  HasCall = false;
  for (const NodePtr &Node : ResultNorm->topLevel())
    HasCall |= Node->kind() == NodeKind::Call;
  EXPECT_TRUE(HasCall);
}

TEST(SchedulerTest, DaisyOpaqueFallback) {
  Program Prog = makeGemmVariant("i", "j", "k", 16);
  dynCast<Loop>(Prog.topLevel()[0])->setOpaque(true);
  auto Db = std::make_shared<TransferTuningDatabase>();
  DaisyScheduler Daisy(Db);
  auto Result = Daisy.schedule(Prog);
  ASSERT_TRUE(Result.has_value());
  // Nest is not replaced by a call, and semantics hold.
  EXPECT_EQ(Result->topLevel()[0]->kind(), NodeKind::Loop);
  EXPECT_TRUE(semanticallyEquivalent(Prog, *Result));
}

TEST(SchedulerTest, SeededDatabaseTransfersToBVariant) {
  SimOptions Options = fastOptions();
  SearchBudget Budget = tinyBudget();
  auto Db = std::make_shared<TransferTuningDatabase>();
  Rng Rand(7);
  Program A = makeGemmVariant("i", "j", "k", 16);
  Evaluator Eval(Options);
  DaisyScheduler::seedDatabase(*Db, A, Eval, Budget, Rand);
  EXPECT_GT(Db->size(), 0u);

  DaisyScheduler Daisy(Db);
  Program B = makeGemmVariant("k", "j", "i", 16);
  auto SchedA = Daisy.schedule(A);
  auto SchedB = Daisy.schedule(B);
  ASSERT_TRUE(SchedA.has_value() && SchedB.has_value());
  double TimeA = simulateProgram(*SchedA, Options).Seconds;
  double TimeB = simulateProgram(*SchedB, Options).Seconds;
  // Robustness: A and B runtimes must be near-identical.
  EXPECT_NEAR(TimeA, TimeB, 0.15 * TimeA);
}

//===----------------------------------------------------------------------===//
// DaisyScheduler against its layers
//===----------------------------------------------------------------------===//

namespace {

/// The 45 PolyBench programs and the three CLOUDSC variants.
std::vector<Program> schedulingCorpus() {
  std::vector<Program> Corpus;
  for (PolyBenchKernel Kernel : allPolyBenchKernels())
    for (VariantKind V :
         {VariantKind::A, VariantKind::B, VariantKind::NPBench})
      Corpus.push_back(buildPolyBench(Kernel, V));
  for (CloudscVariant V :
       {CloudscVariant::Fortran, CloudscVariant::C, CloudscVariant::DaCe})
    Corpus.push_back(buildCloudsc(CloudscConfig(), V));
  return Corpus;
}

/// How the transfer lookups of scheduleByLayer resolved.
struct TransferCounts {
  int ExactDefault = 0, ExactRestructuring = 0;
  int NearestDefault = 0, NearestRestructuring = 0;
  int Miss = 0;
};

/// DaisyScheduler::schedule composed of its public layer calls: normalize,
/// detectBlasIdiom, lookup(embedNest(Node, Prog)), applyRecipe. Each layer
/// analyzes the nest itself.
Program scheduleByLayer(const Program &Prog,
                        const TransferTuningDatabase &Db,
                        TransferCounts &Counts) {
  const DaisyOptions Options;
  const std::string Default = Recipe::defaultParallelRecipe().toString();
  Program Result = normalize(Prog);
  for (NodePtr &Node : Result.topLevel()) {
    if (Node->kind() != NodeKind::Loop)
      continue;
    if (dynCast<Loop>(Node)->isOpaque()) {
      parallelizeWithAtomics(Node, Result.params(), &Result);
      continue;
    }
    if (auto Match = detectBlasIdiom(Node, Result, Options.Idioms)) {
      Node = Match->Call;
      continue;
    }
    uint64_t Hash = structuralHash(Node);
    const DatabaseEntry *Entry = Db.lookup(embedNest(Node, Result), Hash,
                                           Options.MaxTransferDistance);
    if (!Entry) {
      ++Counts.Miss;
    } else {
      bool IsDefault = Entry->Optimization.toString() == Default;
      if (Entry->CanonicalHash == Hash)
        ++(IsDefault ? Counts.ExactDefault : Counts.ExactRestructuring);
      else
        ++(IsDefault ? Counts.NearestDefault : Counts.NearestRestructuring);
    }
    Node = applyRecipe(Entry ? Entry->Optimization
                             : Recipe::defaultParallelRecipe(),
                       Node, Result);
  }
  return Result;
}

/// Expects DaisyScheduler::schedule to give scheduleByLayer's program on
/// every corpus program.
TransferCounts
expectSchedulerMatchesLayers(const std::vector<Program> &Corpus,
                             const std::shared_ptr<TransferTuningDatabase> &Db) {
  TransferCounts Counts;
  DaisyScheduler Daisy(Db);
  for (size_t I = 0; I < Corpus.size(); ++I) {
    SCOPED_TRACE("corpus program " + std::to_string(I) + " (" +
                 Corpus[I].name() + ")");
    std::optional<Program> Scheduled = Daisy.schedule(Corpus[I]);
    EXPECT_TRUE(Scheduled.has_value());
    if (!Scheduled)
      continue;
    Program ByLayer = scheduleByLayer(Corpus[I], *Db, Counts);
    EXPECT_EQ(structuralHashWithMarks(*Scheduled),
              structuralHashWithMarks(ByLayer));
    EXPECT_EQ(printProgram(*Scheduled), printProgram(ByLayer));
  }
  return Counts;
}

} // namespace

TEST(SchedulerTest, DaisyMatchesItsLayersOnAnEmptyDatabase) {
  TransferCounts Counts = expectSchedulerMatchesLayers(
      schedulingCorpus(), std::make_shared<TransferTuningDatabase>());
  EXPECT_GT(Counts.Miss, 0);
}

TEST(SchedulerTest, DaisyMatchesItsLayersOnTransferredRecipes) {
  // A small database keyed by corpus nests: exact-hash and nearest hits,
  // each applying the default recipe (marks in place) or a restructuring
  // one (applyRecipe).
  std::vector<Program> Corpus = schedulingCorpus();
  std::vector<std::pair<NodePtr, Program>> Nests;
  for (const Program &Prog : Corpus) {
    Program Norm = normalize(Prog);
    for (const NodePtr &Node : Norm.topLevel())
      if (Node->kind() == NodeKind::Loop && !dynCast<Loop>(Node)->isOpaque() &&
          !detectBlasIdiom(Node, Norm, DaisyOptions().Idioms) &&
          perfectNestBand(Node).size() >= 2)
        Nests.push_back({Node, Norm});
  }
  ASSERT_GE(Nests.size(), 40u);

  Recipe Tiled;
  Tiled.Steps.resize(3);
  Tiled.Steps[0].StepKind = RecipeStep::Kind::Tile;
  Tiled.Steps[0].Tiles = {4, 4};
  Tiled.Steps[1].StepKind = RecipeStep::Kind::ParallelizeOutermost;
  Tiled.Steps[2].StepKind = RecipeStep::Kind::VectorizeInnermost;
  Recipe Swapped;
  Swapped.Steps.resize(2);
  Swapped.Steps[0].StepKind = RecipeStep::Kind::Permute;
  Swapped.Steps[0].Perm = {1, 0};
  Swapped.Steps[1].StepKind = RecipeStep::Kind::ParallelizeOutermost;

  auto Db = std::make_shared<TransferTuningDatabase>();
  auto Add = [&](size_t Nest, bool Exact, const Recipe &R) {
    const auto &[Node, Norm] = Nests[Nest];
    DatabaseEntry Entry;
    Entry.Name = "nest" + std::to_string(Nest);
    // Hash 0 keys no corpus nest, so that entry serves only nearest hits.
    Entry.CanonicalHash = Exact ? structuralHash(Node) : 0;
    Entry.Embedding = embedNest(Node, Norm);
    Entry.Optimization = R;
    Db->insert(std::move(Entry));
  };
  Add(0, /*Exact=*/true, Tiled);
  Add(Nests.size() / 4, /*Exact=*/true, Recipe::defaultParallelRecipe());
  Add(Nests.size() / 2, /*Exact=*/false, Swapped);
  Add(3 * Nests.size() / 4, /*Exact=*/false, Recipe::defaultParallelRecipe());

  TransferCounts Counts = expectSchedulerMatchesLayers(Corpus, Db);
  EXPECT_GT(Counts.ExactDefault, 0);
  EXPECT_GT(Counts.ExactRestructuring, 0);
  EXPECT_GT(Counts.NearestDefault, 0);
  EXPECT_GT(Counts.NearestRestructuring, 0);
}

TEST(EmbeddingTest, PrecomputedDependencesGiveTheSameEmbedding) {
  for (const Program &Prog : schedulingCorpus()) {
    Program Norm = normalize(Prog);
    for (const NodePtr &Node : Norm.topLevel()) {
      if (Node->kind() != NodeKind::Loop)
        continue;
      PerformanceEmbedding Own = embedNest(Node, Norm);
      PerformanceEmbedding Shared = embedNest(
          Node, Norm, computeDependences(Node, Norm.params()));
      for (size_t F = 0; F < PerformanceEmbedding::Size; ++F)
        EXPECT_EQ(Own.Features[F], Shared.Features[F])
            << Prog.name() << " feature " << F;
    }
  }
}

TEST(FrameworkModelTest, AllPreserveSemantics) {
  Program Prog = makeGemmVariant("i", "j", "k", 16);
  NumPyScheduler NumPy;
  NumbaScheduler Numba;
  DaCeScheduler DaCe;
  for (Scheduler *S :
       std::initializer_list<Scheduler *>{&NumPy, &Numba, &DaCe}) {
    auto Result = S->schedule(Prog);
    ASSERT_TRUE(Result.has_value()) << S->name();
    EXPECT_TRUE(semanticallyEquivalent(Prog, *Result)) << S->name();
  }
}

TEST(FrameworkModelTest, NumPyDoesNotParallelize) {
  Program Prog("vec");
  int N = 8192; // large enough to pass the parallelization profitability
  Prog.addArray("A", {N});
  Prog.addArray("B", {N});
  Prog.append(forLoop("i", 0, N,
                      {assign("S0", "A", {ax("i")},
                              read("B", {ax("i")}) * lit(2.0))}));
  NumPyScheduler NumPy;
  NumbaScheduler Numba;
  auto RNumPy = NumPy.schedule(Prog);
  auto RNumba = Numba.schedule(Prog);
  auto AnyParallel = [](const Program &P) {
    for (const NodePtr &Node : P.topLevel())
      for (const auto &L : collectLoops(Node))
        if (L->isParallel())
          return true;
    return false;
  };
  EXPECT_FALSE(AnyParallel(*RNumPy));
  EXPECT_TRUE(AnyParallel(*RNumba));
}
