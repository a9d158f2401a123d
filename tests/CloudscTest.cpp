//===- tests/CloudscTest.cpp - CLOUDSC proxy tests -------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "api/Engine.h"
#include "cloudsc/Cloudsc.h"
#include "exec/DataEnv.h"
#include "exec/ExecPlan.h"
#include "exec/Interpreter.h"
#include "ir/Builder.h"
#include "ir/Validate.h"
#include "machine/Simulator.h"
#include "normalize/Pipeline.h"
#include "transform/Cse.h"
#include "transform/Parallelize.h"

#include <gtest/gtest.h>

using namespace daisy;

namespace {

CloudscConfig smallConfig() {
  CloudscConfig Config;
  Config.Nproma = 16;
  Config.Klev = 6;
  Config.Nblocks = 2;
  return Config;
}

} // namespace

TEST(CseTest, MergesDuplicateNests) {
  Program Prog("cse");
  int N = 16;
  Prog.addArray("X", {N});
  Prog.addArray("T1", {N}, /*Transient=*/true);
  Prog.addArray("T2", {N}, /*Transient=*/true);
  Prog.addArray("Y", {N});
  auto MakeNest = [&](const std::string &Dst) {
    return forLoop("i", 0, N,
                   {assign("S", Dst, {ax("i")},
                           read("X", {ax("i")}) * read("X", {ax("i")}) +
                               lit(1.0))});
  };
  Prog.append(MakeNest("T1"));
  Prog.append(MakeNest("T2"));
  Prog.append(forLoop("i", 0, N,
                      {assign("S2", "Y", {ax("i")},
                              read("T1", {ax("i")}) +
                                  read("T2", {ax("i")}))}));
  Program Original = Prog.clone();
  int Removed = eliminateCommonNests(Prog.topLevel(), Prog);
  EXPECT_EQ(Removed, 1);
  EXPECT_EQ(Prog.topLevel().size(), 2u);
  EXPECT_TRUE(semanticallyEquivalent(Original, Prog));
}

TEST(CseTest, DoesNotMergeAcrossClobber) {
  Program Prog("cse");
  int N = 8;
  Prog.addArray("X", {N});
  Prog.addArray("T1", {N}, /*Transient=*/true);
  Prog.addArray("T2", {N}, /*Transient=*/true);
  auto MakeNest = [&](const std::string &Dst) {
    return forLoop("i", 0, N,
                   {assign("S", Dst, {ax("i")},
                           read("X", {ax("i")}) + lit(1.0))});
  };
  Prog.append(MakeNest("T1"));
  // X changes between the two candidates.
  Prog.append(forLoop("i", 0, N,
                      {assign("SX", "X", {ax("i")},
                              read("X", {ax("i")}) * lit(2.0))}));
  Prog.append(MakeNest("T2"));
  EXPECT_EQ(eliminateCommonNests(Prog.topLevel(), Prog), 0);
}

TEST(CloudscTest, ProgramsValid) {
  CloudscConfig Config = smallConfig();
  EXPECT_TRUE(isValid(buildErosionKernel(Config)));
  for (CloudscVariant V : {CloudscVariant::Fortran, CloudscVariant::C,
                           CloudscVariant::DaCe})
    EXPECT_TRUE(isValid(buildCloudsc(Config, V)));
}

TEST(CloudscTest, VariantsSemanticallyEquivalent) {
  CloudscConfig Config = smallConfig();
  Program Fortran = buildCloudsc(Config, CloudscVariant::Fortran);
  Program C = buildCloudsc(Config, CloudscVariant::C);
  Program DaCe = buildCloudsc(Config, CloudscVariant::DaCe);
  EXPECT_TRUE(semanticallyEquivalent(Fortran, C, 1e-9));
  EXPECT_TRUE(semanticallyEquivalent(Fortran, DaCe, 1e-9));
}

TEST(CloudscTest, OptimizePreservesSemantics) {
  CloudscConfig Config = smallConfig();
  Program Fortran = buildCloudsc(Config, CloudscVariant::Fortran);
  Program Optimized = optimizeCloudsc(Fortran);
  EXPECT_TRUE(isValid(Optimized));
  EXPECT_TRUE(semanticallyEquivalent(Fortran, Optimized, 1e-9));
}

TEST(CloudscTest, OptimizeErosionPreservesSemantics) {
  CloudscConfig Config = smallConfig();
  Program Erosion = buildErosionKernel(Config);
  Program Optimized = optimizeCloudsc(Erosion);
  EXPECT_TRUE(semanticallyEquivalent(Erosion, Optimized, 1e-9));
}

TEST(CloudscTest, CseRemovesDuplicatedSaturationChain) {
  // The optimized erosion kernel executes fewer flops: the duplicated
  // FOEEWM chain is merged.
  CloudscConfig Config;
  Config.Nproma = 32;
  Config.Klev = 4;
  Program Erosion = buildErosionKernel(Config);
  Program Optimized = optimizeCloudsc(Erosion);
  EXPECT_LT(Optimized.totalFlops(), Erosion.totalFlops());
}

TEST(CloudscTest, Table1Shape) {
  // Runtime and L1 traffic of the optimized erosion kernel improve, the
  // headline of the paper's Table 1.
  CloudscConfig Config;
  Config.Nproma = 128;
  Config.Klev = 16; // enough levels for steady state
  Program Erosion = buildErosionKernel(Config);
  Program Optimized = optimizeCloudsc(Erosion);
  SimOptions Options;
  SimReport Before = simulateProgram(Erosion, Options);
  SimReport After = simulateProgram(Optimized, Options);
  EXPECT_LT(After.Seconds, Before.Seconds / 1.5);
  EXPECT_LT(After.Cache[0].Loads, Before.Cache[0].Loads);
}

TEST(CloudscTest, OptimizedIsVectorizedAndParallel) {
  CloudscConfig Config;
  Config.Nproma = 64; // large enough for profitable block parallelism
  Config.Klev = 12;
  Config.Nblocks = 4;
  Program Optimized =
      optimizeCloudsc(buildCloudsc(Config, CloudscVariant::Fortran));
  bool AnyVector = false, AnyParallel = false;
  for (const NodePtr &Node : Optimized.topLevel())
    for (const auto &L : collectLoops(Node)) {
      AnyVector |= L->isVectorized();
      AnyParallel |= L->isParallel();
    }
  EXPECT_TRUE(AnyVector);
  EXPECT_TRUE(AnyParallel);
}

TEST(CloudscTest, FullModelRuntimeOrder) {
  // Sequential: daisy <= Fortran <= C and DaCe slower than Fortran (the
  // Fig. 11 ordering).
  CloudscConfig Config;
  Config.Nproma = 64;
  Config.Klev = 24;
  Config.Nblocks = 2;
  SimOptions Options;
  auto TimeOf = [&](Program P) {
    // Baselines are compiled with vectorization (their compilers do).
    for (const NodePtr &Node : P.topLevel())
      vectorizeInnermostUnitStride(Node, P);
    return simulateProgram(P, Options).Seconds;
  };
  double Fortran =
      TimeOf(buildCloudsc(Config, CloudscVariant::Fortran));
  double C = TimeOf(buildCloudsc(Config, CloudscVariant::C));
  double DaCe = TimeOf(buildCloudsc(Config, CloudscVariant::DaCe));
  Program Daisy =
      optimizeCloudsc(buildCloudsc(Config, CloudscVariant::Fortran));
  double DaisyTime = simulateProgram(Daisy, Options).Seconds;
  EXPECT_LT(DaisyTime, Fortran);
  EXPECT_LT(Fortran, C);
  EXPECT_LT(Fortran, DaCe);
}

TEST(CloudscTest, OnlyDaCeHasTemporariesToContract) {
  // DaCe stores each of its 30 intermediate scalars as a full
  // NBLOCKS x KLEV x NPROMA transient; normalization contracts each to
  // one NPROMA column. Fortran and C declare nothing to contract.
  CloudscConfig Config;
  NormalizationStats Stats;
  normalize(buildCloudsc(Config, CloudscVariant::DaCe), {}, &Stats);
  EXPECT_EQ(Stats.Contraction.ArraysContracted, 30);
  EXPECT_EQ(Stats.Contraction.ElementsBefore, 2104320);
  EXPECT_EQ(Stats.Contraction.ElementsAfter, 3840);
  for (CloudscVariant V : {CloudscVariant::Fortran, CloudscVariant::C}) {
    normalize(buildCloudsc(Config, V), {}, &Stats);
    EXPECT_EQ(Stats.Contraction.ArraysContracted, 0);
    EXPECT_EQ(Stats.Contraction.ElementsBefore, 0);
  }
}

TEST(CloudscTest, DaCeSchedulesAndRunsLikeFortran) {
  CloudscConfig Config;
  Config.Nproma = 32;
  Config.Klev = 8;
  Config.Nblocks = 4; // enough work per block loop to fork
  Engine Eng;
  Program Source = buildCloudsc(Config, CloudscVariant::DaCe);
  Program DaCe = Eng.schedule(Source);
  Program Fortran = Eng.schedule(buildCloudsc(Config, CloudscVariant::Fortran));
  Program C = Eng.schedule(buildCloudsc(Config, CloudscVariant::C));

  auto TransientElements = [](const Program &P) {
    int64_t Elements = 0;
    for (const ArrayDecl &Decl : P.arrays())
      if (Decl.Transient)
        Elements += Decl.elementCount();
    return Elements;
  };
  EXPECT_EQ(Fortran.topLevel().size(), 6u);
  EXPECT_EQ(DaCe.topLevel().size(), Fortran.topLevel().size());
  EXPECT_EQ(TransientElements(DaCe), TransientElements(Fortran));
  // The C port's ZQBUF copy-in/copy-out staging is not forwarded.
  EXPECT_EQ(C.topLevel().size(), 7u);

  PlanOptions Options;
  Options.NumThreads = 4;
  ExecPlan::Stats D = ExecPlan::compile(DaCe, Options).stats();
  ExecPlan::Stats F = ExecPlan::compile(Fortran, Options).stats();
  EXPECT_GT(F.ParallelLoops, 0u);
  EXPECT_EQ(D.ParallelLoops, F.ParallelLoops);
  EXPECT_EQ(D.PrivatizedBuffers, F.PrivatizedBuffers);
  EXPECT_EQ(D.BlockedLoops, F.BlockedLoops);

  // The tree-walk of the scheduled program equals the source's, and its
  // plan equals that tree-walk at every thread count and specialization.
  DataEnv SourceWalked(Source), Walked(DaCe);
  SourceWalked.initDeterministic(3);
  Walked.initDeterministic(3);
  interpretTreeWalk(Source, SourceWalked);
  interpretTreeWalk(DaCe, Walked);
  EXPECT_EQ(DataEnv::maxAbsDifference(SourceWalked, Walked, Source), 0.0);
  for (int Threads : {1, 2, 4}) {
    for (bool Specialize : {false, true}) {
      PlanOptions Run;
      Run.NumThreads = Threads;
      Run.EnableSpecialization = Specialize;
      DataEnv Planned(DaCe);
      Planned.initDeterministic(3);
      ExecPlan::compile(DaCe, Run).run(Planned);
      EXPECT_EQ(DataEnv::maxAbsDifference(Walked, Planned, DaCe), 0.0)
          << "threads=" << Threads << " spec=" << Specialize;
    }
  }
}
