//===- tests/NormalizeTest.cpp - normalization pipeline tests --------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Legality.h"
#include "analysis/Stride.h"
#include "exec/Interpreter.h"
#include "frontends/PolyBench.h"
#include "ir/Builder.h"
#include "ir/StructuralHash.h"
#include "normalize/Pipeline.h"
#include "support/Random.h"
#include "transform/Permute.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace daisy;

namespace {

/// GEMM with a configurable loop order.
Program makeGemmVariant(const std::string &O1, const std::string &O2,
                        const std::string &O3, int N = 8) {
  Program Prog("gemm_" + O1 + O2 + O3);
  Prog.addArray("A", {N, N});
  Prog.addArray("B", {N, N});
  Prog.addArray("C", {N, N});
  NodePtr Inner = assign("S0", "C", {ax("i"), ax("j")},
                         read("C", {ax("i"), ax("j")}) +
                             read("A", {ax("i"), ax("k")}) *
                                 read("B", {ax("k"), ax("j")}));
  Prog.append(forLoop(O1, 0, N,
                      {forLoop(O2, 0, N, {forLoop(O3, 0, N, {Inner})})}));
  return Prog;
}

/// The paper's Fig. 3a: two independent computations with contiguous and
/// strided accesses sharing one loop nest.
Program makeFig3Program(int N = 16) {
  Program Prog("fig3");
  Prog.addArray("A", {N, N});
  Prog.addArray("B", {N, N});
  Prog.append(forLoop(
      "i", 0, N,
      {forLoop(
          "j", 0, N,
          {assign("S1", "A", {ax("i"), ax("j")},
                  read("A", {ax("i"), ax("j")}) + lit(1.0)),
           assign("S2", "B", {ax("j"), ax("i")},
                  read("B", {ax("j"), ax("i")}) * lit(2.0))})}));
  return Prog;
}

} // namespace

TEST(FissionTest, Fig3SplitsIntoTwoNests) {
  Program Prog = makeFig3Program();
  FissionStats Stats = maximalLoopFission(Prog);
  EXPECT_EQ(Prog.topLevel().size(), 2u);
  EXPECT_GE(Stats.LoopsDistributed, 1);
}

TEST(FissionTest, PreservesSemantics) {
  Program Prog = makeFig3Program();
  Program Original = Prog.clone();
  maximalLoopFission(Prog);
  EXPECT_TRUE(semanticallyEquivalent(Original, Prog));
}

TEST(FissionTest, ResultIsAtomic) {
  Program Prog = makeFig3Program();
  maximalLoopFission(Prog);
  // No loop in the result can be distributed further.
  for (const NodePtr &Node : Prog.topLevel())
    for (const auto &L : collectLoops(Node))
      EXPECT_EQ(distributionGroups(*L, Prog.params()).size(), 1u);
}

TEST(FissionTest, Idempotent) {
  Program Prog = makeFig3Program();
  maximalLoopFission(Prog);
  uint64_t After1 = structuralHash(Prog);
  FissionStats Stats2 = maximalLoopFission(Prog);
  EXPECT_EQ(structuralHash(Prog), After1);
  EXPECT_EQ(Stats2.LoopsDistributed, 0);
}

TEST(FissionTest, ScalarChainSplitsWithExpansion) {
  Program Prog("chain");
  Prog.addArray("X", {12});
  Prog.addArray("Y", {12});
  Prog.addArray("t", {}, /*Transient=*/true);
  Prog.append(forLoop(
      "i", 0, 12,
      {assignScalar("S0", "t", read("X", {ax("i")}) * lit(2.0)),
       assign("S1", "Y", {ax("i")}, read("t") + lit(1.0))}));
  Program Original = Prog.clone();
  FissionStats Stats = maximalLoopFission(Prog);
  EXPECT_EQ(Stats.ScalarsExpanded, 1);
  EXPECT_EQ(Prog.topLevel().size(), 2u);
  EXPECT_TRUE(semanticallyEquivalent(Original, Prog));
}

TEST(FissionTest, ReductionStaysTogether) {
  // A true recurrence cannot be split.
  Program Prog("rec");
  Prog.addArray("A", {12});
  Prog.addArray("s", {});
  Prog.append(forLoop(
      "i", 0, 12,
      {assignScalar("S0", "s", read("s") + read("A", {ax("i")})),
       assign("S1", "A", {ax("i")}, read("s"))}));
  maximalLoopFission(Prog);
  EXPECT_EQ(Prog.topLevel().size(), 1u);
}

TEST(FissionTest, OpaqueNestUntouched) {
  Program Prog = makeFig3Program();
  std::static_pointer_cast<Loop>(Prog.topLevel()[0])->setOpaque(true);
  maximalLoopFission(Prog);
  EXPECT_EQ(Prog.topLevel().size(), 1u);
}

TEST(FissionTest, ImperfectNestInnerLoopsFissioned) {
  Program Prog("imp");
  Prog.addArray("A", {8, 8});
  Prog.addArray("B", {8, 8});
  Prog.append(forLoop(
      "i", 0, 8,
      {forLoop("j", 0, 8,
               {assign("S0", "A", {ax("i"), ax("j")}, lit(1.0)),
                assign("S1", "B", {ax("i"), ax("j")}, lit(2.0))})}));
  Program Original = Prog.clone();
  maximalLoopFission(Prog);
  // The outer loop splits as well, yielding two perfect nests.
  EXPECT_EQ(Prog.topLevel().size(), 2u);
  for (const NodePtr &Node : Prog.topLevel())
    EXPECT_EQ(perfectNestBand(Node).size(), 2u);
  EXPECT_TRUE(semanticallyEquivalent(Original, Prog));
}

TEST(StrideMinTest, GemmVariantsConverge) {
  // All six loop orders of GEMM normalize to the same canonical form.
  std::vector<Program> Variants;
  Variants.push_back(makeGemmVariant("i", "j", "k"));
  Variants.push_back(makeGemmVariant("i", "k", "j"));
  Variants.push_back(makeGemmVariant("j", "i", "k"));
  Variants.push_back(makeGemmVariant("j", "k", "i"));
  Variants.push_back(makeGemmVariant("k", "i", "j"));
  Variants.push_back(makeGemmVariant("k", "j", "i"));
  std::vector<uint64_t> Hashes;
  for (Program &Variant : Variants) {
    Program Norm = normalize(Variant);
    Hashes.push_back(structuralHash(Norm));
  }
  for (uint64_t H : Hashes)
    EXPECT_EQ(H, Hashes[0]);
}

TEST(StrideMinTest, PicksMinimalCostPermutation) {
  // Brute-force check on GEMM: the pass must pick a global optimum.
  Program Prog = makeGemmVariant("k", "j", "i");
  Program Norm = normalize(Prog);
  double ChosenCost = sumOfStridesCost(Norm.topLevel()[0], Norm);
  std::vector<std::string> Order = {"i", "j", "k"};
  std::sort(Order.begin(), Order.end());
  do {
    if (!isPermutationLegal(Prog.topLevel()[0], Order, Prog.params()))
      continue;
    NodePtr Candidate = applyPermutation(Prog.topLevel()[0], Order);
    EXPECT_GE(sumOfStridesCost(Candidate, Prog) + 1e-9, ChosenCost);
  } while (std::next_permutation(Order.begin(), Order.end()));
}

TEST(StrideMinTest, TieBreakIgnoresIteratorNames) {
  // A transpose copy costs the same with either loop outermost: one of
  // its two accesses is contiguous either way. Renaming the iterators must
  // not change which form normalization picks, because transfer tuning's
  // exact lookup keys on the normalized nest's structural hash.
  auto MakeTranspose = [](const std::string &Outer,
                          const std::string &Inner) {
    Program Prog("transpose");
    Prog.addArray("A", {16, 16});
    Prog.addArray("B", {16, 16});
    Prog.append(forLoop(
        Outer, 0, 16,
        {forLoop(Inner, 0, 16,
                 {assign("S0", "A", {ax(Outer), ax(Inner)},
                         read("B", {ax(Inner), ax(Outer)}))})}));
    return Prog;
  };
  Program IJ = MakeTranspose("i", "j");
  Program JI = MakeTranspose("j", "i");
  ASSERT_EQ(structuralHash(IJ), structuralHash(JI));
  Program NormIJ = normalize(IJ);
  Program NormJI = normalize(JI);
  EXPECT_EQ(structuralHash(NormIJ), structuralHash(NormJI));
  EXPECT_EQ(structuralHash(normalize(NormIJ)), structuralHash(NormIJ));
  EXPECT_EQ(structuralHash(normalize(NormJI)), structuralHash(NormJI));
  EXPECT_TRUE(semanticallyEquivalent(IJ, NormIJ));
  EXPECT_TRUE(semanticallyEquivalent(JI, NormJI));
}

TEST(StrideMinTest, PreservesSemantics) {
  Program Prog = makeGemmVariant("k", "j", "i");
  Program Norm = normalize(Prog);
  EXPECT_TRUE(semanticallyEquivalent(Prog, Norm));
}

TEST(StrideMinTest, Fig3FullPipeline) {
  // Fission first, then each nest is permuted for minimal strides: the
  // second nest (B[j][i]) flips to j-outer.
  Program Prog = makeFig3Program();
  Program Norm = normalize(Prog);
  ASSERT_EQ(Norm.topLevel().size(), 2u);
  auto Band2 = perfectNestBand(Norm.topLevel()[1]);
  ASSERT_EQ(Band2.size(), 2u);
  // After normalization the innermost iterator of each nest drives the
  // last array dimension.
  EXPECT_EQ(outOfOrderCount(Norm.topLevel()[0], Norm), 0);
  EXPECT_EQ(outOfOrderCount(Norm.topLevel()[1], Norm), 0);
  EXPECT_TRUE(semanticallyEquivalent(Prog, Norm));
}

TEST(StrideMinTest, OutOfOrderCriterionAlsoCanonicalizes) {
  NormalizationOptions Options;
  Options.StrideMin.UseOutOfOrderCriterion = true;
  Program A = makeGemmVariant("k", "j", "i");
  Program Norm = normalize(A, Options);
  EXPECT_EQ(outOfOrderCount(Norm.topLevel()[0], Norm), 0);
  EXPECT_TRUE(semanticallyEquivalent(A, Norm));
}

TEST(NormalizeTest, Idempotent) {
  Program Prog = makeFig3Program();
  Program Once = normalize(Prog);
  Program Twice = normalize(Once);
  EXPECT_EQ(structuralHash(Once), structuralHash(Twice));
}

TEST(NormalizeTest, StatsReported) {
  NormalizationStats Stats;
  Program Prog = makeFig3Program();
  normalize(Prog, {}, &Stats);
  EXPECT_GE(Stats.Fission.LoopsDistributed, 1);
  EXPECT_GE(Stats.StrideMin.NestsVisited, 2);
  EXPECT_GT(Stats.StrideMin.EnumeratedPermutations, 0);
}

TEST(NormalizeTest, PolyBenchHasNothingToContract) {
  // Transient contraction rewrites no PolyBench source: its transients
  // (gemm NPBench's t_mm, 2mm's tmp, correlation's mean, ...) carry
  // values from one nest or iteration to another.
  for (VariantKind V :
       {VariantKind::A, VariantKind::B, VariantKind::NPBench}) {
    for (PolyBenchKernel Kernel : allPolyBenchKernels()) {
      NormalizationStats Stats;
      normalize(buildPolyBench(Kernel, V), {}, &Stats);
      EXPECT_EQ(Stats.Contraction.ArraysContracted, 0)
          << polyBenchName(Kernel) << " variant " << static_cast<int>(V);
    }
  }
}

TEST(NormalizeTest, DisableFlagsRespected) {
  Program Prog = makeFig3Program();
  NormalizationOptions NoFission;
  NoFission.EnableFission = false;
  Program OnlyStride = normalize(Prog, NoFission);
  EXPECT_EQ(OnlyStride.topLevel().size(), 1u);

  NormalizationOptions NoStride;
  NoStride.EnableStrideMinimization = false;
  Program OnlyFission = normalize(Prog, NoStride);
  EXPECT_EQ(OnlyFission.topLevel().size(), 2u);
  // Without stride minimization the strided nest keeps its bad order.
  EXPECT_GT(outOfOrderCount(OnlyFission.topLevel()[1], OnlyFission), 0);
}

TEST(NormalizeTest, RandomProgramsPreserveSemantics) {
  // Property: normalization never changes observable results.
  Rng R(0xBEEF);
  for (int Trial = 0; Trial < 15; ++Trial) {
    Program Prog("rand");
    Prog.addArray("A", {8, 8});
    Prog.addArray("B", {8, 8});
    Prog.addArray("C", {8, 8});
    auto randomIndexPair =
        [&R]() -> std::vector<AffineExpr> {
      if (R.nextBool())
        return {ax("i"), ax("j")};
      return {ax("j"), ax("i")};
    };
    std::vector<NodePtr> Stmts;
    int NumStmts = static_cast<int>(R.nextInRange(1, 3));
    const char *Arrays[3] = {"A", "B", "C"};
    for (int S = 0; S < NumStmts; ++S) {
      std::string Dst = Arrays[R.nextBelow(3)];
      std::string Src = Arrays[R.nextBelow(3)];
      std::vector<AffineExpr> WIdx = randomIndexPair();
      Stmts.push_back(assign("S" + std::to_string(S), Dst, WIdx,
                             read(Dst, WIdx) +
                                 read(Src, randomIndexPair()) * lit(0.5)));
    }
    Prog.append(forLoop("i", 0, 8, {forLoop("j", 0, 8, std::move(Stmts))}));
    Program Norm = normalize(Prog);
    EXPECT_TRUE(semanticallyEquivalent(Prog, Norm))
        << "trial " << Trial;
  }
}
