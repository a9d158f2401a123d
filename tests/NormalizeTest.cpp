//===- tests/NormalizeTest.cpp - normalization pipeline tests --------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Legality.h"
#include "analysis/Stride.h"
#include "cloudsc/Cloudsc.h"
#include "exec/Interpreter.h"
#include "frontends/PolyBench.h"
#include "ir/Builder.h"
#include "ir/Printer.h"
#include "ir/Rewrite.h"
#include "ir/StructuralHash.h"
#include "normalize/Pipeline.h"
#include "support/Random.h"
#include "transform/Permute.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

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

//===----------------------------------------------------------------------===//
// Fission oracle: fixed-point fission without settled loops
//===----------------------------------------------------------------------===//

namespace reference {

/// Fixed-point fission without settled loops, the reference for
/// maximalLoopFission: every pass re-expands and re-distributes every
/// loop of a deep copy of the program, expansion counts each candidate's
/// accesses in two walks of its own, and the run stops when the
/// whole-program hash stops changing. maximalLoopFission must print the
/// same program and report the same statistics, analyzing fewer loops.

struct ScalarUsage {
  int FirstWriteItem = -1;
  int FirstReadItem = -1;
  bool InRecurrence = false;
};

void scanScalarUses(const std::vector<NodePtr> &Body,
                    std::map<std::string, ScalarUsage> &Usage) {
  for (size_t Item = 0; Item < Body.size(); ++Item) {
    for (const auto &C : collectComputations(Body[Item])) {
      bool WritesScalar = C->write().Indices.empty();
      for (const ArrayAccess &R : C->reads()) {
        if (!R.Indices.empty())
          continue;
        ScalarUsage &U = Usage[R.Array];
        if (U.FirstReadItem < 0)
          U.FirstReadItem = static_cast<int>(Item);
        if (WritesScalar && C->write().Array == R.Array)
          U.InRecurrence = true;
      }
      if (WritesScalar) {
        ScalarUsage &U = Usage[C->write().Array];
        if (U.FirstWriteItem < 0)
          U.FirstWriteItem = static_cast<int>(Item);
      }
    }
  }
}

int countAccesses(const NodePtr &Root, const std::string &Name) {
  int Count = 0;
  for (const auto &C : collectComputations(Root)) {
    Count += C->write().Array == Name;
    for (const ArrayAccess &R : C->reads())
      Count += R.Array == Name;
  }
  return Count;
}

bool scalarEscapes(const Program &Prog, const NodePtr &Inside,
                   const std::string &Name) {
  int ProgramAccesses = 0;
  for (const NodePtr &Top : Prog.topLevel())
    ProgramAccesses += countAccesses(Top, Name);
  return ProgramAccesses != countAccesses(Inside, Name);
}

std::shared_ptr<Loop> expandScalars(const std::shared_ptr<Loop> &L,
                                    Program &Prog) {
  bool BoundsConstant = true;
  for (const auto &[Name, C] : L->lower().terms())
    BoundsConstant &= Prog.params().count(Name) != 0;
  for (const auto &[Name, C] : L->upper().terms())
    BoundsConstant &= Prog.params().count(Name) != 0;
  if (!BoundsConstant)
    return L;
  int64_t Lo = L->lower().evaluate(Prog.params());
  int64_t Hi = L->upper().evaluate(Prog.params());
  if (Hi <= Lo)
    return L;

  std::map<std::string, ScalarUsage> Usage;
  scanScalarUses(L->body(), Usage);
  std::shared_ptr<Loop> Current = L;
  for (const auto &[Name, U] : Usage) {
    if (U.FirstWriteItem < 0 || U.FirstReadItem < 0 || U.InRecurrence ||
        U.FirstReadItem <= U.FirstWriteItem)
      continue;
    const ArrayDecl *Decl = Prog.findArray(Name);
    if (!Decl || !Decl->Shape.empty() || !Decl->Transient)
      continue;
    if (scalarEscapes(Prog, Current, Name))
      continue;
    std::string Expanded = Prog.freshArrayName(Name + "_x");
    Prog.addArray(Expanded, {Hi - Lo}, /*Transient=*/true);
    AffineExpr Index = AffineExpr::var(L->iterator()) - Lo;
    Current = std::static_pointer_cast<Loop>(
        retargetArrayInNode(Current, Name, Expanded, {Index}));
  }
  return Current;
}

std::vector<NodePtr>
distributeLoop(const std::shared_ptr<Loop> &L,
               const std::vector<std::vector<size_t>> &Groups) {
  std::vector<NodePtr> Result;
  for (const std::vector<size_t> &Group : Groups) {
    std::vector<NodePtr> Body;
    for (size_t Item : Group)
      Body.push_back(L->body()[Item]->clone());
    auto Copy = std::make_shared<Loop>(L->iterator(), L->lower(), L->upper(),
                                       std::move(Body), L->step());
    Copy->setParallel(L->isParallel());
    Copy->setVectorized(L->isVectorized());
    Copy->setAtomicReduction(L->usesAtomicReduction());
    Copy->setOpaque(L->isOpaque());
    Result.push_back(Copy);
  }
  return Result;
}

std::vector<NodePtr> fissionLoopOnce(const std::shared_ptr<Loop> &L,
                                     Program &Prog, FissionStats &Stats) {
  if (L->isOpaque())
    return {L->clone()};
  std::shared_ptr<Loop> Expanded = reference::expandScalars(L, Prog);
  if (Expanded != L)
    ++Stats.ScalarsExpanded;
  ++Stats.LoopsAnalyzed;
  std::vector<std::vector<size_t>> Groups =
      distributionGroups(*Expanded, Prog.params());
  std::vector<NodePtr> Pieces;
  if (Groups.size() > 1) {
    ++Stats.LoopsDistributed;
    Pieces = reference::distributeLoop(Expanded, Groups);
  } else {
    Pieces.push_back(Expanded->clone());
  }
  for (NodePtr &Piece : Pieces) {
    auto PieceLoop = std::static_pointer_cast<Loop>(Piece);
    std::vector<NodePtr> NewBody;
    for (const NodePtr &Child : PieceLoop->body()) {
      if (auto ChildLoop = std::dynamic_pointer_cast<Loop>(Child)) {
        for (NodePtr &Sub : reference::fissionLoopOnce(ChildLoop, Prog, Stats))
          NewBody.push_back(std::move(Sub));
      } else {
        NewBody.push_back(Child->clone());
      }
    }
    PieceLoop->body() = std::move(NewBody);
  }
  return Pieces;
}

FissionStats maximalLoopFission(Program &Prog) {
  FissionStats Stats;
  for (int Iter = 0; Iter < 8; ++Iter) {
    ++Stats.Iterations;
    uint64_t Before = structuralHash(Prog);
    std::vector<NodePtr> NewTop;
    for (const NodePtr &Node : Prog.topLevel()) {
      auto L = std::dynamic_pointer_cast<Loop>(Node);
      if (!L) {
        NewTop.push_back(Node->clone());
        continue;
      }
      for (NodePtr &Piece : reference::fissionLoopOnce(L, Prog, Stats))
        NewTop.push_back(std::move(Piece));
    }
    Prog.topLevel() = std::move(NewTop);
    if (structuralHash(Prog) == Before)
      break;
  }
  return Stats;
}

} // namespace reference

namespace {

/// Runs maximalLoopFission and the reference fission on \p Source as
/// normalize hands it to fission (after transient contraction). Expects
/// the same printed program, array declarations in order included, and
/// the same statistics except LoopsAnalyzed, which it returns in
/// \p New and \p Ref.
void expectFissionMatchesReference(const Program &Source, FissionStats &New,
                                   FissionStats &Ref) {
  Program Input = Source.clone();
  contractTransients(Input);
  Program Settled = Input.clone();
  Program Reference = Input.clone();
  New = maximalLoopFission(Settled);
  Ref = reference::maximalLoopFission(Reference);
  EXPECT_EQ(printProgram(Settled), printProgram(Reference));
  EXPECT_EQ(New.LoopsDistributed, Ref.LoopsDistributed);
  EXPECT_EQ(New.ScalarsExpanded, Ref.ScalarsExpanded);
  EXPECT_EQ(New.Iterations, Ref.Iterations);
  EXPECT_LE(New.LoopsAnalyzed, Ref.LoopsAnalyzed);
}

/// A random imperfect nest: one or two top-level nests up to three loops
/// deep, one to four items a level. Statements read and write 3-d arrays
/// through their enclosing iterators (some shifted or swapped), and the
/// scalars t and u (transient, expandable) and s (an output, never
/// expanded). Some inner loops are triangular, which blocks expansion
/// over them.
Program randomImperfectNest(uint64_t Seed) {
  constexpr int64_t N = 6;
  Rng R(Seed);
  Program Prog("random_nest_" + std::to_string(Seed));
  const std::vector<std::string> Arrays = {"X", "Y", "Z"};
  const std::vector<std::string> Scalars = {"t", "u", "s"};
  const std::vector<std::string> Iters = {"i", "j", "k"};
  for (const std::string &A : Arrays)
    Prog.addArray(A, {N, N, N});
  Prog.addArray("t", {}, /*Transient=*/true);
  Prog.addArray("u", {}, /*Transient=*/true);
  Prog.addArray("s", {});
  int NextStmt = 0;

  auto Subscripts = [&](size_t Depth) {
    std::vector<AffineExpr> Indices;
    for (size_t D = 0; D < 3; ++D) {
      if (D >= Depth) {
        Indices.push_back(ac(0));
        continue;
      }
      size_t Which = R.nextBool(0.8) ? D : R.nextBelow(Depth);
      Indices.push_back(ax(Iters[Which]) +
                        R.nextInRange(-1, 1) * (R.nextBool(0.3) ? 1 : 0));
    }
    return Indices;
  };
  auto Operand = [&](size_t Depth) -> ExprPtr {
    if (R.nextBool(0.35))
      return read(Scalars[R.nextBelow(Scalars.size())]);
    return read(Arrays[R.nextBelow(Arrays.size())], Subscripts(Depth));
  };
  auto Statement = [&](size_t Depth) -> NodePtr {
    std::string Name = "S" + std::to_string(NextStmt++);
    ExprPtr Rhs = Operand(Depth);
    Rhs = R.nextBool(0.6) ? Rhs + Operand(Depth) * lit(0.5) : Rhs + lit(1.0);
    if (R.nextBool(0.35))
      return assignScalar(Name, Scalars[R.nextBelow(Scalars.size())], Rhs);
    return assign(Name, Arrays[R.nextBelow(Arrays.size())], Subscripts(Depth),
                  Rhs);
  };
  std::function<NodePtr(size_t)> Nest = [&](size_t Depth) -> NodePtr {
    std::vector<NodePtr> Body;
    int Items = static_cast<int>(R.nextInRange(1, 4));
    for (int I = 0; I < Items; ++I)
      Body.push_back(Depth + 1 < 3 && R.nextBool(0.45)
                         ? Nest(Depth + 1)
                         : Statement(Depth + 1));
    if (Depth > 0 && R.nextBool(0.15))
      return forLoop(Iters[Depth], ac(1), ax(Iters[Depth - 1]) + 1,
                     std::move(Body));
    return forLoop(Iters[Depth], 1, N - 1, std::move(Body));
  };
  int Nests = static_cast<int>(R.nextInRange(1, 2));
  for (int I = 0; I < Nests; ++I)
    Prog.append(Nest(0));
  return Prog;
}

} // namespace

TEST(FissionOracleTest, CorpusMatchesReferenceFission) {
  // The 45 PolyBench programs, the three CLOUDSC variants and the
  // erosion kernel.
  std::vector<Program> Corpus;
  for (PolyBenchKernel Kernel : allPolyBenchKernels())
    for (VariantKind V :
         {VariantKind::A, VariantKind::B, VariantKind::NPBench})
      Corpus.push_back(buildPolyBench(Kernel, V));
  CloudscConfig Config;
  for (CloudscVariant V :
       {CloudscVariant::Fortran, CloudscVariant::C, CloudscVariant::DaCe})
    Corpus.push_back(buildCloudsc(Config, V));
  Corpus.push_back(buildErosionKernel(Config));

  int NewAnalyzed = 0, RefAnalyzed = 0;
  std::vector<int> Cloudsc;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    SCOPED_TRACE("corpus program " + std::to_string(I));
    FissionStats New, Ref;
    expectFissionMatchesReference(Corpus[I], New, Ref);
    NewAnalyzed += New.LoopsAnalyzed;
    RefAnalyzed += Ref.LoopsAnalyzed;
    if (I >= 45 && I < 48)
      Cloudsc.push_back(Ref.LoopsAnalyzed);
  }
  EXPECT_LE(2 * NewAnalyzed, RefAnalyzed);
  // The reference re-analyzes every CLOUDSC loop on each of three passes.
  EXPECT_EQ(Cloudsc, (std::vector<int>{118, 127, 156}));
}

TEST(FissionOracleTest, RandomImperfectNestsMatchReferenceFission) {
  int NewAnalyzed = 0, RefAnalyzed = 0, MultiPass = 0, Expanding = 0;
  for (uint64_t Seed = 0; Seed < 500; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    FissionStats New, Ref;
    expectFissionMatchesReference(randomImperfectNest(Seed), New, Ref);
    NewAnalyzed += New.LoopsAnalyzed;
    RefAnalyzed += Ref.LoopsAnalyzed;
    MultiPass += Ref.Iterations > 2;
    Expanding += Ref.ScalarsExpanded > 0;
  }
  EXPECT_LE(2 * NewAnalyzed, RefAnalyzed);
  // The generator reaches what the settled-loop bookkeeping must get
  // right: distributions enabled by distributions (more than two passes)
  // and scalar expansion.
  EXPECT_GE(MultiPass, 250);
  EXPECT_GE(Expanding, 40);
}

TEST(FissionTest, CloudscLoopsAnalyzed) {
  // One normalize analyzes 16/18/48 loops of CLOUDSC Fortran/C/DaCe; the
  // fission that re-analyzed every loop on each pass took 118/127/156.
  CloudscConfig Config;
  std::vector<int> Analyzed;
  for (CloudscVariant V :
       {CloudscVariant::Fortran, CloudscVariant::C, CloudscVariant::DaCe}) {
    NormalizationStats Stats;
    normalize(buildCloudsc(Config, V), {}, &Stats);
    Analyzed.push_back(Stats.Fission.LoopsAnalyzed);
  }
  EXPECT_EQ(Analyzed, (std::vector<int>{16, 18, 48}));
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
