//===- tests/TransformTest.cpp - transformation correctness tests ----------==//
//
// Part of the daisy project. MIT license.
//
// Every transformation is validated against the interpreter: transformed
// programs must compute the same observable arrays.
//
//===----------------------------------------------------------------------===//

#include "analysis/Legality.h"
#include "exec/DataEnv.h"
#include "exec/ExecPlan.h"
#include "exec/Interpreter.h"
#include "ir/Builder.h"
#include "ir/Printer.h"
#include "ir/StructuralHash.h"
#include "transform/Distribute.h"
#include "transform/Fuse.h"
#include "transform/Parallelize.h"
#include "transform/Permute.h"
#include "transform/Tile.h"

#include <gtest/gtest.h>

using namespace daisy;

namespace {

Program makeGemmProgram(int N) {
  Program Prog("gemm");
  Prog.addArray("A", {N, N});
  Prog.addArray("B", {N, N});
  Prog.addArray("C", {N, N});
  Prog.append(forLoop(
      "i", 0, N,
      {forLoop("j", 0, N,
               {forLoop("k", 0, N,
                        {assign("S0", "C", {ax("i"), ax("j")},
                                read("C", {ax("i"), ax("j")}) +
                                    read("A", {ax("i"), ax("k")}) *
                                        read("B", {ax("k"), ax("j")}))})})}));
  return Prog;
}

/// Jacobi-like two-statement nest communicating through a scalar.
Program makeScalarChainProgram(int N) {
  Program Prog("chain");
  Prog.addArray("A", {N});
  Prog.addArray("B", {N});
  Prog.addArray("t", {}, /*Transient=*/true);
  Prog.append(forLoop(
      "i", 0, N,
      {assignScalar("S0", "t", read("A", {ax("i")}) * lit(2.0)),
       assign("S1", "B", {ax("i")}, read("t") + lit(1.0))}));
  return Prog;
}

} // namespace

//===----------------------------------------------------------------------===//
// Permutation
//===----------------------------------------------------------------------===//

class GemmPermutationTest
    : public ::testing::TestWithParam<std::vector<std::string>> {};

TEST_P(GemmPermutationTest, PreservesSemantics) {
  Program Prog = makeGemmProgram(8);
  const std::vector<std::string> &Order = GetParam();
  ASSERT_TRUE(isPermutationLegal(Prog.topLevel()[0], Order, Prog.params()));
  Program Permuted = Prog.clone();
  Permuted.topLevel()[0] = applyPermutation(Prog.topLevel()[0], Order);
  EXPECT_TRUE(semanticallyEquivalent(Prog, Permuted));
  // The permuted band has the requested order.
  auto Band = perfectNestBand(Permuted.topLevel()[0]);
  ASSERT_EQ(Band.size(), Order.size());
  for (size_t I = 0; I < Order.size(); ++I)
    EXPECT_EQ(Band[I]->iterator(), Order[I]);
}

INSTANTIATE_TEST_SUITE_P(
    AllOrders, GemmPermutationTest,
    ::testing::Values(std::vector<std::string>{"i", "j", "k"},
                      std::vector<std::string>{"i", "k", "j"},
                      std::vector<std::string>{"j", "i", "k"},
                      std::vector<std::string>{"j", "k", "i"},
                      std::vector<std::string>{"k", "i", "j"},
                      std::vector<std::string>{"k", "j", "i"}));

TEST(PermuteTest, InterchangeSwapsLevels) {
  Program Prog = makeGemmProgram(6);
  NodePtr Swapped = interchange(Prog.topLevel()[0], 0, 2);
  auto Band = perfectNestBand(Swapped);
  EXPECT_EQ(Band[0]->iterator(), "k");
  EXPECT_EQ(Band[2]->iterator(), "i");
}

TEST(PermuteTest, TriangularBoundsMoveWithLoops) {
  // Permuting (i, j) with j <= i is illegal; permuting the inner pair of
  // an (i, j, k) nest where only k is free must keep i's bound intact.
  Program Prog("tri");
  Prog.addArray("C", {8, 8, 8});
  Prog.append(forLoop(
      "i", 0, 8,
      {forLoop("j", ac(0), ax("i") + 1,
               {forLoop("k", 0, 8,
                        {assign("S0", "C", {ax("i"), ax("j"), ax("k")},
                                lit(1.0))})})}));
  ASSERT_TRUE(
      isPermutationLegal(Prog.topLevel()[0], {"i", "k", "j"}, Prog.params()));
  Program Permuted = Prog.clone();
  Permuted.topLevel()[0] =
      applyPermutation(Prog.topLevel()[0], {"i", "k", "j"});
  EXPECT_TRUE(semanticallyEquivalent(Prog, Permuted));
}

//===----------------------------------------------------------------------===//
// Tiling
//===----------------------------------------------------------------------===//

TEST(TileTest, TileBandPreservesSemantics) {
  Program Prog = makeGemmProgram(8);
  Program Tiled = Prog.clone();
  Tiled.topLevel()[0] = tileBand(Prog.topLevel()[0], {4, 4, 2},
                                 Prog.params());
  EXPECT_TRUE(semanticallyEquivalent(Prog, Tiled));
  // Band depth doubles: 3 tile + 3 point loops.
  EXPECT_EQ(perfectNestBand(Tiled.topLevel()[0]).size(), 6u);
}

TEST(TileTest, NonDivisibleSizeSkipsLoop) {
  Program Prog = makeGemmProgram(8);
  Program Tiled = Prog.clone();
  Tiled.topLevel()[0] = tileBand(Prog.topLevel()[0], {3, 4, 0},
                                 Prog.params());
  // i is untiled (8 % 3 != 0), j tiled, k untiled: band = jt, i, j, k.
  EXPECT_TRUE(semanticallyEquivalent(Prog, Tiled));
  EXPECT_EQ(perfectNestBand(Tiled.topLevel()[0]).size(), 4u);
}

TEST(TileTest, PartialTiling) {
  Program Prog = makeGemmProgram(8);
  Program Tiled = Prog.clone();
  Tiled.topLevel()[0] = tileBand(Prog.topLevel()[0], {2}, Prog.params());
  EXPECT_TRUE(semanticallyEquivalent(Prog, Tiled));
}

TEST(TileTest, StripMinePreservesSemantics) {
  Program Prog = makeGemmProgram(8);
  Program Mined = Prog.clone();
  Mined.topLevel()[0] =
      stripMine(Prog.topLevel()[0], /*Level=*/1, /*Width=*/4, Prog.params());
  EXPECT_TRUE(semanticallyEquivalent(Prog, Mined));
  // Point loop is innermost and vectorized.
  auto Band = perfectNestBand(Mined.topLevel()[0]);
  ASSERT_EQ(Band.size(), 4u);
  EXPECT_TRUE(Band.back()->isVectorized());
}

//===----------------------------------------------------------------------===//
// Scalar expansion & distribution
//===----------------------------------------------------------------------===//

TEST(DistributeTest, ScalarExpansionPreservesSemantics) {
  Program Prog = makeScalarChainProgram(10);
  Program Expanded = Prog.clone();
  auto L = std::static_pointer_cast<Loop>(Expanded.topLevel()[0]);
  auto NewLoop = expandScalars(L, Expanded);
  EXPECT_NE(NewLoop, L); // expansion happened
  Expanded.topLevel()[0] = NewLoop;
  EXPECT_TRUE(semanticallyEquivalent(Prog, Expanded));
  // A transient expansion array exists.
  bool HasTransient = false;
  for (const ArrayDecl &Decl : Expanded.arrays())
    HasTransient |= Decl.Transient;
  EXPECT_TRUE(HasTransient);
}

TEST(DistributeTest, RecurrenceNotExpanded) {
  Program Prog("rec");
  Prog.addArray("A", {8});
  Prog.addArray("s", {}, /*Transient=*/true);
  auto L = std::make_shared<Loop>(
      "i", ac(0), ac(8),
      std::vector<NodePtr>{
          assignScalar("S0", "s", read("s") + read("A", {ax("i")})),
          assign("S1", "A", {ax("i")}, read("s"))},
      1);
  Prog.append(L);
  auto NewLoop = expandScalars(L, Prog);
  EXPECT_EQ(NewLoop, L); // no change: s is a recurrence
}

TEST(DistributeTest, EscapingScalarNotExpanded) {
  Program Prog("esc");
  Prog.addArray("A", {8});
  Prog.addArray("B", {8});
  Prog.addArray("s", {}, /*Transient=*/true);
  auto L = std::make_shared<Loop>(
      "i", ac(0), ac(8),
      std::vector<NodePtr>{
          assignScalar("S0", "s", read("A", {ax("i")})),
          assign("S1", "B", {ax("i")}, read("s"))},
      1);
  Prog.append(L);
  // s is read after the loop: expansion would have to preserve the final
  // value, so the pass must skip it.
  Prog.append(assign("S2", "A", {ac(0)}, read("s")));
  auto NewLoop = expandScalars(L, Prog);
  EXPECT_EQ(NewLoop, L);
}

TEST(DistributeTest, FissionAfterExpansionPreservesSemantics) {
  Program Prog = makeScalarChainProgram(12);
  Program Fissioned = Prog.clone();
  auto L = std::static_pointer_cast<Loop>(Fissioned.topLevel()[0]);
  auto Expanded = expandScalars(L, Fissioned);
  auto Groups = distributionGroups(*Expanded, Fissioned.params());
  ASSERT_EQ(Groups.size(), 2u); // scalar expansion unlocked the split
  std::vector<NodePtr> Items = Expanded->body();
  std::vector<NodePtr> Pieces = distributeLoop(*Expanded, Groups);
  // The pieces hold the loop's own items, in group order; nothing is
  // copied, and the distributed loop is left empty.
  EXPECT_TRUE(Expanded->body().empty());
  std::vector<NodePtr> Moved;
  for (const NodePtr &Piece : Pieces)
    for (const NodePtr &Item : std::static_pointer_cast<Loop>(Piece)->body())
      Moved.push_back(Item);
  std::vector<NodePtr> Expected;
  for (const std::vector<size_t> &Group : Groups)
    for (size_t Item : Group)
      Expected.push_back(Items[Item]);
  EXPECT_EQ(Moved, Expected);
  Fissioned.topLevel().erase(Fissioned.topLevel().begin());
  for (size_t I = 0; I < Pieces.size(); ++I)
    Fissioned.topLevel().insert(
        Fissioned.topLevel().begin() + static_cast<std::ptrdiff_t>(I),
        Pieces[I]);
  EXPECT_TRUE(semanticallyEquivalent(Prog, Fissioned));
}

//===----------------------------------------------------------------------===//
// Transient contraction
//===----------------------------------------------------------------------===//

namespace {

constexpr int CB = 3, CK = 5, CN = 8; // blocks, levels, columns

/// The DaCe frontend's shape: one block/level nest of column loops, one
/// statement each, communicating through full-shape transients
/// T_g/U_g[b][jk][jl]. Y also reads the level below, so the level loop
/// carries a real dependence.
Program makeDaCeShapedProgram() {
  Program Prog("dace-shaped");
  Prog.addArray("X", {CB, CK, CN});
  Prog.addArray("T_g", {CB, CK, CN}, /*Transient=*/true);
  Prog.addArray("Y", {CB, CK, CN});
  Prog.addArray("U_g", {CB, CK, CN}, /*Transient=*/true);
  std::vector<AffineExpr> Idx = {ax("b"), ax("jk"), ax("jl")};
  std::vector<AffineExpr> Prev = {ax("b"), ax("jk") - 1, ax("jl")};
  Prog.append(forLoop(
      "b", 0, CB,
      {forLoop(
          "jk", 1, CK,
          {forLoop("jl", 0, CN,
                   {assign("S0", "T_g", Idx,
                           read("X", Idx) * lit(2.0) + read("Y", Prev))}),
           forLoop("jl", 0, CN,
                   {assign("S1", "U_g", Idx,
                           emax(read("T_g", Idx), lit(1.5)))}),
           forLoop("jl", 0, CN,
                   {assign("S2", "Y", Idx,
                           read("U_g", Idx) * read("T_g", Idx) +
                               read("Y", Prev))})})}));
  return Prog;
}

/// True if the tree-walks of \p A and \p B leave every observable array
/// bit-identical.
bool treeWalksIdentical(const Program &A, const Program &B) {
  DataEnv EnvA(A), EnvB(B);
  EnvA.initDeterministic(11);
  EnvB.initDeterministic(11);
  interpretTreeWalk(A, EnvA);
  interpretTreeWalk(B, EnvB);
  return DataEnv::maxAbsDifference(EnvA, EnvB, A) == 0.0;
}

/// Runs contraction on a clone of \p Prog and expects nothing to change.
void expectNotContracted(const Program &Prog) {
  Program Contracted = Prog.clone();
  ContractionStats Stats = contractTransients(Contracted);
  EXPECT_EQ(Stats.ArraysContracted, 0);
  EXPECT_EQ(structuralHash(Contracted), structuralHash(Prog));
  for (size_t I = 0; I < Prog.arrays().size(); ++I)
    EXPECT_EQ(Contracted.arrays()[I].Shape, Prog.arrays()[I].Shape)
        << Prog.arrays()[I].Name;
}

} // namespace

TEST(ContractTest, DaCeShapedNestContractsExactly) {
  Program Prog = makeDaCeShapedProgram();
  Program Contracted = Prog.clone();
  ContractionStats Stats = contractTransients(Contracted);
  EXPECT_EQ(Stats.ArraysContracted, 2);
  EXPECT_EQ(Stats.ElementsBefore, 2 * CB * CK * CN);
  EXPECT_EQ(Stats.ElementsAfter, 2 * CN);

  // Names, slots and flags stay; only the transients' shapes shrink.
  ASSERT_EQ(Contracted.arrays().size(), Prog.arrays().size());
  for (size_t I = 0; I < Prog.arrays().size(); ++I) {
    const ArrayDecl &Before = Prog.arrays()[I];
    const ArrayDecl &After = Contracted.arrays()[I];
    EXPECT_EQ(After.Name, Before.Name);
    EXPECT_EQ(After.Transient, Before.Transient);
    EXPECT_EQ(After.Shape, Before.Transient ? std::vector<int64_t>{CN}
                                            : Before.Shape);
  }
  for (const auto &C : collectComputations(Contracted.topLevel()[0])) {
    AccessList Accesses = accessesOf(*C);
    Accesses.Reads.push_back(Accesses.Write);
    for (const ArrayAccess &A : Accesses.Reads) {
      if (Prog.array(A.Array).Transient) {
        EXPECT_EQ(A.Indices, std::vector<AffineExpr>{ax("jl")})
            << A.toString();
      }
    }
  }
  EXPECT_TRUE(treeWalksIdentical(Prog, Contracted));

  // The block loop stays parallel with the contracted buffers private,
  // and a 4-thread plan matches the tree-walk.
  const NodePtr &Block = Contracted.topLevel()[0];
  auto *BlockLoop = dynCast<Loop>(Block);
  EXPECT_EQ(privatizableArraysUnder(Block, {}, Contracted),
            (std::set<std::string>{"T_g", "U_g"}));
  ASSERT_TRUE(parallelizableLoops(Block, Contracted.params(), &Contracted)
                  .count(BlockLoop));
  BlockLoop->setParallel(true);
  PlanOptions Options;
  Options.NumThreads = 4;
  DataEnv Walked(Prog), Planned(Contracted);
  Walked.initDeterministic(11);
  Planned.initDeterministic(11);
  interpretTreeWalk(Prog, Walked);
  ExecPlan::compile(Contracted, Options).run(Planned);
  EXPECT_EQ(DataEnv::maxAbsDifference(Walked, Planned, Prog), 0.0);
}

TEST(ContractTest, DropsOnlyTheDimensionsOneIterationDefines) {
  // T is written in one level loop and read in another under the same
  // block: the level index must stay, the block index goes.
  Program Prog("partial");
  Prog.addArray("X", {CB, CK, CN});
  Prog.addArray("Y", {CB, CK, CN});
  Prog.addArray("T", {CB, CK, CN}, /*Transient=*/true);
  std::vector<AffineExpr> Idx = {ax("b"), ax("jk"), ax("jl")};
  Prog.append(forLoop(
      "b", 0, CB,
      {forLoop("jk", 0, CK,
               {forLoop("jl", 0, CN,
                        {assign("S0", "T", Idx, read("X", Idx) + lit(1.0))})}),
       forLoop("jk", 0, CK,
               {forLoop("jl", 0, CN,
                        {assign("S1", "Y", Idx,
                                read("T", Idx) * lit(3.0))})})}));
  Program Contracted = Prog.clone();
  EXPECT_EQ(contractTransients(Contracted).ArraysContracted, 1);
  EXPECT_EQ(Contracted.array("T").Shape, (std::vector<int64_t>{CK, CN}));
  EXPECT_TRUE(treeWalksIdentical(Prog, Contracted));
}

TEST(ContractTest, ReadBeforeTheIterationsWriteIsKept) {
  // An accumulator: each block reads T before writing it.
  Program Prog("accumulate");
  Prog.addArray("X", {CB, CN});
  Prog.addArray("Y", {CB, CN});
  Prog.addArray("T", {CB, CN}, /*Transient=*/true);
  std::vector<AffineExpr> Idx = {ax("b"), ax("jl")};
  Prog.append(forLoop(
      "b", 0, CB,
      {forLoop("jl", 0, CN,
               {assign("S0", "T", Idx, read("T", Idx) + read("X", Idx))}),
       forLoop("jl", 0, CN,
               {assign("S1", "Y", Idx, read("T", Idx))})}));
  expectNotContracted(Prog);
}

TEST(ContractTest, SubscriptOffsetFromItsIteratorIsKept) {
  // T[b][jk-1][jl] reads the previous level's value.
  Program Prog("offset");
  Prog.addArray("X", {CB, CK, CN});
  Prog.addArray("Y", {CB, CK, CN});
  Prog.addArray("T", {CB, CK, CN}, /*Transient=*/true);
  std::vector<AffineExpr> Idx = {ax("b"), ax("jk"), ax("jl")};
  std::vector<AffineExpr> Prev = {ax("b"), ax("jk") - 1, ax("jl")};
  Prog.append(forLoop(
      "b", 0, CB,
      {forLoop("jk", 1, CK,
               {forLoop("jl", 0, CN, {assign("S0", "T", Idx, read("X", Idx))}),
                forLoop("jl", 0, CN,
                        {assign("S1", "Y", Idx,
                                read("T", Prev) + lit(1.0))})})}));
  expectNotContracted(Prog);
}

TEST(ContractTest, TransientNamedByACallIsKept) {
  // Without the call, T[b][jl] contracts to T[jl].
  Program Prog("call");
  Prog.addArray("X", {CB, CN});
  Prog.addArray("Y", {CB, CN});
  Prog.addArray("T", {CB, CN}, /*Transient=*/true);
  std::vector<AffineExpr> Idx = {ax("b"), ax("jl")};
  Prog.append(forLoop(
      "b", 0, CB,
      {forLoop("jl", 0, CN, {assign("S0", "T", Idx, read("X", Idx))}),
       forLoop("jl", 0, CN,
               {assign("S1", "Y", Idx, read("T", Idx) * lit(2.0))})}));
  Program Control = Prog.clone();
  EXPECT_EQ(contractTransients(Control).ArraysContracted, 1);

  Prog.addArray("y", {CB});
  Prog.addArray("x", {CN});
  Prog.append(std::make_shared<CallNode>(
      BlasKind::Gemv, std::vector<std::string>{"y", "T", "x"},
      std::vector<int64_t>{CB, CN}));
  expectNotContracted(Prog);
}

TEST(ContractTest, AccessesInTwoTopLevelNestsAreKept) {
  Program Prog("two-nests");
  Prog.addArray("X", {CB, CN});
  Prog.addArray("Y", {CB, CN});
  Prog.addArray("T", {CB, CN}, /*Transient=*/true);
  std::vector<AffineExpr> Idx = {ax("b"), ax("jl")};
  Prog.append(forLoop(
      "b", 0, CB,
      {forLoop("jl", 0, CN, {assign("S0", "T", Idx, read("X", Idx))})}));
  Prog.append(forLoop(
      "b", 0, CB,
      {forLoop("jl", 0, CN,
               {assign("S1", "Y", Idx, read("T", Idx) * lit(2.0))})}));
  expectNotContracted(Prog);
}

TEST(ContractTest, OpaqueLoopIsKept) {
  Program Prog = makeDaCeShapedProgram();
  dynCast<Loop>(Prog.topLevel()[0])->setOpaque(true);
  expectNotContracted(Prog);
}

TEST(ContractTest, BoundUsingADroppedIteratorIsKept) {
  // The column loop's trip count depends on the row: rows touch
  // different elements, so neither dimension can go.
  Program Prog("triangular");
  Prog.addArray("X", {CN, CN});
  Prog.addArray("Y", {CN, CN});
  Prog.addArray("T", {CN, CN}, /*Transient=*/true);
  std::vector<AffineExpr> Idx = {ax("i"), ax("j")};
  Prog.append(forLoop(
      "i", 0, CN,
      {forLoop("j", ac(0), ax("i") + 1,
               {assign("S0", "T", Idx, read("X", Idx) * lit(2.0)),
                assign("S1", "Y", Idx, read("T", Idx) + lit(1.0))})}));
  expectNotContracted(Prog);
}

//===----------------------------------------------------------------------===//
// Fusion
//===----------------------------------------------------------------------===//

TEST(FuseTest, FuseLoopsPreservesSemantics) {
  Program Prog("fuse");
  Prog.addArray("A", {16});
  Prog.addArray("B", {16});
  auto L1 = std::make_shared<Loop>(
      "i", ac(0), ac(16),
      std::vector<NodePtr>{assign("S0", "A", {ax("i")},
                                  Expr::makeIter("i") * lit(3.0))},
      1);
  auto L2 = std::make_shared<Loop>(
      "j", ac(0), ac(16),
      std::vector<NodePtr>{
          assign("S1", "B", {ax("j")}, read("A", {ax("j")}) + lit(1.0))},
      1);
  Prog.append(L1);
  Prog.append(L2);
  ASSERT_TRUE(canFuseLoops(L1, L2, Prog.params()));
  Program Fused = Prog.clone();
  Fused.topLevel().clear();
  Fused.append(fuseLoops(L1, L2));
  EXPECT_TRUE(semanticallyEquivalent(Prog, Fused));
}

TEST(FuseTest, FusedLoopDropsParallelMarks) {
  // Each loop alone is parallel, and the pair may fuse (every A[i-1] is
  // produced earlier in the fused order), but the fused loop carries the
  // A dependence: a 4-thread plan that kept the mark would let one chunk
  // read A before the previous chunk wrote it.
  constexpr int N = 1 << 20;
  Program Prog("fuse-marks");
  Prog.addArray("X", {N});
  Prog.addArray("A", {N});
  Prog.addArray("B", {N});
  auto L1 = std::static_pointer_cast<Loop>(forLoop(
      "i", 1, N,
      {assign("S0", "A", {ax("i")}, lit(3.0) * read("X", {ax("i")}))}));
  auto L2 = std::static_pointer_cast<Loop>(forLoop(
      "j", 1, N,
      {assign("S1", "B", {ax("j")}, read("A", {ax("j") - 1}) + lit(1.0))}));
  L1->setParallel(true);
  L2->setParallel(true);
  ASSERT_TRUE(canFuseLoops(L1, L2, Prog.params()));

  Program Fused = Prog.clone();
  Fused.topLevel().clear();
  Fused.append(fuseLoops(L1, L2));
  const NodePtr &FusedLoop = Fused.topLevel()[0];
  EXPECT_TRUE(parallelizableLoops(FusedLoop, Fused.params()).empty());
  EXPECT_FALSE(dynCast<Loop>(FusedLoop)->isParallel());

  PlanOptions Options;
  Options.NumThreads = 4;
  DataEnv Walked(Fused), Planned(Fused);
  Walked.initDeterministic(5);
  Planned.initDeterministic(5);
  interpretTreeWalk(Fused, Walked);
  ExecPlan::compile(Fused, Options).run(Planned);
  EXPECT_EQ(DataEnv::maxAbsDifference(Walked, Planned, Fused), 0.0);
}

TEST(FuseTest, FuseProducerConsumersCollapsesChain) {
  Program Prog("chain3");
  Prog.addArray("A", {16}, /*Transient=*/true);
  Prog.addArray("B", {16}, /*Transient=*/true);
  Prog.addArray("C", {16});
  Prog.addArray("X", {16});
  Prog.append(forLoop("i", 0, 16,
                      {assign("S0", "A", {ax("i")},
                              read("X", {ax("i")}) * lit(2.0))}));
  Prog.append(forLoop("i", 0, 16,
                      {assign("S1", "B", {ax("i")},
                              read("A", {ax("i")}) + lit(1.0))}));
  Prog.append(forLoop("i", 0, 16,
                      {assign("S2", "C", {ax("i")},
                              read("B", {ax("i")}) * read("A", {ax("i")}))}));
  std::vector<NodePtr> Fused = fuseProducerConsumers(Prog.topLevel(), Prog);
  EXPECT_EQ(Fused.size(), 1u);
  Program FusedProg = Prog.clone();
  FusedProg.topLevel() = Fused;
  EXPECT_TRUE(semanticallyEquivalent(Prog, FusedProg));
}

TEST(FuseTest, StencilChainNotFused) {
  Program Prog("stencil");
  Prog.addArray("A", {18});
  Prog.addArray("B", {18});
  Prog.append(forLoop("i", 0, 18, {assign("S0", "A", {ax("i")}, lit(1.0))}));
  Prog.append(forLoop("i", 1, 17,
                      {assign("S1", "B", {ax("i")},
                              read("A", {ax("i") - 1}) +
                                  read("A", {ax("i") + 1}))}));
  std::vector<NodePtr> Result = fuseProducerConsumers(Prog.topLevel(), Prog);
  EXPECT_EQ(Result.size(), 2u); // not one-to-one: must stay separate
}

//===----------------------------------------------------------------------===//
// Parallel / vector marking
//===----------------------------------------------------------------------===//

TEST(ParallelizeTest, MarksOutermostParallel) {
  Program Prog = makeGemmProgram(64);
  EXPECT_TRUE(parallelizeOutermost(Prog.topLevel()[0], Prog.params()));
  auto Band = perfectNestBand(Prog.topLevel()[0]);
  EXPECT_TRUE(Band[0]->isParallel());
  EXPECT_FALSE(Band[1]->isParallel()); // nested parallelism not modeled
}

TEST(ParallelizeTest, SequentialScanNotParallelized) {
  Program Prog("scan");
  Prog.addArray("A", {8});
  Prog.append(forLoop("i", 1, 8,
                      {assign("S0", "A", {ax("i")},
                              read("A", {ax("i") - 1}) + lit(1.0))}));
  EXPECT_FALSE(parallelizeOutermost(Prog.topLevel()[0], Prog.params()));
}

TEST(ParallelizeTest, AtomicFallbackForReduction) {
  Program Prog("red");
  Prog.addArray("A", {8});
  Prog.addArray("s", {});
  Prog.append(forLoop("i", 0, 8,
                      {assignScalar("S0", "s",
                                    read("s") + read("A", {ax("i")}))}));
  EXPECT_TRUE(parallelizeWithAtomics(Prog.topLevel()[0], Prog.params()));
  auto *L = dynCast<Loop>(Prog.topLevel()[0]);
  EXPECT_TRUE(L->isParallel());
  EXPECT_TRUE(L->usesAtomicReduction());
}

TEST(ParallelizeTest, VectorizeUnitStrideOnly) {
  Program Prog("vec");
  Prog.addArray("A", {8, 8});
  Prog.addArray("B", {8, 8});
  // Unit stride in the innermost loop j.
  Prog.append(forLoop(
      "i", 0, 8,
      {forLoop("j", 0, 8,
               {assign("S0", "A", {ax("i"), ax("j")},
                       read("B", {ax("i"), ax("j")}) * lit(2.0))})}));
  // Strided: B transposed.
  Prog.append(forLoop(
      "i2", 0, 8,
      {forLoop("j2", 0, 8,
               {assign("S1", "A", {ax("i2"), ax("j2")},
                       read("B", {ax("j2"), ax("i2")}) * lit(2.0))})}));
  EXPECT_EQ(vectorizeInnermostUnitStride(Prog.topLevel()[0], Prog), 1);
  EXPECT_EQ(vectorizeInnermostUnitStride(Prog.topLevel()[1], Prog), 0);
}
