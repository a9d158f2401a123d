//===- tests/ExecPlanTest.cpp - compiled execution plan tests --------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Differential tests: the compiled flat plan (exec/ExecPlan.h) must be
// bit-identical to the tree-walking interpreter — the executable semantics
// definition — on every frontend kernel. Plus unit tests for the affine
// linearization helper and the compiler's scoping rules.
//
//===----------------------------------------------------------------------===//

#include "api/Engine.h"
#include "cloudsc/Cloudsc.h"
#include "exec/ExecPlan.h"
#include "exec/Interpreter.h"
#include "frontends/PolyBench.h"
#include "ir/Builder.h"
#include "transform/Parallelize.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace daisy;

namespace {

constexpr uint64_t DiffSeed = 17;

/// Runs \p Prog through the tree-walker and the plan compiled with
/// \p Options from identical initial data and returns the largest absolute
/// difference over observable arrays.
double engineDifference(const Program &Prog,
                        const PlanOptions &Options = {}) {
  DataEnv Walked(Prog);
  Walked.initDeterministic(DiffSeed);
  interpretTreeWalk(Prog, Walked);

  DataEnv Planned(Prog);
  Planned.initDeterministic(DiffSeed);
  ExecPlan::compile(Prog, Options).run(Planned);

  return DataEnv::maxAbsDifference(Walked, Planned, Prog);
}

/// Asserts the plan is bit-identical to the tree-walker under every
/// (thread count, specialization) combination the backend distinguishes.
/// The tree-walker (the slow engine) runs once per program.
void expectBitIdenticalEverywhere(const Program &Prog, const char *Label) {
  DataEnv Walked(Prog);
  Walked.initDeterministic(DiffSeed);
  interpretTreeWalk(Prog, Walked);

  for (int Threads : {1, 2, 4}) {
    for (bool Specialize : {false, true}) {
      PlanOptions Options;
      Options.NumThreads = Threads;
      Options.EnableSpecialization = Specialize;
      DataEnv Planned(Prog);
      Planned.initDeterministic(DiffSeed);
      ExecPlan::compile(Prog, Options).run(Planned);
      EXPECT_EQ(DataEnv::maxAbsDifference(Walked, Planned, Prog), 0.0)
          << Label << " threads=" << Threads << " spec=" << Specialize;
    }
  }
}

/// Clone of \p Prog with parallel marks applied the way the schedulers
/// apply them (outermost legal loop per nest, privatization-aware).
Program withParallelMarks(const Program &Prog) {
  Program Marked = Prog.clone();
  for (const NodePtr &Node : Marked.topLevel())
    parallelizeOutermost(Node, Marked.params(), &Marked);
  return Marked;
}

} // namespace

//===----------------------------------------------------------------------===//
// Affine linearization helper
//===----------------------------------------------------------------------===//

TEST(LinearizeTest, RowMajorStrides) {
  EXPECT_EQ(rowMajorStrides({}), (std::vector<int64_t>{}));
  EXPECT_EQ(rowMajorStrides({7}), (std::vector<int64_t>{1}));
  EXPECT_EQ(rowMajorStrides({4, 5, 6}), (std::vector<int64_t>{30, 6, 1}));
}

TEST(LinearizeTest, FoldsSubscriptsRowMajor) {
  // A[2*i + 1][j - 3] over shape {10, 8}: 8*(2*i + 1) + (j - 3).
  AffineExpr Linear = linearizeSubscripts(
      {ax("i") * 2 + 1, ax("j") - 3}, {10, 8});
  EXPECT_EQ(Linear.coefficient("i"), 16);
  EXPECT_EQ(Linear.coefficient("j"), 1);
  EXPECT_EQ(Linear.constantTerm(), 5);
}

TEST(LinearizeTest, NegativeCoefficients) {
  // A[n - i - 1][i] over shape {6, 6}: 6*(n - i - 1) + i = 6n - 5i - 6.
  AffineExpr Linear = linearizeSubscripts(
      {ax("n") - ax("i") - 1, ax("i")}, {6, 6});
  EXPECT_EQ(Linear.coefficient("i"), -5);
  EXPECT_EQ(Linear.coefficient("n"), 6);
  EXPECT_EQ(Linear.constantTerm(), -6);
}

TEST(LinearizeTest, ScalarAndConstantSubscripts) {
  EXPECT_TRUE(linearizeSubscripts({}, {}).isConstant());
  EXPECT_EQ(linearizeSubscripts({}, {}).constantTerm(), 0);
  AffineExpr Linear = linearizeSubscripts({ac(2), ac(3)}, {4, 5});
  EXPECT_TRUE(Linear.isConstant());
  EXPECT_EQ(Linear.constantTerm(), 13);
}

TEST(LinearizeTest, MatchesCoefficientStrideContract) {
  // The coefficient of an iterator in the linearized form is exactly the
  // per-unit-step address delta the stride analysis reports.
  AffineExpr Linear =
      linearizeSubscripts({ax("i"), ax("k")}, {64, 32});
  EXPECT_EQ(Linear.coefficient("i"), 32);
  EXPECT_EQ(Linear.coefficient("k"), 1);
  EXPECT_EQ(Linear.coefficient("j"), 0);
}

//===----------------------------------------------------------------------===//
// Compiler structure
//===----------------------------------------------------------------------===//

TEST(ExecPlanTest, GemmUsesFastPath) {
  Program Prog = buildPolyBench(PolyBenchKernel::Gemm, VariantKind::A);
  ExecPlan::Stats Stats = ExecPlan::compile(Prog).stats();
  EXPECT_GT(Stats.Ops, 0u);
  EXPECT_GT(Stats.Statements, 0u);
  // The k-accumulation loop bodies are single computations and must be
  // fused into fast-path ops.
  EXPECT_GE(Stats.FastPathStatements, 1u);
  EXPECT_EQ(Stats.MaxLoopDepth, 3);
}

TEST(ExecPlanTest, ShadowedIteratorScoping) {
  // A nested loop reusing an outer iterator name shadows the outer binding
  // while it runs and restores it afterwards (the tree-walker historically
  // destroyed it).
  int N = 4;
  Program Prog("shadow");
  Prog.addArray("U", {N});
  Prog.addArray("V", {N});
  Prog.append(forLoop(
      "i", 0, N,
      {forLoop("i", 0, 2,
               {assign("S0", "U", {ax("i")},
                       read("U", {ax("i")}) + lit(1.0))}),
       assign("S1", "V", {ax("i")}, Expr::makeIter("i"))}));

  EXPECT_EQ(engineDifference(Prog), 0.0);

  DataEnv Env(Prog);
  ExecPlan::compile(Prog).run(Env);
  // The outer iterator survived the inner loop: V[i] = i.
  for (int I = 0; I < N; ++I)
    EXPECT_DOUBLE_EQ(Env.buffer("V")[static_cast<size_t>(I)],
                     static_cast<double>(I));
  // The inner loop ran N times over U[0..2).
  EXPECT_DOUBLE_EQ(Env.buffer("U")[0], static_cast<double>(N));
  EXPECT_DOUBLE_EQ(Env.buffer("U")[1], static_cast<double>(N));
  EXPECT_DOUBLE_EQ(Env.buffer("U")[3], 0.0);
}

TEST(ExecPlanTest, ParametricBoundsAndSubscripts) {
  Program Prog("parametric");
  Prog.setParam("N", 5);
  Prog.setParam("base", 2);
  Prog.addArray("A", {12});
  // for (i = 0; i < N; ++i) A[i + base] = i + N
  Prog.append(forLoop(
      "i", ac(0), ax("N"),
      {assign("S0", "A", {ax("i") + ax("base")},
              Expr::makeIter("i") + Expr::makeParam("N"))}));

  EXPECT_EQ(engineDifference(Prog), 0.0);

  DataEnv Env(Prog);
  ExecPlan::compile(Prog).run(Env);
  for (int I = 0; I < 5; ++I)
    EXPECT_DOUBLE_EQ(Env.buffer("A")[static_cast<size_t>(I + 2)],
                     static_cast<double>(I + 5));
  EXPECT_DOUBLE_EQ(Env.buffer("A")[0], 0.0);
  EXPECT_DOUBLE_EQ(Env.buffer("A")[7], 0.0);
}

TEST(ExecPlanTest, TriangularFastPathBounds) {
  // Inner single-statement loop with bounds depending on the outer
  // register exercises per-outer-iteration rebasing of hoisted offsets.
  int N = 8;
  Program Prog("tri");
  Prog.addArray("C", {N, N});
  Prog.append(forLoop(
      "i", 0, N,
      {forLoop("j", ac(0), ax("i") + 1,
               {assign("S0", "C", {ax("i"), ax("j")},
                       Expr::makeIter("i") * lit(10.0) +
                           Expr::makeIter("j"))})}));

  EXPECT_EQ(engineDifference(Prog), 0.0);

  DataEnv Env(Prog);
  ExecPlan::compile(Prog).run(Env);
  for (int I = 0; I < N; ++I)
    for (int J = 0; J <= I; ++J)
      EXPECT_DOUBLE_EQ(Env.buffer("C")[static_cast<size_t>(I * N + J)],
                       10.0 * I + J);
}

TEST(ExecPlanTest, StepLoopsAndStridedAccess) {
  Program Prog("step");
  Prog.addArray("A", {16});
  Prog.addArray("B", {16});
  Prog.append(forLoop("i", 0, 16,
                      {assign("S0", "B", {ax("i")},
                              read("A", {ax("i")}) * lit(3.0))},
                      /*Step=*/3));
  EXPECT_EQ(engineDifference(Prog), 0.0);
}

TEST(ExecPlanTest, SelectShortCircuitsGuardedReads) {
  // A select may guard an otherwise out-of-bounds read; like the
  // tree-walker, the plan must evaluate only the taken branch.
  // B[i] = i < N-1 ? A[i+1] : 0.0 — A[N] is never touched.
  int N = 6;
  Program Prog("guard");
  Prog.addArray("A", {N});
  Prog.addArray("B", {N});
  Prog.append(forLoop(
      "i", 0, N,
      {assign("S0", "B", {ax("i")},
              Expr::makeSelect(
                  Expr::makeBinary(BinaryOpKind::Lt, Expr::makeIter("i"),
                                   lit(static_cast<double>(N - 1))),
                  read("A", {ax("i") + 1}), lit(0.0)))}));

  EXPECT_EQ(engineDifference(Prog), 0.0);

  DataEnv Env(Prog);
  Env.initDeterministic(DiffSeed);
  std::vector<double> A = Env.buffer("A");
  ExecPlan::compile(Prog).run(Env);
  for (int I = 0; I < N - 1; ++I)
    EXPECT_DOUBLE_EQ(Env.buffer("B")[static_cast<size_t>(I)],
                     A[static_cast<size_t>(I + 1)]);
  EXPECT_DOUBLE_EQ(Env.buffer("B")[static_cast<size_t>(N - 1)], 0.0);
}

TEST(ExecPlanTest, NestedSelects) {
  // Nested selects in both branches exercise the jump patching.
  Program Prog("nested");
  Prog.addArray("A", {8});
  Prog.addArray("B", {8});
  ExprPtr X = read("A", {ax("i")});
  ExprPtr Inner = Expr::makeSelect(
      Expr::makeBinary(BinaryOpKind::Gt, X, lit(0.5)), esqrt(X), eexp(X));
  ExprPtr Outer = Expr::makeSelect(
      Expr::makeBinary(BinaryOpKind::Lt, X, lit(0.25)), X * lit(2.0), Inner);
  Prog.append(forLoop("i", 0, 8, {assign("S0", "B", {ax("i")}, Outer)}));
  EXPECT_EQ(engineDifference(Prog), 0.0);

  DataEnv Env(Prog);
  Env.initDeterministic(DiffSeed);
  std::vector<double> A = Env.buffer("A");
  ExecPlan::compile(Prog).run(Env);
  for (int I = 0; I < 8; ++I) {
    double V = A[static_cast<size_t>(I)];
    double Expected =
        V < 0.25 ? V * 2.0 : (V > 0.5 ? std::sqrt(V) : std::exp(V));
    EXPECT_DOUBLE_EQ(Env.buffer("B")[static_cast<size_t>(I)], Expected);
  }
}

TEST(ExecPlanTest, RunIsRepeatable) {
  // One compiled plan must be reusable across environments (the whole
  // point of compile-once-run-many for the scheduler search).
  Program Prog = buildPolyBench(PolyBenchKernel::Atax, VariantKind::A);
  ExecPlan Plan = ExecPlan::compile(Prog);
  DataEnv E1(Prog), E2(Prog);
  E1.initDeterministic(3);
  E2.initDeterministic(3);
  Plan.run(E1);
  Plan.run(E2);
  EXPECT_EQ(DataEnv::maxAbsDifference(E1, E2, Prog), 0.0);
}

//===----------------------------------------------------------------------===//
// Kernel-shape detection (specialized inner kernels)
//===----------------------------------------------------------------------===//

namespace {

/// One innermost loop `W[i] = <Rhs>` over [0, N).
Program singleLoopProgram(ExprPtr Rhs, int N = 64) {
  Program Prog("kern");
  Prog.addArray("A", {N});
  Prog.addArray("B", {N});
  Prog.addArray("W", {N});
  Prog.append(forLoop("i", 0, N,
                      {assign("S0", "W", {ax("i")}, std::move(Rhs))}));
  return Prog;
}

size_t specializedKernels(const Program &Prog) {
  return ExecPlan::compile(Prog).stats().SpecializedKernels;
}

} // namespace

TEST(KernelShapeTest, CopyScaleAxpyDetected) {
  Program Copy = singleLoopProgram(read("A", {ax("i")}));
  EXPECT_EQ(specializedKernels(Copy), 1u);
  expectBitIdenticalEverywhere(Copy, "copy");

  Program ScaleR = singleLoopProgram(read("A", {ax("i")}) * lit(0.5));
  EXPECT_EQ(specializedKernels(ScaleR), 1u);
  expectBitIdenticalEverywhere(ScaleR, "scale-right");

  Program ScaleL = singleLoopProgram(lit(1.5) * read("A", {ax("i")}));
  EXPECT_EQ(specializedKernels(ScaleL), 1u);
  expectBitIdenticalEverywhere(ScaleL, "scale-left");

  Program Axpy = singleLoopProgram(
      read("W", {ax("i")}) + lit(2.5) * read("A", {ax("i")}));
  EXPECT_EQ(specializedKernels(Axpy), 1u);
  expectBitIdenticalEverywhere(Axpy, "axpy");
}

TEST(KernelShapeTest, StencilSumDetected) {
  // Scaled five-point stencil add (the jacobi2d shape) plus a plain sum.
  int N = 32;
  Program Prog("stencil");
  Prog.addArray("A", {N, N});
  Prog.addArray("B", {N, N});
  Prog.append(forLoop(
      "i", 1, N - 1,
      {forLoop("j", 1, N - 1,
               {assign("S0", "A", {ax("i"), ax("j")},
                       lit(0.2) * (read("B", {ax("i"), ax("j")}) +
                                   read("B", {ax("i"), ax("j") - 1}) +
                                   read("B", {ax("i"), ax("j") + 1}) +
                                   read("B", {ax("i") + 1, ax("j")}) +
                                   read("B", {ax("i") - 1, ax("j")})))})}));
  EXPECT_EQ(specializedKernels(Prog), 1u);
  expectBitIdenticalEverywhere(Prog, "stencil");

  Program Sum = singleLoopProgram(read("A", {ax("i")}) +
                                  read("B", {ax("i")}) +
                                  read("A", {ax("i")}));
  EXPECT_EQ(specializedKernels(Sum), 1u);
  expectBitIdenticalEverywhere(Sum, "plain-sum");
}

TEST(KernelShapeTest, FmaStreamingAndAccumulating) {
  // Streaming elementwise fma: the write advances with i.
  Program Stream = singleLoopProgram(
      read("W", {ax("i")}) +
      read("A", {ax("i")}) * read("B", {ax("i")}));
  EXPECT_EQ(specializedKernels(Stream), 1u);
  expectBitIdenticalEverywhere(Stream, "fma-stream");

  // Accumulating fma: gemm's k loop, the write is loop-invariant.
  Program Gemm = buildPolyBench(PolyBenchKernel::Gemm, VariantKind::A);
  EXPECT_GE(specializedKernels(Gemm), 1u);
}

TEST(KernelShapeTest, NonUnitStepStaysSpecializedAndExact) {
  Program Prog("step");
  Prog.addArray("A", {32});
  Prog.addArray("W", {32});
  Prog.append(forLoop("i", 1, 30,
                      {assign("S0", "W", {ax("i")},
                              read("A", {ax("i")}) * lit(3.0))},
                      /*Step=*/3));
  EXPECT_EQ(specializedKernels(Prog), 1u);
  expectBitIdenticalEverywhere(Prog, "strided-scale");
}

TEST(KernelShapeTest, TapesWithSelectsFallBackToGeneric) {
  Program Prog = singleLoopProgram(Expr::makeSelect(
      Expr::makeBinary(BinaryOpKind::Lt, read("A", {ax("i")}), lit(0.5)),
      read("A", {ax("i")}), lit(0.0)));
  EXPECT_EQ(specializedKernels(Prog), 0u);
  expectBitIdenticalEverywhere(Prog, "select-fallback");
}

TEST(KernelShapeTest, SpecializationKnobDisablesLowering) {
  Program Prog = singleLoopProgram(read("A", {ax("i")}));
  PlanOptions Off;
  Off.EnableSpecialization = false;
  EXPECT_EQ(ExecPlan::compile(Prog, Off).stats().SpecializedKernels, 0u);
  EXPECT_EQ(ExecPlan::compile(Prog).stats().SpecializedKernels, 1u);
}

TEST(KernelShapeTest, GemmAndJacobiSpecialize) {
  // The two ROADMAP perf-baseline kernels must land on dedicated kernels.
  EXPECT_GE(specializedKernels(
                buildPolyBench(PolyBenchKernel::Gemm, VariantKind::A)),
            1u);
  EXPECT_GE(specializedKernels(
                buildPolyBench(PolyBenchKernel::Jacobi2d, VariantKind::A)),
            1u);
}

//===----------------------------------------------------------------------===//
// Multi-statement inner loops (the fused CLOUDSC shape)
//===----------------------------------------------------------------------===//

TEST(MultiStmtTest, ErosionBodyFusesIntoOneInnerOp) {
  CloudscConfig Config;
  Config.Nproma = 16;
  Config.Klev = 8;
  Program Erosion = buildErosionKernel(Config);
  ExecPlan::Stats Stats = ExecPlan::compile(Erosion).stats();
  // The 14-computation jl body stays on the fast path as one fused op.
  EXPECT_GE(Stats.MultiStmtInnerLoops, 1u);
  EXPECT_GE(Stats.FastPathStatements, 14u);
}

TEST(MultiStmtTest, OrderSensitiveScalarChainIsExact) {
  // Scalar defined then read then redefined within one iteration: the
  // fused loop must execute statements in order, per iteration.
  int N = 16;
  Program Prog("chain");
  Prog.addArray("A", {N});
  Prog.addArray("B", {N});
  Prog.addArray("t", {}, /*Transient=*/true);
  Prog.append(forLoop(
      "i", 0, N,
      {assignScalar("S0", "t", read("A", {ax("i")}) + lit(1.0)),
       assign("S1", "B", {ax("i")}, read("t") * read("t")),
       assignScalar("S2", "t", read("t") * lit(0.5)),
       assign("S3", "A", {ax("i")}, read("t") + read("B", {ax("i")}))}));
  ExecPlan::Stats Stats = ExecPlan::compile(Prog).stats();
  EXPECT_EQ(Stats.MultiStmtInnerLoops, 1u);
  EXPECT_EQ(Stats.FastPathStatements, 4u);
  // The 0-d scalar is one loop-invariant element every iteration.
  EXPECT_EQ(Stats.BlockedLoops, 0u);
  expectBitIdenticalEverywhere(Prog, "scalar-chain");
}

//===----------------------------------------------------------------------===//
// Block evaluation (inner loops run ExecPlan::BlockLen iterations per tape
// dispatch when the access pattern keeps every dependence)
//===----------------------------------------------------------------------===//

namespace {

constexpr int BlockLen = static_cast<int>(ExecPlan::BlockLen);

/// Trip count that crosses two block boundaries and ends in a partial block.
constexpr int CrossBlocks = 2 * BlockLen + 5;

/// Blocked inner loops of \p Prog compiled without specialization, so
/// statements of a kernel shape reach the block legality check too.
size_t blockedLoops(const Program &Prog) {
  PlanOptions Options;
  Options.EnableSpecialization = false;
  return ExecPlan::compile(Prog, Options).stats().BlockedLoops;
}

} // namespace

TEST(BlockEvalTest, CarriedRecurrenceStaysPerElement) {
  // A[i] = A[i-1] + x[i]: each iteration reads the previous one's write.
  int N = CrossBlocks;
  Program Prog("recurrence");
  Prog.addArray("A", {N});
  Prog.addArray("x", {N});
  Prog.append(forLoop("i", 1, N,
                      {assign("S0", "A", {ax("i")},
                              read("A", {ax("i") - 1}) +
                                  read("x", {ax("i")}))}));
  EXPECT_EQ(blockedLoops(Prog), 0u);
  expectBitIdenticalEverywhere(Prog, "recurrence");
}

TEST(BlockEvalTest, AntiDependenceIsBlocked) {
  // A[i] = A[i+1] * c: the read of A[i+1] precedes its overwrite one
  // iteration later, and a block loads every lane before it stores.
  int N = CrossBlocks;
  Program Prog("anti");
  Prog.addArray("A", {N + 1});
  Prog.append(forLoop("i", 0, N,
                      {assign("S0", "A", {ax("i")},
                              read("A", {ax("i") + 1}) * lit(0.75))}));
  EXPECT_EQ(blockedLoops(Prog), 1u);
  expectBitIdenticalEverywhere(Prog, "anti");
}

TEST(BlockEvalTest, CrossStatementDependenceDirection) {
  int N = CrossBlocks;
  auto Build = [&](bool WriterFirst) {
    Program Prog(WriterFirst ? "forward" : "backward");
    Prog.addArray("A", {N});
    Prog.addArray("B", {N});
    Prog.addArray("C", {N});
    NodePtr Read = assign("S1", "B", {ax("i")}, read("C", {ax("i") - 1}));
    NodePtr Write = assign("S2", "C", {ax("i")},
                           read("A", {ax("i")}) * lit(2.0) +
                               read("B", {ax("i")}));
    std::vector<NodePtr> Body = {Read, Write};
    if (WriterFirst)
      std::swap(Body[0], Body[1]);
    Prog.append(forLoop("i", 1, N, Body));
    return Prog;
  };
  // S1 reads C[i-1], written by S2 one iteration earlier: a block would
  // run S1 over every lane before S2 wrote any of them.
  Program Backward = Build(false);
  EXPECT_EQ(blockedLoops(Backward), 0u);
  expectBitIdenticalEverywhere(Backward, "backward");
  // With the writer first, its pass over the block precedes the read.
  Program Forward = Build(true);
  EXPECT_EQ(blockedLoops(Forward), 1u);
  expectBitIdenticalEverywhere(Forward, "forward");
}

TEST(BlockEvalTest, MismatchedSubscriptsStayPerElement) {
  // Same-array accesses the legality check cannot compare: A[2*i] = A[i]
  // re-reads elements written earlier in the loop (other coefficient),
  // and A[i] = A[t] re-reads A[t] after iteration t overwrote it (other
  // outer terms).
  int N = CrossBlocks;
  Program Scaled("coefficient");
  Scaled.addArray("A", {2 * N});
  Scaled.append(forLoop("i", 0, N,
                        {assign("S0", "A", {ax("i") * 2},
                                read("A", {ax("i")}) + lit(1.0))}));
  EXPECT_EQ(blockedLoops(Scaled), 0u);
  expectBitIdenticalEverywhere(Scaled, "coefficient");

  Program Outer("outer-terms");
  Outer.addArray("A", {N});
  Outer.append(forLoop(
      "t", 0, 3,
      {forLoop("i", 0, N,
               {assign("S0", "A", {ax("i")},
                       read("A", {ax("t")}) * lit(0.5) + lit(1.0))})}));
  EXPECT_EQ(blockedLoops(Outer), 0u);
  expectBitIdenticalEverywhere(Outer, "outer-terms");
}

TEST(BlockEvalTest, TripCountsAroundBlockBoundaries) {
  // Non-unit step and a strided write, with trip counts below, at, and
  // across block boundaries.
  for (int Trips : {1, BlockLen - 1, BlockLen, BlockLen + 1, CrossBlocks}) {
    int Hi = 1 + 3 * Trips;
    Program Prog("trips");
    Prog.addArray("A", {Hi});
    Prog.addArray("B", {Hi + 1});
    Prog.addArray("W", {2 * Hi});
    Prog.append(forLoop(
        "i", 1, Hi,
        {assign("S0", "W", {ax("i") * 2},
                esqrt(read("A", {ax("i")})) * read("B", {ax("i") + 1}) -
                    read("A", {ax("i")}))},
        /*Step=*/3));
    EXPECT_EQ(blockedLoops(Prog), 1u) << Trips;
    EXPECT_EQ(ExecPlan::compile(Prog).stats().BlockedLoops, 1u) << Trips;
    expectBitIdenticalEverywhere(Prog, "trips");
  }
}

TEST(BlockEvalTest, InnerAndOuterIteratorsAsValues) {
  int N = CrossBlocks;
  Program Prog("iters");
  Prog.addArray("A", {3, N});
  Prog.addArray("W", {3, N});
  Prog.append(forLoop(
      "j", 0, 3,
      {forLoop("i", 0, N,
               {assign("S0", "W", {ax("j"), ax("i")},
                       read("A", {ax("j"), ax("i")}) * Expr::makeIter("i") +
                           Expr::makeIter("j") -
                           Expr::makeIter("i") / lit(4.0))})}));
  EXPECT_EQ(blockedLoops(Prog), 1u);
  expectBitIdenticalEverywhere(Prog, "iters");
}

TEST(BlockEvalTest, SelectsStayPerElement) {
  // Only the taken branch of a select may run.
  Program Prog = singleLoopProgram(
      Expr::makeSelect(
          Expr::makeBinary(BinaryOpKind::Lt, read("A", {ax("i")}), lit(0.5)),
          read("A", {ax("i")}), read("B", {ax("i")}) * lit(2.0)),
      CrossBlocks);
  EXPECT_EQ(blockedLoops(Prog), 0u);
  expectBitIdenticalEverywhere(Prog, "select");
}

TEST(BlockEvalTest, ScheduledCloudscAcrossBlocks) {
  // Engine::schedule leaves every CLOUDSC variant as fissioned
  // single-statement inner loops over jl; every statement no kernel
  // matched must run per block, and the loops span two full blocks and a
  // partial one.
  CloudscConfig Config;
  Config.Nproma = CrossBlocks;
  Config.Klev = 4;
  Config.Nblocks = 2;
  for (CloudscVariant Variant :
       {CloudscVariant::Fortran, CloudscVariant::C, CloudscVariant::DaCe}) {
    Engine Eng;
    Program Scheduled = Eng.schedule(buildCloudsc(Config, Variant));
    ExecPlan::Stats Stats = ExecPlan::compile(Scheduled).stats();
    EXPECT_EQ(Stats.Statements - Stats.SpecializedKernels, 38u);
    EXPECT_EQ(Stats.BlockedLoops, 38u);
    expectBitIdenticalEverywhere(Scheduled, "cloudsc-scheduled");
  }
}

//===----------------------------------------------------------------------===//
// Parallel execution
//===----------------------------------------------------------------------===//

TEST(ParallelExecTest, MarkedGemmCompilesParallelLoops) {
  Program Marked =
      withParallelMarks(buildPolyBench(PolyBenchKernel::Gemm, VariantKind::A));
  PlanOptions Options;
  Options.NumThreads = 4;
  ExecPlan Plan = ExecPlan::compile(Marked, Options);
  EXPECT_GE(Plan.stats().ParallelLoops, 1u);
  EXPECT_EQ(Plan.threadCount(), 4);
  expectBitIdenticalEverywhere(Marked, "gemm-marked");
}

TEST(ParallelExecTest, InnermostParallelLoopForks) {
  // A parallel mark directly on an innermost (InnerStmt) loop chunks the
  // fused loop itself.
  int N = 4096;
  Program Prog("inner-par");
  Prog.addArray("A", {N});
  Prog.addArray("W", {N});
  Prog.append(forLoop("i", 0, N,
                      {assign("S0", "W", {ax("i")},
                              read("A", {ax("i")}) * lit(2.0))}));
  dynCast<Loop>(Prog.topLevel()[0])->setParallel(true);
  PlanOptions Options;
  Options.NumThreads = 4;
  EXPECT_GE(ExecPlan::compile(Prog, Options).stats().ParallelLoops, 1u);
  expectBitIdenticalEverywhere(Prog, "inner-par");
}

TEST(ParallelExecTest, AtomicReductionMarksStaySerial) {
  Program Prog("red");
  Prog.addArray("A", {64});
  Prog.addArray("s", {});
  Prog.append(forLoop("i", 0, 64,
                      {assignScalar("S0", "s",
                                    read("s") + read("A", {ax("i")}))}));
  auto *L = dynCast<Loop>(Prog.topLevel()[0]);
  L->setParallel(true);
  L->setAtomicReduction(true);
  PlanOptions Options;
  Options.NumThreads = 4;
  EXPECT_EQ(ExecPlan::compile(Prog, Options).stats().ParallelLoops, 0u);
  expectBitIdenticalEverywhere(Prog, "atomic-serial");
}

TEST(ParallelExecTest, PrivatizedScalarWithLastprivateCopyBack) {
  // A transient scalar defined and used per iteration of a parallel loop
  // gets per-thread private copies; reading it after the loop must still
  // see the serially-last value (lastprivate copy-back).
  int N = 512;
  Program Prog("priv");
  Prog.addArray("A", {N});
  Prog.addArray("B", {N});
  Prog.addArray("C", {1});
  Prog.addArray("t", {}, /*Transient=*/true);
  Prog.append(forLoop(
      "i", 0, N,
      {assignScalar("S0", "t", read("A", {ax("i")}) + lit(1.0)),
       assign("S1", "B", {ax("i")}, read("t") * lit(2.0))}));
  dynCast<Loop>(Prog.topLevel()[0])->setParallel(true);
  Prog.append(assign("S2", "C", {ac(0)}, read("t")));

  PlanOptions Options;
  Options.NumThreads = 4;
  ExecPlan::Stats Stats = ExecPlan::compile(Prog, Options).stats();
  EXPECT_GE(Stats.ParallelLoops, 1u);
  EXPECT_GE(Stats.PrivatizedBuffers, 1u);
  expectBitIdenticalEverywhere(Prog, "privatized-scalar");
}

TEST(ParallelExecTest, PrivateCopiesPreserveUntouchedElements) {
  // Elements of a privatized transient that the parallel loop never
  // writes (here t[0], defined before the loop and read after it) must
  // survive the lastprivate copy-back: private copies carry the shared
  // contents rather than starting from zero.
  int N = 8192;
  Program Prog("priv-footprint");
  Prog.addArray("A", {N});
  Prog.addArray("B", {N});
  Prog.addArray("C", {1});
  Prog.addArray("t", {2}, /*Transient=*/true);
  Prog.append(assign("S0", "t", {ac(0)}, lit(7.0)));
  Prog.append(forLoop(
      "i", 0, N,
      {assign("S1", "t", {ac(1)}, read("A", {ax("i")}) + lit(1.0)),
       assign("S2", "B", {ax("i")}, read("t", {ac(1)}) * lit(2.0))}));
  Prog.append(assign("S3", "C", {ac(0)}, read("t", {ac(0)})));
  EXPECT_TRUE(
      parallelizeOutermost(Prog.topLevel()[1], Prog.params(), &Prog));

  PlanOptions Options;
  Options.NumThreads = 4;
  ExecPlan::Stats Stats = ExecPlan::compile(Prog, Options).stats();
  EXPECT_GE(Stats.ParallelLoops, 1u);
  EXPECT_GE(Stats.PrivatizedBuffers, 1u);
  expectBitIdenticalEverywhere(Prog, "private-footprint");

  DataEnv Env(Prog);
  Env.initDeterministic(DiffSeed);
  ExecPlan::compile(Prog, Options).run(Env);
  EXPECT_DOUBLE_EQ(Env.buffer("C")[0], 7.0);
}

TEST(ParallelExecTest, OptimizedCloudscParallelizesAndPrivatizes) {
  CloudscConfig Config;
  Config.Nproma = 32;
  Config.Klev = 8;
  Config.Nblocks = 4;
  Program Optimized =
      optimizeCloudsc(buildCloudsc(Config, CloudscVariant::Fortran));
  PlanOptions Options;
  Options.NumThreads = 2;
  ExecPlan::Stats Stats = ExecPlan::compile(Optimized, Options).stats();
  EXPECT_GE(Stats.ParallelLoops, 1u);
  EXPECT_GE(Stats.PrivatizedBuffers, 1u);
  expectBitIdenticalEverywhere(Optimized, "cloudsc-optimized");
}

//===----------------------------------------------------------------------===//
// Differential: PolyBench (all kernels, all variants) and CLOUDSC, under
// every engine configuration, serial and Parallelize-marked
//===----------------------------------------------------------------------===//

TEST(ExecPlanDifferentialTest, PolyBenchAllKernelsAllVariants) {
  for (PolyBenchKernel Kernel : allPolyBenchKernels()) {
    for (VariantKind Variant :
         {VariantKind::A, VariantKind::B, VariantKind::NPBench}) {
      Program Prog = buildPolyBench(Kernel, Variant);
      expectBitIdenticalEverywhere(Prog, polyBenchName(Kernel).c_str());
    }
  }
}

TEST(ExecPlanDifferentialTest, PolyBenchParallelized) {
  for (PolyBenchKernel Kernel : allPolyBenchKernels()) {
    Program Marked =
        withParallelMarks(buildPolyBench(Kernel, VariantKind::A));
    expectBitIdenticalEverywhere(Marked, polyBenchName(Kernel).c_str());
  }
}

TEST(ExecPlanDifferentialTest, CloudscAllVariants) {
  CloudscConfig Config;
  Config.Nproma = 16;
  Config.Klev = 8;
  Config.Nblocks = 2;
  for (CloudscVariant Variant :
       {CloudscVariant::Fortran, CloudscVariant::C, CloudscVariant::DaCe}) {
    Program Prog = buildCloudsc(Config, Variant);
    expectBitIdenticalEverywhere(Prog, "cloudsc");
    expectBitIdenticalEverywhere(withParallelMarks(Prog), "cloudsc-marked");
  }
}

TEST(ExecPlanDifferentialTest, CloudscErosionAndOptimized) {
  CloudscConfig Config;
  Config.Nproma = 16;
  Config.Klev = 8;
  Config.Nblocks = 2;
  Program Erosion = buildErosionKernel(Config);
  expectBitIdenticalEverywhere(Erosion, "erosion");

  Program Optimized =
      optimizeCloudsc(buildCloudsc(Config, CloudscVariant::Fortran));
  expectBitIdenticalEverywhere(Optimized, "optimized");
}
