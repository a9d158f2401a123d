//===- tests/FrontendsTest.cpp - PolyBench builder tests -------------------==//
//
// Part of the daisy project. MIT license.
//
// The central property: for every benchmark, the A, B, and NPBench
// variants are semantically equivalent (verified by the interpreter), and
// normalization preserves the semantics of each.
//
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"
#include "frontends/PolyBench.h"
#include "ir/StructuralHash.h"
#include "ir/Validate.h"
#include "normalize/Pipeline.h"

#include <gtest/gtest.h>

using namespace daisy;

class PolyBenchTest : public ::testing::TestWithParam<PolyBenchKernel> {};

TEST_P(PolyBenchTest, AllVariantsValid) {
  for (VariantKind V :
       {VariantKind::A, VariantKind::B, VariantKind::NPBench}) {
    Program Prog = buildPolyBench(GetParam(), V);
    auto Problems = validateProgram(Prog);
    EXPECT_TRUE(Problems.empty())
        << polyBenchName(GetParam()) << ": " << Problems.front();
  }
}

TEST_P(PolyBenchTest, VariantsSemanticallyEquivalent) {
  Program A = buildPolyBench(GetParam(), VariantKind::A);
  Program B = buildPolyBench(GetParam(), VariantKind::B);
  Program NP = buildPolyBench(GetParam(), VariantKind::NPBench);
  EXPECT_TRUE(semanticallyEquivalent(A, B, 1e-7))
      << polyBenchName(GetParam()) << " A vs B";
  EXPECT_TRUE(semanticallyEquivalent(A, NP, 1e-7))
      << polyBenchName(GetParam()) << " A vs NPBench";
}

TEST_P(PolyBenchTest, NormalizationPreservesSemantics) {
  for (VariantKind V : {VariantKind::A, VariantKind::B}) {
    Program Prog = buildPolyBench(GetParam(), V);
    Program Norm = normalize(Prog);
    EXPECT_TRUE(semanticallyEquivalent(Prog, Norm, 1e-7))
        << polyBenchName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, PolyBenchTest, ::testing::ValuesIn(allPolyBenchKernels()),
    [](const ::testing::TestParamInfo<PolyBenchKernel> &Info) {
      std::string Name = polyBenchName(Info.param);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

TEST(PolyBenchMetaTest, FifteenKernels) {
  EXPECT_EQ(allPolyBenchKernels().size(), 15u);
}

TEST(PolyBenchMetaTest, LiftingFailureMarks) {
  // correlation/covariance C variants carry an opaque nest; the Python
  // variants do not (paper §4.1 vs §4.3).
  for (PolyBenchKernel Kernel :
       {PolyBenchKernel::Correlation, PolyBenchKernel::Covariance}) {
    for (VariantKind V : {VariantKind::A, VariantKind::B}) {
      Program Prog = buildPolyBench(Kernel, V);
      bool AnyOpaque = false;
      for (const NodePtr &Node : Prog.topLevel())
        if (const auto *L = dynCast<Loop>(Node))
          AnyOpaque |= L->isOpaque();
      EXPECT_TRUE(AnyOpaque) << polyBenchName(Kernel);
    }
    Program NP = buildPolyBench(Kernel, VariantKind::NPBench);
    for (const NodePtr &Node : NP.topLevel())
      if (const auto *L = dynCast<Loop>(Node)) {
        EXPECT_FALSE(L->isOpaque());
      }
  }
  // No other kernel is opaque.
  Program Gemm = buildPolyBench(PolyBenchKernel::Gemm, VariantKind::A);
  for (const NodePtr &Node : Gemm.topLevel())
    if (const auto *L = dynCast<Loop>(Node)) {
      EXPECT_FALSE(L->isOpaque());
    }
}

TEST(PolyBenchMetaTest, VariantsAreStructurallyDifferent) {
  // The whole point of the A/B experiment: the variants differ as inputs.
  int Different = 0;
  for (PolyBenchKernel Kernel : allPolyBenchKernels()) {
    Program A = buildPolyBench(Kernel, VariantKind::A);
    Program B = buildPolyBench(Kernel, VariantKind::B);
    if (structuralHash(A) != structuralHash(B))
      ++Different;
  }
  EXPECT_EQ(Different, 15);
}
