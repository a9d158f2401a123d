//===- tests/AnalysisTest.cpp - analysis library unit tests ----------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"
#include "analysis/Dependence.h"
#include "analysis/Legality.h"
#include "analysis/Stride.h"
#include "cloudsc/Cloudsc.h"
#include "frontends/PolyBench.h"
#include "ir/Builder.h"
#include "normalize/Pipeline.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <tuple>

using namespace daisy;

namespace {

NodePtr makeGemmNest(int N = 6) {
  return forLoop(
      "i", 0, N,
      {forLoop("j", 0, N,
               {forLoop("k", 0, N,
                        {assign("S0", "C", {ax("i"), ax("j")},
                                read("C", {ax("i"), ax("j")}) +
                                    read("A", {ax("i"), ax("k")}) *
                                        read("B", {ax("k"), ax("j")}))})})});
}

Program makeGemmProgram(int N = 6) {
  Program Prog("gemm");
  Prog.addArray("A", {N, N});
  Prog.addArray("B", {N, N});
  Prog.addArray("C", {N, N});
  Prog.append(makeGemmNest(N));
  return Prog;
}

/// Ground truth: a dynamic access trace of one statement instance.
struct InstanceAccess {
  const Computation *Comp;
  std::string Array;
  std::vector<int64_t> Element;
  std::vector<int64_t> CommonIters; // values of enclosing iterators
  bool IsWrite;
  int64_t Time;
  int64_t Instance; // dynamic instance id; a computation is atomic
};

void traceNode(const NodePtr &Node, ValueEnv &Env,
               std::vector<std::vector<int64_t>> &IterStack,
               int64_t &Clock, std::vector<InstanceAccess> &Out) {
  if (const auto *C = dynCast<Computation>(Node)) {
    auto Record = [&](const ArrayAccess &Access, bool IsWrite,
                      int64_t Time) {
      InstanceAccess IA;
      IA.Comp = C;
      IA.Array = Access.Array;
      for (const AffineExpr &Index : Access.Indices)
        IA.Element.push_back(Index.evaluate(Env));
      IA.CommonIters = IterStack.back();
      IA.IsWrite = IsWrite;
      IA.Time = Time;
      IA.Instance = Clock / 2;
      Out.push_back(std::move(IA));
    };
    // Reads happen before the write within an instance.
    for (const ArrayAccess &R : C->reads())
      Record(R, false, Clock);
    Record(C->write(), true, Clock + 1);
    Clock += 2;
    return;
  }
  const auto *L = dynCast<Loop>(Node);
  ASSERT_NE(L, nullptr);
  int64_t Lo = L->lower().evaluate(Env);
  int64_t Hi = L->upper().evaluate(Env);
  for (int64_t I = Lo; I < Hi; I += L->step()) {
    Env[L->iterator()] = I;
    IterStack.back().push_back(I);
    std::vector<int64_t> Saved = IterStack.back();
    for (const NodePtr &Child : L->body()) {
      IterStack.back() = Saved;
      traceNode(Child, Env, IterStack, Clock, Out);
    }
    IterStack.back().pop_back();
  }
  Env.erase(L->iterator());
}

/// Checks that every dynamically observed dependence in \p Root is covered
/// by the static analysis: for each conflicting instance pair, a reported
/// dependence with the same endpoints and the exact direction vector of
/// the pair must exist.
void expectDependencesSound(const NodePtr &Root, const ValueEnv &Params) {
  std::vector<InstanceAccess> Trace;
  ValueEnv Env = Params;
  std::vector<std::vector<int64_t>> IterStack(1);
  int64_t Clock = 0;
  traceNode(Root, Env, IterStack, Clock, Trace);

  std::vector<Dependence> Deps = computeDependences(Root, Params);
  // Index reported dependences: (Src, Dst, dirstring) set.
  std::set<std::string> Reported;
  for (const Dependence &Dep : Deps) {
    std::string Key = Dep.Src->name() + "->" + Dep.Dst->name() + ":";
    for (DepDirection Dir : Dep.Directions)
      Key += Dir == DepDirection::Eq ? '=' : (Dir == DepDirection::Lt ? '<'
                                                                      : '>');
    Reported.insert(Key);
  }

  // Common loop count per statement pair comes from the static paths.
  std::map<const Computation *, std::vector<std::shared_ptr<Loop>>> Paths;
  for (const StmtInfo &S : collectStatements(Root))
    Paths[S.Comp.get()] = S.Path;

  for (const InstanceAccess &A : Trace) {
    for (const InstanceAccess &B : Trace) {
      if (A.Time >= B.Time)
        continue;
      // A computation is atomic: ordering within one dynamic instance is
      // not a dependence between instances.
      if (A.Instance == B.Instance)
        continue;
      if (!A.IsWrite && !B.IsWrite)
        continue;
      if (A.Array != B.Array || A.Element != B.Element)
        continue;
      size_t NumCommon =
          commonLoops(Paths.at(A.Comp), Paths.at(B.Comp)).size();
      std::string Key = A.Comp->name() + "->" + B.Comp->name() + ":";
      for (size_t L = 0; L < NumCommon; ++L) {
        int64_t VA = A.CommonIters[L];
        int64_t VB = B.CommonIters[L];
        Key += VA == VB ? '=' : (VA < VB ? '<' : '>');
      }
      EXPECT_TRUE(Reported.count(Key))
          << "missed dependence " << Key << " on " << A.Array;
      if (!Reported.count(Key))
        return; // avoid flooding the log
    }
  }
}

/// A random two-deep nest of one to three statements over A and B with
/// random affine subscripts (in bounds for i, j in [1, 4]).
Program randomNestProgram(Rng &R) {
  Program Prog("rand");
  Prog.addArray("A", {10, 10});
  Prog.addArray("B", {10, 10});
  auto randomIndex = [&R](const std::string &I,
                          const std::string &J) -> AffineExpr {
    switch (R.nextBelow(6)) {
    case 0:
      return ax(I);
    case 1:
      return ax(J);
    case 2:
      return ax(I) + static_cast<int64_t>(R.nextInRange(-1, 1));
    case 3:
      return ax(J) + static_cast<int64_t>(R.nextInRange(-1, 1));
    case 4:
      return ax(I) * 2;
    default:
      return ac(R.nextInRange(0, 4));
    }
  };
  auto randomAccess = [&](const std::string &I, const std::string &J) {
    std::string Array = R.nextBool() ? "A" : "B";
    return read(Array, {randomIndex(I, J), randomIndex(I, J)});
  };
  std::vector<NodePtr> Stmts;
  int NumStmts = static_cast<int>(R.nextInRange(1, 3));
  for (int S = 0; S < NumStmts; ++S) {
    std::string Array = R.nextBool() ? "A" : "B";
    Stmts.push_back(assign("S" + std::to_string(S), Array,
                           {randomIndex("i", "j"), randomIndex("i", "j")},
                           randomAccess("i", "j") + randomAccess("i", "j")));
  }
  Prog.append(forLoop("i", 1, 5, {forLoop("j", 1, 5, std::move(Stmts))}));
  return Prog;
}

} // namespace

//===----------------------------------------------------------------------===//
// Dependence analysis
//===----------------------------------------------------------------------===//

TEST(DependenceTest, GemmReductionCarriedByK) {
  Program Prog = makeGemmProgram();
  std::vector<Dependence> Deps =
      computeDependences(Prog.topLevel()[0], Prog.params());
  ASSERT_FALSE(Deps.empty());
  // Every dependence is a self-dependence on C carried by k (level 2).
  for (const Dependence &Dep : Deps) {
    EXPECT_EQ(Dep.Array, "C");
    EXPECT_EQ(Dep.Src, Dep.Dst);
    int Level = Dep.carrierLevel();
    ASSERT_GE(Level, 0);
    EXPECT_EQ(Dep.CommonLoops[static_cast<size_t>(Level)]->iterator(), "k");
  }
}

TEST(DependenceTest, IndependentLoopsHaveNoDependences) {
  Program Prog("indep");
  Prog.addArray("A", {8});
  Prog.addArray("B", {8});
  Prog.append(forLoop("i", 0, 8,
                      {assign("S0", "A", {ax("i")}, lit(1.0)),
                       assign("S1", "B", {ax("i")}, lit(2.0))}));
  EXPECT_TRUE(computeDependences(Prog.topLevel()[0], {}).empty());
}

TEST(DependenceTest, StencilFlowAcrossIterations) {
  // A[i] = A[i-1] + 1 : flow carried with direction <.
  Program Prog("scan");
  Prog.addArray("A", {8});
  Prog.append(forLoop("i", 1, 8,
                      {assign("S0", "A", {ax("i")},
                              read("A", {ax("i") - 1}) + lit(1.0))}));
  std::vector<Dependence> Deps =
      computeDependences(Prog.topLevel()[0], {});
  bool FoundCarriedFlow = false;
  for (const Dependence &Dep : Deps)
    if (Dep.Kind == DepKind::Flow && Dep.carrierLevel() == 0)
      FoundCarriedFlow = true;
  EXPECT_TRUE(FoundCarriedFlow);
}

TEST(DependenceTest, DisjointOffsetsIndependent) {
  // A[2i] = A[2i+1] never aliases (GCD-style disjointness).
  Program Prog("gcd");
  Prog.addArray("A", {32});
  Prog.append(forLoop("i", 0, 8,
                      {assign("S0", "A", {ax("i") * 2},
                              read("A", {ax("i") * 2 + 1}))}));
  EXPECT_TRUE(computeDependences(Prog.topLevel()[0], {}).empty());
}

TEST(DependenceTest, CrossNestFlow) {
  Program Prog("chain");
  Prog.addArray("A", {8});
  Prog.addArray("B", {8});
  Prog.append(forLoop("i", 0, 8, {assign("S0", "A", {ax("i")}, lit(1.0))}));
  Prog.append(forLoop("j", 0, 8,
                      {assign("S1", "B", {ax("j")},
                              read("A", {ax("j")}))}));
  std::vector<Dependence> Deps =
      computeDependences(Prog.topLevel(), Prog.params());
  ASSERT_EQ(Deps.size(), 1u);
  EXPECT_EQ(Deps[0].Kind, DepKind::Flow);
  EXPECT_TRUE(Deps[0].CommonLoops.empty());
  EXPECT_TRUE(Deps[0].isLoopIndependent());
}

TEST(DependenceTest, ScalarSerializesLoop) {
  // s = s + A[i] : scalar reduction, carried flow/anti/output.
  Program Prog("red");
  Prog.addArray("A", {8});
  Prog.addArray("s", {});
  Prog.append(forLoop("i", 0, 8,
                      {assignScalar("S0", "s",
                                    read("s") + read("A", {ax("i")}))}));
  std::vector<Dependence> Deps = computeDependences(Prog.topLevel()[0], {});
  bool Carried = false;
  for (const Dependence &Dep : Deps)
    Carried |= Dep.carrierLevel() == 0;
  EXPECT_TRUE(Carried);
}

TEST(DependenceTest, SoundOnGemm) {
  Program Prog = makeGemmProgram(4);
  expectDependencesSound(Prog.topLevel()[0], Prog.params());
}

TEST(DependenceTest, SoundOnImperfectNest) {
  Program Prog("imperfect");
  Prog.addArray("A", {6, 6});
  Prog.addArray("x", {6});
  Prog.append(forLoop(
      "i", 0, 6,
      {assign("S0", "x", {ax("i")}, lit(0.0)),
       forLoop("j", 0, 6,
               {assign("S1", "x", {ax("i")},
                       read("x", {ax("i")}) +
                           read("A", {ax("i"), ax("j")}))})}));
  expectDependencesSound(Prog.topLevel()[0], Prog.params());
}

TEST(DependenceTest, SoundOnTriangularNest) {
  Program Prog("tri");
  Prog.addArray("C", {6, 6});
  Prog.append(forLoop(
      "i", 0, 6,
      {forLoop("j", ac(0), ax("i") + 1,
               {assign("S0", "C", {ax("i"), ax("j")},
                       read("C", {ax("i"), ax("j")}) + lit(1.0))})}));
  expectDependencesSound(Prog.topLevel()[0], Prog.params());
}

TEST(DependenceTest, SoundOnRandomPrograms) {
  // Property test: random 2-3 deep nests with random affine subscripts.
  Rng R(0xDA15Eull);
  for (int Trial = 0; Trial < 25; ++Trial) {
    Program Prog = randomNestProgram(R);
    expectDependencesSound(Prog.topLevel()[0], Prog.params());
  }
}

//===----------------------------------------------------------------------===//
// Dependence analysis: exactness against a reference pair test
//===----------------------------------------------------------------------===//

namespace {
namespace reference {

/// The pair test in its plain form, the one the library's dense rows must
/// reproduce: per access pair, string-keyed equations over renamed
/// variables ("s:" source side, "t:" sink side), with every statement's
/// accesses and ranges recomputed for each pair.
struct LinearEq {
  std::map<std::string, int64_t> Coeffs;
  int64_t Constant = 0;
};

struct CommonLoopInfo {
  IterRange Range;
  std::string SrcVar;
  std::string SinkVar;
};

struct PairContext {
  std::vector<LinearEq> Equations;
  std::map<std::string, IterRange> PrivateRanges;
  std::vector<CommonLoopInfo> Common;
};

void accumulate(int64_t Coefficient, const IterRange &Range, int64_t &Min,
                int64_t &Max) {
  Min += Coefficient * (Coefficient >= 0 ? Range.Min : Range.Max);
  Max += Coefficient * (Coefficient >= 0 ? Range.Max : Range.Min);
}

bool buildContext(const StmtInfo &S, const ArrayAccess &A, const StmtInfo &T,
                  const ArrayAccess &B, const ValueEnv &Params,
                  PairContext &Ctx) {
  if (A.Array != B.Array || A.Indices.size() != B.Indices.size())
    return false;
  std::vector<std::shared_ptr<Loop>> Shared = commonLoops(S.Path, T.Path);
  std::vector<IterRange> SrcRanges = conservativeRanges(S.Path, Params);
  std::vector<IterRange> SinkRanges = conservativeRanges(T.Path, Params);
  for (size_t I = 0; I < Shared.size(); ++I)
    Ctx.Common.push_back({SrcRanges[I], "s:" + Shared[I]->iterator(),
                          "t:" + Shared[I]->iterator()});
  for (size_t I = Shared.size(); I < S.Path.size(); ++I)
    Ctx.PrivateRanges["s:" + S.Path[I]->iterator()] = SrcRanges[I];
  for (size_t I = Shared.size(); I < T.Path.size(); ++I)
    Ctx.PrivateRanges["t:" + T.Path[I]->iterator()] = SinkRanges[I];
  for (size_t Dim = 0; Dim < A.Indices.size(); ++Dim) {
    LinearEq Eq;
    Eq.Constant =
        A.Indices[Dim].constantTerm() - B.Indices[Dim].constantTerm();
    auto AddTerms = [&](const AffineExpr &Expr, const std::string &Side,
                        int64_t Sign) {
      for (const auto &[Name, Coefficient] : Expr.terms()) {
        auto ParamIt = Params.find(Name);
        if (ParamIt != Params.end()) {
          Eq.Constant += Sign * Coefficient * ParamIt->second;
          continue;
        }
        int64_t &C = Eq.Coeffs[Side + Name];
        C += Sign * Coefficient;
        if (C == 0)
          Eq.Coeffs.erase(Side + Name);
      }
    };
    AddTerms(A.Indices[Dim], "s:", 1);
    AddTerms(B.Indices[Dim], "t:", -1);
    Ctx.Equations.push_back(std::move(Eq));
  }
  return true;
}

bool directionFeasible(const PairContext &Ctx,
                       const std::vector<DepDirection> &Directions) {
  for (size_t L = 0; L < Ctx.Common.size(); ++L) {
    const IterRange &R = Ctx.Common[L].Range;
    if (R.isEmpty() || (Directions[L] != DepDirection::Eq && R.span() < 2))
      return false;
  }
  for (const LinearEq &Eq : Ctx.Equations) {
    int64_t G = 0;
    for (const auto &[Var, Coefficient] : Eq.Coeffs)
      G = std::gcd(G, Coefficient < 0 ? -Coefficient : Coefficient);
    if (G == 0 ? Eq.Constant != 0 : Eq.Constant % G != 0)
      return false;
    int64_t Min = Eq.Constant;
    int64_t Max = Eq.Constant;
    for (const auto &[Var, Range] : Ctx.PrivateRanges) {
      auto It = Eq.Coeffs.find(Var);
      if (It == Eq.Coeffs.end())
        continue;
      if (Range.isEmpty())
        return false;
      accumulate(It->second, Range, Min, Max);
    }
    for (size_t L = 0; L < Ctx.Common.size(); ++L) {
      const CommonLoopInfo &Info = Ctx.Common[L];
      auto SrcIt = Eq.Coeffs.find(Info.SrcVar);
      auto SinkIt = Eq.Coeffs.find(Info.SinkVar);
      int64_t ASrc = SrcIt == Eq.Coeffs.end() ? 0 : SrcIt->second;
      int64_t ASink = SinkIt == Eq.Coeffs.end() ? 0 : SinkIt->second;
      if (ASrc == 0 && ASink == 0)
        continue;
      IterRange Delta{1, Info.Range.span() - 1};
      accumulate(ASrc + ASink, Info.Range, Min, Max);
      if (Directions[L] == DepDirection::Lt)
        accumulate(ASink, Delta, Min, Max);
      else if (Directions[L] == DepDirection::Gt)
        accumulate(ASrc, Delta, Min, Max);
    }
    if (Min > 0 || Max < 0)
      return false;
  }
  return true;
}

std::vector<std::vector<DepDirection>>
feasibleDirectionVectors(const StmtInfo &S, const ArrayAccess &A,
                         const StmtInfo &T, const ArrayAccess &B,
                         const ValueEnv &Params) {
  std::vector<std::vector<DepDirection>> Result;
  PairContext Ctx;
  if (!buildContext(S, A, T, B, Params, Ctx))
    return Result;
  size_t NumCommon = Ctx.Common.size();
  size_t Total = 1;
  for (size_t I = 0; I < NumCommon; ++I)
    Total *= 3;
  std::vector<DepDirection> Directions(NumCommon);
  for (size_t Code = 0; Code < Total; ++Code) {
    size_t Rest = Code;
    for (size_t I = 0; I < NumCommon; ++I, Rest /= 3)
      Directions[I] = Rest % 3 == 0   ? DepDirection::Eq
                      : Rest % 3 == 1 ? DepDirection::Lt
                                      : DepDirection::Gt;
    if (directionFeasible(Ctx, Directions))
      Result.push_back(Directions);
  }
  return Result;
}

std::vector<Dependence> computeDependences(const std::vector<NodePtr> &Roots,
                                           const ValueEnv &Params) {
  std::vector<Dependence> Result;
  std::vector<StmtInfo> Stmts = collectStatements(Roots);
  for (const StmtInfo &S : Stmts) {
    AccessList SAcc = accessesOf(*S.Comp);
    for (const StmtInfo &T : Stmts) {
      AccessList TAcc = accessesOf(*T.Comp);
      std::vector<std::tuple<const ArrayAccess *, const ArrayAccess *,
                             DepKind>>
          Pairs;
      for (const ArrayAccess &R : TAcc.Reads)
        if (R.Array == SAcc.Write.Array)
          Pairs.emplace_back(&SAcc.Write, &R, DepKind::Flow);
      for (const ArrayAccess &R : SAcc.Reads)
        if (R.Array == TAcc.Write.Array)
          Pairs.emplace_back(&R, &TAcc.Write, DepKind::Anti);
      if (SAcc.Write.Array == TAcc.Write.Array)
        Pairs.emplace_back(&SAcc.Write, &TAcc.Write, DepKind::Output);
      for (const auto &[A, B, Kind] : Pairs) {
        for (auto &Directions :
             reference::feasibleDirectionVectors(S, *A, T, *B, Params)) {
          bool AllEq = true;
          bool Positive = false;
          for (DepDirection Dir : Directions) {
            if (Dir == DepDirection::Eq)
              continue;
            AllEq = false;
            Positive = Dir == DepDirection::Lt;
            break;
          }
          if (!Positive && !(AllEq && S.Order < T.Order))
            continue;
          Dependence Dep;
          Dep.Src = S.Comp;
          Dep.Dst = T.Comp;
          Dep.Array = A->Array;
          Dep.Kind = Kind;
          Dep.CommonLoops = commonLoops(S.Path, T.Path);
          Dep.Directions = std::move(Directions);
          Result.push_back(std::move(Dep));
        }
      }
    }
  }
  return Result;
}

} // namespace reference

/// One dependence as a comparable key: endpoints and common loops by
/// identity, plus array, kind and directions.
std::string dependenceKey(const Dependence &Dep) {
  std::ostringstream Key;
  Key << Dep.toString() << " @" << Dep.Src.get() << "->" << Dep.Dst.get();
  for (const auto &L : Dep.CommonLoops)
    Key << " " << L.get();
  return Key.str();
}

/// Asserts that computeDependences over \p Roots reports the same multiset
/// of dependences as the reference pair test.
void expectSameAsReference(const std::vector<NodePtr> &Roots,
                           const ValueEnv &Params, const std::string &What) {
  std::vector<std::string> Got, Want;
  for (const Dependence &Dep : computeDependences(Roots, Params))
    Got.push_back(dependenceKey(Dep));
  for (const Dependence &Dep : reference::computeDependences(Roots, Params))
    Want.push_back(dependenceKey(Dep));
  std::sort(Got.begin(), Got.end());
  std::sort(Want.begin(), Want.end());
  EXPECT_EQ(Got.size(), Want.size()) << What;
  auto [GotIt, WantIt] =
      std::mismatch(Got.begin(), Got.end(), Want.begin(), Want.end());
  if (GotIt != Got.end() || WantIt != Want.end())
    ADD_FAILURE() << What << ": first difference: got "
                  << (GotIt != Got.end() ? *GotIt : "(end)")
                  << ", reference "
                  << (WantIt != Want.end() ? *WantIt : "(end)");
}

/// Asserts that, for every order of every perfect band in \p Prog (bands
/// up to five deep), isPermutationLegal gives the same verdict from the
/// reference dependences precomputed once per band as from its ValueEnv
/// overload analyzing afresh.
void expectPermutationVerdictsMatch(const Program &Prog,
                                    const std::string &What) {
  for (const NodePtr &Top : Prog.topLevel())
    for (const auto &L : collectLoops(Top)) {
      std::vector<std::string> Order;
      for (const auto &BandLoop : perfectNestBand(L))
        Order.push_back(BandLoop->iterator());
      if (Order.size() > 5)
        continue;
      std::vector<Dependence> Deps =
          reference::computeDependences({L}, Prog.params());
      std::sort(Order.begin(), Order.end());
      do {
        EXPECT_EQ(isPermutationLegal(L, Order, Deps),
                  isPermutationLegal(L, Order, Prog.params()))
            << What << ": band of " << L->iterator();
      } while (std::next_permutation(Order.begin(), Order.end()));
    }
}

/// Both checks on \p Prog and on its normalized form.
void expectExactOnProgram(const Program &Prog, const std::string &What) {
  expectSameAsReference(Prog.topLevel(), Prog.params(), What);
  expectPermutationVerdictsMatch(Prog, What);
  Program Norm = normalize(Prog);
  expectSameAsReference(Norm.topLevel(), Norm.params(), What + " normalized");
  expectPermutationVerdictsMatch(Norm, What + " normalized");
}

} // namespace

TEST(DependenceExactnessTest, PolyBenchRawAndNormalized) {
  for (auto [Variant, Name] : {std::pair{VariantKind::A, "A"},
                               std::pair{VariantKind::B, "B"},
                               std::pair{VariantKind::NPBench, "NPBench"}})
    for (PolyBenchKernel Kernel : allPolyBenchKernels())
      expectExactOnProgram(buildPolyBench(Kernel, Variant),
                           polyBenchName(Kernel) + "/" + Name);
}

TEST(DependenceExactnessTest, CloudscRawAndNormalized) {
  CloudscConfig Config;
  Config.Nblocks = 1;
  for (auto [Variant, Name] : {std::pair{CloudscVariant::Fortran, "Fortran"},
                               std::pair{CloudscVariant::C, "C"},
                               std::pair{CloudscVariant::DaCe, "DaCe"}})
    expectExactOnProgram(buildCloudsc(Config, Variant),
                         std::string("cloudsc/") + Name);
}

TEST(DependenceExactnessTest, RandomNests) {
  // The nests of SoundOnRandomPrograms, plus every access pair of their
  // statements through the public pair oracle that fusion legality uses.
  Rng R(0xDA15Eull);
  for (int Trial = 0; Trial < 25; ++Trial) {
    Program Prog = randomNestProgram(R);
    std::string What = "trial " + std::to_string(Trial);
    expectExactOnProgram(Prog, What);
    std::vector<StmtInfo> Stmts = collectStatements(Prog.topLevel());
    for (const StmtInfo &S : Stmts)
      for (const StmtInfo &T : Stmts) {
        AccessList SAcc = accessesOf(*S.Comp), TAcc = accessesOf(*T.Comp);
        SAcc.Reads.push_back(SAcc.Write);
        for (const ArrayAccess &A : SAcc.Reads)
          EXPECT_EQ(feasibleDirectionVectors(S, A, T, TAcc.Write,
                                             Prog.params()),
                    reference::feasibleDirectionVectors(S, A, T, TAcc.Write,
                                                        Prog.params()))
              << What;
      }
  }
}

TEST(DependenceExactnessTest, ShadowedIterator) {
  // An inner loop reusing the outer iterator's name (validateProgram flags
  // it, the engine accepts it): both loops key one variable per side, as
  // the name does, and the deeper loop's range binds it below the common
  // loops.
  Program Prog("shadow");
  Prog.addArray("U", {8});
  Prog.addArray("V", {8});
  Prog.addArray("W", {8});
  Prog.append(forLoop(
      "i", 0, 6,
      {forLoop("i", 0, 2,
               {assign("S0", "U", {ax("i") + 1},
                       read("U", {ax("i")}) + read("V", {ax("i") + 2}))}),
       assign("S1", "V", {ax("i")}, read("U", {ax("i")}))}));
  Prog.append(
      forLoop("k", 0, 8, {assign("S2", "W", {ax("k")}, read("U", {ac(5)}))}));
  std::vector<Dependence> Deps =
      computeDependences(Prog.topLevel(), Prog.params());
  EXPECT_FALSE(Deps.empty());
  // With no common loop, S0's i spans the inner range: U[i + 1] stays in
  // U[1..2] and never meets U[5].
  for (const Dependence &Dep : Deps)
    EXPECT_FALSE(Dep.Src->name() == "S0" && Dep.Dst->name() == "S2")
        << Dep.toString();
  expectExactOnProgram(Prog, "shadowed i");
}

TEST(DependenceExactnessTest, SubtreeWithEnclosingIterator) {
  // The inner loop analyzed alone, as distributionGroups does for an
  // inner body: i is bound outside the analyzed subtree, so it takes part
  // in the GCD test but adds nothing to the interval bounds.
  Program Prog("enclosing");
  Prog.addArray("A", {64});
  Prog.addArray("B", {64});
  Prog.addArray("C", {64});
  Prog.append(forLoop(
      "i", 0, 8,
      {forLoop("j", 0, 8,
               {assign("S0", "A", {ax("i") * 2 + ax("j") * 2},
                       read("B", {ax("j")})),
                assign("S1", "B", {ax("j")},
                       read("A", {ax("i") + ax("j") * 2 + 3})),
                assign("S2", "C", {ax("i") * 4 + ax("j")},
                       read("C", {ax("i") * 4 + ax("j") + 3}))})}));
  NodePtr Inner = std::static_pointer_cast<Loop>(Prog.topLevel()[0])
                      ->body()[0];
  expectSameAsReference({Inner}, Prog.params(), "inner loop alone");
  // A[i + 2j + 3] against A[2i + 2j]: without i the GCD test would rule
  // out the odd offset; with it the read may meet a later write.
  std::set<std::string> Deps;
  for (const Dependence &Dep : computeDependences(Inner, Prog.params()))
    Deps.insert(Dep.toString());
  EXPECT_TRUE(Deps.count("anti S1 -> S0 on A [<]"));
  EXPECT_TRUE(Deps.count("anti S0 -> S1 on B [=]"));
  // Together they put S0 and S1 in one group; S2 stands alone.
  auto Groups = distributionGroups(*std::static_pointer_cast<Loop>(Inner),
                                   Prog.params());
  EXPECT_EQ(Groups, (std::vector<std::vector<size_t>>{{0, 1}, {2}}));
}

//===----------------------------------------------------------------------===//
// Legality
//===----------------------------------------------------------------------===//

TEST(LegalityTest, PerfectNestBand) {
  NodePtr Nest = makeGemmNest();
  auto Band = perfectNestBand(Nest);
  ASSERT_EQ(Band.size(), 3u);
  EXPECT_EQ(Band[0]->iterator(), "i");
  EXPECT_EQ(Band[2]->iterator(), "k");
}

TEST(LegalityTest, GemmAllPermutationsLegal) {
  Program Prog = makeGemmProgram();
  const NodePtr &Nest = Prog.topLevel()[0];
  std::vector<std::vector<std::string>> Orders = {
      {"i", "j", "k"}, {"i", "k", "j"}, {"j", "i", "k"},
      {"j", "k", "i"}, {"k", "i", "j"}, {"k", "j", "i"}};
  for (const auto &Order : Orders)
    EXPECT_TRUE(isPermutationLegal(Nest, Order, Prog.params()))
        << Order[0] << Order[1] << Order[2];
}

TEST(LegalityTest, InterchangeIllegalForAntidiagonalStencil) {
  // A[i+1][j-1] = A[i][j] has direction (<,>): interchange flips it to
  // (>,<), which is lexicographically negative -> illegal.
  Program Prog("skew");
  Prog.addArray("A", {10, 10});
  Prog.append(
      forLoop("i", 0, 8,
              {forLoop("j", 1, 9,
                       {assign("S0", "A", {ax("i") + 1, ax("j") - 1},
                               read("A", {ax("i"), ax("j")}))})}));
  const NodePtr &Nest = Prog.topLevel()[0];
  EXPECT_TRUE(isPermutationLegal(Nest, {"i", "j"}, Prog.params()));
  EXPECT_FALSE(isPermutationLegal(Nest, {"j", "i"}, Prog.params()));
}

TEST(LegalityTest, TriangularPermutationRejected) {
  // j's bounds depend on i: j cannot move above i.
  Program Prog("tri");
  Prog.addArray("C", {8, 8});
  Prog.append(forLoop(
      "i", 0, 8,
      {forLoop("j", ac(0), ax("i") + 1,
               {assign("S0", "C", {ax("i"), ax("j")}, lit(1.0))})}));
  EXPECT_FALSE(
      isPermutationLegal(Prog.topLevel()[0], {"j", "i"}, Prog.params()));
}

TEST(LegalityTest, ParallelizableLoopsGemm) {
  Program Prog = makeGemmProgram();
  const NodePtr &Nest = Prog.topLevel()[0];
  auto Parallel = parallelizableLoops(Nest, Prog.params());
  auto Band = perfectNestBand(Nest);
  EXPECT_TRUE(Parallel.count(Band[0].get()));  // i
  EXPECT_TRUE(Parallel.count(Band[1].get()));  // j
  EXPECT_FALSE(Parallel.count(Band[2].get())); // k (reduction)
}

TEST(LegalityTest, ReductionLoopDetected) {
  Program Prog = makeGemmProgram();
  const NodePtr &Nest = Prog.topLevel()[0];
  auto Band = perfectNestBand(Nest);
  EXPECT_TRUE(isReductionLoop(Nest, Band[2].get(), Prog.params()));
  EXPECT_FALSE(isReductionLoop(Nest, Band[0].get(), Prog.params()));
}

TEST(LegalityTest, NonReductionCarriedLoop) {
  Program Prog("scan");
  Prog.addArray("A", {8});
  Prog.append(forLoop("i", 1, 8,
                      {assign("S0", "A", {ax("i")},
                              read("A", {ax("i") - 1}) + lit(1.0))}));
  auto Band = perfectNestBand(Prog.topLevel()[0]);
  EXPECT_FALSE(
      isReductionLoop(Prog.topLevel()[0], Band[0].get(), Prog.params()));
}

TEST(LegalityTest, DistributionSplitsIndependent) {
  Program Prog("indep");
  Prog.addArray("A", {8});
  Prog.addArray("B", {8});
  auto L = std::make_shared<Loop>(
      "i", ac(0), ac(8),
      std::vector<NodePtr>{assign("S0", "A", {ax("i")}, lit(1.0)),
                           assign("S1", "B", {ax("i")}, lit(2.0))},
      1);
  auto Groups = distributionGroups(*L, Prog.params());
  ASSERT_EQ(Groups.size(), 2u);
  EXPECT_EQ(Groups[0], std::vector<size_t>{0});
  EXPECT_EQ(Groups[1], std::vector<size_t>{1});
}

TEST(LegalityTest, DistributionSplitsForwardFlow) {
  // S0 produces A[i], S1 consumes A[i]: forward flow allows distribution.
  Program Prog("chain");
  Prog.addArray("A", {8});
  Prog.addArray("B", {8});
  auto L = std::make_shared<Loop>(
      "i", ac(0), ac(8),
      std::vector<NodePtr>{
          assign("S0", "A", {ax("i")}, lit(1.0)),
          assign("S1", "B", {ax("i")}, read("A", {ax("i")}))},
      1);
  auto Groups = distributionGroups(*L, Prog.params());
  ASSERT_EQ(Groups.size(), 2u);
}

TEST(LegalityTest, DistributionKeepsBackwardDependenceTogether) {
  // S1 reads A[i+1] which S0 writes at a later iteration: anti S1 -> S0
  // backward edge creates a cycle with the forward S0 -> S1 edge.
  Program Prog("cycle");
  Prog.addArray("A", {10});
  Prog.addArray("B", {10});
  auto L = std::make_shared<Loop>(
      "i", ac(0), ac(8),
      std::vector<NodePtr>{
          assign("S0", "A", {ax("i")}, read("B", {ax("i")})),
          assign("S1", "B", {ax("i")}, read("A", {ax("i") + 1}))},
      1);
  auto Groups = distributionGroups(*L, Prog.params());
  ASSERT_EQ(Groups.size(), 1u);
  EXPECT_EQ(Groups[0].size(), 2u);
}

TEST(LegalityTest, FusionLegalElementwise) {
  Program Prog("fuse");
  Prog.addArray("A", {8});
  Prog.addArray("B", {8});
  auto L1 = std::make_shared<Loop>(
      "i", ac(0), ac(8),
      std::vector<NodePtr>{assign("S0", "A", {ax("i")}, lit(1.0))}, 1);
  auto L2 = std::make_shared<Loop>(
      "j", ac(0), ac(8),
      std::vector<NodePtr>{
          assign("S1", "B", {ax("j")}, read("A", {ax("j")}))},
      1);
  EXPECT_TRUE(canFuseLoops(L1, L2, Prog.params()));
}

TEST(LegalityTest, FusionIllegalForwardPeek) {
  // Second loop reads A[j+1]: at fused iteration j it would read a value
  // the first loop has not written yet.
  Program Prog("fuse");
  Prog.addArray("A", {9});
  Prog.addArray("B", {8});
  auto L1 = std::make_shared<Loop>(
      "i", ac(0), ac(8),
      std::vector<NodePtr>{assign("S0", "A", {ax("i")}, lit(1.0))}, 1);
  auto L2 = std::make_shared<Loop>(
      "j", ac(0), ac(8),
      std::vector<NodePtr>{
          assign("S1", "B", {ax("j")}, read("A", {ax("j") + 1}))},
      1);
  EXPECT_FALSE(canFuseLoops(L1, L2, Prog.params()));
}

TEST(LegalityTest, FusionLegalBackwardPeek) {
  // Reading A[j-1] is fine after fusion: that element was written by the
  // fused loop at an earlier iteration (dependence analysis is index-based
  // and does not concern itself with the j=0 boundary read).
  Program Prog("fuse");
  Prog.addArray("A", {8});
  Prog.addArray("B", {8});
  auto L1 = std::make_shared<Loop>(
      "i", ac(0), ac(8),
      std::vector<NodePtr>{assign("S0", "A", {ax("i")}, lit(1.0))}, 1);
  auto L2 = std::make_shared<Loop>(
      "j", ac(0), ac(8),
      std::vector<NodePtr>{
          assign("S1", "B", {ax("j")}, read("A", {ax("j") - 1}))},
      1);
  EXPECT_TRUE(canFuseLoops(L1, L2, Prog.params()));
}

TEST(LegalityTest, FusionRejectsMismatchedBounds) {
  Program Prog("fuse");
  Prog.addArray("A", {16});
  auto L1 = std::make_shared<Loop>(
      "i", ac(0), ac(8),
      std::vector<NodePtr>{assign("S0", "A", {ax("i")}, lit(1.0))}, 1);
  auto L2 = std::make_shared<Loop>(
      "j", ac(0), ac(16),
      std::vector<NodePtr>{assign("S1", "A", {ax("j")}, lit(2.0))}, 1);
  EXPECT_FALSE(canFuseLoops(L1, L2, Prog.params()));
}

//===----------------------------------------------------------------------===//
// Stride analysis
//===----------------------------------------------------------------------===//

TEST(StrideTest, AccessStrideRowMajor) {
  Program Prog = makeGemmProgram(8);
  ArrayAccess Access{"B", {ax("k"), ax("j")}};
  EXPECT_EQ(accessStride(Access, "k", 1, Prog), 8);
  EXPECT_EQ(accessStride(Access, "j", 1, Prog), 1);
  EXPECT_EQ(accessStride(Access, "i", 1, Prog), 0);
}

TEST(StrideTest, GemmOrderingCosts) {
  // With C[i][j] += A[i][k] * B[k][j] row-major, a j-innermost order has
  // unit stride on B and C; k-innermost strides through B by N.
  int N = 8;
  auto makeOrdered = [N](const std::string &O1, const std::string &O2,
                         const std::string &O3) {
    return forLoop(
        O1, 0, N,
        {forLoop(O2, 0, N,
                 {forLoop(O3, 0, N,
                          {assign("S0", "C", {ax("i"), ax("j")},
                                  read("C", {ax("i"), ax("j")}) +
                                      read("A", {ax("i"), ax("k")}) *
                                          read("B", {ax("k"), ax("j")}))})})});
  };
  Program Prog = makeGemmProgram(N);
  double CostIkj = sumOfStridesCost(makeOrdered("i", "k", "j"), Prog);
  double CostIjk = sumOfStridesCost(makeOrdered("i", "j", "k"), Prog);
  double CostJki = sumOfStridesCost(makeOrdered("j", "k", "i"), Prog);
  EXPECT_LT(CostIkj, CostIjk);
  EXPECT_LT(CostIjk, CostJki);
}

TEST(StrideTest, OutOfOrderCount) {
  Program Prog("ooo");
  Prog.addArray("A", {8, 8});
  // A[j][i] accessed under i-outer, j-inner: dim 0 varies faster -> 1
  // inverted pair + innermost-not-last penalty.
  NodePtr Bad = forLoop(
      "i", 0, 8,
      {forLoop("j", 0, 8,
               {assign("S0", "A", {ax("j"), ax("i")}, lit(1.0))})});
  NodePtr Good = forLoop(
      "i", 0, 8,
      {forLoop("j", 0, 8,
               {assign("S0", "A", {ax("i"), ax("j")}, lit(1.0))})});
  EXPECT_GT(outOfOrderCount(Bad, Prog), 0);
  EXPECT_EQ(outOfOrderCount(Good, Prog), 0);
}

TEST(StrideTest, FissionedExampleFromFig3) {
  // Paper Fig. 3: B[j][i] accessed in i-outer j-inner loops is strided;
  // permuting to j-outer i-inner minimizes the stride sum.
  Program Prog("fig3");
  Prog.addArray("A", {64, 64});
  Prog.addArray("B", {64, 64});
  NodePtr Strided = forLoop(
      "i", 0, 64,
      {forLoop("j", 0, 64,
               {assign("S2", "B", {ax("j"), ax("i")},
                       read("B", {ax("j"), ax("i")}) * lit(2.0))})});
  NodePtr Minimized = forLoop(
      "j", 0, 64,
      {forLoop("i", 0, 64,
               {assign("S2", "B", {ax("j"), ax("i")},
                       read("B", {ax("j"), ax("i")}) * lit(2.0))})});
  EXPECT_LT(sumOfStridesCost(Minimized, Prog),
            sumOfStridesCost(Strided, Prog));
}

//===----------------------------------------------------------------------===//
// Dataflow
//===----------------------------------------------------------------------===//

TEST(DataflowTest, ProducerConsumerChain) {
  Program Prog("chain");
  Prog.addArray("A", {8});
  Prog.addArray("B", {8});
  Prog.addArray("C", {8});
  Prog.append(forLoop("i", 0, 8, {assign("S0", "A", {ax("i")}, lit(1.0))}));
  Prog.append(forLoop("i", 0, 8,
                      {assign("S1", "B", {ax("i")},
                              read("A", {ax("i")}) * lit(2.0))}));
  Prog.append(forLoop("i", 0, 8,
                      {assign("S2", "C", {ax("i")},
                              read("B", {ax("i")}) + lit(1.0))}));
  DataflowGraph G = buildDataflowGraph(Prog.topLevel(), Prog);
  ASSERT_EQ(G.Edges.size(), 2u);
  EXPECT_EQ(G.Edges[0].Producer, 0u);
  EXPECT_EQ(G.Edges[0].Consumer, 1u);
  EXPECT_TRUE(G.Edges[0].OneToOne);
  EXPECT_EQ(G.Edges[1].Producer, 1u);
  EXPECT_EQ(G.Edges[1].Consumer, 2u);
  EXPECT_TRUE(G.Edges[1].OneToOne);
}

TEST(DataflowTest, LatestWriterWins) {
  Program Prog("redef");
  Prog.addArray("A", {8});
  Prog.addArray("B", {8});
  Prog.append(forLoop("i", 0, 8, {assign("S0", "A", {ax("i")}, lit(1.0))}));
  Prog.append(forLoop("i", 0, 8, {assign("S1", "A", {ax("i")}, lit(2.0))}));
  Prog.append(forLoop("i", 0, 8,
                      {assign("S2", "B", {ax("i")},
                              read("A", {ax("i")}))}));
  DataflowGraph G = buildDataflowGraph(Prog.topLevel(), Prog);
  ASSERT_EQ(G.Edges.size(), 1u);
  EXPECT_EQ(G.Edges[0].Producer, 1u);
}

TEST(DataflowTest, NotOneToOneForStencil) {
  Program Prog("stencil");
  Prog.addArray("A", {10});
  Prog.addArray("B", {10});
  Prog.append(forLoop("i", 0, 10, {assign("S0", "A", {ax("i")}, lit(1.0))}));
  Prog.append(forLoop("i", 1, 9,
                      {assign("S1", "B", {ax("i")},
                              read("A", {ax("i") - 1}) +
                                  read("A", {ax("i") + 1}))}));
  DataflowGraph G = buildDataflowGraph(Prog.topLevel(), Prog);
  ASSERT_EQ(G.Edges.size(), 1u);
  EXPECT_FALSE(G.Edges[0].OneToOne);
}
