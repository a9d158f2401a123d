//===- exec/ExecPlan.cpp --------------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exec/ExecPlan.h"

#include "analysis/Legality.h"
#include "blas/Kernels.h"
#include "exec/EvalOps.h"
#include "exec/ThreadPool.h"
#include "support/Compiler.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <type_traits>

using namespace daisy;

namespace {

/// Kernels address loads through small fixed-size scratch arrays.
constexpr size_t MaxKernelLoads = 16;

} // namespace

std::vector<std::pair<int64_t, int64_t>>
daisy::chunkLoopRange(int64_t Lo, int64_t Hi, int64_t Step, int MaxChunks) {
  assert(Step > 0 && "chunking requires a positive step");
  std::vector<std::pair<int64_t, int64_t>> Chunks;
  if (Lo >= Hi || MaxChunks <= 0)
    return Chunks;
  int64_t Iters = (Hi - Lo + Step - 1) / Step;
  int64_t Count = std::min<int64_t>(MaxChunks, Iters);
  Chunks.reserve(static_cast<size_t>(Count));
  for (int64_t C = 0; C < Count; ++C) {
    int64_t Begin = Lo + (Iters * C / Count) * Step;
    int64_t End = Lo + (Iters * (C + 1) / Count) * Step;
    Chunks.emplace_back(Begin, std::min(End, Hi));
  }
  return Chunks;
}

namespace daisy {

/// Lowers one Program into a flat PlanOp sequence. Name resolution happens
/// exclusively here: iterators to depth registers (with save/restore so a
/// nested loop reusing an outer iterator name shadows instead of clobbers),
/// arrays to DataEnv slot ids, parameters to folded constants.
class PlanCompiler {
public:
  PlanCompiler(const Program &Prog, const PlanOptions &Options)
      : Prog(Prog), Options(Options) {
    const auto &Arrays = Prog.arrays();
    for (size_t Slot = 0; Slot < Arrays.size(); ++Slot)
      Slots.emplace(Arrays[Slot].Name, static_cast<int32_t>(Slot));
    Plan.ThreadCount = Options.NumThreads > 0
                           ? Options.NumThreads
                           : ThreadPool::defaultThreadCount();
  }

  ExecPlan compile() {
    for (const NodePtr &Node : Prog.topLevel())
      compileNode(Node);
    return std::move(Plan);
  }

private:
  const Program &Prog;
  PlanOptions Options;
  ExecPlan Plan;
  std::map<std::string, int32_t> Slots;
  std::map<std::string, int32_t> Scope;
  int Depth = 0;

  LinearForm compileAffine(const AffineExpr &Expr) const {
    LinearForm Form;
    Form.Constant = Expr.constantTerm();
    for (const auto &[Name, Coeff] : Expr.terms()) {
      auto It = Scope.find(Name);
      if (It != Scope.end())
        Form.Terms.emplace_back(It->second, Coeff);
      else
        Form.Constant += Coeff * Prog.param(Name); // asserts if unbound
    }
    return Form;
  }

  PlanAccess compileAccess(const ArrayAccess &Access) const {
    const ArrayDecl &Decl = Prog.array(Access.Array);
    PlanAccess Result;
    Result.Slot = Slots.at(Access.Array);
    Result.Base =
        compileAffine(linearizeSubscripts(Access.Indices, Decl.Shape));
    for (size_t Dim = 0; Dim < Access.Indices.size(); ++Dim)
      Result.DimChecks.emplace_back(compileAffine(Access.Indices[Dim]),
                                    Decl.Shape[Dim]);
    return Result;
  }

  void emitExpr(const Expr &E, CompiledStmt &S, int &Cur, int &Max) {
    auto Push = [&](TapeInstr Instr) {
      S.Tape.push_back(Instr);
      Max = std::max(Max, ++Cur);
    };
    switch (E.kind()) {
    case ExprKind::Constant:
      Push({TapeOpKind::Const, 0, 0, E.constantValue()});
      return;
    case ExprKind::Read: {
      int32_t Idx = static_cast<int32_t>(S.Loads.size());
      S.Loads.push_back(compileAccess(E.access()));
      Push({TapeOpKind::Load, 0, Idx, 0.0});
      return;
    }
    case ExprKind::Iter: {
      // Iterators in scope read their register; anything else must be a
      // bound parameter (the tree-walker's ValueEnv starts from params).
      auto It = Scope.find(E.name());
      if (It != Scope.end())
        Push({TapeOpKind::IterReg, 0, It->second, 0.0});
      else
        Push({TapeOpKind::Const, 0, 0,
              static_cast<double>(Prog.param(E.name()))});
      return;
    }
    case ExprKind::Param:
      Push({TapeOpKind::Const, 0, 0,
            static_cast<double>(Prog.param(E.name()))});
      return;
    case ExprKind::Unary:
      emitExpr(*E.operands()[0], S, Cur, Max);
      S.Tape.push_back({TapeOpKind::Unary,
                        static_cast<uint8_t>(E.unaryOp()), 0, 0.0});
      return;
    case ExprKind::Binary:
      emitExpr(*E.operands()[0], S, Cur, Max);
      emitExpr(*E.operands()[1], S, Cur, Max);
      S.Tape.push_back({TapeOpKind::Binary,
                        static_cast<uint8_t>(E.binaryOp()), 0, 0.0});
      --Cur;
      return;
    case ExprKind::Select: {
      // Short-circuit like the tree-walker: only the taken branch runs (a
      // select may guard an otherwise out-of-bounds read).
      emitExpr(*E.operands()[0], S, Cur, Max);
      size_t CondJump = S.Tape.size();
      S.Tape.push_back({TapeOpKind::JumpIfZero, 0, 0, 0.0});
      --Cur; // JumpIfZero pops the condition.
      int Base = Cur;
      emitExpr(*E.operands()[1], S, Cur, Max);
      size_t EndJump = S.Tape.size();
      S.Tape.push_back({TapeOpKind::Jump, 0, 0, 0.0});
      S.Tape[CondJump].A = static_cast<int32_t>(S.Tape.size());
      Cur = Base; // The false branch starts from the same stack depth.
      emitExpr(*E.operands()[2], S, Cur, Max);
      S.Tape[EndJump].A = static_cast<int32_t>(S.Tape.size());
      return;
    }
    }
  }

  CompiledStmt buildStmtPayload(const Computation &C) {
    CompiledStmt S;
    S.Write = compileAccess(C.write());
    int Cur = 0, Max = 0;
    emitExpr(*C.rhs(), S, Cur, Max);
    assert(Cur == 1 && "malformed expression tape");
    Plan.MaxStack = std::max(Plan.MaxStack, static_cast<size_t>(Max));
    return S;
  }

  /// Removes register \p Reg's term from \p Form, returning its
  /// coefficient.
  static int64_t splitInnerTerm(LinearForm &Form, int32_t Reg) {
    for (auto It = Form.Terms.begin(); It != Form.Terms.end(); ++It)
      if (It->first == Reg) {
        int64_t Coeff = It->second;
        Form.Terms.erase(It);
        return Coeff;
      }
    return 0;
  }

  static std::vector<PlanAccess *> accessesOf(CompiledStmt &S) {
    std::vector<PlanAccess *> All;
    All.push_back(&S.Write);
    for (PlanAccess &Acc : S.Loads)
      All.push_back(&Acc);
    return All;
  }

  /// Binds \p Iterator to \p Reg for the duration of \p Body, shadowing
  /// (not destroying) any outer binding of the same name.
  template <typename Fn> void withIterator(const std::string &Iterator,
                                           int32_t Reg, Fn Body) {
    std::optional<int32_t> Saved;
    auto It = Scope.find(Iterator);
    if (It != Scope.end())
      Saved = It->second;
    Scope[Iterator] = Reg;
    ++Depth;
    Body();
    --Depth;
    if (Saved)
      Scope[Iterator] = *Saved;
    else
      Scope.erase(Iterator);
  }

  //===--- Kernel-shape matching ------------------------------------------===//

  static bool isRead(const Expr &E) { return E.kind() == ExprKind::Read; }
  static bool isConst(const Expr &E) {
    return E.kind() == ExprKind::Constant;
  }
  static bool isBin(const Expr &E, BinaryOpKind Op) {
    return E.kind() == ExprKind::Binary && E.binaryOp() == Op;
  }

  /// True if \p E is a left-leaning chain `((R0 + R1) + ...) + Rk` of at
  /// least \p MinLeaves reads. Left-leaning only: the kernel folds the sum
  /// left to right, and any other association would change FP results.
  static bool isLeftSumOfReads(const Expr &E, size_t MinLeaves) {
    size_t Leaves = 1;
    const Expr *Cur = &E;
    while (isBin(*Cur, BinaryOpKind::Add) &&
           isRead(*Cur->operands()[1])) {
      ++Leaves;
      Cur = Cur->operands()[0].get();
    }
    return isRead(*Cur) && Leaves >= MinLeaves;
  }

  /// Matches the product term of an fma shape; sets \p S.Prod / \p S.Coef.
  static bool matchProduct(const Expr &P, CompiledStmt &S) {
    if (!isBin(P, BinaryOpKind::Mul))
      return false;
    const Expr &A = *P.operands()[0];
    const Expr &B = *P.operands()[1];
    if (isRead(A) && isRead(B)) {
      S.Prod = ProdShape::AB;
      return true;
    }
    if (isConst(A) && isBin(B, BinaryOpKind::Mul) &&
        isRead(*B.operands()[0]) && isRead(*B.operands()[1])) {
      S.Prod = ProdShape::CAB;
      S.Coef = A.constantValue();
      return true;
    }
    if (isBin(A, BinaryOpKind::Mul) && isConst(*A.operands()[0]) &&
        isRead(*A.operands()[1]) && isRead(B)) {
      S.Prod = ProdShape::CA_B;
      S.Coef = A.operands()[0]->constantValue();
      return true;
    }
    return false;
  }

  /// Recognizes the common kernel shapes on the expression tree of a
  /// single-statement inner loop. Loads were emitted in left-to-right read
  /// order, so tree positions map directly to load indices. Must run after
  /// the inner term split (FmaAcc keys on InnerCoeff).
  void matchKernel(const Computation &C, CompiledStmt &S) const {
    if (S.Loads.size() > MaxKernelLoads)
      return;
    const Expr &E = *C.rhs();

    if (isRead(E)) {
      S.Kernel = InnerKernel::Copy;
      return;
    }

    if (isBin(E, BinaryOpKind::Mul)) {
      const Expr &A = *E.operands()[0];
      const Expr &B = *E.operands()[1];
      if (isConst(A) && isRead(B)) {
        S.Kernel = InnerKernel::Scale;
        S.Coef = A.constantValue();
        S.CoefLeft = true;
        return;
      }
      if (isRead(A) && isConst(B)) {
        S.Kernel = InnerKernel::Scale;
        S.Coef = B.constantValue();
        S.CoefLeft = false;
        return;
      }
      if (isConst(A) && isLeftSumOfReads(B, 2)) {
        S.Kernel = InnerKernel::ScaledSum;
        S.Coef = A.constantValue();
        S.CoefLeft = S.HasCoef = true;
        return;
      }
      if (isLeftSumOfReads(A, 2) && isConst(B)) {
        S.Kernel = InnerKernel::ScaledSum;
        S.Coef = B.constantValue();
        S.HasCoef = true;
        return;
      }
      return;
    }

    if (!isBin(E, BinaryOpKind::Add))
      return;
    const Expr &L = *E.operands()[0];
    const Expr &R = *E.operands()[1];

    if (isLeftSumOfReads(E, 2)) {
      S.Kernel = InnerKernel::ScaledSum; // plain stencil sum, no coefficient
      return;
    }
    if (!isRead(L))
      return;

    if (isBin(R, BinaryOpKind::Mul)) {
      const Expr &RA = *R.operands()[0];
      const Expr &RB = *R.operands()[1];
      if (isConst(RA) && isRead(RB)) {
        S.Kernel = InnerKernel::Axpy;
        S.Coef = RA.constantValue();
        S.CoefLeft = true;
        return;
      }
      if (isRead(RA) && isConst(RB)) {
        S.Kernel = InnerKernel::Axpy;
        S.Coef = RB.constantValue();
        S.CoefLeft = false;
        return;
      }
    }
    if (matchProduct(R, S)) {
      // Loads: [0] addend, [1]/[2] product factors.
      assert(S.Loads.size() == 3 && "fma shape must have three loads");
      bool Accumulates =
          S.Write.InnerCoeff == 0 && S.Loads[0].InnerCoeff == 0 &&
          S.Loads[0].Slot == S.Write.Slot && S.Loads[0].Base == S.Write.Base;
      // Register accumulation skips the per-iteration store, so no product
      // load may alias the written element.
      bool ProductAliasFree = S.Loads[1].Slot != S.Write.Slot &&
                              S.Loads[2].Slot != S.Write.Slot;
      S.Kernel = Accumulates && ProductAliasFree ? InnerKernel::FmaAcc
                                                 : InnerKernel::Fma;
    }
  }

  //===--- Block legality --------------------------------------------------===//

  /// True when running \p Op a block of iterations at a time — each
  /// statement over the whole block before the next, and a statement's
  /// loads of the block before its stores — touches every element in the
  /// same order as the per-iteration loop. Must run after the inner term
  /// split. Distinct slots are distinct storage (DataEnv buffers; the api
  /// layer rejects overlapping argument bindings).
  static bool blockable(const PlanOp &Op) {
    struct Ref {
      const PlanAccess *Acc;
      size_t Stmt;
      bool Write;
    };
    std::vector<Ref> Refs;
    for (size_t Si = 0; Si < Op.Stmts.size(); ++Si) {
      const CompiledStmt &S = Op.Stmts[Si];
      // A select evaluates only its taken branch, per iteration.
      for (const TapeInstr &I : S.Tape)
        if (I.Kind == TapeOpKind::JumpIfZero || I.Kind == TapeOpKind::Jump)
          return false;
      Refs.push_back({&S.Write, Si, true});
      for (const PlanAccess &Load : S.Loads)
        Refs.push_back({&Load, Si, false});
    }
    for (size_t X = 0; X < Refs.size(); ++X)
      for (size_t Y = X; Y < Refs.size(); ++Y) {
        const Ref *A = &Refs[X], *B = &Refs[Y];
        if (A->Acc->Slot != B->Acc->Slot || !(A->Write || B->Write))
          continue;
        if (A->Acc->Base.Terms != B->Acc->Base.Terms ||
            A->Acc->InnerCoeff != B->Acc->InnerCoeff)
          return false;
        int64_t Gap = A->Acc->Base.Constant - B->Acc->Base.Constant;
        int64_t Stride = A->Acc->InnerCoeff * Op.Step;
        if (Stride == 0) {
          if (Gap == 0)
            return false; // one loop-invariant element every iteration
          continue;
        }
        if (Gap % Stride != 0)
          continue; // never the same element
        // B touches A's element this many iterations after A does.
        int64_t Distance = Gap / Stride;
        if (Distance == 0)
          continue; // same iteration: one lane, statement order kept
        if (Distance < 0)
          std::swap(A, B);
        // A touches the element first, so its block pass must come first.
        if (A->Stmt > B->Stmt ||
            (A->Stmt == B->Stmt && A->Write && !B->Write))
          return false;
      }
    return true;
  }

  //===--- Parallel marking ------------------------------------------------===//

  /// Applies a trusted `parallel` mark to \p Op: record the fork and the
  /// transient buffers each thread must privatize, using the same legality
  /// helper the transform used to discount their dependences.
  void markParallel(const NodePtr &Node, const Loop &L, PlanOp &Op) {
    if (!L.isParallel() || L.usesAtomicReduction())
      return;
    Op.Parallel = true;
    std::vector<std::string> Enclosing;
    for (const auto &[Name, Reg] : Scope)
      Enclosing.push_back(Name);
    for (const std::string &Array :
         privatizableArraysUnder(Node, Enclosing, Prog)) {
      const ArrayDecl &Decl = Prog.array(Array);
      Op.PrivateSlots.emplace_back(
          Slots.at(Array), std::max<int64_t>(Decl.elementCount(), 1));
    }
  }

  //===--- Node lowering ---------------------------------------------------===//

  void compileLoop(const NodePtr &Node, const Loop &L) {
    assert(L.step() > 0 && "plan requires positive loop steps");
    LinearForm Lower = compileAffine(L.lower());
    LinearForm Upper = compileAffine(L.upper());
    int32_t Reg = Depth;

    // Fast path: an innermost loop whose body is only computations (one or
    // many) becomes one fused op with hoisted loop-invariant offsets.
    bool AllComputations = !L.body().empty();
    for (const NodePtr &Child : L.body())
      if (!dynCast<Computation>(Child))
        AllComputations = false;
    if (AllComputations) {
      PlanOp Op;
      Op.K = PlanOp::Kind::InnerStmt;
      Op.Reg = Reg;
      Op.Lower = std::move(Lower);
      Op.Upper = std::move(Upper);
      Op.Step = L.step();
      markParallel(Node, L, Op);
      withIterator(L.iterator(), Reg, [&] {
        for (const NodePtr &Child : L.body())
          Op.Stmts.push_back(buildStmtPayload(*dynCast<Computation>(Child)));
      });
      int32_t OffsetBase = 0;
      for (CompiledStmt &S : Op.Stmts) {
        for (PlanAccess *Acc : accessesOf(S)) {
          Acc->InnerCoeff = splitInnerTerm(Acc->Base, Reg);
          Acc->InnerStep = Acc->InnerCoeff * Op.Step;
        }
        S.OffsetBase = OffsetBase;
        OffsetBase += static_cast<int32_t>(S.Loads.size());
      }
      Plan.MaxLoads =
          std::max(Plan.MaxLoads, static_cast<size_t>(OffsetBase));
      Plan.MaxSubs = std::max(Plan.MaxSubs, Op.Stmts.size());
      if (Options.EnableSpecialization && Op.Stmts.size() == 1)
        matchKernel(*dynCast<Computation>(L.body()[0]), Op.Stmts[0]);
      Op.Blocked =
          Op.Stmts[0].Kernel == InnerKernel::None && blockable(Op);
      if (Op.Blocked)
        Plan.StackLanes = ExecPlan::BlockLen;
      Plan.Ops.push_back(std::move(Op));
      return;
    }

    size_t BeginPc = Plan.Ops.size();
    {
      PlanOp Op;
      Op.K = PlanOp::Kind::LoopBegin;
      Op.Reg = Reg;
      Op.Lower = std::move(Lower);
      Op.Upper = std::move(Upper);
      Op.Step = L.step();
      markParallel(Node, L, Op);
      Plan.Ops.push_back(std::move(Op));
    }
    withIterator(L.iterator(), Reg, [&] {
      for (const NodePtr &Child : L.body())
        compileNode(Child);
    });
    {
      PlanOp Op;
      Op.K = PlanOp::Kind::LoopEnd;
      Op.Reg = Reg;
      Op.Step = L.step();
      Op.Jump = static_cast<int32_t>(BeginPc + 1);
      Plan.Ops.push_back(std::move(Op));
    }
    Plan.Ops[BeginPc].Jump = static_cast<int32_t>(Plan.Ops.size());
  }

  void compileNode(const NodePtr &Node) {
    Plan.MaxDepth = std::max(Plan.MaxDepth, Depth + 1);
    if (const auto *C = dynCast<Computation>(Node)) {
      PlanOp Op;
      Op.K = PlanOp::Kind::Stmt;
      Op.Stmts.push_back(buildStmtPayload(*C));
      Plan.Ops.push_back(std::move(Op));
      return;
    }
    if (const auto *Call = dynCast<CallNode>(Node)) {
      PlanOp Op;
      Op.K = PlanOp::Kind::Call;
      Op.Callee = Call->callee();
      for (const std::string &Arg : Call->args())
        Op.ArgSlots.push_back(Slots.at(Arg));
      Op.CallDims = Call->dims();
      Op.Alpha = Call->alpha();
      Op.Beta = Call->beta();
      Plan.Ops.push_back(std::move(Op));
      return;
    }
    const auto *L = dynCast<Loop>(Node);
    assert(L && "unknown node kind");
    compileLoop(Node, *L);
  }
};

} // namespace daisy

ExecPlan ExecPlan::compile(const Program &Prog, const PlanOptions &Options) {
  return PlanCompiler(Prog, Options).compile();
}

uint64_t daisy::planOptionsDigest(const PlanOptions &Options) {
  HashCombiner D(0x706C616E6F7074ull); // "planopt"
  D.combine(static_cast<uint64_t>(
      Options.NumThreads > 0 ? Options.NumThreads
                             : ThreadPool::defaultThreadCount()));
  D.combine(Options.EnableSpecialization ? 1ull : 0ull);
  return D.value();
}

/// The allocations one executing thread reuses across runs. The root
/// executor of a run borrows the vectors of the caller's ExecContext;
/// the per-chunk thread clones of a parallel region own a fresh State
/// each (their lifetime is one fork).
struct ExecContext::State {
  std::vector<int64_t> Regs, LoopHi, Offs, WOffs;
  std::vector<double> Stack;
  std::vector<double *> Ptrs;
  std::vector<size_t> Sizes;
};

ExecContext::ExecContext() : St(std::make_unique<State>()) {}
ExecContext::~ExecContext() = default;
ExecContext::ExecContext(ExecContext &&Other) noexcept = default;
ExecContext &ExecContext::operator=(ExecContext &&Other) noexcept = default;

namespace {

/// Evaluates a statement's tape over \p Stack. \p Off maps a load access
/// (by PlanAccess and load index) to its element offset, so the plain and
/// fast-path statement loops share one evaluator.
template <typename OffsetFn>
double evalTape(const CompiledStmt &S, const int64_t *Regs,
                double *const *Ptrs, double *Stack, OffsetFn Off) {
  double *Sp = Stack;
  const TapeInstr *Base = S.Tape.data();
  const TapeInstr *End = Base + S.Tape.size();
  for (const TapeInstr *I = Base; I != End;) {
    switch (I->Kind) {
    case TapeOpKind::Const:
      *Sp++ = I->Value;
      break;
    case TapeOpKind::IterReg:
      *Sp++ = static_cast<double>(Regs[I->A]);
      break;
    case TapeOpKind::Load: {
      const PlanAccess &Acc = S.Loads[static_cast<size_t>(I->A)];
      *Sp++ = Ptrs[Acc.Slot][Off(Acc, static_cast<size_t>(I->A))];
      break;
    }
    case TapeOpKind::Unary:
      Sp[-1] = applyUnary(static_cast<UnaryOpKind>(I->Op), Sp[-1]);
      break;
    case TapeOpKind::Binary:
      Sp[-2] = applyBinary(static_cast<BinaryOpKind>(I->Op), Sp[-2], Sp[-1]);
      --Sp;
      break;
    case TapeOpKind::JumpIfZero:
      if (*--Sp == 0.0) {
        I = Base + I->A;
        continue;
      }
      break;
    case TapeOpKind::Jump:
      I = Base + I->A;
      continue;
    }
    ++I;
  }
  return Sp[-1];
}

/// Calls \p F with \p Op as a compile-time constant, so a lane loop that
/// passes it to applyUnary/applyBinary gets the switch folded away.
template <typename Fn> void withConstOp(UnaryOpKind Op, Fn &&F) {
  using K = UnaryOpKind;
  switch (Op) {
  case K::Neg: return F(std::integral_constant<K, K::Neg>());
  case K::Exp: return F(std::integral_constant<K, K::Exp>());
  case K::Log: return F(std::integral_constant<K, K::Log>());
  case K::Sqrt: return F(std::integral_constant<K, K::Sqrt>());
  case K::Abs: return F(std::integral_constant<K, K::Abs>());
  }
}

template <typename Fn> void withConstOp(BinaryOpKind Op, Fn &&F) {
  using K = BinaryOpKind;
  switch (Op) {
  case K::Add: return F(std::integral_constant<K, K::Add>());
  case K::Sub: return F(std::integral_constant<K, K::Sub>());
  case K::Mul: return F(std::integral_constant<K, K::Mul>());
  case K::Div: return F(std::integral_constant<K, K::Div>());
  case K::Min: return F(std::integral_constant<K, K::Min>());
  case K::Max: return F(std::integral_constant<K, K::Max>());
  case K::Pow: return F(std::integral_constant<K, K::Pow>());
  case K::Lt: return F(std::integral_constant<K, K::Lt>());
  case K::Le: return F(std::integral_constant<K, K::Le>());
  case K::Gt: return F(std::integral_constant<K, K::Gt>());
  case K::Ge: return F(std::integral_constant<K, K::Ge>());
  case K::Eq: return F(std::integral_constant<K, K::Eq>());
  }
}

/// Row stride of the block value stack.
constexpr size_t BlockLanes = static_cast<size_t>(ExecPlan::BlockLen);

/// Evaluates a select-free tape over \p N consecutive inner iterations,
/// lane J running iteration I0 + J * Step of the inner register \p Reg.
/// Every lane performs the per-iteration evaluator's scalar operations in
/// its order. \p Offs are the loads' element offsets at lane 0. Returns
/// the result row.
const double *evalBlock(const CompiledStmt &S, int32_t Reg, int64_t I0,
                        int64_t Step, size_t N, const int64_t *Offs,
                        const int64_t *Regs, double *const *Ptrs,
                        double *Stack) {
  size_t Depth = 0; // rows in use; row D holds lanes [D * BlockLanes, +N)
  auto Row = [&](size_t D) { return Stack + D * BlockLanes; };
  for (const TapeInstr &I : S.Tape) {
    switch (I.Kind) {
    case TapeOpKind::Const:
      std::fill_n(Row(Depth++), N, I.Value);
      break;
    case TapeOpKind::IterReg: {
      double *Dst = Row(Depth++);
      if (I.A == Reg)
        for (size_t J = 0; J < N; ++J)
          Dst[J] = static_cast<double>(I0 + static_cast<int64_t>(J) * Step);
      else
        std::fill_n(Dst, N, static_cast<double>(Regs[I.A]));
      break;
    }
    case TapeOpKind::Load: {
      double *Dst = Row(Depth++);
      const PlanAccess &Acc = S.Loads[static_cast<size_t>(I.A)];
      const double *Src = Ptrs[Acc.Slot] + Offs[I.A];
      const int64_t Stride = Acc.InnerStep;
      if (Stride == 1)
        std::copy_n(Src, N, Dst);
      else if (Stride == 0)
        std::fill_n(Dst, N, *Src);
      else
        for (size_t J = 0; J < N; ++J)
          Dst[J] = Src[static_cast<int64_t>(J) * Stride];
      break;
    }
    case TapeOpKind::Unary: {
      double *X = Row(Depth - 1);
      withConstOp(static_cast<UnaryOpKind>(I.Op), [&](auto Op) {
        for (size_t J = 0; J < N; ++J)
          X[J] = applyUnary(Op, X[J]);
      });
      break;
    }
    case TapeOpKind::Binary: {
      double *L = Row(Depth - 2);
      const double *R = Row(Depth - 1);
      withConstOp(static_cast<BinaryOpKind>(I.Op), [&](auto Op) {
        for (size_t J = 0; J < N; ++J)
          L[J] = applyBinary(Op, L[J], R[J]);
      });
      --Depth;
      break;
    }
    case TapeOpKind::JumpIfZero:
    case TapeOpKind::Jump:
      assert(false && "blocked ops carry no selects");
      break;
    }
  }
  assert(Depth == 1 && "malformed expression tape");
  return Stack;
}

} // namespace

namespace daisy {

/// Run-time state of one executing thread: register file, tape stack,
/// hoisted-offset scratch, and the slot-to-buffer table (rebound to private
/// copies inside parallel regions). The root executor aliases the DataEnv;
/// thread executors clone the parent's state at the fork point.
class PlanExecutor {
public:
  /// Root executor of one run, reusing the allocations of \p S. The
  /// caller (ExecPlan::run) has already filled S.Ptrs / S.Sizes with the
  /// slot table; the remaining scratch is sized to the plan here —
  /// assign/resize keep the capacity a previous run grew, so a pooled
  /// context makes repeated runs allocation-free.
  PlanExecutor(const ExecPlan &Plan, ExecContext::State &S)
      : Plan(Plan), Regs(S.Regs), LoopHi(S.LoopHi), Offs(S.Offs),
        WOffs(S.WOffs), Stack(S.Stack), Ptrs(S.Ptrs), Sizes(S.Sizes) {
    size_t Depth = static_cast<size_t>(std::max(Plan.MaxDepth, 1));
    Regs.assign(Depth, 0);
    LoopHi.assign(Depth, 0);
    Offs.resize(std::max<size_t>(Plan.MaxLoads, 1));
    WOffs.resize(std::max<size_t>(Plan.MaxSubs, 1));
    Stack.resize(std::max<size_t>(Plan.MaxStack, 1) * Plan.StackLanes);
  }

  /// Thread-local clone for one chunk of parallel op \p Op: copies the
  /// parent's registers (inner bounds may reference outer loops) and
  /// rebinds each privatized slot to a private copy of the shared buffer.
  /// Legality guarantees no iteration reads an element it did not write
  /// first, so the initial contents are invisible to the loop itself —
  /// they are carried so the lastprivate copy-back leaves elements the
  /// loop never writes exactly as serial execution would.
  PlanExecutor(const PlanExecutor &Parent, const PlanOp &Op)
      : Plan(Parent.Plan), InParallel(true),
        Owned(std::make_unique<ExecContext::State>()), Regs(Owned->Regs),
        LoopHi(Owned->LoopHi), Offs(Owned->Offs), WOffs(Owned->WOffs),
        Stack(Owned->Stack), Ptrs(Owned->Ptrs), Sizes(Owned->Sizes) {
    Regs = Parent.Regs;
    LoopHi = Parent.LoopHi;
    Offs.resize(Parent.Offs.size());
    WOffs.resize(Parent.WOffs.size());
    Stack.resize(Parent.Stack.size());
    Ptrs = Parent.Ptrs;
    Sizes = Parent.Sizes;
    Privates.reserve(Op.PrivateSlots.size());
    for (const auto &[Slot, Count] : Op.PrivateSlots) {
      const double *Shared = Ptrs[Slot];
      Privates.push_back({Slot, Ptrs[Slot],
                          std::vector<double>(Shared, Shared + Count)});
      Ptrs[Slot] = Privates.back().Buf.data();
    }
  }

  DAISY_HOT_ALIGN void exec(size_t Begin, size_t End);

  /// Lastprivate semantics: the thread that ran the chunk containing the
  /// final iterations copies its private buffers back to the shared ones,
  /// so the observable end state matches serial execution exactly.
  void copyBackPrivates() {
    for (const PrivateCopy &P : Privates)
      std::copy(P.Buf.begin(), P.Buf.end(), P.Shared);
  }

private:
  const ExecPlan &Plan;
  bool InParallel = false;
  /// Thread clones own their state; the root executor borrows the
  /// caller's ExecContext. Declared before the references bound to it.
  std::unique_ptr<ExecContext::State> Owned;
  std::vector<int64_t> &Regs, &LoopHi, &Offs, &WOffs;
  std::vector<double> &Stack;
  std::vector<double *> &Ptrs;
  std::vector<size_t> &Sizes;

  struct PrivateCopy {
    int32_t Slot;
    double *Shared;
    std::vector<double> Buf;
  };
  std::vector<PrivateCopy> Privates;

  // Debug-only: the linearized offset must be in range, and so must every
  // per-dimension subscript (a compensated violation like A[i+1][j-8] can
  // linearize into range; the tree-walker catches it per dimension).
  void checkAccess(const PlanAccess &Acc, int64_t Offset) const {
    (void)Acc;
    (void)Offset;
    assert(Offset >= 0 &&
           static_cast<size_t>(Offset) < Sizes[static_cast<size_t>(
               Acc.Slot)] &&
           "subscript out of bounds");
#ifndef NDEBUG
    for (const auto &[Form, Extent] : Acc.DimChecks) {
      int64_t Index = Form.eval(Regs.data());
      assert(Index >= 0 && Index < Extent && "subscript out of bounds");
      (void)Index;
      (void)Extent;
    }
#endif
  }

  /// Debug-only checks of an inner loop's \p N iterations from \p Lo for
  /// statements that access memory on every iteration (no selects):
  /// offsets and per-dimension subscripts are affine in the inner
  /// iterator, so in-range at both endpoints implies in-range throughout.
  void checkInnerEndpoints(const PlanOp &Op, const CompiledStmt &S,
                           int64_t Lo, int64_t N) {
    (void)Op;
    (void)S;
    (void)Lo;
    (void)N;
#ifndef NDEBUG
    for (int64_t I : {Lo, Lo + (N - 1) * Op.Step}) {
      Regs[Op.Reg] = I;
      checkAccess(S.Write,
                  S.Write.Base.eval(Regs.data()) + S.Write.InnerCoeff * I);
      for (const PlanAccess &Load : S.Loads)
        checkAccess(Load, Load.Base.eval(Regs.data()) + Load.InnerCoeff * I);
    }
#endif
  }

  void runStmt(const PlanOp &Op) {
    const CompiledStmt &S = Op.Stmts[0];
    double Value = evalTape(S, Regs.data(), Ptrs.data(), Stack.data(),
                            [&](const PlanAccess &Acc, size_t) {
                              int64_t Offset = Acc.Base.eval(Regs.data());
                              checkAccess(Acc, Offset);
                              return Offset;
                            });
    int64_t WOff = S.Write.Base.eval(Regs.data());
    checkAccess(S.Write, WOff);
    Ptrs[S.Write.Slot][WOff] = Value;
  }

  DAISY_HOT_ALIGN void runInner(const PlanOp &Op, int64_t Lo, int64_t Hi);
  DAISY_HOT_ALIGN void runBlocks(const PlanOp &Op, int64_t Lo, int64_t N);
  DAISY_HOT_ALIGN void runKernel(const PlanOp &Op, const CompiledStmt &S,
                                 int64_t Lo, int64_t N);
  DAISY_HOT_ALIGN void runCall(const PlanOp &Op);
  DAISY_HOT_ALIGN void
  forkLoop(const PlanOp &Op, size_t Pc,
           const std::vector<std::pair<int64_t, int64_t>> &Chunks);
};

} // namespace daisy

void PlanExecutor::runCall(const PlanOp &Op) {
  const auto &Args = Op.ArgSlots;
  const auto &Dims = Op.CallDims;
  switch (Op.Callee) {
  case BlasKind::Gemm:
    gemm(Ptrs[Args[0]], Ptrs[Args[1]], Ptrs[Args[2]], Dims[0], Dims[1],
         Dims[2], Op.Alpha, Op.Beta);
    break;
  case BlasKind::Syrk:
    syrk(Ptrs[Args[0]], Ptrs[Args[1]], Dims[0], Dims[1], Op.Alpha, Op.Beta);
    break;
  case BlasKind::Syr2k:
    syr2k(Ptrs[Args[0]], Ptrs[Args[1]], Ptrs[Args[2]], Dims[0], Dims[1],
          Op.Alpha, Op.Beta);
    break;
  case BlasKind::Gemv:
    gemv(Ptrs[Args[0]], Ptrs[Args[1]], Ptrs[Args[2]], Dims[0], Dims[1],
         Op.Alpha, Op.Beta);
    break;
  }
}

void PlanExecutor::runKernel(const PlanOp &Op, const CompiledStmt &S,
                             int64_t Lo, int64_t N) {
  checkInnerEndpoints(Op, S, Lo, N);
  int64_t WOff = S.Write.Base.eval(Regs.data()) + S.Write.InnerCoeff * Lo;
  int64_t LOff[MaxKernelLoads];
  const double *L[MaxKernelLoads];
  int64_t LS[MaxKernelLoads];
  const size_t K = S.Loads.size();
  for (size_t A = 0; A < K; ++A) {
    LOff[A] = S.Loads[A].Base.eval(Regs.data()) + S.Loads[A].InnerCoeff * Lo;
    L[A] = Ptrs[S.Loads[A].Slot] + LOff[A];
    LS[A] = S.Loads[A].InnerStep;
  }
  double *W = Ptrs[S.Write.Slot] + WOff;
  const int64_t Ws = S.Write.InnerStep;
  const double C = S.Coef;

  switch (S.Kernel) {
  case InnerKernel::None:
    assert(false && "generic statements do not reach runKernel");
    break;
  case InnerKernel::Copy: {
    const double *A = L[0];
    const int64_t As = LS[0];
    if (Ws == 1 && As == 1)
      for (int64_t I = 0; I < N; ++I)
        W[I] = A[I];
    else
      for (int64_t I = 0; I < N; ++I)
        W[I * Ws] = A[I * As];
    break;
  }
  case InnerKernel::Scale: {
    const double *A = L[0];
    const int64_t As = LS[0];
    if (S.CoefLeft) {
      if (Ws == 1 && As == 1)
        for (int64_t I = 0; I < N; ++I)
          W[I] = C * A[I];
      else
        for (int64_t I = 0; I < N; ++I)
          W[I * Ws] = C * A[I * As];
    } else {
      if (Ws == 1 && As == 1)
        for (int64_t I = 0; I < N; ++I)
          W[I] = A[I] * C;
      else
        for (int64_t I = 0; I < N; ++I)
          W[I * Ws] = A[I * As] * C;
    }
    break;
  }
  case InnerKernel::ScaledSum: {
    bool Unit = Ws == 1;
    for (size_t A = 0; A < K; ++A)
      Unit &= LS[A] == 1;
    if (Unit) {
      for (int64_t I = 0; I < N; ++I) {
        double T = L[0][I];
        for (size_t A = 1; A < K; ++A)
          T = T + L[A][I];
        W[I] = !S.HasCoef ? T : (S.CoefLeft ? C * T : T * C);
      }
    } else {
      for (int64_t I = 0; I < N; ++I) {
        double T = L[0][I * LS[0]];
        for (size_t A = 1; A < K; ++A)
          T = T + L[A][I * LS[A]];
        W[I * Ws] = !S.HasCoef ? T : (S.CoefLeft ? C * T : T * C);
      }
    }
    break;
  }
  case InnerKernel::Axpy: {
    const double *A = L[0], *X = L[1];
    const int64_t As = LS[0], Xs = LS[1];
    if (S.CoefLeft) {
      if (Ws == 1 && As == 1 && Xs == 1)
        for (int64_t I = 0; I < N; ++I)
          W[I] = A[I] + (C * X[I]);
      else
        for (int64_t I = 0; I < N; ++I)
          W[I * Ws] = A[I * As] + (C * X[I * Xs]);
    } else {
      if (Ws == 1 && As == 1 && Xs == 1)
        for (int64_t I = 0; I < N; ++I)
          W[I] = A[I] + (X[I] * C);
      else
        for (int64_t I = 0; I < N; ++I)
          W[I * Ws] = A[I * As] + (X[I * Xs] * C);
    }
    break;
  }
  case InnerKernel::Fma: {
    const double *Y = L[0], *A = L[1], *B = L[2];
    const int64_t Ys = LS[0], As = LS[1], Bs = LS[2];
    switch (S.Prod) {
    case ProdShape::AB:
      for (int64_t I = 0; I < N; ++I)
        W[I * Ws] = Y[I * Ys] + (A[I * As] * B[I * Bs]);
      break;
    case ProdShape::CAB:
      for (int64_t I = 0; I < N; ++I)
        W[I * Ws] = Y[I * Ys] + (C * (A[I * As] * B[I * Bs]));
      break;
    case ProdShape::CA_B:
      for (int64_t I = 0; I < N; ++I)
        W[I * Ws] = Y[I * Ys] + ((C * A[I * As]) * B[I * Bs]);
      break;
    }
    break;
  }
  case InnerKernel::FmaAcc: {
    // W is loop-invariant and equals load 0: keep the running sum in a
    // register. The adds happen on the same values in the same order as
    // the per-iteration store/reload, so the result is bit-identical.
    const double *A = L[1], *B = L[2];
    const int64_t As = LS[1], Bs = LS[2];
    double Acc = *W;
    switch (S.Prod) {
    case ProdShape::AB:
      for (int64_t I = 0; I < N; ++I)
        Acc = Acc + (A[I * As] * B[I * Bs]);
      break;
    case ProdShape::CAB:
      for (int64_t I = 0; I < N; ++I)
        Acc = Acc + (C * (A[I * As] * B[I * Bs]));
      break;
    case ProdShape::CA_B:
      for (int64_t I = 0; I < N; ++I)
        Acc = Acc + ((C * A[I * As]) * B[I * Bs]);
      break;
    }
    *W = Acc;
    break;
  }
  }
}

void PlanExecutor::runBlocks(const PlanOp &Op, int64_t Lo, int64_t N) {
  for (const CompiledStmt &S : Op.Stmts)
    checkInnerEndpoints(Op, S, Lo, N);
  for (int64_t First = 0; First < N; First += ExecPlan::BlockLen) {
    const int64_t Lanes = std::min(ExecPlan::BlockLen, N - First);
    const int64_t I0 = Lo + First * Op.Step;
    for (size_t Si = 0; Si < Op.Stmts.size(); ++Si) {
      const CompiledStmt &S = Op.Stmts[Si];
      int64_t *LoadOffs = Offs.data() + S.OffsetBase;
      const double *Values =
          evalBlock(S, Op.Reg, I0, Op.Step, static_cast<size_t>(Lanes),
                    LoadOffs, Regs.data(), Ptrs.data(), Stack.data());
      double *W = Ptrs[S.Write.Slot] + WOffs[Si];
      const int64_t Ws = S.Write.InnerStep;
      if (Ws == 1)
        std::copy_n(Values, Lanes, W);
      else
        for (int64_t J = 0; J < Lanes; ++J)
          W[J * Ws] = Values[J];
      for (size_t A = 0; A < S.Loads.size(); ++A)
        LoadOffs[A] += S.Loads[A].InnerStep * Lanes;
      WOffs[Si] += Ws * Lanes;
    }
  }
}

void PlanExecutor::runInner(const PlanOp &Op, int64_t Lo, int64_t Hi) {
  if (Lo >= Hi)
    return;
  const int64_t N = (Hi - Lo + Op.Step - 1) / Op.Step;
  if (Op.Stmts.size() == 1 &&
      Op.Stmts[0].Kernel != InnerKernel::None) {
    runKernel(Op, Op.Stmts[0], Lo, N);
    return;
  }
  for (size_t Si = 0; Si < Op.Stmts.size(); ++Si) {
    const CompiledStmt &S = Op.Stmts[Si];
    for (size_t A = 0; A < S.Loads.size(); ++A)
      Offs[S.OffsetBase + A] =
          S.Loads[A].Base.eval(Regs.data()) + S.Loads[A].InnerCoeff * Lo;
    WOffs[Si] = S.Write.Base.eval(Regs.data()) + S.Write.InnerCoeff * Lo;
  }
  if (Op.Blocked) {
    runBlocks(Op, Lo, N);
    return;
  }
  for (int64_t I = Lo; I < Hi; I += Op.Step) {
    Regs[Op.Reg] = I;
    for (size_t Si = 0; Si < Op.Stmts.size(); ++Si) {
      const CompiledStmt &S = Op.Stmts[Si];
      double Value = evalTape(S, Regs.data(), Ptrs.data(), Stack.data(),
                              [&](const PlanAccess &Acc, size_t A) {
                                int64_t Offset = Offs[S.OffsetBase + A];
                                checkAccess(Acc, Offset);
                                return Offset;
                              });
      checkAccess(S.Write, WOffs[Si]);
      Ptrs[S.Write.Slot][WOffs[Si]] = Value;
      for (size_t A = 0; A < S.Loads.size(); ++A)
        Offs[S.OffsetBase + A] += S.Loads[A].InnerStep;
      WOffs[Si] += S.Write.InnerStep;
    }
  }
}

void PlanExecutor::forkLoop(
    const PlanOp &Op, size_t Pc,
    const std::vector<std::pair<int64_t, int64_t>> &Chunks) {
  const bool Inner = Op.K == PlanOp::Kind::InnerStmt;
  const size_t BodyBegin = Pc + 1;
  const size_t BodyEnd = Inner ? 0 : static_cast<size_t>(Op.Jump) - 1;
  // Clone one executor per chunk up front, in the forking thread: every
  // private copy must be taken from the shared buffers before the
  // lastprivate copy-back below mutates them.
  std::vector<std::unique_ptr<PlanExecutor>> Workers;
  Workers.reserve(Chunks.size());
  for (size_t C = 0; C < Chunks.size(); ++C)
    Workers.push_back(std::make_unique<PlanExecutor>(*this, Op));
  ThreadPool::global().run(
      static_cast<int>(Chunks.size()), [&](int C) {
        PlanExecutor &Worker = *Workers[static_cast<size_t>(C)];
        const auto &[ChunkLo, ChunkHi] = Chunks[static_cast<size_t>(C)];
        if (Inner) {
          Worker.runInner(Op, ChunkLo, ChunkHi);
        } else {
          for (int64_t I = ChunkLo; I < ChunkHi; I += Op.Step) {
            Worker.Regs[Op.Reg] = I;
            Worker.exec(BodyBegin, BodyEnd);
          }
        }
      });
  // After the join, the chunk that ran the final iterations holds the
  // serially-last state of every privatized buffer.
  Workers.back()->copyBackPrivates();
}

void PlanExecutor::exec(size_t Begin, size_t End) {
  size_t Pc = Begin;
  while (Pc < End) {
    const PlanOp &Op = Plan.Ops[Pc];
    switch (Op.K) {
    case PlanOp::Kind::LoopBegin: {
      int64_t Lo = Op.Lower.eval(Regs.data());
      int64_t Hi = Op.Upper.eval(Regs.data());
      if (Op.Parallel && !InParallel && Plan.ThreadCount > 1) {
        auto Chunks = chunkLoopRange(Lo, Hi, Op.Step, Plan.ThreadCount);
        if (Chunks.size() > 1) {
          forkLoop(Op, Pc, Chunks);
          Pc = static_cast<size_t>(Op.Jump);
          break;
        }
      }
      if (Lo >= Hi) {
        Pc = static_cast<size_t>(Op.Jump);
        break;
      }
      Regs[Op.Reg] = Lo;
      LoopHi[Op.Reg] = Hi;
      ++Pc;
      break;
    }
    case PlanOp::Kind::LoopEnd: {
      int64_t Next = Regs[Op.Reg] + Op.Step;
      if (Next < LoopHi[Op.Reg]) {
        Regs[Op.Reg] = Next;
        Pc = static_cast<size_t>(Op.Jump);
      } else {
        ++Pc;
      }
      break;
    }
    case PlanOp::Kind::Stmt:
      runStmt(Op);
      ++Pc;
      break;
    case PlanOp::Kind::InnerStmt: {
      int64_t Lo = Op.Lower.eval(Regs.data());
      int64_t Hi = Op.Upper.eval(Regs.data());
      if (Op.Parallel && !InParallel && Plan.ThreadCount > 1) {
        auto Chunks = chunkLoopRange(Lo, Hi, Op.Step, Plan.ThreadCount);
        if (Chunks.size() > 1) {
          forkLoop(Op, Pc, Chunks);
          ++Pc;
          break;
        }
      }
      runInner(Op, Lo, Hi);
      ++Pc;
      break;
    }
    case PlanOp::Kind::Call:
      runCall(Op);
      ++Pc;
      break;
    }
  }
}

ExecContext::State &ExecPlan::healedState(ExecContext &Ctx) {
  if (!Ctx.St)
    Ctx.St = std::make_unique<ExecContext::State>();
  Ctx.St->Ptrs.clear();
  Ctx.St->Sizes.clear();
  return *Ctx.St;
}

void ExecPlan::run(DataEnv &Env) const {
  ExecContext Ctx;
  run(Env, Ctx);
}

void ExecPlan::run(DataEnv &Env, ExecContext &Ctx) const {
  ExecContext::State &St = healedState(Ctx);
  St.Ptrs.reserve(Env.slotCount());
  St.Sizes.reserve(Env.slotCount());
  for (size_t Slot = 0; Slot < Env.slotCount(); ++Slot) {
    St.Ptrs.push_back(Env.bufferAt(Slot).data());
    St.Sizes.push_back(Env.bufferAt(Slot).size());
  }
  PlanExecutor Executor(*this, St);
  Executor.exec(0, Ops.size());
}

void ExecPlan::run(const BufferRef *Slots, size_t SlotCount,
                   ExecContext &Ctx) const {
  ExecContext::State &St = healedState(Ctx);
  St.Ptrs.reserve(SlotCount);
  St.Sizes.reserve(SlotCount);
  for (size_t Slot = 0; Slot < SlotCount; ++Slot) {
    St.Ptrs.push_back(Slots[Slot].Data);
    St.Sizes.push_back(Slots[Slot].Size);
  }
  PlanExecutor Executor(*this, St);
  Executor.exec(0, Ops.size());
}

ExecPlan::Stats ExecPlan::stats() const {
  Stats Result;
  Result.Ops = Ops.size();
  Result.MaxLoopDepth = MaxDepth;
  for (const PlanOp &Op : Ops) {
    if (Op.K == PlanOp::Kind::Stmt || Op.K == PlanOp::Kind::InnerStmt)
      Result.Statements += Op.Stmts.size();
    if (Op.K == PlanOp::Kind::InnerStmt) {
      Result.FastPathStatements += Op.Stmts.size();
      if (Op.Stmts.size() > 1)
        ++Result.MultiStmtInnerLoops;
    }
    for (const CompiledStmt &S : Op.Stmts)
      if (S.Kernel != InnerKernel::None)
        ++Result.SpecializedKernels;
    if (Op.Blocked)
      ++Result.BlockedLoops;
    if (Op.Parallel) {
      ++Result.ParallelLoops;
      Result.PrivatizedBuffers += Op.PrivateSlots.size();
    }
  }
  return Result;
}
