//===- exec/ExecPlan.h - Compiled flat execution plan ------------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compile-then-run execution engine for the loop-nest IR.
///
/// The tree-walking interpreter resolves every array name, iterator name,
/// and affine subscript through string maps for every element it touches.
/// ExecPlan pays all name resolution once, at compile time:
///
/// - array names become dense buffer slot ids (DataEnv slot order),
/// - loop iterators become depth-indexed registers (no ValueEnv at run
///   time),
/// - every affine subscript is folded row-major into one LinearForm
///   `constant + sum coeff_d * reg_d` over the loop registers
///   (ir/AffineExpr.h linearizeSubscripts), with program parameters folded
///   into the constant,
/// - every right-hand-side expression tree is flattened into a postfix
///   bytecode tape evaluated over a small value stack,
/// - an innermost loop whose body consists only of computations (one or
///   many — the fissioned and the fused CLOUDSC shapes both qualify) is
///   fused into one InnerStmt op: the loop-invariant part of each access
///   offset is hoisted out of the loop and offsets advance by a
///   precomputed stride per iteration,
/// - a single-statement InnerStmt whose expression matches a common kernel
///   shape (copy, scale, scaled stencil sum, axpy, fma-accumulate) is
///   lowered to a dedicated inner kernel: a tight loop over raw pointers
///   with no tape dispatch, auto-vectorizable when the strides are unit,
/// - any other InnerStmt runs up to ExecPlan::BlockLen inner iterations
///   at a time when that keeps every dependence: each tape instruction is
///   dispatched once per block, over one row of a structure-of-arrays
///   value stack; the statement's result row is then stored, and the next
///   statement runs over the same block. Each lane performs one
///   iteration's scalar operations in order, so results stay
///   bit-identical. The compiler blocks an op that has no select and in
///   which every pair of same-slot accesses, at least one a write:
///   * has identical outer terms and the same inner coefficient;
///   * does not touch one loop-invariant element every iteration (this
///     excludes accumulators and 0-d scalars);
///   * keeps its order where access B touches access A's element d > 0
///     iterations later: A's statement precedes B's, or they are the same
///     statement and A is not a write that B reads (a carried flow).
///   Every other InnerStmt evaluates its tapes one iteration at a time,
/// - a loop carrying the `parallel` mark (placed by transform/Parallelize,
///   proven dependence-free by analysis/Legality) is executed by chunking
///   its iteration range over the persistent thread pool
///   (exec/ThreadPool.h), with a private register file per thread and
///   per-thread private copies of the transient buffers the legality
///   analysis privatized (analysis/Legality.h privatizableArraysUnder —
///   the same helper the transform used, so marking and execution agree).
///
/// Semantics are identical to the tree-walker (exec/Interpreter.h), which
/// remains the executable definition of the IR; differential tests assert
/// bit-identical results on every frontend kernel, at every thread count,
/// with specialization on and off. Parallel loops carry no dependence
/// (atomic-reduction marks are executed serially), so no atomics and no
/// nondeterministic reduction orders exist anywhere in the engine.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_EXEC_EXECPLAN_H
#define DAISY_EXEC_EXECPLAN_H

#include "exec/DataEnv.h"
#include "ir/Program.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace daisy {

/// A linear form `Constant + sum Coeff * Regs[Reg]` over the depth-indexed
/// loop registers, produced at compile time from an AffineExpr with every
/// parameter folded into the constant.
struct LinearForm {
  int64_t Constant = 0;
  /// Sparse (register, coefficient) terms; subscripts typically reference
  /// only one or two of the enclosing loops.
  std::vector<std::pair<int32_t, int64_t>> Terms;

  int64_t eval(const int64_t *Regs) const {
    int64_t Result = Constant;
    for (const auto &[Reg, Coeff] : Terms)
      Result += Coeff * Regs[Reg];
    return Result;
  }

  bool operator==(const LinearForm &Other) const {
    return Constant == Other.Constant && Terms == Other.Terms;
  }
};

/// One resolved array access of a compiled statement: buffer slot plus the
/// linearized element offset. For fast-path (InnerStmt) statements, Base
/// excludes the innermost iterator's contribution, which is applied as
/// `InnerCoeff * i` at loop entry and advanced by `InnerStep` per
/// iteration.
struct PlanAccess {
  int32_t Slot = -1;
  LinearForm Base;
  int64_t InnerCoeff = 0; ///< Offset delta per unit of the inner iterator.
  int64_t InnerStep = 0;  ///< Offset delta per inner-loop iteration.
  /// Per-dimension (subscript, extent) pairs, kept so debug builds can
  /// assert each dimension separately (a compensated violation like
  /// A[i+1][j-8] can linearize to an in-range offset).
  std::vector<std::pair<LinearForm, int64_t>> DimChecks;
};

/// Postfix bytecode of a right-hand-side expression. Select compiles to
/// JumpIfZero/Jump so only the taken branch is evaluated, matching the
/// tree-walker's short-circuit semantics (a select may guard an otherwise
/// out-of-bounds read).
enum class TapeOpKind : uint8_t {
  Const,      ///< Push immediate value.
  Load,       ///< Push element of load access #A.
  IterReg,    ///< Push value of loop register #A.
  Unary,      ///< Apply UnaryOpKind #Op to the top of stack.
  Binary,     ///< Apply BinaryOpKind #Op to the two topmost values.
  JumpIfZero, ///< Pop; continue at instruction #A when the value is 0.
  Jump        ///< Continue at instruction #A.
};

struct TapeInstr {
  TapeOpKind Kind = TapeOpKind::Const;
  uint8_t Op = 0; ///< UnaryOpKind / BinaryOpKind payload.
  int32_t A = 0;  ///< Load access index or register index.
  double Value = 0.0;
};

/// Specialized inner-loop forms a single-statement InnerStmt can lower to
/// when its expression matches. Every kernel performs the exact scalar
/// operations of the tape in the exact order, so results stay bit-identical;
/// what it removes is the per-element tape dispatch (and, for FmaAcc, the
/// store/reload of the loop-invariant accumulator).
enum class InnerKernel : uint8_t {
  None,      ///< Generic tape evaluation.
  Copy,      ///< W = L0
  Scale,     ///< W = c * L0 (or L0 * c; CoefLeft)
  ScaledSum, ///< W = c * (L0 + L1 + ...), coefficient optional (HasCoef)
  Axpy,      ///< W = L0 + c * L1 (or L1 * c)
  Fma,       ///< W = L0 + product, streaming (see ProdShape)
  FmaAcc     ///< W += product with W loop-invariant: register accumulator
};

/// Association shape of the product term of Fma / FmaAcc, preserved so the
/// kernel multiplies in the same order as the expression tree.
enum class ProdShape : uint8_t {
  AB,  ///< L1 * L2
  CAB, ///< c * (L1 * L2)
  CA_B ///< (c * L1) * L2
};

/// One compiled computation: write access, load accesses, and the postfix
/// tape over them — plus the specialized kernel form if one matched.
struct CompiledStmt {
  std::vector<TapeInstr> Tape;
  std::vector<PlanAccess> Loads;
  PlanAccess Write;
  int32_t OffsetBase = 0; ///< First index into the per-op offset scratch.

  InnerKernel Kernel = InnerKernel::None;
  ProdShape Prod = ProdShape::AB;
  double Coef = 0.0;
  bool CoefLeft = false; ///< Coefficient is the left multiplicand.
  bool HasCoef = false;  ///< ScaledSum: coefficient present at all.
};

/// One op of the flat plan. Loops become LoopBegin/LoopEnd pairs driving a
/// register; computations become Stmt (or fused InnerStmt) ops; BLAS calls
/// keep their resolved argument slots.
struct PlanOp {
  enum class Kind : uint8_t { LoopBegin, LoopEnd, Stmt, InnerStmt, Call };
  Kind K = Kind::Stmt;

  // LoopBegin / LoopEnd / InnerStmt loop control.
  int32_t Reg = -1;
  LinearForm Lower, Upper;
  int64_t Step = 1;
  /// LoopBegin: pc one past the matching LoopEnd (zero-trip skip).
  /// LoopEnd: pc of the first body op (back edge).
  int32_t Jump = -1;

  /// LoopBegin / InnerStmt: fork the iteration range over the thread pool
  /// (the loop carried a trusted `parallel` mark without atomic
  /// reduction).
  bool Parallel = false;
  /// InnerStmt without a specialized kernel: evaluate ExecPlan::BlockLen
  /// iterations per tape dispatch (the access pattern proved it exact).
  bool Blocked = false;
  /// Parallel ops: (slot, element count) of transient buffers each thread
  /// must replace with a private copy of the shared buffer (its contents
  /// are invisible to the loop — legality proves define-before-use — but
  /// carrying them keeps the lastprivate copy-back exact for elements the
  /// loop never writes).
  std::vector<std::pair<int32_t, int64_t>> PrivateSlots;

  // Stmt (exactly one) / InnerStmt (one or more) payload.
  std::vector<CompiledStmt> Stmts;

  // Call payload.
  BlasKind Callee = BlasKind::Gemm;
  std::vector<int32_t> ArgSlots;
  std::vector<int64_t> CallDims;
  double Alpha = 1.0, Beta = 1.0;
};

/// Knobs of ExecPlan::compile.
struct PlanOptions {
  /// Number of chunks a parallel loop's range is split into (and the upper
  /// bound on threads executing them). 1 executes everything serially;
  /// 0 resolves to ThreadPool::defaultThreadCount() (DAISY_THREADS or the
  /// hardware concurrency).
  int NumThreads = 0;
  /// Lower matching single-statement inner loops to specialized kernels.
  /// Off compiles every statement to the generic tape (used by the
  /// differential tests to isolate the two mechanisms); inner loops whose
  /// access pattern allows it are still block-evaluated.
  bool EnableSpecialization = true;
};

/// Digest of everything in \p Options a compiled plan depends on, with
/// NumThreads resolved the way ExecPlan::compile resolves it. Keys the
/// engine's plan cache (api/Engine.h) together with the marks-aware
/// structural hash and the program data digest.
uint64_t planOptionsDigest(const PlanOptions &Options);

/// A non-owning view of one dense double buffer (the element storage of
/// one declared array). The zero-copy execution path addresses
/// caller-owned memory through a table of these, one per DataEnv slot.
struct BufferRef {
  double *Data = nullptr;
  size_t Size = 0; ///< Element count, not bytes.
};

/// Reusable per-run execution scratch: the loop-register file, tape value
/// stack, hoisted-offset scratch, and slot table one executing thread
/// needs. ExecPlan::run allocates this state afresh when none is passed;
/// handing the same context to repeated runs reuses the allocations
/// instead (the per-run cost drops to a few bounds-checked resizes). A
/// context is plan-agnostic — it grows to fit whatever plan it is used
/// with — but must not be shared by concurrently executing runs; pool one
/// context per thread (api/Kernel.h does exactly that).
class ExecContext {
public:
  ExecContext();
  ~ExecContext();
  ExecContext(ExecContext &&Other) noexcept;
  ExecContext &operator=(ExecContext &&Other) noexcept;
  ExecContext(const ExecContext &) = delete;
  ExecContext &operator=(const ExecContext &) = delete;

private:
  friend class ExecPlan;
  friend class PlanExecutor;
  struct State;
  std::unique_ptr<State> St;
};

/// Splits the iteration set {Lo, Lo+Step, ...} ∩ [Lo, Hi) into at most
/// \p MaxChunks contiguous, step-aligned, non-empty half-open ranges of
/// near-equal iteration counts, in iteration order. Empty ranges yield no
/// chunks; ranges with fewer iterations than MaxChunks yield one chunk per
/// iteration. \p Step must be positive.
std::vector<std::pair<int64_t, int64_t>>
chunkLoopRange(int64_t Lo, int64_t Hi, int64_t Step, int MaxChunks);

/// A program compiled to a flat op sequence, executable against any
/// DataEnv allocated for the same program.
class ExecPlan {
public:
  /// Inner iterations a blocked op evaluates per tape dispatch.
  static constexpr int64_t BlockLen = 128;

  /// Compile-time statistics (for tests and the micro benchmark).
  struct Stats {
    size_t Ops = 0;
    size_t Statements = 0;         ///< Stmt ops + InnerStmt sub-statements.
    size_t FastPathStatements = 0; ///< Sub-statements of InnerStmt ops.
    size_t MultiStmtInnerLoops = 0; ///< InnerStmt ops with > 1 statement.
    size_t SpecializedKernels = 0; ///< Statements lowered to InnerKernel.
    size_t BlockedLoops = 0;       ///< InnerStmt ops evaluated per block.
    size_t ParallelLoops = 0;      ///< Ops that fork onto the thread pool.
    size_t PrivatizedBuffers = 0;  ///< Per-thread private buffers (slots).
    int MaxLoopDepth = 0;
  };

  /// Lowers \p Prog. Every parameter referenced by bounds or subscripts
  /// must be bound in the program; asserts otherwise. Parallel marks are
  /// trusted as placed by transform/Parallelize (legality-proven,
  /// dependence-free); loops marked for atomic reduction are compiled
  /// serial.
  static ExecPlan compile(const Program &Prog,
                          const PlanOptions &Options = {});

  /// Executes the plan on \p Env, which must have been allocated from the
  /// same program (slot order is the contract; see DataEnv). Results are
  /// bit-identical for every NumThreads value.
  void run(DataEnv &Env) const;

  /// Like run(Env), but reuses the allocations of \p Ctx for the run's
  /// scratch (register file, tape stack, offset and slot tables).
  void run(DataEnv &Env, ExecContext &Ctx) const;

  /// Zero-copy execution: \p Slots[I] is the storage of
  /// Program::arrays()[I], with Size its exact element count. The caller
  /// owns every buffer; nothing is copied. Sizes are the caller's
  /// contract — the api layer (api/Kernel.h ArgBinding) validates them
  /// against the array declarations before calling; debug builds assert
  /// every access in range.
  void run(const BufferRef *Slots, size_t SlotCount, ExecContext &Ctx) const;

  Stats stats() const;

  /// Resolved thread count this plan forks parallel loops into.
  int threadCount() const { return ThreadCount; }

private:
  /// Shared head of the run overloads: heals a moved-from context
  /// (instead of dereferencing its null state) and returns the state
  /// with an emptied slot table, ready to fill.
  static ExecContext::State &healedState(ExecContext &Ctx);

  std::vector<PlanOp> Ops;
  int MaxDepth = 0;
  int ThreadCount = 1;
  size_t MaxStack = 0;
  /// Values per stack slot: BlockLen when some op is blocked, else 1.
  size_t StackLanes = 1;
  size_t MaxLoads = 0; ///< Max total loads of one op (offset scratch).
  size_t MaxSubs = 0;  ///< Max statements of one op (write-offset scratch).

  friend class PlanCompiler;
  friend class PlanExecutor;
};

} // namespace daisy

#endif // DAISY_EXEC_EXECPLAN_H
