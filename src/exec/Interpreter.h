//===- exec/Interpreter.h - Reference interpreter -----------------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tree-walking interpreter defining the semantics of the loop-nest IR.
/// It is the ground truth for every transformation test: a transformation
/// is correct iff interpreting the transformed program produces the same
/// observable arrays as the original.
///
/// Layering note: everything here except interpretTreeWalk routes through
/// the process-wide engine's plan cache and is therefore *defined* in
/// api/Facade.cpp — the declarations stay in this header (they are
/// contracts over Program/DataEnv only), but exec/ sources never include
/// the facade.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_EXEC_INTERPRETER_H
#define DAISY_EXEC_INTERPRETER_H

#include "exec/DataEnv.h"
#include "ir/Program.h"

namespace daisy {

/// Executes \p Prog on \p Env; Call nodes run the reference BLAS kernels.
/// Dispatches to the compiled execution plan (exec/ExecPlan.h) through
/// the process-wide engine (api/Engine.h), so repeated calls on
/// structurally identical programs compile once and hit the plan cache.
/// Default options apply: `parallel` marks execute on the thread pool
/// when DAISY_THREADS (or the hardware concurrency) exceeds 1, with
/// results bit-identical to serial execution; vector marks do not change
/// semantics. Use Engine::compile / Kernel::run directly to pin
/// PlanOptions or to run on caller-owned buffers.
void interpret(const Program &Prog, DataEnv &Env);

/// Executes \p Prog with the original tree-walking evaluator. This is the
/// executable semantics definition the compiled plan is differentially
/// tested against; it is much slower than interpret().
void interpretTreeWalk(const Program &Prog, DataEnv &Env);

/// Convenience: allocates an environment, initializes it deterministically
/// with \p Seed, runs the program, and returns the environment.
DataEnv runProgram(const Program &Prog, uint64_t Seed = 1);

/// True if \p A and \p B compute the same observable arrays on a
/// deterministic input (tolerance \p Eps, seed \p Seed). Both programs
/// must declare the same non-transient arrays.
bool semanticallyEquivalent(const Program &A, const Program &B,
                            double Eps = 1e-9, uint64_t Seed = 1);

} // namespace daisy

#endif // DAISY_EXEC_INTERPRETER_H
