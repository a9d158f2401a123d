//===- api/Facade.cpp - Engine-routed exec convenience wrappers -----------==//
//
// Part of the daisy project. MIT license.
//
// The exec-layer convenience entry points (declared in exec/Interpreter.h)
// are defined to route through the process-wide engine's plan cache, so
// they belong to the api layer: defining them here keeps exec/ free of
// facade includes and the library's include graph strictly layered
// (serve -> api -> exec). interpretTreeWalk — the semantics definition
// with no engine involvement — stays in exec/Interpreter.cpp.
//
//===----------------------------------------------------------------------===//

#include "api/Engine.h"
#include "exec/ExecPlan.h"
#include "exec/Interpreter.h"

using namespace daisy;

void daisy::interpret(const Program &Prog, DataEnv &Env) {
  Engine::shared().compile(Prog).run(Env);
}

DataEnv daisy::runProgram(const Program &Prog, uint64_t Seed) {
  return Engine::shared().compile(Prog).run(Seed);
}

bool daisy::semanticallyEquivalent(const Program &A, const Program &B,
                                   double Eps, uint64_t Seed) {
  // The reference \p A is the program with a future (searches compare
  // many candidates against one original), so it goes through the shared
  // engine; the candidate \p B is typically checked exactly once —
  // caching it would evict kernels worth keeping, and wrapping it in a
  // Kernel would pay a needless whole-program clone, so it compiles and
  // runs directly.
  DataEnv EnvA = Engine::shared().compile(A).run(Seed);
  DataEnv EnvB(B);
  EnvB.initDeterministic(Seed);
  ExecPlan::compile(B).run(EnvB);
  return DataEnv::maxAbsDifference(EnvA, EnvB, A) <= Eps;
}
