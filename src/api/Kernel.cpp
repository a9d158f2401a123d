//===- api/Kernel.cpp -----------------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
// Kernel::bind and the BoundArgs overload of run are defined in
// serve/BoundArgs.cpp, next to the BoundArgs class they return/consume —
// api stays free of upward includes (see api/KernelImpl.h).
//
//===----------------------------------------------------------------------===//

#include "api/Kernel.h"

#include "api/KernelImpl.h"

#include <cassert>
#include <stdexcept>

using namespace daisy;

Kernel Kernel::compile(const Program &Prog, const PlanOptions &Options) {
  return Kernel(std::make_shared<const KernelImpl>(Prog, Options));
}

Kernel Kernel::treeWalk(const Program &Prog) {
  return Kernel(std::make_shared<const KernelImpl>(KernelImpl::Mode::TreeWalk,
                                                   Prog));
}

bool Kernel::isTreeWalk() const {
  return Impl && Impl->RunMode == KernelImpl::Mode::TreeWalk;
}

bool Kernel::isExhausted() const {
  return Impl && Impl->RunMode == KernelImpl::Mode::Exhausted;
}

size_t Kernel::memoryBytes() const {
  assert(Impl && "empty kernel handle");
  return Impl->memoryFootprint();
}

const Program &Kernel::program() const {
  assert(Impl && "empty kernel handle");
  return Impl->Prog;
}

const ExecPlan &Kernel::plan() const {
  assert(Impl && "empty kernel handle");
  if (!Impl->Plan)
    throw std::logic_error("Kernel::plan: a tree-walk or resource-exhausted "
                           "kernel has no compiled plan");
  return *Impl->Plan;
}

size_t Kernel::contextPoolSize() const {
  assert(Impl && "empty kernel handle");
  return Impl->poolSize();
}

RunStatus Kernel::run(const ArgBinding &Args) const {
  assert(Impl && "empty kernel handle");
  // Validate before touching any state, then execute on the resolved
  // slot table (transient slots stay null and become pooled scratch).
  std::vector<BufferRef> Slots;
  if (std::string Error = resolveBinding(Impl->Prog, Args, Slots);
      !Error.empty())
    return {std::move(Error)};
  // Status-returning runs go through the self-protection layer: the
  // exhausted-kernel check, the "kernel.run" fault site, and — for
  // Engine-compiled kernels — the circuit breaker with tree-walk healing
  // (api/KernelImpl.h).
  return runGuardedSlots(*Impl, Slots.data());
}

void Kernel::run(DataEnv &Env) const {
  assert(Impl && "empty kernel handle");
  if (Impl->RunMode == KernelImpl::Mode::Exhausted)
    throw std::runtime_error(RunStatus::resourceExhausted().Error);
  assert(Env.slotCount() == Impl->Prog.arrays().size() &&
         "environment was not allocated for this kernel's program");
  // Every slot is bound, so the dispatch uses the environment's transient
  // buffers as they are instead of zeroed scratch.
  std::vector<BufferRef> Slots(Env.slotCount());
  for (size_t S = 0; S < Slots.size(); ++S)
    Slots[S] = {Env.bufferAt(S).data(), Env.bufferAt(S).size()};
  runPreparedSlots(*Impl, Slots.data());
}

DataEnv Kernel::run(uint64_t Seed) const {
  assert(Impl && "empty kernel handle");
  DataEnv Env(Impl->Prog);
  Env.initDeterministic(Seed);
  run(Env);
  return Env;
}
