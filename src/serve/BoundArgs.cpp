//===- serve/BoundArgs.cpp ------------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
// Defines the Kernel members that produce/consume BoundArgs. They are
// declared in api/Kernel.h (the natural call-site surface) but defined
// here so the api layer never includes serve headers; this file sees both
// sides through the library-private api/KernelImpl.h.
//
//===----------------------------------------------------------------------===//

#include "serve/BoundArgs.h"

#include "api/KernelImpl.h"

#include <cassert>
#include <utility>

using namespace daisy;

BoundArgs Kernel::bind(const ArgBinding &Args) const {
  assert(Impl && "empty kernel handle");
  BoundArgs Result;
  std::string Error = resolveBinding(Impl->Prog, Args, Result.Slots);
  if (!Error.empty()) {
    Result.Slots.clear();
    Result.Error = std::move(Error);
    return Result;
  }
  Result.Bound = Impl;
  return Result;
}

RunStatus Kernel::run(const BoundArgs &Args) const {
  assert(Impl && "empty kernel handle");
  if (!Args.ok())
    return invalidBoundArgsStatus(Args);
  if (Args.Bound != Impl)
    return {"stale BoundArgs: bound against a different kernel (slot "
            "tables do not transfer; re-bind against this kernel)"};
  // The guarded path refuses an exhausted kernel, owns the "kernel.run"
  // fault site (an armed Delay makes this kernel slow, a Trigger injects
  // a run fault) and the circuit-breaker quarantine of Engine-compiled
  // kernels.
  return runGuardedSlots(*Impl, Args.Slots.data());
}
