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

namespace {

RunStatus staleStatus() {
  return {"stale BoundArgs: bound against a different kernel (slot "
          "tables do not transfer; re-bind against this kernel)"};
}

} // namespace

RunStatus Kernel::run(const BoundArgs &Args) const {
  assert(Impl && "empty kernel handle");
  if (!Args.ok())
    return invalidBoundArgsStatus(Args);
  if (Args.Bound.get() != Impl.get())
    return staleStatus();
  // The guarded path refuses an exhausted kernel, owns the "kernel.run"
  // fault site (an armed Delay makes this kernel slow, a Trigger injects
  // a run fault) and the circuit-breaker quarantine of Engine-compiled
  // kernels.
  return runGuardedSlots(*Impl, Args.Slots.data());
}

void RunContextLease::reset() {
  if (Owner && Ctx)
    Owner->release(std::unique_ptr<KernelImpl::RunContext>(
        static_cast<KernelImpl::RunContext *>(Ctx)));
  Owner.reset();
  Ctx = nullptr;
}

void Kernel::runBatch(const BoundArgs *const *Args, RunStatus *Statuses,
                      size_t Count, RunContextLease &Lease) const {
  assert(Impl && "empty kernel handle");
  // Lane affinity: keep the borrowed context across dispatches while the
  // lane stays on one kernel; switch kernels by returning it to its
  // owner's pool and borrowing from the new one. Within a batch the
  // register file, tape stack, slot table, and transient scratch stay
  // warm from request to request (transients are still re-zeroed per
  // request — semantics are exactly Count independent run() calls).
  if (Lease.Owner.get() != Impl.get()) {
    Lease.reset();
    Lease.Owner = Impl;
    Lease.Ctx = Impl->acquire().release();
  }
  auto &Ctx = *static_cast<KernelImpl::RunContext *>(Lease.Ctx);
  for (size_t I = 0; I < Count; ++I) {
    const BoundArgs &A = *Args[I];
    if (!A.ok()) {
      Statuses[I] = invalidBoundArgsStatus(A);
      continue;
    }
    if (A.kernelToken() != Impl.get()) {
      Statuses[I] = staleStatus();
      continue;
    }
    // Same guarded path as single runs: the exhausted check, the
    // "kernel.run" fault site and the breaker apply per request, not per
    // dispatch, so a batch of a slow or poisoned kernel behaves like its
    // requests submitted alone.
    Statuses[I] = runGuardedSlotsOn(*Impl, A.slots().data(), Ctx);
  }
}
