//===- api/Kernel.h - Compiled, reusable kernel handle -----------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The run-many half of the public facade (api/Engine.h is the
/// compile-once half).
///
/// A Kernel is an immutable compiled program: a snapshot of the Program it
/// was compiled from plus its ExecPlan, behind a shared handle. Handles
/// are cheap to copy and safe to share across threads; the engine's plan
/// cache hands out handles to the same underlying kernel for structurally
/// identical programs.
///
/// Every run borrows a per-run execution context from a pool owned by the
/// kernel: the register file, tape stack, offset scratch, and
/// kernel-managed transient storage survive from run to run instead of
/// being reallocated. The pool grows only when a run finds it empty, so
/// it never holds more contexts than the kernel's peak run concurrency.
/// Concurrent Kernel::run calls each borrow their own context, so a single
/// kernel serves any number of threads with results bit-identical to
/// serial execution.
///
/// Four run forms, from fastest to most convenient:
///
/// - run(BoundArgs): one prepared argument set, validated once by bind()
///   — also what the serving runtime's workers dispatch.
/// - run(ArgBinding): zero-copy — the caller owns every observable
///   array's storage and the plan executes directly on it. Bindings are
///   validated against the program's array declarations (unknown names,
///   shape mismatches, missing or duplicate arrays are rejected with a
///   diagnostic instead of UB). Transient arrays introduced by
///   transformations are kernel-managed scratch and must not be bound.
/// - run(DataEnv&): executes on a caller-allocated environment (the
///   classic interpret() contract).
/// - run(Seed): allocates an environment, fills it deterministically, and
///   returns it (the classic runProgram() contract).
///
/// The first two report failures as a RunStatus; the two DataEnv forms
/// have no status and throw instead. Every form executes through the same
/// dispatch, so a tree-walk kernel and a hot-swapped plan behave the same
/// on each of them.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_API_KERNEL_H
#define DAISY_API_KERNEL_H

#include "exec/DataEnv.h"
#include "exec/ExecPlan.h"
#include "ir/Program.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace daisy {

/// Outcome of a validated Kernel::run call (and, through the serving
/// runtime's futures, of every Server::submit). Success is an empty
/// error; failures carry a diagnostic plus a machine-checkable reason so
/// serving clients can branch on backpressure without parsing strings.
struct RunStatus {
  /// Why a run did not succeed. Unscoped on purpose: clients spell it
  /// RunStatus::Overloaded.
  enum Kind : uint8_t {
    Ok,         ///< The run executed.
    BindError,  ///< The argument binding failed validation.
    Overloaded, ///< Rejected by server backpressure (queue full).
    ShutDown,   ///< Rejected because the server is shutting down.
    Expired,    ///< Shed: the request's deadline passed before it ran.
    /// The kernel's run faulted (the compiled plan threw, or the
    /// "kernel.run" fail point injected a fault) and the tree-walk
    /// healing path could not serve the request either. Engine-compiled
    /// kernels normally heal faults transparently (results stay Ok and
    /// bit-identical via the reference interpreter, and the kernel's
    /// circuit breaker quarantines it after repeated faults); this kind
    /// surfaces only when no heal was possible.
    Faulted,
    /// Count sentinel, not a status. Exhaustive switches over Kind pair
    /// with a static_assert on this so a new kind fails to compile until
    /// every handler learns about it.
    NumKinds_
  };

  RunStatus() = default;
  /// Implicit from a diagnostic: `return {"array 'A' is not bound"};`
  /// stays a binding error, the historical meaning of a failed run.
  RunStatus(std::string Error, Kind Why = BindError)
      : Error(std::move(Error)), Why(Why) {}

  static RunStatus overloaded() {
    return {"server overloaded: request queue is full", Overloaded};
  }
  static RunStatus shutDown() {
    return {"server is shutting down", ShutDown};
  }
  static RunStatus expired() {
    return {"request deadline expired before execution", Expired};
  }
  static RunStatus faulted(const std::string &Detail) {
    return {"kernel run faulted: " + Detail, Faulted};
  }

  std::string Error;
  Kind Why = Ok;

  bool ok() const { return Error.empty(); }
  explicit operator bool() const { return ok(); }
};

/// Caller-owned argument set for the zero-copy run path: array name to
/// borrowed buffer. The binding holds no sizes or shapes of its own —
/// validation happens against the kernel's array declarations at run
/// time, so one ArgBinding can be reused across runs (and across kernels
/// declaring the same arrays).
class ArgBinding {
public:
  /// Binds \p Array to \p Size elements at \p Data. The memory must stay
  /// valid for the duration of every run using this binding.
  ArgBinding &bind(const std::string &Array, double *Data, size_t Size) {
    Bindings.push_back({Array, {Data, Size}});
    return *this;
  }

  /// Convenience: binds \p Array to the contents of \p Storage.
  ArgBinding &bind(const std::string &Array, std::vector<double> &Storage) {
    return bind(Array, Storage.data(), Storage.size());
  }

  const std::vector<std::pair<std::string, BufferRef>> &bindings() const {
    return Bindings;
  }

private:
  std::vector<std::pair<std::string, BufferRef>> Bindings;
};

class KernelImpl;
class BoundArgs; // serve/BoundArgs.h: validate-once resolved bindings.

/// Shared handle to an immutable compiled program. Default-constructed
/// handles are empty (boolean-testable); all other members require a
/// non-empty handle.
class Kernel {
public:
  Kernel() = default;

  /// Compiles \p Prog into a self-contained kernel (the program is
  /// snapshotted; later caller-side mutation does not affect the kernel).
  /// Prefer Engine::compile, which memoizes structurally identical
  /// programs in its plan cache.
  static Kernel compile(const Program &Prog, const PlanOptions &Options = {});

  /// Builds a degraded kernel that executes \p Prog through the reference
  /// tree-walking interpreter instead of a compiled ExecPlan. Every run
  /// form works and results are bit-identical to a compiled kernel (the
  /// tree-walker *is* the reference semantics the ExecPlan contract is
  /// measured against) — only slower. This is the graceful-degradation
  /// path Engine::compile falls back to when plan compilation throws; it
  /// cannot itself fail for any program a compile could have accepted.
  static Kernel treeWalk(const Program &Prog);

  /// True for kernels built by treeWalk (directly or via the Engine
  /// compile-fallback path).
  bool isTreeWalk() const;

  /// Always false: every kernel executes. Kept only because the
  /// end-to-end benchmark (perfbench/) compiles against it.
  bool isExhausted() const;

  explicit operator bool() const { return Impl != nullptr; }

  /// The compiled program snapshot (after any scheduling, for kernels
  /// produced by Engine::optimize).
  const Program &program() const;

  /// The compiled execution plan (stats, thread count). Requires a
  /// compiled kernel: throws std::logic_error when isTreeWalk(), which
  /// has no plan.
  const ExecPlan &plan() const;

  /// Zero-copy execution on caller-owned buffers. Validates \p Args
  /// against the program's array declarations: every non-transient array
  /// must be bound exactly once with its exact element count; transient
  /// arrays are kernel-managed scratch (zeroed each run) and must not be
  /// bound. Thread-safe: concurrent runs borrow separate pooled contexts.
  RunStatus run(const ArgBinding &Args) const;

  /// Validates \p Args once and resolves every array name to its buffer
  /// slot, returning a reusable BoundArgs handle (serve/BoundArgs.h).
  /// run(BoundArgs) then skips validation entirely — no string compares
  /// on the hot serving loop. A failed validation yields a non-ok handle
  /// carrying the diagnostic. Defined in serve/BoundArgs.cpp.
  BoundArgs bind(const ArgBinding &Args) const;

  /// Prepared-argument execution: \p Args must have been produced by
  /// bind() on this kernel (a handle bound against a different kernel is
  /// rejected as stale — slot tables do not transfer). Thread-safe like
  /// run(ArgBinding), and bit-identical to it. Defined in
  /// serve/BoundArgs.cpp.
  RunStatus run(const BoundArgs &Args) const;

  /// Executes on \p Env, which must have been allocated for this
  /// kernel's program (DataEnv slot order is the contract). Thread-safe
  /// for distinct environments.
  void run(DataEnv &Env) const;

  /// Deterministic-init convenience: allocates an environment, fills it
  /// from \p Seed, runs, and returns it.
  DataEnv run(uint64_t Seed = 1) const;

  /// Number of idle pooled run contexts (observability; grows to the peak
  /// run concurrency this kernel has seen).
  size_t contextPoolSize() const;

private:
  friend class Engine;
  explicit Kernel(std::shared_ptr<const KernelImpl> Impl)
      : Impl(std::move(Impl)) {}

  std::shared_ptr<const KernelImpl> Impl;
};

} // namespace daisy

#endif // DAISY_API_KERNEL_H
