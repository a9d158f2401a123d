//===- api/KernelImpl.h - Kernel internals (library-private) -----*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared state behind Kernel handles, plus the binding-validation and
/// prepared-run helpers the run paths are assembled from. This header is
/// library-private: it is included by api/Kernel.cpp and by
/// serve/BoundArgs.cpp (which defines the Kernel members that return or
/// consume serve-layer BoundArgs, keeping api headers free of upward
/// includes). Embedding systems program against api/Kernel.h only.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_API_KERNELIMPL_H
#define DAISY_API_KERNELIMPL_H

#include "api/Kernel.h"
#include "exec/ExecPlan.h"
#include "exec/Interpreter.h"
#include "support/CircuitBreaker.h"
#include "support/FailPoint.h"
#include "support/Statistics.h"
#include "tune/Profile.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace daisy {

/// One hot-swappable compiled alternative of a kernel, produced by the
/// online tuner (tune/Tuner.h) from a re-scheduled variant of the base
/// program. Immutable once built: the swap point exchanges whole
/// versions, never mutates one.
///
/// SlotMap translates the base kernel's prepared slot table into this
/// version's slot order: entry S is the base slot whose caller buffer
/// backs version array S, or -1 for a version-local transient (scheduling
/// may introduce scratch arrays the base program never declared). An
/// empty map means the layouts match index-for-index. The map is built by
/// the tuner from array *names* exactly once per candidate, which is what
/// keeps existing BoundArgs valid across a swap — their tables address
/// base slots, and the version run path remaps on the fly.
struct PlanVersion {
  PlanVersion(const Program &P, const PlanOptions &Options,
              std::vector<int32_t> Map, uint32_t Id)
      : Prog(P.clone()), Plan(ExecPlan::compile(Prog, Options)),
        SlotMap(std::move(Map)), Id(Id) {}

  const Program Prog;
  const ExecPlan Plan;
  const std::vector<int32_t> SlotMap;
  const uint32_t Id; ///< Profile-sample tag (base plan = 0).
};

/// The shared state behind Kernel handles: the program snapshot, its
/// compiled plan, and a pool of reusable per-run contexts. The program
/// and plan are immutable after construction; the pool is mutex-guarded.
///
/// How a kernel executes is fixed at construction:
///
/// - Compiled (Plan non-null): through its ExecPlan (or a hot-swapped
///   PlanVersion). Kernel::compile and a successful Engine compile build
///   these.
/// - Tree-walk (Plan null): through the reference tree-walking
///   interpreter, staging the caller's buffers into a pooled DataEnv.
///   Kernel::treeWalk and the Engine's compile fallback
///   (Engine::buildKernel) build these. Results are bit-identical to a
///   compiled kernel by construction — the tree-walker *is* the semantics
///   the ExecPlan contract is differentially tested against.
///
/// Every run form reaches runPreparedSlotsOn, the one place that turns
/// the kernel into an engine.
class KernelImpl {
public:
  /// A compiled kernel: compiles \p P under \p Options.
  KernelImpl(const Program &P, const PlanOptions &Options)
      : Prog(P.clone()), Plan(std::make_unique<const ExecPlan>(
                             ExecPlan::compile(Prog, Options))) {}

  /// A tree-walk kernel: no plan.
  explicit KernelImpl(const Program &P) : Prog(P.clone()) {}

  /// Engine-only, called before the impl is shared: this kernel's
  /// routing-key circuit breaker (shared across recompiles of the same
  /// key, so quarantine state survives plan-cache eviction). Kernels
  /// without a breaker — raw Kernel::compile/treeWalk — surface run
  /// faults as RunStatus::Faulted instead of healing.
  void attachBreaker(std::shared_ptr<CircuitBreaker> B) {
    RunBreaker = std::move(B);
  }
  CircuitBreaker *breaker() const { return RunBreaker.get(); }

  /// Engine-only, called before the impl is shared: the measurement ring
  /// the online tuner reads (tune/Profile.h). Kernels without a profile
  /// — raw Kernel::compile/treeWalk, or tuning disabled — pay nothing on
  /// the run path.
  void attachProfile(std::shared_ptr<KernelProfile> P) {
    Profile = std::move(P);
  }
  const KernelProfile *profile() const { return Profile.get(); }

  /// One run's worth of reusable state: the exec-layer scratch, the slot
  /// table of the zero-copy path, kernel-managed transient storage (per
  /// slot; empty vectors for caller-bound slots), and — tree-walk runs
  /// only — a pooled interpreter environment so degraded runs reuse
  /// buffers instead of reallocating a DataEnv per request.
  struct RunContext {
    ExecContext Exec;
    std::vector<BufferRef> Slots;
    std::vector<std::vector<double>> Transients;
    std::unique_ptr<DataEnv> WalkEnv;
    /// Hot-swap cache: the plan version this context last resolved, and
    /// the swap epoch it was resolved at. Steady state (no swap since)
    /// pays one relaxed atomic epoch load per run instead of a
    /// shared_ptr atomic_load; the pinned shared_ptr keeps the version
    /// alive through the run even when the tuner swaps mid-flight.
    std::shared_ptr<const PlanVersion> Version;
    uint64_t VersionEpoch = ~0ull;
  };

  std::unique_ptr<RunContext> acquire() const {
    std::lock_guard<std::mutex> Lock(PoolMutex);
    if (!Pool.empty()) {
      std::unique_ptr<RunContext> Ctx = std::move(Pool.back());
      Pool.pop_back();
      return Ctx;
    }
    return std::make_unique<RunContext>();
  }

  void release(std::unique_ptr<RunContext> Ctx) const {
    std::lock_guard<std::mutex> Lock(PoolMutex);
    Pool.push_back(std::move(Ctx));
  }

  size_t poolSize() const {
    std::lock_guard<std::mutex> Lock(PoolMutex);
    return Pool.size();
  }

  //===--------------------------------------------------------------------===//
  // Versioned plan hot-swap (the online tuner's swap point)
  //
  // CurrentV is the atomically swappable alternative to the base Plan:
  // null means "run the base plan" (the only state kernels outside a
  // tuning engine ever see — they pay one relaxed epoch load per run and
  // nothing else). The tuner installs a candidate as a *probe* (the prior
  // version is retained for rollback), then either promotes it (prior
  // dropped) or rolls back (prior restored) based on measured samples.
  // Writers serialize on SwapMutex; readers resolve through
  // resolveVersion() with no lock: the epoch counter is bumped after
  // every pointer store, so a context re-resolves at most one run late,
  // and every version it can observe is complete, immutable, and
  // bit-identity-gated — a stale read is a correct run on the plan that
  // was current a moment ago.
  //===--------------------------------------------------------------------===//

  /// The version \p Ctx should execute (null = base plan). Pins the
  /// returned version in the context across the run.
  const PlanVersion *resolveVersion(RunContext &Ctx) const {
    uint64_t E = SwapEpoch.load(std::memory_order_acquire);
    if (E != Ctx.VersionEpoch) {
      Ctx.Version = std::atomic_load_explicit(&CurrentV,
                                              std::memory_order_acquire);
      Ctx.VersionEpoch = E;
    }
    return Ctx.Version.get();
  }

  /// Current version snapshot (tuner / observability; run paths use
  /// resolveVersion).
  std::shared_ptr<const PlanVersion> currentVersion() const {
    return std::atomic_load_explicit(&CurrentV, std::memory_order_acquire);
  }
  uint32_t currentVersionId() const {
    std::shared_ptr<const PlanVersion> V = currentVersion();
    return V ? V->Id : 0;
  }

  /// Claims a fresh, kernel-unique version id (never 0, the base plan).
  uint32_t claimVersionId() const {
    return VersionIds.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Installs \p V as the running plan, retaining the previous version
  /// (possibly the base plan) for rollback. Fails when a probe is
  /// already in flight. On success every subsequent run executes \p V.
  bool installProbe(std::shared_ptr<const PlanVersion> V) const {
    std::lock_guard<std::mutex> Lock(SwapMutex);
    if (ProbeActive || !V)
      return false;
    PriorV = std::atomic_load_explicit(&CurrentV, std::memory_order_relaxed);
    std::atomic_store_explicit(&CurrentV, std::move(V),
                               std::memory_order_release);
    ProbeActive = true;
    SwapEpoch.fetch_add(1, std::memory_order_release);
    return true;
  }

  /// Commits the in-flight probe: the candidate stays current and the
  /// rollback target is dropped.
  bool promoteProbe() const {
    std::lock_guard<std::mutex> Lock(SwapMutex);
    if (!ProbeActive)
      return false;
    PriorV.reset();
    ProbeActive = false;
    return true;
  }

  /// Reverts the in-flight probe: the prior version (or the base plan)
  /// becomes current again.
  bool rollbackProbe() const {
    std::lock_guard<std::mutex> Lock(SwapMutex);
    if (!ProbeActive)
      return false;
    std::atomic_store_explicit(&CurrentV, PriorV, std::memory_order_release);
    PriorV.reset();
    ProbeActive = false;
    SwapEpoch.fetch_add(1, std::memory_order_release);
    return true;
  }

  /// True while a probe awaits its promote-or-rollback decision.
  bool probeInFlight() const {
    std::lock_guard<std::mutex> Lock(SwapMutex);
    return ProbeActive;
  }

  const Program Prog;
  const std::unique_ptr<const ExecPlan> Plan; ///< Null for a tree-walk kernel.

private:
  /// Quarantine state (null when the owning Engine disabled it, or for
  /// kernels built outside an Engine). Written once by attachBreaker
  /// before the impl is shared.
  std::shared_ptr<CircuitBreaker> RunBreaker;

  /// Measurement ring (null when the owning Engine has no online tuner).
  /// Written once by attachProfile before the impl is shared.
  std::shared_ptr<KernelProfile> Profile;

  /// Hot-swap state. CurrentV/PriorV accessed through the shared_ptr
  /// atomic free functions; the rest under SwapMutex (writers only — the
  /// run path never takes it).
  mutable std::mutex SwapMutex;
  mutable std::shared_ptr<const PlanVersion> CurrentV;
  mutable std::shared_ptr<const PlanVersion> PriorV;
  mutable bool ProbeActive = false;
  mutable std::atomic<uint64_t> SwapEpoch{0};
  mutable std::atomic<uint32_t> VersionIds{0};

  mutable std::mutex PoolMutex;
  mutable std::vector<std::unique_ptr<RunContext>> Pool;
};

/// Returns a borrowed context to the pool when the run ends, whichever
/// way it ends.
class PooledContext {
public:
  explicit PooledContext(const KernelImpl &Impl)
      : Impl(Impl), Ctx(Impl.acquire()) {}
  ~PooledContext() { Impl.release(std::move(Ctx)); }
  PooledContext(const PooledContext &) = delete;
  PooledContext &operator=(const PooledContext &) = delete;

  KernelImpl::RunContext &operator*() { return *Ctx; }
  KernelImpl::RunContext *operator->() { return Ctx.get(); }

private:
  const KernelImpl &Impl;
  std::unique_ptr<KernelImpl::RunContext> Ctx;
};

/// Element count a binding for \p Decl must provide (degenerate shapes
/// still occupy one element, matching DataEnv allocation).
inline size_t boundElementCount(const ArrayDecl &Decl) {
  return static_cast<size_t>(std::max<int64_t>(Decl.elementCount(), 1));
}

/// Resolves \p Args against \p Prog's array declarations into a full slot
/// table: every binding must name a declared, non-transient array with its
/// exact element count, every non-transient array must end up bound
/// exactly once to storage no other array's binding overlaps, and
/// transient slots are left null (kernel-managed scratch, filled per
/// run). Returns an empty string on success, the diagnostic otherwise
/// (\p Slots is then unspecified). This is the one place binding names
/// are string-compared: Kernel::run(ArgBinding) pays it per run,
/// Kernel::bind exactly once per BoundArgs.
inline std::string resolveBinding(const Program &Prog, const ArgBinding &Args,
                                  std::vector<BufferRef> &Slots) {
  const std::vector<ArrayDecl> &Arrays = Prog.arrays();
  Slots.assign(Arrays.size(), BufferRef{});
  std::vector<char> Bound(Arrays.size(), 0);
  for (const auto &[Name, Ref] : Args.bindings()) {
    size_t Slot = Arrays.size();
    for (size_t S = 0; S < Arrays.size(); ++S)
      if (Arrays[S].Name == Name) {
        Slot = S;
        break;
      }
    if (Slot == Arrays.size())
      return "unknown array '" + Name + "'";
    const ArrayDecl &Decl = Arrays[Slot];
    if (Decl.Transient)
      return "array '" + Name +
             "' is transient (kernel-managed scratch) and cannot be bound";
    if (Bound[Slot])
      return "array '" + Name + "' is bound twice";
    if (!Ref.Data)
      return "array '" + Name + "' is bound to null storage";
    size_t Expected = boundElementCount(Decl);
    if (Ref.Size != Expected)
      return "array '" + Name + "' shape mismatch: bound " +
             std::to_string(Ref.Size) + " elements, declared " +
             std::to_string(Expected);
    Slots[Slot] = Ref;
    Bound[Slot] = 1;
  }
  for (size_t S = 0; S < Arrays.size(); ++S)
    if (!Arrays[S].Transient && !Bound[S])
      return "array '" + Arrays[S].Name + "' is not bound";
  // Every engine treats distinct arrays as distinct storage (DataEnv and
  // the tree-walk staging give each its own buffer; the plan orders
  // accesses per array), so overlapping bindings would make the result
  // depend on the engine. Sorted by start, any overlap shows between
  // neighbours.
  std::vector<size_t> ByStart;
  for (size_t S = 0; S < Slots.size(); ++S)
    if (Slots[S].Data)
      ByStart.push_back(S);
  std::less<const double *> Before;
  std::sort(ByStart.begin(), ByStart.end(), [&](size_t X, size_t Y) {
    return Before(Slots[X].Data, Slots[Y].Data);
  });
  for (size_t K = 1; K < ByStart.size(); ++K) {
    const BufferRef &Prev = Slots[ByStart[K - 1]];
    if (Before(Slots[ByStart[K]].Data, Prev.Data + Prev.Size))
      return "arrays '" + Arrays[ByStart[K - 1]].Name + "' and '" +
             Arrays[ByStart[K]].Name + "' are bound to overlapping storage";
  }
  return {};
}

/// Degraded (tree-walk) prepared run: stages the caller's buffers into a
/// pooled interpreter environment, evaluates the program tree, and copies
/// the observable results back out. Two memcpys per observable array
/// around an interpretation that costs orders of magnitude more — the
/// copies are noise, and the caller-owned-storage contract of the
/// prepared path is preserved exactly.
inline void runTreeWalkSlotsOn(const KernelImpl &Impl, const BufferRef *Slots,
                               KernelImpl::RunContext &Ctx) {
  const std::vector<ArrayDecl> &Arrays = Impl.Prog.arrays();
  if (!Ctx.WalkEnv)
    Ctx.WalkEnv = std::make_unique<DataEnv>(Impl.Prog);
  DataEnv &Env = *Ctx.WalkEnv;
  assert(Env.slotCount() == Arrays.size() && "pooled env from another program");
  for (size_t S = 0; S < Arrays.size(); ++S) {
    std::vector<double> &Buf = Env.bufferAt(S);
    if (Slots[S].Data) {
      assert(Buf.size() == Slots[S].Size && "slot size drifted from decl");
      std::memcpy(Buf.data(), Slots[S].Data, Buf.size() * sizeof(double));
      continue;
    }
    assert(Arrays[S].Transient && "null slot for a caller-bound array");
    std::fill(Buf.begin(), Buf.end(), 0.0);
  }
  interpretTreeWalk(Impl.Prog, Env);
  for (size_t S = 0; S < Arrays.size(); ++S)
    if (Slots[S].Data) {
      const std::vector<double> &Buf = Env.bufferAt(S);
      std::memcpy(Slots[S].Data, Buf.data(), Buf.size() * sizeof(double));
    }
}

/// The one run dispatch: executes \p Impl on a slot table (as produced by
/// resolveBinding, or a DataEnv's buffers) reusing \p Ctx's allocations.
/// A TreeWalk kernel takes the interpreter route (same observable
/// results, bit for bit); a Plan kernel runs its resolved hot-swap
/// version, or else the base plan through the identity slot map.
/// Caller-bound slots are used as-is; null slots and version-local slots
/// (SlotMap -1) must be transient and get kernel-managed scratch zeroed
/// each run, so semantics match a freshly allocated DataEnv.
inline void runPreparedSlotsOn(const KernelImpl &Impl, const BufferRef *Slots,
                               KernelImpl::RunContext &Ctx) {
  if (!Impl.Plan)
    return runTreeWalkSlotsOn(Impl, Slots, Ctx);
  const PlanVersion *V = Impl.resolveVersion(Ctx);
  const std::vector<ArrayDecl> &Arrays = (V ? V->Prog : Impl.Prog).arrays();
  const std::vector<int32_t> *Map =
      V && !V->SlotMap.empty() ? &V->SlotMap : nullptr;
  Ctx.Slots.resize(Arrays.size());
  if (Ctx.Transients.size() < Arrays.size())
    Ctx.Transients.resize(Arrays.size());
  for (size_t S = 0; S < Arrays.size(); ++S) {
    int32_t Base = Map ? (*Map)[S] : static_cast<int32_t>(S);
    if (Base >= 0 && Slots[Base].Data) {
      Ctx.Slots[S] = Slots[Base];
      continue;
    }
    assert(Arrays[S].Transient && "unbound slot for a caller-bound array");
    std::vector<double> &Buf = Ctx.Transients[S];
    Buf.assign(boundElementCount(Arrays[S]), 0.0);
    Ctx.Slots[S] = {Buf.data(), Buf.size()};
  }
  (V ? V->Plan : *Impl.Plan).run(Ctx.Slots.data(), Ctx.Slots.size(), Ctx.Exec);
}

/// runPreparedSlotsOn plus the tuner's measurement tap: when a profile is
/// attached and the 1-in-SampleEvery gate fires, the run is timed and the
/// (version, nanoseconds) sample recorded into the lock-free ring. The
/// sampled version id is read from the context's pinned resolve, so a
/// concurrent swap cannot mislabel the sample. Only compiled kernels
/// carry a profile (Engine::buildKernel).
inline void runProfiledSlotsOn(const KernelImpl &Impl, const BufferRef *Slots,
                               KernelImpl::RunContext &Ctx) {
  const KernelProfile *Prof = Impl.profile();
  if (!Prof || !Prof->shouldSample())
    return runPreparedSlotsOn(Impl, Slots, Ctx);
  auto T0 = std::chrono::steady_clock::now();
  runPreparedSlotsOn(Impl, Slots, Ctx);
  auto T1 = std::chrono::steady_clock::now();
  uint64_t Nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0).count());
  Prof->record(Ctx.Version ? Ctx.Version->Id : 0, Nanos);
}

/// Single-run convenience: borrows a pooled context for one prepared run.
/// Thread-safe for concurrent calls.
inline void runPreparedSlots(const KernelImpl &Impl, const BufferRef *Slots) {
  PooledContext Ctx(Impl);
  runPreparedSlotsOn(Impl, Slots, *Ctx);
}

/// One prepared run on a pooled context, through the self-protection
/// layer — what both status-returning run forms (run(ArgBinding),
/// run(BoundArgs)) dispatch through, after their binding checks:
///
/// - Fault site "kernel.run": a firing Trigger injects a run fault (the
///   plan "crashed"); Delay keeps its slow-kernel meaning.
/// - A fault on a breakered kernel (Engine-compiled) is recorded against
///   the kernel's circuit breaker ("Engine.RunFaults") and the request is
///   healed on the tree-walk reference path — the caller sees Ok with
///   bit-identical results. After EngineOptions::Quarantine's threshold
///   of faults the breaker opens and requests reroute straight to the
///   tree-walker without touching the plan ("Engine.QuarantineReroutes")
///   until a half-open probe succeeds.
/// - Fault site "engine.quarantine": a firing Trigger forces the breaker
///   open, driving quarantine deterministically without real faults.
/// - Without a breaker, a fault surfaces as RunStatus::Faulted.
///
/// Healing assumes the faulting attempt did not mutate caller buffers,
/// which holds for every fault this layer can see today: the injected
/// site fires before dispatch, and plan-side throws happen during setup,
/// not mid-kernel.
inline RunStatus runGuardedSlots(const KernelImpl &Impl,
                                 const BufferRef *Slots) {
  PooledContext Ctx(Impl);
  CircuitBreaker *Breaker = Impl.breaker();
  CircuitBreaker::Gate G = CircuitBreaker::Gate::Allow;
  if (Breaker) {
    bool ForceOpen;
    try {
      ForceOpen = DAISY_FAILPOINT("engine.quarantine");
    } catch (...) {
      ForceOpen = true; // An armed Throw here is a force too.
    }
    G = Breaker->admit(ForceOpen);
    if (G == CircuitBreaker::Gate::Reroute) {
      addStatsCounter("Engine.QuarantineReroutes");
      try {
        runTreeWalkSlotsOn(Impl, Slots, *Ctx);
        return {};
      } catch (const std::exception &E) {
        return RunStatus::faulted(E.what());
      }
    }
  }
  try {
    if (DAISY_FAILPOINT("kernel.run"))
      throw std::runtime_error("injected fault at fail point 'kernel.run'");
    runProfiledSlotsOn(Impl, Slots, *Ctx);
    if (Breaker)
      Breaker->recordSuccess(G);
    return {};
  } catch (const std::exception &E) {
    if (!Breaker)
      return RunStatus::faulted(E.what());
    Breaker->recordFailure(G);
    addStatsCounter("Engine.RunFaults");
    try {
      runTreeWalkSlotsOn(Impl, Slots, *Ctx);
      addStatsCounter("Engine.FaultHeals");
      return {};
    } catch (...) {
      return RunStatus::faulted(E.what());
    }
  }
}

} // namespace daisy

#endif // DAISY_API_KERNELIMPL_H
