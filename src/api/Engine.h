//===- api/Engine.h - Compile-once service facade ----------------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-once half of the public facade (api/Kernel.h is the
/// run-many half).
///
/// An Engine is the long-lived service object a daisy-embedding system
/// creates once and serves traffic from: it owns
///
/// - a plan cache mapping structurally identical programs (marks-aware
///   structural hash + program data digest + resolved plan options) to
///   one shared compiled Kernel, with LRU eviction at a configurable
///   capacity and hit/miss/compile counters in support/Statistics
///   ("Engine.PlanCacheHits" / "Engine.PlanCacheMisses" /
///   "Engine.PlanCompiles");
/// - a TransferTuningDatabase, optionally persisted to one checkpoint
///   lineage (EngineOptions::DatabasePath);
/// - the search Evaluator — one simulation cache and one batch-thread
///   configuration for every optimize/seedDatabase call this engine runs,
///   so tuning state accumulates across programs the way the paper's
///   database seeding expects.
///
/// Engine::optimize chains the paper's whole pipeline — a priori
/// normalization, BLAS idiom replacement, transfer tuning from the
/// database — and compiles the scheduled program in one call. All entry
/// points are thread-safe; the free functions interpret() / runProgram()
/// / semanticallyEquivalent() route through a process-wide
/// Engine::shared() so repeated executions of the same program compile
/// once.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_API_ENGINE_H
#define DAISY_API_ENGINE_H

#include "api/Kernel.h"
#include "machine/Simulator.h"
#include "sched/Evaluator.h"
#include "sched/Schedulers.h"
#include "support/CircuitBreaker.h"
#include "support/MemoryBudget.h"
#include "tune/Tuner.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

namespace daisy {

/// Construction-time configuration of an Engine (options-struct + handle
/// style: everything an engine holds fixed for its lifetime).
struct EngineOptions {
  /// Default compile options of compile(Prog) and optimize().
  PlanOptions Plan;
  /// Machine model the engine's Evaluator scores candidates on.
  SimOptions Sim;
  /// Concurrency and memoization of the engine's Evaluator.
  EvalConfig Eval;
  /// Plan-cache capacity in entries; least-recently-used kernels are
  /// evicted beyond it. 0 disables caching (every compile() compiles).
  size_t PlanCacheCapacity = 1024;
  /// Graceful degradation: when plan compilation throws, compile()
  /// returns a tree-walk-interpreting Kernel (bit-identical results,
  /// interpreter speed) instead of propagating the exception into the
  /// caller — typically the serving loop, where a throw would fail every
  /// request routed to the program. Each fallback bumps the
  /// "Engine.CompileFallbacks" counter, and the failed key is not cached,
  /// so the next compile of the same program retries a real compile.
  /// Set false to get the exception (differential tests want it).
  bool FallbackOnCompileError = true;
  /// Byte budget of engine-retained memory: plan-cache entries (program
  /// snapshot + compiled plan, including tree-walk fallbacks) and pooled
  /// per-run contexts. 0 = unlimited. Under pressure the plan cache
  /// evicts LRU entries ("Engine.BudgetEvictions") and the context pools
  /// drop contexts instead of retaining them ("Engine.ContextsDropped");
  /// a kernel that cannot fit even after eviction is returned as a
  /// resource-exhausted kernel whose runs complete with
  /// RunStatus::ResourceExhausted instead of executing (surfaced, never
  /// thrown; "Engine.ResourceExhausted"). Every charge goes through
  /// MemoryBudget::tryCharge, so the accounted total never exceeds this
  /// bound at any instant.
  size_t MemoryBudgetBytes = 0;
  /// Durable tuning-database state (empty = in-memory only). When set,
  /// construction loads the newest valid checkpoint at this path —
  /// support/Persist validates magic, version, and a CRC32 of the
  /// payload, and falls back to `<path>.prev` when the current file is
  /// torn or corrupted ("Engine.RecoveredEntries" /
  /// "Engine.CorruptCheckpoints") — and checkpointNow() / the background
  /// lane / destruction persist the entries back atomically
  /// ("Engine.Checkpoints" / "Engine.CheckpointBytes").
  std::string DatabasePath;
  /// Background checkpoint cadence (0 = only explicit checkpointNow()
  /// calls and the final checkpoint at destruction). Serialization runs
  /// on an O(1) copy-on-write snapshot, so the lane never blocks tuning
  /// or serving; unchanged snapshots are skipped.
  std::chrono::microseconds CheckpointInterval{0};
  /// Poison-kernel quarantine: every Engine-compiled kernel shares a
  /// per-routing-key circuit breaker (support/CircuitBreaker.h). A run
  /// fault is healed transparently on the tree-walk reference path
  /// (bit-identical results, "Engine.RunFaults"); FailureThreshold
  /// faults within Window open the breaker ("Engine.Quarantined") and
  /// reroute the kernel's runs to the tree-walker without touching the
  /// plan until a half-open probe ("Engine.QuarantineProbes") succeeds
  /// after Cooldown. FailureThreshold = 0 disables quarantine (runs
  /// then surface faults as RunStatus::Faulted).
  CircuitBreaker::Options Quarantine;
  /// Online adaptive tuning (tune/Tuner.h): when Enable is set, every
  /// Engine-compiled kernel carries a runtime profile sampling measured
  /// runtimes from live traffic, and a background lane (Interval > 0; or
  /// explicit OnlineTuner::runCycle calls) calibrates the simulator
  /// against the measurements, re-runs the scheduling pipeline on the
  /// hottest kernels, and hot-swaps in candidates that are bit-identical
  /// AND measurably faster — with automatic rollback when the measured
  /// probe regresses. Off by default: compiled kernels then pay nothing.
  OnlineTuningOptions OnlineTuning;
};

/// Per-call knobs of the tuning entry points.
struct TuneOptions {
  /// Normalization / idiom / transfer configuration of the daisy
  /// scheduler.
  DaisyOptions Daisy;
  /// Search budget of seedDatabase's evolutionary runs.
  SearchBudget Budget;
  /// Base seed of seedDatabase's random streams. The effective stream is
  /// derived per program from (SearchSeed, structuralHash(program)), so
  /// the *random draws* of a program's search never depend on what was
  /// seeded before it. (With Budget.Epochs > 1 the search additionally
  /// re-seeds its population from the most similar database entries —
  /// the paper's design — so results still reflect seeding order through
  /// that deliberate channel.)
  uint64_t SearchSeed = 0xDA15Eull;
};

/// The service facade. Thread-safe; create one per machine configuration
/// and share it.
class Engine {
public:
  /// An engine with default options. Defined out of line, so a plain
  /// `Engine Eng;` does not build an EngineOptions temporary at every
  /// call site.
  Engine();
  explicit Engine(EngineOptions Options);
  ~Engine();
  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Compiles \p Prog with the engine's default plan options, reusing the
  /// cached kernel when a structurally identical program (same marks,
  /// arrays, parameter values) was compiled with the same options before.
  Kernel compile(const Program &Prog);

  /// Compiles with explicit plan options (cached under those options).
  Kernel compile(const Program &Prog, const PlanOptions &Options);

  /// The paper's pipeline without execution: normalize, replace BLAS
  /// idioms, transfer-tune from the database. Returns the scheduled
  /// program for inspection or simulation.
  Program schedule(const Program &Prog, const TuneOptions &Options = {});

  /// schedule() followed by compile(): one call from source program to
  /// runnable kernel.
  Kernel optimize(const Program &Prog, const TuneOptions &Options = {});

  /// Seeds the engine's database from \p AVariant (paper §4, "Seeding a
  /// Scheduling Database") through the engine's shared Evaluator, so the
  /// simulation cache carries from program to program.
  void seedDatabase(const Program &AVariant, const TuneOptions &Options = {});

  /// Direct database access. The engine's own entry points (schedule /
  /// optimize / seedDatabase) synchronize their reads and writes against
  /// each other; mutating the database through this reference while
  /// another thread is inside one of them is the caller's race to avoid.
  TransferTuningDatabase &database() { return *Db; }
  const std::shared_ptr<TransferTuningDatabase> &databasePtr() const {
    return Db;
  }

  /// The engine's candidate-scoring evaluator (shared simulation cache).
  Evaluator &evaluator() { return Eval; }

  const EngineOptions &options() const { return Opts; }

  /// Number of kernels currently cached.
  size_t planCacheSize() const;

  /// Bytes currently charged against the memory budget (0 when no budget
  /// is configured and nothing has been charged).
  size_t memoryBytesUsed() const { return Budget ? Budget->used() : 0; }

  /// High-water mark of memoryBytesUsed(); never exceeds
  /// EngineOptions::MemoryBudgetBytes when one is set.
  size_t memoryBytesPeak() const { return Budget ? Budget->peak() : 0; }

  /// The budget shared with this engine's kernels; null when unlimited.
  const std::shared_ptr<MemoryBudget> &memoryBudget() const { return Budget; }

  /// Drops every cached kernel (outstanding Kernel handles stay valid;
  /// the next compile of any program recompiles).
  void clearPlanCache();

  /// Persists the current database entries to EngineOptions::DatabasePath
  /// (atomic write-temp + fsync + rename with last-good rotation).
  /// Returns true when a checkpoint was written; false when no path is
  /// configured, the entries are unchanged since the last checkpoint, or
  /// the write failed. Thread-safe; called by the background lane, by
  /// serve::Server::drain, and once more at destruction.
  bool checkpointNow();

  /// Generation number of the newest checkpoint written or recovered
  /// (0 = none yet).
  uint64_t checkpointGeneration() const;

  /// Kernels currently quarantined: routing keys whose circuit breaker
  /// is open (or probing half-open). Their runs reroute to the tree-walk
  /// reference path.
  size_t quarantinedCount() const;

  /// The online tuner lane (null unless EngineOptions::OnlineTuning
  /// enabled it). Tests and benchmarks drive deterministic cycles
  /// through tuner()->runCycle(); serve::Server::health reads
  /// tuner()->stats().
  OnlineTuner *tuner() const { return Tuner.get(); }

  /// Blocks until any in-flight tuning cycle completes (no-op without a
  /// tuner). serve::Server::drain calls this before checkpointNow so the
  /// checkpoint captures every calibration recorded so far.
  void drainTuning();

  /// Records the measured/simulated scale factor of \p RoutingKey into
  /// the tuning database (checkpoint-persisted; see
  /// TransferTuningDatabase::setCalibration). Called by the tuner lane;
  /// thread-safe.
  void recordCalibration(uint64_t RoutingKey, double Scale);

  /// The stored calibration scale of \p RoutingKey (0.0 = never
  /// calibrated).
  double calibrationFor(uint64_t RoutingKey) const;

  /// The process-wide engine behind the exec-layer free functions
  /// (default options; DAISY_THREADS-resolved plan threading).
  static Engine &shared();

  /// Stable identity of \p Prog as a kernel: the marks-aware structural
  /// hash combined with the array/param digest — the plan-cache key minus
  /// the plan options. The quarantine breakers and the online tuner key
  /// kernels by it, so a kernel's breaker, tuner entry and calibration
  /// survive plan-cache eviction and recompiles of the same program.
  static uint64_t routingKey(const Program &Prog);

private:
  /// The one place compile() builds a kernel, cached or not:
  ///
  /// 1. Compiles \p Prog under \p Options into a Plan-mode kernel (with a
  ///    tuner profile on tuning engines). When compilation throws — or
  ///    the "engine.compile" fail point does — the exception propagates
  ///    unless EngineOptions::FallbackOnCompileError, which builds a
  ///    tree-walk kernel instead ("Engine.CompileFallbacks").
  /// 2. With a memory budget, charges the kernel's footprint, evicting
  ///    plan-cache LRU tails under pressure but never the entry claimed
  ///    by \p Claim (0 when uncached). When nothing can make room — or
  ///    the "engine.budget" fail point forces the charge to fail —
  ///    returns a resource-exhausted kernel instead.
  /// 3. Attaches the routing key's circuit breaker and registers the
  ///    kernel with the tuner.
  ///
  /// The caller decides caching: compile()'s cached branch keeps the key
  /// only for a Plan-mode result.
  Kernel buildKernel(const Program &Prog, const PlanOptions &Options,
                     uint64_t Claim);
  bool tryChargeWithEviction(size_t Bytes, uint64_t ProtectClaim);
  void loadCheckpointAtConstruction();
  void checkpointLoop();

  /// The circuit breaker shared by every kernel compiled for \p Prog's
  /// routing key (created on first use; survives plan-cache eviction and
  /// recompiles, which is what makes quarantine per *kernel identity*
  /// rather than per compiled instance). Null when quarantine is
  /// disabled.
  std::shared_ptr<CircuitBreaker> breakerFor(const Program &Prog);

  EngineOptions Opts;
  std::shared_ptr<MemoryBudget> Budget; ///< Null when unlimited.
  std::shared_ptr<TransferTuningDatabase> Db;
  Evaluator Eval;

  /// Serializes database writes (seedDatabase) against database reads
  /// (schedule / optimize), which iterate the entry vector.
  mutable std::mutex DbMutex;

  /// Entries hold a future so a cold compile blocks only requests for
  /// the *same* program; hits on other keys never wait behind it.
  /// Recency is an intrusive doubly-linked list threaded through the
  /// entries (Prev/Next; LruHead = most recent): a hit relinks in O(1)
  /// and eviction pops LruTail in O(1), where the previous tick-stamp
  /// scheme scanned up to PlanCacheCapacity entries per miss once full.
  /// unordered_map is node-based, so entry addresses are stable across
  /// rehash and the list pointers never dangle.
  struct CacheEntry {
    std::shared_future<Kernel> K;
    uint64_t Claim = 0; ///< Insertion stamp; identifies the claimant.
    uint64_t Key = 0;   ///< Back-pointer into PlanCache for eviction.
    CacheEntry *Prev = nullptr, *Next = nullptr;
  };
  void lruUnlink(CacheEntry *E);
  void lruPushFront(CacheEntry *E);

  mutable std::mutex CacheMutex;
  std::unordered_map<uint64_t, CacheEntry> PlanCache;
  CacheEntry *LruHead = nullptr; ///< Most recently used.
  CacheEntry *LruTail = nullptr; ///< Eviction candidate.
  uint64_t NextClaim = 0;

  /// Quarantine breakers by routing key (see breakerFor).
  mutable std::mutex BreakerMutex;
  std::unordered_map<uint64_t, std::shared_ptr<CircuitBreaker>> Breakers;

  /// Checkpoint state. CkptMutex serializes writers (background lane,
  /// drain, destructor); LastSaved holds the snapshot persisted last, so
  /// an unchanged database skips the write by pointer comparison —
  /// holding the reference also keeps the COW vector shared, which
  /// forces the next insert to un-share and change the pointer.
  mutable std::mutex CkptMutex;
  std::condition_variable CkptCV;
  bool CkptStop = false;
  uint64_t CkptGeneration = 0;
  std::shared_ptr<const std::vector<DatabaseEntry>> LastSaved;
  std::shared_ptr<const std::unordered_map<uint64_t, double>> LastSavedCalib;

  /// The online tuner lane (null unless OnlineTuning.Enable). Declared
  /// late so it is destroyed early; ~Engine additionally stops it first
  /// thing, before the final checkpoint, so that checkpoint captures
  /// every calibration the lane recorded.
  std::unique_ptr<OnlineTuner> Tuner;

  std::thread CheckpointThread; ///< Last member: joined first.
};

} // namespace daisy

#endif // DAISY_API_ENGINE_H
