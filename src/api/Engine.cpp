//===- api/Engine.cpp -----------------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "api/Engine.h"

#include "api/KernelImpl.h"
#include "ir/StructuralHash.h"
#include "obs/Trace.h"
#include "support/FailPoint.h"
#include "support/Hashing.h"
#include "support/Persist.h"
#include "support/Random.h"
#include "support/Statistics.h"

#include <cassert>
#include <chrono>
#include <exception>
#include <utility>

using namespace daisy;

namespace {

#ifndef NDEBUG
/// Collision insurance for the 64-bit cache key: a hit must hand back a
/// kernel whose snapshot really is the requested program (modulo the
/// iterator renamings the key canonicalizes away). Debug-only — a false
/// hit would silently execute the wrong program.
bool sameProgramForExecution(const Program &A, const Program &B) {
  if (A.topLevel().size() != B.topLevel().size() ||
      A.arrays().size() != B.arrays().size() || A.params() != B.params())
    return false;
  for (size_t I = 0; I < A.arrays().size(); ++I) {
    const ArrayDecl &DA = A.arrays()[I], &DB = B.arrays()[I];
    if (DA.Name != DB.Name || DA.Shape != DB.Shape ||
        DA.Transient != DB.Transient)
      return false;
  }
  for (size_t I = 0; I < A.topLevel().size(); ++I)
    if (!structurallyEqual(A.topLevel()[I], B.topLevel()[I]))
      return false;
  return true;
}
#endif


/// Cache identity of compiling \p Prog under \p Options. The marks-aware
/// structural hash covers the nest structure and scheduling marks, the
/// data digest covers array declarations and bound parameter values
/// (both folded into the compiled plan), and the options digest covers
/// the resolved thread count and specialization flag.
uint64_t planKey(const Program &Prog, const PlanOptions &Options) {
  HashCombiner D(0x656E67696E65ull); // "engine"
  D.combine(structuralHashWithMarks(Prog));
  D.combine(programDataDigest(Prog));
  D.combine(planOptionsDigest(Options));
  return D.value();
}

} // namespace

Engine::Engine() : Engine(EngineOptions()) {}

Engine::Engine(EngineOptions Options)
    : Opts(std::move(Options)),
      Db(std::make_shared<TransferTuningDatabase>()),
      Eval(Opts.Sim, Opts.Eval) {
  loadCheckpointAtConstruction();
  if (Opts.OnlineTuning.Enable) {
    Tuner = std::make_unique<OnlineTuner>(*this, Opts.OnlineTuning);
    Tuner->start();
  }
  if (!Opts.DatabasePath.empty() && Opts.CheckpointInterval.count() > 0)
    CheckpointThread = std::thread([this] { checkpointLoop(); });
}

Engine::~Engine() {
  // The tuner lane first: no cycle may call back into the engine (it
  // records calibrations) while the rest tears down, and calibrations it
  // already recorded make it into the final checkpoint below.
  if (Tuner)
    Tuner->stop();
  if (CheckpointThread.joinable()) {
    {
      std::lock_guard<std::mutex> Lock(CkptMutex);
      CkptStop = true;
    }
    CkptCV.notify_all();
    CheckpointThread.join();
  }
  // Final durability point: anything inserted since the last lane tick
  // (or everything, when no lane ran) survives the process. No-op when
  // the entries are unchanged or no path is configured.
  (void)checkpointNow();
}

void Engine::loadCheckpointAtConstruction() {
  if (Opts.DatabasePath.empty())
    return;
  int Corrupt = 0;
  // Recovery prefers the current generation and falls back to the
  // rotated previous one. A file can be unusable two ways — checksum
  // mismatch (readCheckpointFile) or a CRC-valid payload that fails to
  // decode (version-1 framing violated) — both count as corrupt and
  // both fall through to the older generation.
  auto tryFile = [&](const std::string &Path) -> bool {
    CheckpointFile File = readCheckpointFile(Path, DatabaseFormatVersion);
    if (!File.Exists)
      return false;
    std::vector<DatabaseEntry> Entries;
    std::unordered_map<uint64_t, double> Calib;
    if (!File.Valid ||
        !deserializeDatabaseEntries(File.Payload, Entries, &Calib)) {
      ++Corrupt;
      return false;
    }
    size_t Before;
    {
      std::lock_guard<std::mutex> Lock(DbMutex);
      Before = Db->size() + Db->calibrationCount();
      for (const DatabaseEntry &E : Entries)
        Db->insert(E);
      for (const auto &[Key, Scale] : Calib)
        Db->setCalibration(Key, Scale);
      // When the checkpoint is the database's whole content, remember
      // its snapshots: the first checkpointNow then recognizes the disk
      // as already current instead of rewriting identical bytes.
      if (Before == 0) {
        LastSaved = Db->snapshot();
        LastSavedCalib = Db->calibrationSnapshot();
      }
    }
    CkptGeneration = File.Generation;
    addStatsCounter("Engine.RecoveredEntries",
                    static_cast<int64_t>(Entries.size()));
    return true;
  };
  if (!tryFile(Opts.DatabasePath))
    (void)tryFile(checkpointPrevPath(Opts.DatabasePath));
  if (Corrupt)
    addStatsCounter("Engine.CorruptCheckpoints", Corrupt);
}

bool Engine::checkpointNow() {
  if (Opts.DatabasePath.empty())
    return false;
  std::shared_ptr<const std::vector<DatabaseEntry>> Snap;
  std::shared_ptr<const std::unordered_map<uint64_t, double>> CalibSnap;
  {
    std::lock_guard<std::mutex> Lock(DbMutex);
    Snap = Db->snapshot();
    CalibSnap = Db->calibrationSnapshot();
  }
  std::lock_guard<std::mutex> Lock(CkptMutex);
  // Pointer equality is a sound unchanged-test: LastSaved keeps the COW
  // vector shared, so any insert since the last save un-shared onto a
  // new vector and the pointers differ. Same for the calibration map —
  // a new calibration alone is reason to checkpoint.
  if (Snap == LastSaved && CalibSnap == LastSavedCalib)
    return false;
  // Only real checkpoint work is a span — the unchanged-test early-out
  // above fires every idle checkpoint interval and stays silent.
  TraceSpan CkptSpan(TraceCategory::Engine, "engine.checkpoint",
                     CkptGeneration + 1);
  std::vector<uint8_t> Payload = serializeDatabaseEntries(*Snap, *CalibSnap);
  if (!writeCheckpoint(Opts.DatabasePath, Payload.data(), Payload.size(),
                       CkptGeneration + 1, DatabaseFormatVersion))
    return false;
  ++CkptGeneration;
  LastSaved = std::move(Snap);
  LastSavedCalib = std::move(CalibSnap);
  addStatsCounter("Engine.Checkpoints");
  addStatsCounter("Engine.CheckpointBytes",
                  static_cast<int64_t>(Payload.size()));
  return true;
}

uint64_t Engine::checkpointGeneration() const {
  std::lock_guard<std::mutex> Lock(CkptMutex);
  return CkptGeneration;
}

void Engine::checkpointLoop() {
  std::unique_lock<std::mutex> Lock(CkptMutex);
  while (!CkptStop) {
    CkptCV.wait_for(Lock, Opts.CheckpointInterval);
    if (CkptStop)
      break;
    Lock.unlock();
    (void)checkpointNow();
    Lock.lock();
  }
}

std::shared_ptr<CircuitBreaker> Engine::breakerFor(const Program &Prog) {
  if (Opts.Quarantine.FailureThreshold == 0)
    return nullptr;
  uint64_t Key = routingKey(Prog);
  std::lock_guard<std::mutex> Lock(BreakerMutex);
  std::shared_ptr<CircuitBreaker> &Slot = Breakers[Key];
  if (!Slot)
    Slot = std::make_shared<CircuitBreaker>(Opts.Quarantine);
  return Slot;
}

void Engine::drainTuning() {
  if (Tuner)
    Tuner->drain();
}

void Engine::recordCalibration(uint64_t RoutingKey, double Scale) {
  std::lock_guard<std::mutex> Lock(DbMutex);
  Db->setCalibration(RoutingKey, Scale);
}

double Engine::calibrationFor(uint64_t RoutingKey) const {
  std::lock_guard<std::mutex> Lock(DbMutex);
  return Db->calibration(RoutingKey);
}

size_t Engine::quarantinedCount() const {
  std::lock_guard<std::mutex> Lock(BreakerMutex);
  size_t N = 0;
  for (const auto &[Key, Breaker] : Breakers) {
    (void)Key;
    if (Breaker->state() != CircuitBreaker::State::Closed)
      ++N;
  }
  return N;
}

Kernel Engine::compile(const Program &Prog) {
  return compile(Prog, Opts.Plan);
}

void Engine::lruUnlink(CacheEntry *E) {
  (E->Prev ? E->Prev->Next : LruHead) = E->Next;
  (E->Next ? E->Next->Prev : LruTail) = E->Prev;
  E->Prev = E->Next = nullptr;
}

void Engine::lruPushFront(CacheEntry *E) {
  E->Prev = nullptr;
  E->Next = LruHead;
  (LruHead ? LruHead->Prev : LruTail) = E;
  LruHead = E;
}

Kernel Engine::buildKernel(const Program &Prog, const PlanOptions &Options) {
  std::shared_ptr<KernelImpl> Impl;
  try {
    // Fault site "engine.compile": an armed Throw stands in for any real
    // plan-compilation failure.
    (void)DAISY_FAILPOINT("engine.compile");
    Impl = std::make_shared<KernelImpl>(Prog, Options);
    // Tuning engines give every compiled kernel a measurement ring.
    if (Tuner) {
      ProfileOptions PO;
      PO.SampleEvery = Opts.OnlineTuning.SampleEvery;
      PO.RingSize = Opts.OnlineTuning.RingSize;
      Impl->attachProfile(std::make_shared<KernelProfile>(PO));
    }
  } catch (...) {
    // Graceful degradation: the caller proceeds on a tree-walk kernel —
    // slow but bit-identical.
    addStatsCounter("Engine.CompileFallbacks");
    traceInstant(TraceCategory::Engine, "engine.compile_fallback");
    Impl = std::make_shared<KernelImpl>(Prog);
  }
  // Repeated run faults quarantine the kernel identity, not one compiled
  // instance: the breaker is shared per routing key (null when
  // quarantine is disabled), so eviction and recompilation cannot reset
  // an open breaker.
  Impl->attachBreaker(breakerFor(Prog));
  // Finished (about to be shared): hand it to the tuner under its
  // routing key. registerKernel skips tree-walk fallbacks.
  if (Tuner)
    Tuner->registerKernel(routingKey(Prog), Impl);
  return Kernel(std::move(Impl));
}

Kernel Engine::compile(const Program &Prog, const PlanOptions &Options) {
  if (Opts.PlanCacheCapacity == 0) {
    addStatsCounter("Engine.PlanCompiles");
    TraceSpan CompileSpan(TraceCategory::Engine, "engine.compile");
    return buildKernel(Prog, Options);
  }
  uint64_t Key = planKey(Prog, Options);
  // First requester of a key claims it by inserting a pending future and
  // compiles outside the lock; later requesters of the same key wait on
  // that future (compile-once, counter-asserted), while requests for
  // every other key — hit or miss — proceed without stalling behind the
  // in-flight compile.
  std::promise<Kernel> Claimed;
  std::shared_future<Kernel> Result;
  bool CompileHere = false;
  uint64_t MyClaim = 0;
  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    auto It = PlanCache.find(Key);
    if (It != PlanCache.end()) {
      addStatsCounter("Engine.PlanCacheHits");
      lruUnlink(&It->second);
      lruPushFront(&It->second);
      Result = It->second.K;
      assert((It->second.K.wait_for(std::chrono::seconds(0)) !=
                  std::future_status::ready ||
              sameProgramForExecution(Prog, It->second.K.get().program())) &&
             "plan-cache key collision: hit returned a different program");
    } else {
      addStatsCounter("Engine.PlanCacheMisses");
      addStatsCounter("Engine.PlanCompiles");
      if (PlanCache.size() >= Opts.PlanCacheCapacity) {
        // O(1): pop the list tail. Waiters of an evicted in-flight entry
        // keep their own shared_future copy, so eviction never
        // invalidates a wait.
        CacheEntry *Victim = LruTail;
        assert(Victim && "full cache with an empty LRU list");
        lruUnlink(Victim);
        PlanCache.erase(Victim->Key);
        addStatsCounter("Engine.PlanCacheEvictions");
      }
      Result = Claimed.get_future().share();
      MyClaim = ++NextClaim;
      auto [NewIt, Inserted] =
          PlanCache.emplace(Key, CacheEntry{Result, MyClaim, Key, nullptr,
                                            nullptr});
      assert(Inserted && "missed entry reappeared under the same lock");
      (void)Inserted;
      lruPushFront(&NewIt->second);
      CompileHere = true;
    }
  }
  // Cache verdict instants outside the lock: the instant does not extend
  // the critical section, and a trace filtered to the engine category
  // reads as a hit/miss stream with compile spans at the misses.
  traceInstant(TraceCategory::Engine,
               CompileHere ? "engine.plan_cache_miss" : "engine.plan_cache_hit",
               Key);
  if (CompileHere) {
    TraceSpan CompileSpan(TraceCategory::Engine, "engine.compile", Key);
    Kernel K;
    std::exception_ptr Failed;
    try {
      K = buildKernel(Prog, Options);
    } catch (...) {
      Failed = std::current_exception();
    }
    // Only a real compiled kernel keeps the key. A failed build (waiters
    // get the error) or a tree-walk fallback is handed to this attempt's
    // waiters but forgotten by the cache, so the next compile of the key
    // retries for real once the fault subsides. Erase only this thread's
    // own claim — the entry at Key may meanwhile be a different
    // claimant's (ours evicted, key re-claimed).
    if (Failed || K.isTreeWalk()) {
      std::lock_guard<std::mutex> Lock(CacheMutex);
      auto It = PlanCache.find(Key);
      if (It != PlanCache.end() && It->second.Claim == MyClaim) {
        lruUnlink(&It->second);
        PlanCache.erase(It);
      }
    }
    if (Failed)
      Claimed.set_exception(Failed);
    else
      Claimed.set_value(std::move(K));
  }
  return Result.get();
}

Program Engine::schedule(const Program &Prog, const TuneOptions &Options) {
  // Transfer lookups iterate the database's entry vector, which a
  // concurrent seedDatabase may grow — but the scheduling pipeline
  // around them (normalization, idiom matching) has no business inside
  // the lock. Snapshot under the lock and schedule unlocked; the
  // snapshot is an O(1) copy-on-write share of the immutable entry
  // vector (sched/Database.h), so the critical section stays constant
  // size however large the database grows.
  auto Snapshot = std::make_shared<TransferTuningDatabase>();
  {
    std::lock_guard<std::mutex> Lock(DbMutex);
    *Snapshot = *Db;
  }
  DaisyScheduler Daisy(std::move(Snapshot), Options.Daisy);
  std::optional<Program> Result = Daisy.schedule(Prog);
  assert(Result && "the daisy scheduler applies to every program");
  return std::move(*Result);
}

Kernel Engine::optimize(const Program &Prog, const TuneOptions &Options) {
  return compile(schedule(Prog, Options), Opts.Plan);
}

void Engine::seedDatabase(const Program &AVariant,
                          const TuneOptions &Options) {
  // Per-program stream: a program's random draws are independent of the
  // order the A variants are fed in (multi-epoch searches still consult
  // the similar entries seeded so far — see TuneOptions::SearchSeed).
  Rng Rand(deriveSeed(Options.SearchSeed, structuralHash(AVariant)));
  // The evolutionary search takes seconds; running it under DbMutex
  // would stall every concurrent schedule/optimize. Search against a
  // snapshot (the re-seeding neighbours the search consults are the
  // entries visible at call time, exactly as a serial caller sees them)
  // and merge only the new entries under the lock. The snapshot copy is
  // an O(1) copy-on-write share; the search's own first insert into
  // Local un-shares it outside the lock.
  TransferTuningDatabase Local;
  {
    std::lock_guard<std::mutex> Lock(DbMutex);
    Local = *Db;
  }
  size_t Before = Local.size();
  DaisyScheduler::seedDatabase(Local, AVariant, Eval, Options.Budget, Rand,
                               Options.Daisy);
  std::lock_guard<std::mutex> Lock(DbMutex);
  for (size_t I = Before; I < Local.entries().size(); ++I)
    Db->insert(Local.entries()[I]);
}

size_t Engine::planCacheSize() const {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return PlanCache.size();
}

void Engine::clearPlanCache() {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  PlanCache.clear();
  LruHead = LruTail = nullptr;
}

uint64_t Engine::routingKey(const Program &Prog) {
  HashCombiner D(0x726F757465ull); // "route"
  D.combine(structuralHashWithMarks(Prog));
  D.combine(programDataDigest(Prog));
  return D.value();
}

Engine &Engine::shared() {
  static Engine Shared;
  return Shared;
}
