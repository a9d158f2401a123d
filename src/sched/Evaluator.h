//===- sched/Evaluator.h - Memoized, parallel candidate scoring --*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The candidate-evaluation subsystem behind the scheduler searches.
///
/// Every MCTS rollout and every evolutionary mutation scores a candidate
/// recipe by applying it to one loop nest and walking the simulated
/// machine over the exact iteration space (machine/Simulator.h) — by far
/// the dominant cost of tuning. This header makes that path cheap along
/// two independent axes:
///
/// - SimCache memoizes simulateProgram results. The key is the
///   marks-aware structural hash of the transformed program (parallel /
///   vector marks change simulated cost, so the database's marks-blind
///   hash cannot key the cache), combined with a digest of the array
///   declarations, bound parameters, and SimOptions. Mutation operators
///   regenerate duplicate recipes constantly, and distinct recipes often
///   collapse to structurally identical nests (illegal steps are skipped,
///   self-swaps are no-ops), so duplicates cost a hash lookup instead of
///   a full cache-simulator walk. Hit/miss counts are exposed through the
///   support/Statistics counters "SimCache.Hits" / "SimCache.Misses".
///
/// - Evaluator::recipeSecondsBatch scores a batch in one path at every
///   thread count: it transforms and keys every candidate, then simulates
///   each distinct key the SimCache lacks exactly once, with up to
///   EvalConfig::NumThreads lanes of the persistent thread pool
///   (exec/ThreadPool.h) claiming the next candidate or simulation from
///   an atomic counter. Keys are resolved in input order between the two
///   steps, so a duplicate within a batch counts as a hit, as it would
///   scored one at a time, and the hit and miss counts do not depend on
///   the thread count. Candidate scoring draws no random numbers and
///   simulation is deterministic, so the scores — and every search
///   decision derived from them — are bit-identical at every thread
///   count, the same guarantee the parallel execution backend
///   established for program results.
///
/// Scoring clones nothing but the nest under evaluation: the untouched
/// sibling nests of the program are shared structurally (NodePtr is a
/// shared_ptr; simulation only reads), retiring the whole-program
/// Program::clone() the previous evaluateRecipe paid per candidate.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_SCHED_EVALUATOR_H
#define DAISY_SCHED_EVALUATOR_H

#include "machine/Simulator.h"
#include "sched/Recipe.h"

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace daisy {

/// Memoization table for whole-program simulations. Thread-safe. The
/// Evaluator runs one simulation per distinct key per batch; only batches
/// racing on one table from different threads can both simulate a key
/// (deterministically, to the same value), and the second insert is then
/// a no-op.
class SimCache {
public:
  /// Cache key of simulating \p Prog under \p Options: marks-aware
  /// structural hash of the nests plus digests of array declarations,
  /// bound parameters, and the simulation options.
  static uint64_t keyFor(const Program &Prog, const SimOptions &Options);

  /// Memoized simulateProgram(Prog, Options).Seconds.
  double seconds(const Program &Prog, const SimOptions &Options);

  /// The seconds stored under \p Key, if any.
  std::optional<double> find(uint64_t Key) const;

  /// Stores \p Seconds under \p Key; a no-op if the key is present.
  void insert(uint64_t Key, double Seconds);

  /// Number of distinct simulations stored.
  size_t size() const;

private:
  mutable std::mutex Mutex;
  std::unordered_map<uint64_t, double> Entries;
};

/// Knobs of the evaluator.
struct EvalConfig {
  /// Number of lanes that transform and simulate a batch's candidates
  /// concurrently. 1 scores on the calling thread; 0 resolves to
  /// ThreadPool::defaultThreadCount() (DAISY_THREADS or the hardware
  /// concurrency). Results are bit-identical for every value.
  int NumThreads = 0;
  /// Memoize simulations in the SimCache. Off forces every score through
  /// the full simulator walk (used by the benchmarks to isolate the two
  /// mechanisms and by the determinism tests as a differential baseline).
  bool EnableCache = true;
};

/// Scores candidate recipes against a fixed machine model. One Evaluator
/// is shared across a whole search (or a whole database seeding), so the
/// cache accumulates across epochs, nests, and programs.
class Evaluator {
public:
  explicit Evaluator(SimOptions Options, EvalConfig Config = {});

  const SimOptions &options() const { return Options; }

  /// Resolved batch concurrency (>= 1).
  int threadCount() const { return Threads; }

  /// Simulated runtime of \p Prog with recipe \p R applied to nest
  /// \p Index. Only the nest under evaluation is cloned (by applyRecipe);
  /// sibling nests are shared with \p Prog.
  double recipeSeconds(const Program &Prog, size_t Index, const Recipe &R);

  /// Scores every recipe of \p Recipes against nest \p Index, simulating
  /// each distinct candidate the cache lacks once (every candidate when
  /// the cache is off). Results arrive in input order and are
  /// bit-identical at every thread count.
  std::vector<double> recipeSecondsBatch(const Program &Prog, size_t Index,
                                         const std::vector<Recipe> &Recipes);

private:
  SimOptions Options;
  EvalConfig Config;
  int Threads = 1;
  SimCache Cache;
};

} // namespace daisy

#endif // DAISY_SCHED_EVALUATOR_H
