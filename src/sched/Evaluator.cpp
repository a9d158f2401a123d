//===- sched/Evaluator.cpp ------------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sched/Evaluator.h"

#include "exec/ThreadPool.h"
#include "ir/StructuralHash.h"
#include "support/Hashing.h"
#include "support/Statistics.h"

#include <algorithm>
#include <atomic>
#include <cstdint>

using namespace daisy;

uint64_t SimCache::keyFor(const Program &Prog, const SimOptions &Options) {
  HashCombiner D(0x73696D6B6579ull); // "simkey"
  D.combine(structuralHashWithMarks(Prog));
  D.combine(programDataDigest(Prog));
  D.combine(simOptionsDigest(Options));
  return D.value();
}

double SimCache::seconds(const Program &Prog, const SimOptions &Options) {
  uint64_t Key = keyFor(Prog, Options);
  if (std::optional<double> Cached = find(Key)) {
    addStatsCounter("SimCache.Hits");
    return *Cached;
  }
  // Simulate outside the lock: the walk is the expensive part, and a
  // racing duplicate computes the identical value.
  addStatsCounter("SimCache.Misses");
  double Seconds = simulateProgram(Prog, Options).Seconds;
  insert(Key, Seconds);
  return Seconds;
}

std::optional<double> SimCache::find(uint64_t Key) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(Key);
  if (It == Entries.end())
    return std::nullopt;
  return It->second;
}

void SimCache::insert(uint64_t Key, double Seconds) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries.emplace(Key, Seconds);
}

size_t SimCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}

namespace {

/// Runs Work(0) .. Work(Count - 1) on up to \p Threads lanes of the
/// global pool, each lane claiming the next index from a shared counter
/// (on the calling thread alone when one lane suffices).
template <typename Fn>
void claimEach(int Threads, size_t Count, const Fn &Work) {
  int Lanes = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(Threads), Count));
  if (Lanes <= 1) {
    for (size_t I = 0; I < Count; ++I)
      Work(I);
    return;
  }
  std::atomic<size_t> Next{0};
  ThreadPool::global().run(Lanes, [&](int) {
    for (size_t I = Next++; I < Count; I = Next++)
      Work(I);
  });
}

} // namespace

Evaluator::Evaluator(SimOptions Options, EvalConfig Config)
    : Options(std::move(Options)), Config(Config) {
  Threads = Config.NumThreads > 0 ? Config.NumThreads
                                  : ThreadPool::defaultThreadCount();
  if (Threads < 1)
    Threads = 1;
}

double Evaluator::recipeSeconds(const Program &Prog, size_t Index,
                                const Recipe &R) {
  return recipeSecondsBatch(Prog, Index, {R}).front();
}

std::vector<double>
Evaluator::recipeSecondsBatch(const Program &Prog, size_t Index,
                              const std::vector<Recipe> &Recipes) {
  size_t Count = Recipes.size();
  if (Count == 0)
    return {};
  addStatsCounter("Evaluator.Candidates", static_cast<int64_t>(Count));

  // Transform and key every candidate. Each context is a shallow program
  // copy: topLevel shares every sibling nest; arrays and parameters are
  // value-copied so applyRecipe may extend them freely.
  std::vector<Program> Contexts(Count);
  std::vector<uint64_t> Keys(Count, 0);
  claimEach(Threads, Count, [&](size_t I) {
    Program &Ctx = Contexts[I];
    Ctx = Prog;
    Ctx.topLevel()[Index] =
        applyRecipe(Recipes[I], Prog.topLevel()[Index], Ctx);
    if (Config.EnableCache)
      Keys[I] = SimCache::keyFor(Ctx, Options);
  });

  // Resolve the keys in input order: a key the cache holds, or one an
  // earlier candidate of this batch claimed, is a hit; every other
  // candidate owns one simulation. Source[I] is the simulation that
  // scores candidate I (FromCache when the cache already did).
  constexpr size_t FromCache = SIZE_MAX;
  std::vector<double> Results(Count, 0.0);
  std::vector<size_t> Source(Count, FromCache);
  std::vector<size_t> Owners; // candidate of each simulation
  std::unordered_map<uint64_t, size_t> Claimed;
  int64_t Hits = 0;
  for (size_t I = 0; I < Count; ++I) {
    if (Config.EnableCache) {
      if (std::optional<double> Seconds = Cache.find(Keys[I])) {
        Results[I] = *Seconds;
        ++Hits;
        continue;
      }
      auto [It, Fresh] = Claimed.emplace(Keys[I], Owners.size());
      if (!Fresh) {
        Source[I] = It->second;
        ++Hits;
        continue;
      }
    }
    Source[I] = Owners.size();
    Owners.push_back(I);
  }
  if (Config.EnableCache) {
    if (Hits > 0)
      addStatsCounter("SimCache.Hits", Hits);
    if (!Owners.empty())
      addStatsCounter("SimCache.Misses", static_cast<int64_t>(Owners.size()));
  }

  std::vector<double> Simulated(Owners.size(), 0.0);
  claimEach(Threads, Owners.size(), [&](size_t J) {
    Simulated[J] = simulateProgram(Contexts[Owners[J]], Options).Seconds;
  });
  if (Config.EnableCache)
    for (size_t J = 0; J < Owners.size(); ++J)
      Cache.insert(Keys[Owners[J]], Simulated[J]);
  for (size_t I = 0; I < Count; ++I)
    if (Source[I] != FromCache)
      Results[I] = Simulated[Source[I]];
  return Results;
}
