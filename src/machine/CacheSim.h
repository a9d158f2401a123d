//===- machine/CacheSim.h - Set-associative cache simulator ------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic multi-level, set-associative, LRU, write-allocate cache
/// simulator. It stands in for the hardware performance counters of the
/// paper's Xeon E5-2680v3 testbed: every simulated memory access walks the
/// hierarchy and the per-level load/hit/miss/eviction counters drive both
/// the cycle cost model and Table 1's L1 loads/evicts reproduction.
///
/// Each set stores its tags most recent first, so the recency order is
/// the position and no per-way timestamps exist. A hit on the front way,
/// the common case of a unit-stride walk, is one compare inline in
/// access(); any other hit moves its tag to the front, and a miss drops
/// the tail (counting an eviction only if the tail held a line) and puts
/// the new line in front. That is exact LRU, access for access.
/// When the line size and the set count are both powers of two, as in
/// every geometry the project uses, the line and set of an address come
/// from a shift and a mask; other geometries divide.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_MACHINE_CACHESIM_H
#define DAISY_MACHINE_CACHESIM_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace daisy {

/// Geometry of one cache level.
struct CacheConfig {
  int64_t SizeBytes = 32 * 1024;
  int Associativity = 8;
  int LineSize = 64;
};

/// Counter block of one cache level.
struct CacheCounters {
  int64_t Loads = 0;     ///< Accesses that reached this level.
  int64_t Hits = 0;      ///< Accesses satisfied at this level.
  int64_t Misses = 0;    ///< Accesses forwarded to the next level.
  int64_t Evictions = 0; ///< Resident lines displaced by fills.
};

/// One set-associative LRU cache level.
class CacheLevel {
public:
  explicit CacheLevel(const CacheConfig &Config);

  /// Looks up the line containing \p Address (non-negative). On a miss
  /// the line is filled (write-allocate), possibly evicting the LRU way.
  /// Returns true on a hit.
  bool access(int64_t Address) {
    ++Counters.Loads;
    int64_t Line = PowerOfTwo ? Address >> LineShift
                              : Address / Config.LineSize;
    int64_t Set = PowerOfTwo ? Line & SetMask : Line % NumSets;
    int64_t *Ways = &Tags[static_cast<size_t>(Set) * WaysPerSet];
    if (Ways[0] == Line) {
      ++Counters.Hits;
      return true;
    }
    return accessBehindFront(Ways, Line);
  }

  /// Discards all content and counters.
  void reset();

  const CacheCounters &counters() const { return Counters; }
  const CacheConfig &config() const { return Config; }

private:
  /// access() of a line that is not the set's most recent one.
  bool accessBehindFront(int64_t *Ways, int64_t Line);

  CacheConfig Config;
  int64_t NumSets = 1;
  size_t WaysPerSet = 1;
  bool PowerOfTwo = false;
  int LineShift = 0;
  int64_t SetMask = 0;
  // Tags[set * WaysPerSet + way], most recently used first; -1 = invalid
  // (invalid ways only ever trail the valid ones).
  std::vector<int64_t> Tags;
  CacheCounters Counters;
};

/// An inclusive-enough hierarchy: L1 .. Ln, then memory.
class MemoryHierarchy {
public:
  explicit MemoryHierarchy(const std::vector<CacheConfig> &Configs);

  /// Walks the hierarchy; returns the level index (0 = L1) that hit, or
  /// levels() for main memory.
  int access(int64_t Address) {
    int Level = 0;
    for (CacheLevel &Cache : Levels) {
      if (Cache.access(Address))
        return Level;
      ++Level;
    }
    return Level;
  }

  size_t levels() const { return Levels.size(); }
  const CacheLevel &level(size_t I) const { return Levels[I]; }

  /// Clears content and counters of every level.
  void reset();

private:
  std::vector<CacheLevel> Levels;
};

/// The scaled-down default hierarchy. The paper's Xeon has 32KB L1 / 256KB
/// L2 / 30MB L3 with gigabyte-scale working sets; the benches use
/// proportionally scaled problem sizes, so the simulated hierarchy is
/// scaled by the same factor to stress the same levels.
std::vector<CacheConfig> defaultCacheHierarchy();

} // namespace daisy

#endif // DAISY_MACHINE_CACHESIM_H
