//===- machine/CacheSim.cpp -----------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "machine/CacheSim.h"

#include <cassert>

using namespace daisy;

namespace {

/// log2 of \p Value if it is a power of two, else -1.
int exactLog2(int64_t Value) {
  if (Value <= 0 || (Value & (Value - 1)) != 0)
    return -1;
  int Log = 0;
  while ((int64_t(1) << Log) < Value)
    ++Log;
  return Log;
}

} // namespace

CacheLevel::CacheLevel(const CacheConfig &Config) : Config(Config) {
  assert(Config.SizeBytes > 0 && Config.Associativity > 0 &&
         Config.LineSize > 0 && "invalid cache geometry");
  NumSets = Config.SizeBytes / (Config.LineSize * Config.Associativity);
  if (NumSets < 1)
    NumSets = 1;
  WaysPerSet = static_cast<size_t>(Config.Associativity);
  LineShift = exactLog2(Config.LineSize);
  PowerOfTwo = LineShift >= 0 && exactLog2(NumSets) >= 0;
  SetMask = NumSets - 1;
  Tags.assign(static_cast<size_t>(NumSets) * WaysPerSet, -1);
}

bool CacheLevel::accessBehindFront(int64_t *Ways, int64_t Line) {
  // Shift the ways back by one while scanning, so that the tag found (or,
  // on a miss, the one that falls off the tail) leaves a hole at the
  // front for Line.
  int64_t Displaced = Ways[0];
  for (size_t Way = 1; Way < WaysPerSet; ++Way) {
    int64_t Tag = Ways[Way];
    Ways[Way] = Displaced;
    if (Tag == Line) {
      Ways[0] = Line;
      ++Counters.Hits;
      return true;
    }
    Displaced = Tag;
  }
  Ways[0] = Line;
  ++Counters.Misses;
  if (Displaced >= 0)
    ++Counters.Evictions;
  return false;
}

void CacheLevel::reset() {
  Tags.assign(Tags.size(), -1);
  Counters = CacheCounters{};
}

MemoryHierarchy::MemoryHierarchy(const std::vector<CacheConfig> &Configs) {
  Levels.reserve(Configs.size());
  for (const CacheConfig &Config : Configs)
    Levels.emplace_back(Config);
}

void MemoryHierarchy::reset() {
  for (CacheLevel &Level : Levels)
    Level.reset();
}

std::vector<CacheConfig> daisy::defaultCacheHierarchy() {
  // 1/4-scale Haswell-EP: 8KB L1d, 64KB L2, 1MB L3 slice.
  return {CacheConfig{8 * 1024, 8, 64}, CacheConfig{64 * 1024, 8, 64},
          CacheConfig{1024 * 1024, 16, 64}};
}
