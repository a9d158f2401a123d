//===- tests/MachineTest.cpp - cache sim & cost model tests ----------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "machine/Simulator.h"
#include "analysis/Legality.h"
#include "frontends/PolyBench.h"
#include "ir/Builder.h"
#include "normalize/Pipeline.h"
#include "support/Hashing.h"
#include "support/Random.h"
#include "transform/Parallelize.h"
#include "transform/Permute.h"
#include "transform/Tile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

using namespace daisy;

namespace {

Program makeGemmVariant(const std::string &O1, const std::string &O2,
                        const std::string &O3, int N) {
  Program Prog("gemm");
  Prog.addArray("A", {N, N});
  Prog.addArray("B", {N, N});
  Prog.addArray("C", {N, N});
  Prog.append(forLoop(
      O1, 0, N,
      {forLoop(O2, 0, N,
               {forLoop(O3, 0, N,
                        {assign("S0", "C", {ax("i"), ax("j")},
                                read("C", {ax("i"), ax("j")}) +
                                    read("A", {ax("i"), ax("k")}) *
                                        read("B", {ax("k"), ax("j")}))})})}));
  return Prog;
}

} // namespace

//===----------------------------------------------------------------------===//
// Cache simulator
//===----------------------------------------------------------------------===//

TEST(CacheSimTest, ColdMissesThenHits) {
  CacheLevel L1(CacheConfig{1024, 2, 64}); // 16 lines, 8 sets
  EXPECT_FALSE(L1.access(0));
  EXPECT_TRUE(L1.access(8));  // same line
  EXPECT_TRUE(L1.access(63)); // same line
  EXPECT_FALSE(L1.access(64));
  EXPECT_EQ(L1.counters().Loads, 4);
  EXPECT_EQ(L1.counters().Hits, 2);
  EXPECT_EQ(L1.counters().Misses, 2);
  EXPECT_EQ(L1.counters().Evictions, 0);
}

TEST(CacheSimTest, LruEvictionWithinSet) {
  // 2-way, 64B lines, 2 sets -> set = line % 2. Lines 0, 2, 4 all map to
  // set 0; the third fill evicts line 0.
  CacheLevel L(CacheConfig{256, 2, 64});
  L.access(0 * 64);
  L.access(2 * 64);
  L.access(4 * 64); // evicts line 0
  EXPECT_EQ(L.counters().Evictions, 1);
  EXPECT_FALSE(L.access(0 * 64)); // line 0 is gone
}

TEST(CacheSimTest, LruKeepsRecentlyUsed) {
  CacheLevel L(CacheConfig{256, 2, 64});
  L.access(0 * 64);
  L.access(2 * 64);
  L.access(0 * 64); // refresh line 0
  L.access(4 * 64); // evicts line 2 (LRU), not line 0
  EXPECT_TRUE(L.access(0 * 64));
  EXPECT_FALSE(L.access(2 * 64));
}

TEST(CacheSimTest, StreamingMissesEveryLine) {
  CacheLevel L(CacheConfig{8 * 1024, 8, 64});
  int64_t Lines = 1000;
  for (int64_t I = 0; I < Lines * 8; ++I)
    L.access(I * 8); // sequential doubles
  // Exactly one miss per 64B line.
  EXPECT_EQ(L.counters().Misses, Lines);
  EXPECT_EQ(L.counters().Hits, Lines * 8 - Lines);
}

TEST(CacheSimTest, CapacityMonotonicity) {
  // A bigger cache never misses more on the same trace (fully-assoc LRU
  // inclusion property; holds here since both are LRU with same sets
  // scaled by ways).
  auto runTrace = [](const CacheConfig &Config) {
    CacheLevel L(Config);
    // Repeated sweep over a 16KB working set.
    for (int Rep = 0; Rep < 4; ++Rep)
      for (int64_t Addr = 0; Addr < 16 * 1024; Addr += 8)
        L.access(Addr);
    return L.counters().Misses;
  };
  int64_t SmallMisses = runTrace(CacheConfig{4 * 1024, 4, 64});
  int64_t BigMisses = runTrace(CacheConfig{32 * 1024, 4, 64});
  EXPECT_LE(BigMisses, SmallMisses);
}

TEST(CacheSimTest, HierarchyForwardsMisses) {
  // L1: 16 lines, 8 sets, 2-way. L2: 128 lines, 32 sets, 4-way.
  MemoryHierarchy H({CacheConfig{1024, 2, 64}, CacheConfig{8 * 1024, 4, 64}});
  EXPECT_EQ(H.access(0), 2);  // cold: memory
  EXPECT_EQ(H.access(0), 0);  // L1 hit
  // Lines 8, 16, 24, 32 all map to L1 set 0 and push line 0 out of the
  // 2-way L1 set, while L2 set 0 only receives lines 0 and 32.
  for (int64_t I = 1; I <= 4; ++I)
    H.access(I * 512);
  int Level = H.access(0);
  EXPECT_EQ(Level, 1); // out of L1, still in L2
}

namespace {

/// LRU in its textbook, stamp-based form: every way carries the clock
/// value of its last use, a hit scans the ways, a miss fills the first
/// invalid way or else the way with the oldest stamp. The oracle that
/// CacheLevel's most-recent-first sets must match access by access.
class ReferenceLru {
public:
  explicit ReferenceLru(const CacheConfig &Config) : Config(Config) {
    NumSets = std::max<int64_t>(
        1, Config.SizeBytes / (Config.LineSize * Config.Associativity));
    Tags.assign(static_cast<size_t>(NumSets * Config.Associativity), -1);
    LastUse.assign(Tags.size(), 0);
  }

  bool access(int64_t Address) {
    ++Counters.Loads;
    ++Clock;
    int64_t Line = Address / Config.LineSize;
    size_t Base = static_cast<size_t>(Line % NumSets * Config.Associativity);
    for (int Way = 0; Way < Config.Associativity; ++Way)
      if (Tags[Base + static_cast<size_t>(Way)] == Line) {
        LastUse[Base + static_cast<size_t>(Way)] = Clock;
        ++Counters.Hits;
        return true;
      }
    ++Counters.Misses;
    size_t Victim = Base;
    bool FoundInvalid = false;
    for (int Way = 0; Way < Config.Associativity; ++Way) {
      size_t Slot = Base + static_cast<size_t>(Way);
      if (Tags[Slot] < 0) {
        Victim = Slot;
        FoundInvalid = true;
        break;
      }
      if (LastUse[Slot] < LastUse[Victim])
        Victim = Slot;
    }
    if (!FoundInvalid)
      ++Counters.Evictions;
    Tags[Victim] = Line;
    LastUse[Victim] = Clock;
    return false;
  }

  const CacheCounters &counters() const { return Counters; }

private:
  CacheConfig Config;
  int64_t NumSets = 1;
  std::vector<int64_t> Tags;
  std::vector<uint64_t> LastUse;
  uint64_t Clock = 0;
  CacheCounters Counters;
};

/// A seeded address stream over \p FootprintBytes: strided runs (unit,
/// line and odd strides, some longer than a line) mixed with random
/// reuse of addresses touched before.
std::vector<int64_t> addressStream(uint64_t Seed, int64_t FootprintBytes,
                                   size_t Length) {
  Rng Rand(Seed);
  std::vector<int64_t> Stream;
  Stream.reserve(Length);
  static const int64_t Strides[] = {8, 16, 64, 72, 200, 520, 4096};
  while (Stream.size() < Length) {
    if (!Stream.empty() && Rand.nextBool(0.3)) {
      for (int I = 0; I < 16 && Stream.size() < Length; ++I)
        Stream.push_back(Stream[Rand.nextBelow(Stream.size())]);
      continue;
    }
    int64_t Stride = Strides[Rand.nextBelow(std::size(Strides))];
    int64_t Address =
        static_cast<int64_t>(Rand.nextBelow(
            static_cast<uint64_t>(FootprintBytes))) & ~int64_t(7);
    int64_t Run = 1 + static_cast<int64_t>(Rand.nextBelow(256));
    for (int64_t I = 0; I < Run && Stream.size() < Length; ++I)
      Stream.push_back((Address + I * Stride) % FootprintBytes);
  }
  return Stream;
}

} // namespace

TEST(CacheSimTest, MatchesReferenceLru) {
  std::vector<CacheConfig> Geometries = defaultCacheHierarchy();
  Geometries.push_back(CacheConfig{4 * 1024, 1, 64});  // direct-mapped
  Geometries.push_back(CacheConfig{2 * 1024, 32, 64}); // fully associative
  Geometries.push_back(CacheConfig{48 * 3 * 4, 4, 48}); // 3 sets, 48B lines
  for (const CacheConfig &Config : Geometries)
    for (int Seed : {1, 2, 3}) {
      CacheLevel Level(Config);
      ReferenceLru Reference(Config);
      // Footprints of two, four and eight times the capacity.
      int64_t Footprint = Config.SizeBytes << Seed;
      std::vector<int64_t> Stream =
          addressStream(static_cast<uint64_t>(Seed), Footprint, 200000);
      for (size_t I = 0; I < Stream.size(); ++I)
        ASSERT_EQ(Level.access(Stream[I]), Reference.access(Stream[I]))
            << "size=" << Config.SizeBytes << " ways="
            << Config.Associativity << " line=" << Config.LineSize
            << " seed=" << Seed << " access " << I;
      const CacheCounters &Got = Level.counters();
      const CacheCounters &Want = Reference.counters();
      EXPECT_EQ(Got.Loads, Want.Loads);
      EXPECT_EQ(Got.Hits, Want.Hits);
      EXPECT_EQ(Got.Misses, Want.Misses);
      EXPECT_EQ(Got.Evictions, Want.Evictions);
      EXPECT_GT(Want.Hits, 0);
      EXPECT_GT(Want.Evictions, 0);
    }
}

TEST(CacheSimTest, ResetClearsState) {
  MemoryHierarchy H(defaultCacheHierarchy());
  H.access(128);
  H.reset();
  EXPECT_EQ(H.level(0).counters().Loads, 0);
  EXPECT_EQ(H.access(128), static_cast<int>(H.levels())); // cold again
}

//===----------------------------------------------------------------------===//
// Cost model
//===----------------------------------------------------------------------===//

TEST(SimulatorTest, FlopCountExact) {
  Program Prog = makeGemmVariant("i", "j", "k", 16);
  SimOptions Options;
  SimReport Report = simulateProgram(Prog, Options);
  EXPECT_EQ(Report.Flops, 2LL * 16 * 16 * 16);
  EXPECT_GT(Report.Seconds, 0.0);
}

TEST(SimulatorTest, Deterministic) {
  Program Prog = makeGemmVariant("i", "j", "k", 24);
  SimOptions Options;
  SimReport R1 = simulateProgram(Prog, Options);
  SimReport R2 = simulateProgram(Prog, Options);
  EXPECT_EQ(R1.Cycles, R2.Cycles);
  EXPECT_EQ(R1.Cache[0].Misses, R2.Cache[0].Misses);
}

TEST(SimulatorTest, LoopOrderMatters) {
  // j-innermost (unit stride on B and C) must beat i-innermost (column
  // strides everywhere) significantly — the Figure 1 effect.
  int N = 64;
  double GoodTime = simulatedSeconds(makeGemmVariant("i", "k", "j", N));
  double BadTime = simulatedSeconds(makeGemmVariant("j", "k", "i", N));
  EXPECT_GT(BadTime, GoodTime * 2.0);
}

TEST(SimulatorTest, VectorizationSpeedsUp) {
  int N = 32;
  Program Scalar = makeGemmVariant("i", "k", "j", N);
  Program Vector = Scalar.clone();
  auto Band = perfectNestBand(Vector.topLevel()[0]);
  Band.back()->setVectorized(true);
  double ScalarTime = simulatedSeconds(Scalar);
  double VectorTime = simulatedSeconds(Vector);
  EXPECT_LT(VectorTime, ScalarTime);
}

TEST(SimulatorTest, ParallelSpeedupAndSyncOverhead) {
  int N = 48;
  Program Prog = makeGemmVariant("i", "k", "j", N);
  auto Band = perfectNestBand(Prog.topLevel()[0]);
  Band[0]->setParallel(true);
  SimOptions Seq, Par;
  Seq.Threads = 1;
  Par.Threads = 8;
  double SeqTime = simulateProgram(Prog, Seq).Seconds;
  double ParTime = simulateProgram(Prog, Par).Seconds;
  EXPECT_LT(ParTime, SeqTime);
  EXPECT_GT(ParTime, SeqTime / 8.0); // overhead + efficiency loss
}

TEST(SimulatorTest, AtomicReductionIsExpensive) {
  int N = 64;
  Program Prog("red");
  Prog.addArray("A", {N});
  Prog.addArray("s", {});
  Prog.append(forLoop("i", 0, N,
                      {assignScalar("S0", "s",
                                    read("s") + read("A", {ax("i")}))}));
  auto *L = dynCast<Loop>(Prog.topLevel()[0]);
  double PlainTime = simulatedSeconds(Prog);
  L->setParallel(true);
  L->setAtomicReduction(true);
  SimOptions Par;
  Par.Threads = 8;
  double AtomicTime = simulateProgram(Prog, Par).Seconds;
  EXPECT_GT(AtomicTime, PlainTime); // atomics beat any parallel gain
}

TEST(SimulatorTest, BlasCallNearPeak) {
  int N = 128;
  Program Call("gemm_call");
  Call.addArray("A", {N, N});
  Call.addArray("B", {N, N});
  Call.addArray("C", {N, N});
  Call.append(std::make_shared<CallNode>(
      BlasKind::Gemm, std::vector<std::string>{"C", "A", "B"},
      std::vector<int64_t>{N, N, N}));
  SimOptions Options;
  SimReport Report = simulateProgram(Call, Options);
  double Peak = machinePeakMflops(Options.Cpu, 1);
  EXPECT_GT(Report.mflops(), 0.5 * Peak);
  EXPECT_LE(Report.mflops(), Peak);

  // And it must handily beat the naive loop nest.
  double LoopTime = simulatedSeconds(makeGemmVariant("i", "j", "k", N));
  EXPECT_LT(Report.Seconds, LoopTime / 4.0);
}

TEST(SimulatorTest, TilingReducesMisses) {
  // GEMM whose B operand (72KB) exceeds the 64KB L2: untiled k-innermost
  // sweeps B per (i, j) and thrashes L2; 16^3 tiles restore reuse.
  int N = 96;
  Program Prog = makeGemmVariant("i", "j", "k", N);
  SimOptions Options;
  SimReport Untiled = simulateProgram(Prog, Options);
  Program Tiled = Prog.clone();
  Tiled.topLevel()[0] = tileBand(Prog.topLevel()[0], {16, 16, 16},
                                 Prog.params());
  SimReport TiledReport = simulateProgram(Tiled, Options);
  EXPECT_LT(TiledReport.Cache[1].Misses, Untiled.Cache[1].Misses);
}

TEST(SimulatorTest, ReportsMatchThePinnedDigest) {
  // Every field of every report of the 45 PolyBench programs, as written
  // and normalized, on 1 and 8 simulated cores. The programs hold no
  // library calls, so the reports come from +, * and / on doubles alone,
  // which round the same on every IEEE 754 build (the build disables
  // a*b+c contraction), and a faster simulator must reproduce them bit
  // for bit. The constant was computed with the stamp-based LRU and the
  // per-access affine walk; any edit to the cost model changes it.
  HashCombiner Digest(0x73696D726570ull); // "simrep"
  for (PolyBenchKernel Kernel : allPolyBenchKernels())
    for (VariantKind Variant :
         {VariantKind::A, VariantKind::B, VariantKind::NPBench}) {
      Program Source = buildPolyBench(Kernel, Variant);
      for (const Program &Prog : {Source, normalize(Source)})
        for (int Threads : {1, 8}) {
          SimOptions Options;
          Options.Threads = Threads;
          SimReport Report = simulateProgram(Prog, Options);
          Digest.combineDouble(Report.Seconds);
          Digest.combineDouble(Report.Cycles);
          Digest.combine(static_cast<uint64_t>(Report.Flops));
          for (const LevelReport &Level : Report.Cache) {
            Digest.combine(static_cast<uint64_t>(Level.Loads));
            Digest.combine(static_cast<uint64_t>(Level.Hits));
            Digest.combine(static_cast<uint64_t>(Level.Misses));
            Digest.combine(static_cast<uint64_t>(Level.Evictions));
          }
        }
    }
  EXPECT_EQ(Digest.value(), 0xf5a8ff2609153f79ull);
}

TEST(SimulatorTest, PeakMflopsFormula) {
  CpuConfig Cpu;
  EXPECT_DOUBLE_EQ(machinePeakMflops(Cpu, 1), 2.5e9 * 16.0 / 1e6);
  EXPECT_DOUBLE_EQ(machinePeakMflops(Cpu, 12), 12 * 2.5e9 * 16.0 / 1e6);
}
