//===- machine/Simulator.h - Performance simulation ---------------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated machine that replaces the paper's hardware testbed.
///
/// simulateProgram walks a program's exact iteration space, feeds every
/// array access through the cache simulator, and charges cycles from a
/// Haswell-class CPU model: scalar/vector FLOP throughput, per-level
/// access latencies, parallel-region speedup with synchronization
/// overhead, and an atomic-update penalty for atomic reductions. Library
/// calls (CallNode) are charged near machine peak via the BLAS efficiency
/// model.
///
/// The walk is the inner loop of every schedule search, so it is built
/// for speed without changing a number: per-level access costs and each
/// computation's compute cycles come from tables built once per
/// simulation, and an innermost loop whose body holds only computations
/// evaluates each address once and then advances it by its constant
/// stride. Accesses reach the cache hierarchy, and cycles accumulate, in
/// the same order as a per-access evaluation of the affine subscripts,
/// so every SimReport is bit-identical to that walk
/// (SimulatorTest.ReportsMatchThePinnedDigest pins them).
///
/// The absolute numbers are model outputs, not wall-clock measurements;
/// what the benches rely on is that the model responds to loop order,
/// fission/fusion, tiling, vectorization, and parallelization the way the
/// real machine does — which is exactly what the cache simulator plus the
/// throughput model provide.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_MACHINE_SIMULATOR_H
#define DAISY_MACHINE_SIMULATOR_H

#include "ir/Program.h"
#include "machine/CacheSim.h"

#include <string>
#include <vector>

namespace daisy {

/// CPU throughput and latency parameters (Haswell-class defaults).
struct CpuConfig {
  double FrequencyGHz = 2.5;
  /// SIMD lanes for doubles (AVX2).
  int SimdWidth = 4;
  /// Sustained scalar flops per cycle (one FMA pipe).
  double ScalarFlopsPerCycle = 2.0;
  /// Peak flops per cycle with FMA + AVX (two FMA pipes x 4 lanes x 2).
  double PeakFlopsPerCycle = 16.0;
  /// Cycles charged per access that hits at level i (L1, L2, L3). These
  /// are amortized costs: raw latencies divided by the memory-level
  /// parallelism an out-of-order core extracts.
  std::vector<double> HitLatency = {1.0, 4.0, 14.0};
  /// Amortized cycles charged per access that misses all levels.
  double MemoryLatency = 44.0;
  /// Cycles per atomic read-modify-write under contention.
  double AtomicCost = 48.0;
  /// Cycles to fork/join one parallel region.
  double SyncOverheadCycles = 25000.0;
  /// Per-extra-thread efficiency loss in parallel regions.
  double ParallelEfficiencyLoss = 0.02;

  /// Register-pressure model: an innermost loop whose body holds more
  /// live computations than the register file sustains spills. Each
  /// computation beyond the threshold costs extra L1 traffic to a stack
  /// region (the paper's CLOUDSC observation: inlining and unrolling make
  /// "the loop body significantly larger than the source code suggests,
  /// potentially hindering crucial compiler optimizations such as
  /// register allocation", §5.1).
  int RegisterPressureThreshold = 8;
  /// Extra stack accesses charged per over-threshold computation.
  int SpillAccessesPerComputation = 2;
};

/// Simulation options.
struct SimOptions {
  CpuConfig Cpu;
  std::vector<CacheConfig> Caches = defaultCacheHierarchy();
  int Threads = 1;
};

/// Per-level counters as reported by the simulation.
struct LevelReport {
  int64_t Loads = 0;
  int64_t Hits = 0;
  int64_t Misses = 0;
  int64_t Evictions = 0;
};

/// Result of simulating one program execution.
struct SimReport {
  double Cycles = 0.0;
  double Seconds = 0.0;
  int64_t Flops = 0;
  std::vector<LevelReport> Cache;

  double mflops() const {
    return Seconds > 0 ? static_cast<double>(Flops) / Seconds / 1e6 : 0.0;
  }
};

/// Peak MFLOP/s of the simulated machine with \p Threads cores.
double machinePeakMflops(const CpuConfig &Cpu, int Threads);

/// 64-bit digest of every field of \p Options (CPU model, cache
/// hierarchy, thread count). Two SimOptions with equal digests simulate
/// any program to the same report; the scheduler's simulation cache
/// (sched/Evaluator.h) mixes this into its keys so results obtained under
/// one machine model are never served under another.
uint64_t simOptionsDigest(const SimOptions &Options);

/// Simulates one execution of \p Prog and returns the cost report.
SimReport simulateProgram(const Program &Prog, const SimOptions &Options);

/// Convenience: simulated runtime in seconds with default options.
double simulatedSeconds(const Program &Prog, int Threads = 1);

} // namespace daisy

#endif // DAISY_MACHINE_SIMULATOR_H
