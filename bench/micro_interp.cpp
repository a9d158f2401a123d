//===- bench/micro_interp.cpp - execution engine comparison ---------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Micro benchmark of the execution engines: the tree-walking interpreter
// (string-map lookups per element) against the compiled flat plan, the
// plan with specialized inner kernels, and the plan with parallel-marked
// loops forked over the thread pool. Every semanticallyEquivalent check
// and bench/fig* driver pays this cost, so the throughput here bounds how
// many scenarios the scheduler search can afford to evaluate.
//
// All engines run through the daisy::Engine / daisy::Kernel facade, so
// the numbers include the per-run context-pool handoff real callers pay
// (and benefit from: run scratch is reused, not reallocated). Two extra
// columns track the compile-once economics: cold compile cost and the
// cached-compile cost of an Engine plan-cache hit. Each row also records
// how the plans executed it: specialized kernels and block-evaluated
// inner loops of the plan+spec plan, parallel loops of the plan+par plan.
// CLOUDSC erosion runs twice: as the fused source body (whose 0-d scalars
// keep it on per-iteration tape evaluation) and a priori normalized
// (fissioned and scalar-expanded, so its inner loops run per block).
//
// Usage: micro_interp [--no-gate] [--threads N] [output.json]
// Prints a table and writes elements/sec for every engine to
// BENCH_interp.json (or the given path) to track the perf trajectory.
// --threads N sets the parallel engine's chunk count (default:
// DAISY_THREADS or the hardware concurrency). Exits non-zero when the
// serial-plan gemm speedup falls below the 10x target unless --no-gate is
// given (CI runners have unpredictable throughput, so CI records the JSON
// instead of gating on it).
//
//===----------------------------------------------------------------------===//

#include "api/Engine.h"
#include "cloudsc/Cloudsc.h"
#include "exec/Interpreter.h"
#include "exec/ThreadPool.h"
#include "frontends/PolyBench.h"
#include "normalize/Pipeline.h"
#include "support/Statistics.h"
#include "transform/Parallelize.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

using namespace daisy;

namespace {

/// Number of element writes one execution of \p Prog performs (the unit of
/// "elements/sec"): every computation instance writes exactly one element,
/// and a BLAS call writes its output once per (i, j).
int64_t countElementWrites(const std::vector<NodePtr> &Nodes, ValueEnv &Env);

int64_t countElementWrites(const NodePtr &Node, ValueEnv &Env) {
  if (dynCast<Computation>(Node))
    return 1;
  if (const auto *Call = dynCast<CallNode>(Node)) {
    const auto &Dims = Call->dims();
    switch (Call->callee()) {
    case BlasKind::Gemm:
      return Dims[0] * Dims[1];
    case BlasKind::Syrk:
    case BlasKind::Syr2k:
      return Dims[0] * (Dims[0] + 1) / 2;
    case BlasKind::Gemv:
      return Dims[0];
    }
    return 0;
  }
  const auto *L = dynCast<Loop>(Node);
  int64_t Lo = L->lower().evaluate(Env);
  int64_t Hi = L->upper().evaluate(Env);
  int64_t Total = 0;
  auto Previous = Env.find(L->iterator());
  bool HadPrevious = Previous != Env.end();
  int64_t PreviousValue = HadPrevious ? Previous->second : 0;
  for (int64_t I = Lo; I < Hi; I += L->step()) {
    Env[L->iterator()] = I;
    Total += countElementWrites(L->body(), Env);
  }
  if (HadPrevious)
    Env[L->iterator()] = PreviousValue;
  else
    Env.erase(L->iterator());
  return Total;
}

int64_t countElementWrites(const std::vector<NodePtr> &Nodes, ValueEnv &Env) {
  int64_t Total = 0;
  for (const NodePtr &Node : Nodes)
    Total += countElementWrites(Node, Env);
  return Total;
}

int64_t countElementWrites(const Program &Prog) {
  ValueEnv Env = Prog.params();
  return countElementWrites(Prog.topLevel(), Env);
}

/// Plan-cache hits spent inside the compile-cost timing loops, excluded
/// from the reported counters so the "plan cache" block reflects the
/// workload, not the measurement.
int64_t TimingLoopHits = 0;

/// Runs \p Body repeatedly until at least \p MinSeconds elapsed; returns
/// seconds per run.
double timePerRun(const std::function<void()> &Body,
                  double MinSeconds = 0.25) {
  using Clock = std::chrono::steady_clock;
  int Reps = 0;
  Clock::time_point Start = Clock::now();
  double Elapsed = 0.0;
  do {
    Body();
    ++Reps;
    Elapsed = std::chrono::duration<double>(Clock::now() - Start).count();
  } while (Elapsed < MinSeconds);
  return Elapsed / Reps;
}

struct Row {
  std::string Name;
  int64_t Elements = 0;
  double TreeWalk = 0.0; ///< elements/sec, tree-walking interpreter
  double Plan = 0.0;     ///< serial plan, no specialization
  double Spec = 0.0;     ///< serial plan + specialized kernels
  double Par = 0.0;      ///< parallel-marked plan + kernels, N threads
  double ColdCompile = 0.0;   ///< seconds, Kernel::compile from scratch
  double CachedCompile = 0.0; ///< seconds, Engine::compile plan-cache hit
  size_t SpecializedKernels = 0; ///< of the plan+spec plan
  size_t BlockedLoops = 0;       ///< of the plan+spec plan
  size_t ParallelLoops = 0;      ///< of the plan+par plan
  double planSpeedup() const {
    return TreeWalk > 0.0 ? Plan / TreeWalk : 0.0;
  }
};

double elemsPerSec(int64_t Elements, const Kernel &K) {
  DataEnv Env(K.program());
  Env.initDeterministic(1);
  double Seconds = timePerRun([&] { K.run(Env); });
  return static_cast<double>(Elements) / Seconds;
}

Row benchProgram(Engine &Eng, const std::string &Name, const Program &Prog,
                 int Threads) {
  Row Result;
  Result.Name = Name;
  Result.Elements = countElementWrites(Prog);

  DataEnv Walked(Prog);
  Walked.initDeterministic(1);
  double WalkSeconds =
      timePerRun([&] { interpretTreeWalk(Prog, Walked); });
  Result.TreeWalk = static_cast<double>(Result.Elements) / WalkSeconds;

  PlanOptions PlainOpts;
  PlainOpts.NumThreads = 1;
  PlainOpts.EnableSpecialization = false;
  Result.Plan = elemsPerSec(Result.Elements, Eng.compile(Prog, PlainOpts));

  PlanOptions SpecOpts;
  SpecOpts.NumThreads = 1;
  Kernel Spec = Eng.compile(Prog, SpecOpts);
  Result.Spec = elemsPerSec(Result.Elements, Spec);
  ExecPlan::Stats SpecStats = Spec.plan().stats();
  Result.SpecializedKernels = SpecStats.SpecializedKernels;
  Result.BlockedLoops = SpecStats.BlockedLoops;

  // Compile-once economics: a cold compile lowers the whole program; a
  // warm Engine::compile is a hash + handle copy. The warm path was
  // primed by the Spec row above (same program, same options).
  Result.ColdCompile = timePerRun([&] { Kernel::compile(Prog, SpecOpts); });
  int64_t HitsBefore = statsCounter("Engine.PlanCacheHits");
  Result.CachedCompile = timePerRun([&] { Eng.compile(Prog, SpecOpts); });
  TimingLoopHits += statsCounter("Engine.PlanCacheHits") - HitsBefore;

  // Parallel engine: mark the program the way the schedulers do, then
  // chunk over the pool.
  Program Marked = Prog.clone();
  for (const NodePtr &Node : Marked.topLevel())
    parallelizeOutermost(Node, Marked.params(), &Marked);
  PlanOptions ParOpts;
  ParOpts.NumThreads = Threads;
  Kernel Par = Eng.compile(Marked, ParOpts);
  Result.Par = elemsPerSec(Result.Elements, Par);
  Result.ParallelLoops = Par.plan().stats().ParallelLoops;
  return Result;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *JsonPath = "BENCH_interp.json";
  bool Gate = true;
  int Threads = ThreadPool::defaultThreadCount();
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--no-gate") {
      Gate = false;
    } else if (Arg == "--threads") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: --threads requires a value\n");
        return 2;
      }
      Threads = std::atoi(Argv[++I]);
    } else {
      JsonPath = Argv[I];
    }
  }
  if (Threads < 1)
    Threads = 1;

  resetStatsCounters();
  Engine Eng;

  std::vector<Row> Rows;
  Rows.push_back(benchProgram(
      Eng, "gemm", buildPolyBench(PolyBenchKernel::Gemm, VariantKind::A),
      Threads));
  Rows.push_back(benchProgram(
      Eng, "jacobi2d",
      buildPolyBench(PolyBenchKernel::Jacobi2d, VariantKind::A), Threads));
  CloudscConfig Config;
  Config.Nblocks = 1;
  Rows.push_back(benchProgram(Eng, "cloudsc_erosion",
                              buildErosionKernel(Config), Threads));
  Rows.push_back(benchProgram(Eng, "cloudsc_erosion_normalized",
                              normalize(buildErosionKernel(Config)), Threads));

  std::printf("engines: el/s as tree-walk / plan / plan+spec / "
              "plan+par(%d threads); compile cost cold vs plan-cache hit; "
              "specialized/blocked/parallel loops\n",
              Threads);
  std::printf("%-26s %10s %12s %12s %12s %12s %8s %10s %10s %8s\n",
              "kernel", "elements", "tree-walk", "plan", "plan+spec",
              "plan+par", "plan-x", "compile", "cached", "spc/blk/par");
  bool GemmFastEnough = false;
  for (const Row &R : Rows) {
    std::printf("%-26s %10lld %12.3e %12.3e %12.3e %12.3e %7.2fx %8.1fus "
                "%8.3fus %3zu/%zu/%zu\n",
                R.Name.c_str(), static_cast<long long>(R.Elements),
                R.TreeWalk, R.Plan, R.Spec, R.Par, R.planSpeedup(),
                R.ColdCompile * 1e6, R.CachedCompile * 1e6,
                R.SpecializedKernels, R.BlockedLoops, R.ParallelLoops);
    if (R.Name == "gemm")
      GemmFastEnough = R.planSpeedup() >= 10.0;
  }
  std::printf("plan cache: %lld compiles, %lld hits, %lld entries\n",
              static_cast<long long>(statsCounter("Engine.PlanCompiles")),
              static_cast<long long>(statsCounter("Engine.PlanCacheHits") -
                                     TimingLoopHits),
              static_cast<long long>(Eng.planCacheSize()));

  if (std::FILE *Json = std::fopen(JsonPath, "w")) {
    std::fprintf(Json, "{\n  \"threads\": %d,\n", Threads);
    std::fprintf(
        Json,
        "  \"plan_cache\": {\"compiles\": %lld, \"hits\": %lld, "
        "\"entries\": %lld},\n",
        static_cast<long long>(statsCounter("Engine.PlanCompiles")),
        static_cast<long long>(statsCounter("Engine.PlanCacheHits") -
                               TimingLoopHits),
        static_cast<long long>(Eng.planCacheSize()));
    std::fprintf(Json, "  \"benchmarks\": [\n");
    for (size_t I = 0; I < Rows.size(); ++I) {
      const Row &R = Rows[I];
      std::fprintf(Json,
                   "    {\"name\": \"%s\", \"elements\": %lld, "
                   "\"tree_walk_elems_per_sec\": %.6e, "
                   "\"compiled_elems_per_sec\": %.6e, "
                   "\"specialized_elems_per_sec\": %.6e, "
                   "\"parallel_elems_per_sec\": %.6e, "
                   "\"speedup\": %.3f, "
                   "\"compile_seconds\": %.6e, "
                   "\"cached_compile_seconds\": %.6e, "
                   "\"specialized_kernels\": %zu, "
                   "\"blocked_loops\": %zu, "
                   "\"parallel_loops\": %zu}%s\n",
                   R.Name.c_str(), static_cast<long long>(R.Elements),
                   R.TreeWalk, R.Plan, R.Spec, R.Par, R.planSpeedup(),
                   R.ColdCompile, R.CachedCompile, R.SpecializedKernels,
                   R.BlockedLoops, R.ParallelLoops,
                   I + 1 < Rows.size() ? "," : "");
    }
    std::fprintf(Json, "  ]\n}\n");
    std::fclose(Json);
    std::printf("\nwrote %s\n", JsonPath);
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", JsonPath);
  }

  if (!GemmFastEnough) {
    std::printf("%s: serial-plan gemm speedup below 10x target\n",
                Gate ? "FAIL" : "WARN");
    return Gate ? 1 : 0;
  }
  std::printf("OK: serial-plan gemm speedup meets 10x target\n");
  return 0;
}
