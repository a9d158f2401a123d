//===- bench/micro_passes.cpp - compiler-pass microbenchmarks -------------==//
//
// Part of the daisy project. MIT license.
//
// google-benchmark microbenchmarks of the compiler passes themselves
// (normalization, dependence analysis, scheduling, simulation): the
// compile-time cost of a priori normalization, which the paper argues is
// negligible next to auto-scheduler search. The simulation rows report
// simulated accesses per second (items_per_second), the throughput that
// bounds candidate scoring in the schedule searches.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/Dependence.h"
#include "cloudsc/Cloudsc.h"
#include "frontends/PolyBench.h"
#include "machine/Simulator.h"
#include "normalize/Pipeline.h"

#include <benchmark/benchmark.h>

using namespace daisy;

static void BM_Normalize(benchmark::State &State) {
  Program Prog = buildPolyBench(PolyBenchKernel::Gemm, VariantKind::B);
  for (auto _ : State) {
    Program Norm = normalize(Prog);
    benchmark::DoNotOptimize(Norm);
  }
}
BENCHMARK(BM_Normalize);

static void BM_NormalizeGemver(benchmark::State &State) {
  // Gemver B: the multi-nest composed-BLAS shape (formerly mislabeled as
  // "CloudscScale" — the real CLOUDSC-scale measurement is below).
  Program Prog =
      buildPolyBench(PolyBenchKernel::Gemver, VariantKind::B);
  for (auto _ : State) {
    Program Norm = normalize(Prog);
    benchmark::DoNotOptimize(Norm);
  }
}
BENCHMARK(BM_NormalizeGemver);

static void BM_NormalizeCloudsc(benchmark::State &State) {
  // The actual CLOUDSC-scale input: the Fortran-structure proxy model,
  // whose nest count and body sizes dominate normalization cost. One
  // block suffices — blocks are structurally identical, and the passes
  // are symbolic (cost scales with IR size, not iteration counts).
  CloudscConfig Config;
  Config.Nblocks = 1;
  Program Prog = buildCloudsc(Config, CloudscVariant::Fortran);
  for (auto _ : State) {
    Program Norm = normalize(Prog);
    benchmark::DoNotOptimize(Norm);
  }
}
BENCHMARK(BM_NormalizeCloudsc);

static void BM_NormalizeCloudscDaCe(benchmark::State &State) {
  // The DaCe variant at the same size: its 30 full-shape transients make
  // it the one input transient contraction rewrites, so this row carries
  // the contraction's compile-time cost beside the fission it saves.
  CloudscConfig Config;
  Config.Nblocks = 1;
  Program Prog = buildCloudsc(Config, CloudscVariant::DaCe);
  for (auto _ : State) {
    Program Norm = normalize(Prog);
    benchmark::DoNotOptimize(Norm);
  }
}
BENCHMARK(BM_NormalizeCloudscDaCe);

static void BM_DependenceAnalysis(benchmark::State &State) {
  Program Prog = buildPolyBench(PolyBenchKernel::Fdtd2d, VariantKind::A);
  for (auto _ : State) {
    auto Deps = computeDependences(Prog.topLevel(), Prog.params());
    benchmark::DoNotOptimize(Deps);
  }
}
BENCHMARK(BM_DependenceAnalysis);

static void BM_DependenceAnalysisCloudsc(benchmark::State &State) {
  // The raw Fortran program before normalization: its fused many-statement
  // bodies give the analysis the most statement pairs to test.
  Program Prog = buildCloudsc(CloudscConfig(), CloudscVariant::Fortran);
  for (auto _ : State) {
    auto Deps = computeDependences(Prog.topLevel(), Prog.params());
    benchmark::DoNotOptimize(Deps);
  }
}
BENCHMARK(BM_DependenceAnalysisCloudsc);

static void BM_ScheduleCloudsc(benchmark::State &State) {
  // Engine::schedule of the three CLOUDSC variants at the default
  // configuration on an empty database: the scheduling half of a cold
  // Engine::optimize in perfbench's cloudsc_variants workload (normalize,
  // idiom lift, transfer lookup), without the plan compile.
  std::vector<Program> Variants;
  for (CloudscVariant Variant :
       {CloudscVariant::Fortran, CloudscVariant::C, CloudscVariant::DaCe})
    Variants.push_back(buildCloudsc(CloudscConfig(), Variant));
  Engine Eng(bench::benchEngineOptions(8));
  for (auto _ : State)
    for (const Program &Prog : Variants) {
      Program Scheduled = Eng.schedule(Prog);
      benchmark::DoNotOptimize(Scheduled);
    }
}
BENCHMARK(BM_ScheduleCloudsc)->Unit(benchmark::kMillisecond);

/// Simulates every program of \p Programs once per iteration and reports
/// simulated accesses (the loads that reach L1) per second.
static void simulateEach(benchmark::State &State,
                         const std::vector<Program> &Programs) {
  SimOptions Options;
  int64_t Accesses = 0;
  for (auto _ : State)
    for (const Program &Prog : Programs) {
      SimReport Report = simulateProgram(Prog, Options);
      Accesses += Report.Cache[0].Loads;
      benchmark::DoNotOptimize(Report);
    }
  State.SetItemsProcessed(Accesses);
}

static void BM_SimulateGemm(benchmark::State &State) {
  simulateEach(State,
               {buildPolyBench(PolyBenchKernel::Gemm, VariantKind::A)});
}
BENCHMARK(BM_SimulateGemm);

static void BM_SimulatePolyBenchNormalized(benchmark::State &State) {
  // The 15 normalized A variants: the nests the transfer-tuning database
  // is seeded from, whose candidate scoring is almost all simulation.
  std::vector<Program> Programs;
  for (PolyBenchKernel Kernel : allPolyBenchKernels())
    Programs.push_back(normalize(buildPolyBench(Kernel, VariantKind::A)));
  simulateEach(State, Programs);
}
BENCHMARK(BM_SimulatePolyBenchNormalized)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
