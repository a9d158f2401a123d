//===- bench/micro_search.cpp - scheduler search throughput ---------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Micro benchmark of the scheduler search pipeline (sched/Evaluator.h):
// wall-clock and candidates-evaluated/s for the evolutionary search
// (evolveRecipe) and full database seeding (DaisyScheduler::seedDatabase)
// on gemm and jacobi2d, under four evaluator configurations:
//
//   serial       — 1 thread, simulation cache off (the pre-Evaluator
//                  cost: every candidate pays a full simulator walk)
//   serial+cache — 1 thread, SimCache on
//   threads2/4   — SimCache on, candidate batches fanned over the pool
//
// Search results are asserted bit-identical across all configurations
// (the determinism guarantee SchedTest verifies exhaustively), and the
// SimCache hit rate is reported per run. Exits non-zero when the memoized
// serial evolutionary search is below the 2x target over the un-cached
// path unless --no-gate is given (CI records the JSON instead of gating).
//
// Usage: micro_search [--no-gate] [output.json]
// Writes BENCH_search.json (or the given path).
//
//===----------------------------------------------------------------------===//

#include "frontends/PolyBench.h"
#include "normalize/Pipeline.h"
#include "sched/Schedulers.h"
#include "support/Statistics.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace daisy;

namespace {

struct Config {
  std::string Name;
  int Threads = 1;
  bool Cache = true;
};

const std::vector<Config> &allConfigs() {
  static const std::vector<Config> Configs = {
      {"serial", 1, false},
      {"serial+cache", 1, true},
      {"threads2", 2, true},
      {"threads4", 4, true},
  };
  return Configs;
}

/// One measured run: wall seconds plus the counter deltas that happened
/// inside it.
struct Run {
  double Seconds = 0.0;
  int64_t Candidates = 0;
  int64_t CacheHits = 0;
  int64_t CacheMisses = 0;

  double candidatesPerSec() const {
    return Seconds > 0.0 ? static_cast<double>(Candidates) / Seconds : 0.0;
  }
  double hitRate() const {
    int64_t Total = CacheHits + CacheMisses;
    return Total > 0 ? static_cast<double>(CacheHits) /
                           static_cast<double>(Total)
                     : 0.0;
  }
};

/// Runs \p Body under a fresh counter window and collects the deltas.
/// \p Result receives a digest of the search output for the determinism
/// cross-check.
template <typename Fn> Run measure(const Fn &Body) {
  resetStatsCounters();
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start = Clock::now();
  Body();
  Run R;
  R.Seconds = std::chrono::duration<double>(Clock::now() - Start).count();
  R.Candidates = statsCounter("Evaluator.Candidates");
  R.CacheHits = statsCounter("SimCache.Hits");
  R.CacheMisses = statsCounter("SimCache.Misses");
  return R;
}

SearchBudget searchBudget() {
  SearchBudget Budget;
  Budget.MctsRollouts = 24;
  Budget.PopulationSize = 4;
  Budget.IterationsPerEpoch = 2;
  Budget.Epochs = 3;
  return Budget;
}

struct Workload {
  std::string Program;
  std::string Kind; ///< "evolve" or "seed_db"
  std::vector<Run> Runs; ///< One per config, allConfigs() order.
};

/// evolveRecipe on nest 0 of the normalized program.
Workload benchEvolve(const std::string &Name, const Program &Prog) {
  Workload W{Name, "evolve", {}};
  Program Norm = normalize(Prog);
  const SimOptions Sim;
  std::string Reference;
  for (const Config &C : allConfigs()) {
    EvalConfig EC;
    EC.NumThreads = C.Threads;
    EC.EnableCache = C.Cache;
    Evaluator Eval(Sim, EC);
    TransferTuningDatabase Db;
    Rng Rand(7);
    std::string Result;
    W.Runs.push_back(measure([&] {
      Recipe R = evolveRecipe(Norm, 0, Db, Eval, searchBudget(), Rand);
      Result = R.toString();
    }));
    if (Reference.empty())
      Reference = Result;
    if (Result != Reference) {
      std::fprintf(stderr,
                   "FAIL: %s evolveRecipe diverged under %s:\n  %s\n  %s\n",
                   Name.c_str(), C.Name.c_str(), Reference.c_str(),
                   Result.c_str());
      std::exit(1);
    }
  }
  return W;
}

/// Full database seeding. BLAS idioms are disabled so every nest goes
/// through the evolutionary search (otherwise gemm resolves to the idiom
/// recipe and no candidate is ever simulated).
Workload benchSeedDatabase(const std::string &Name, const Program &Prog) {
  Workload W{Name, "seed_db", {}};
  DaisyOptions Options;
  Options.Idioms.clear();
  const SimOptions Sim;
  std::string Reference;
  for (const Config &C : allConfigs()) {
    EvalConfig EC;
    EC.NumThreads = C.Threads;
    EC.EnableCache = C.Cache;
    Evaluator Eval(Sim, EC);
    TransferTuningDatabase Db;
    Rng Rand(7);
    std::string Result;
    W.Runs.push_back(measure([&] {
      DaisyScheduler::seedDatabase(Db, Prog, Eval, searchBudget(), Rand,
                                   Options);
      for (const DatabaseEntry &Entry : Db.entries())
        Result += Entry.Name + "=" + Entry.Optimization.toString() + ";";
    }));
    if (Reference.empty())
      Reference = Result;
    if (Result != Reference) {
      std::fprintf(stderr,
                   "FAIL: %s seedDatabase diverged under %s:\n  %s\n  %s\n",
                   Name.c_str(), C.Name.c_str(), Reference.c_str(),
                   Result.c_str());
      std::exit(1);
    }
  }
  return W;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *JsonPath = "BENCH_search.json";
  bool Gate = true;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--no-gate")
      Gate = false;
    else
      JsonPath = Argv[I];
  }

  Program Gemm = buildPolyBench(PolyBenchKernel::Gemm, VariantKind::A);
  Program Jacobi = buildPolyBench(PolyBenchKernel::Jacobi2d, VariantKind::A);

  std::vector<Workload> Workloads;
  Workloads.push_back(benchEvolve("gemm", Gemm));
  Workloads.push_back(benchEvolve("jacobi2d", Jacobi));
  Workloads.push_back(benchSeedDatabase("gemm", Gemm));
  Workloads.push_back(benchSeedDatabase("jacobi2d", Jacobi));

  std::printf("search throughput: wall seconds / candidates per second "
              "(SimCache hit rate)\n");
  std::printf("%-10s %-8s", "program", "kind");
  for (const Config &C : allConfigs())
    std::printf(" %22s", C.Name.c_str());
  std::printf("\n");
  for (const Workload &W : Workloads) {
    std::printf("%-10s %-8s", W.Program.c_str(), W.Kind.c_str());
    for (const Run &R : W.Runs)
      std::printf("  %7.3fs %7.0f/s %3.0f%%", R.Seconds,
                  R.candidatesPerSec(), 100.0 * R.hitRate());
    std::printf("\n");
  }

  // Gate: memoization alone must at least halve the serial evolutionary
  // search (geometric mean over the evolve workloads).
  double LogSum = 0.0;
  int Count = 0;
  for (const Workload &W : Workloads)
    if (W.Kind == "evolve") {
      double Speedup = W.Runs[1].Seconds > 0.0
                           ? W.Runs[0].Seconds / W.Runs[1].Seconds
                           : 0.0;
      LogSum += std::log(Speedup > 0.0 ? Speedup : 1e-9);
      ++Count;
    }
  double CacheSpeedup = Count > 0 ? std::exp(LogSum / Count) : 0.0;
  std::printf("\nSimCache serial speedup on evolveRecipe (geomean): %.2fx\n",
              CacheSpeedup);

  if (std::FILE *Json = std::fopen(JsonPath, "w")) {
    std::fprintf(Json, "{\n  \"cache_speedup\": %.3f,\n  \"benchmarks\": [\n",
                 CacheSpeedup);
    for (size_t WI = 0; WI < Workloads.size(); ++WI) {
      const Workload &W = Workloads[WI];
      std::fprintf(Json, "    {\"program\": \"%s\", \"kind\": \"%s\"",
                   W.Program.c_str(), W.Kind.c_str());
      for (size_t CI = 0; CI < allConfigs().size(); ++CI) {
        const Run &R = W.Runs[CI];
        std::string Prefix = allConfigs()[CI].Name;
        for (char &Ch : Prefix)
          if (Ch == '+')
            Ch = '_';
        std::fprintf(Json,
                     ", \"%s_seconds\": %.6f, \"%s_candidates_per_sec\": "
                     "%.1f, \"%s_hit_rate\": %.3f",
                     Prefix.c_str(), R.Seconds, Prefix.c_str(),
                     R.candidatesPerSec(), Prefix.c_str(), R.hitRate());
      }
      std::fprintf(Json, "}%s\n",
                   WI + 1 < Workloads.size() ? "," : "");
    }
    std::fprintf(Json, "  ]\n}\n");
    std::fclose(Json);
    std::printf("wrote %s\n", JsonPath);
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", JsonPath);
  }

  if (CacheSpeedup < 2.0) {
    std::printf("%s: SimCache speedup below 2x target\n",
                Gate ? "FAIL" : "WARN");
    return Gate ? 1 : 0;
  }
  std::printf("OK: SimCache speedup meets 2x target\n");
  return 0;
}
