//===- perfbench/src/CompileWorkloads.cpp - optimize-then-run workloads ---===//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// polybench_variants and cloudsc_variants share one shape: set up an
/// engine (seeding its database for polybench_variants), optimize every
/// program with a cold plan cache, run each optimized kernel warm, and
/// check each output against the tree-walk run of its unscheduled source.
///
/// Seen as one client's requests, the same loop also yields the latency
/// metrics: a cold request (source to checked result) and the warm runs'
/// tail. Every timed operation, set-up included, is host-normalized (see
/// Harness.h).
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "BenchCommon.h"
#include "cloudsc/Cloudsc.h"
#include "exec/ThreadPool.h"
#include "ir/StructuralHash.h"
#include "support/Random.h"
#include "support/Statistics.h"

#include <functional>
#include <memory>
#include <numeric>

using namespace daisy;

namespace perfbench {

namespace {

struct CompileWorkload {
  std::function<std::vector<BenchProgram>()> Build;
  /// Seed the database from the programs whose Variant is "A".
  bool SeedFromA = false;
  /// The traced run also measures the serve layer (measureServing).
  bool Serves = false;
  /// Plans run on the default thread count and, keeping every core busy,
  /// are normalized by the probe on every plan thread (see Harness.h).
  /// Otherwise they run on the calling thread alone (NumThreads = 1).
  bool ParallelPlans = false;
  /// Set-ups per untraced run: the first before the window, the others
  /// one at the start of each of the first rounds, so that setup_s samples
  /// the whole run rather than one burst of it.
  int SetupRepeats = 3;
};

/// The measured window runs at least this many rounds: 34 x RunsPerVisit
/// = 102 timed warm runs a program, so each program's p90 has 10 samples
/// beyond it.
constexpr int MinRounds = 34;
constexpr int RunsPerVisit = 3;

struct EngineSetup {
  std::unique_ptr<Engine> Eng;
  double Seconds = 0.0, SeedS = 0.0; ///< Wall-clock.
  double NormalizedS = 0.0;          ///< Host-normalized.
  int64_t Candidates = 0, SimHits = 0, SimMisses = 0;
};

/// benchEngineOptions, with one plan thread unless \p W's plans are
/// parallel.
EngineOptions engineOptions(const CompileWorkload &W) {
  EngineOptions Options = benchEngineOptions();
  if (!W.ParallelPlans)
    Options.Plan.NumThreads = 1;
  return Options;
}

/// What a user pays once before the first optimize: lifting the sources,
/// constructing the engine and, for polybench_variants, seeding its
/// database from the A variants. Each piece (the lifting, the engine, each
/// seeded program) is normalized by a probe of the host before it.
EngineSetup setUpEngine(const CompileWorkload &W, RunResult &R) {
  EngineSetup S;
  int64_t Cand0 = statsCounter("Evaluator.Candidates"),
          Hit0 = statsCounter("SimCache.Hits"),
          Miss0 = statsCounter("SimCache.Misses");
  auto piece = [&](auto &&Work) {
    double Slowdown = R.probeHost();
    Clock::time_point Start = Clock::now();
    Work();
    double Seconds = secondsSince(Start);
    S.Seconds += Seconds;
    S.NormalizedS += Seconds / Slowdown;
    return Seconds;
  };
  std::vector<BenchProgram> Lifted;
  piece([&] {
    TraceSpan Span(TraceCategory::Bench, "frontends.build");
    Lifted = W.Build();
  });
  piece([&] { S.Eng = std::make_unique<Engine>(engineOptions(W)); });
  if (W.SeedFromA) {
    TuneOptions Tune;
    Tune.Budget = bench::benchBudget();
    for (const BenchProgram &P : Lifted) {
      if (P.Variant != "A")
        continue;
      S.SeedS += piece([&] {
        TraceSpan Span(TraceCategory::Bench, "sched.seed");
        S.Eng->seedDatabase(P.Source, Tune);
      });
    }
  }
  S.Candidates = statsCounter("Evaluator.Candidates") - Cand0;
  S.SimHits = statsCounter("SimCache.Hits") - Hit0;
  S.SimMisses = statsCounter("SimCache.Misses") - Miss0;
  return S;
}

/// One optimize + one warm run of every program, timed as a whole: the
/// unit of the traced-vs-untraced overhead comparison.
double overheadRound(Engine &Eng, const std::vector<BenchProgram> &Programs,
                     std::vector<RunSlot> &Slots, RunResult &R) {
  Clock::time_point Start = Clock::now();
  for (size_t I = 0; I < Programs.size(); ++I) {
    Eng.clearPlanCache();
    {
      TraceSpan Span(TraceCategory::Bench, "api.optimize");
      Eng.optimize(Programs[I].Source);
    }
    timedRun(Slots[I], Programs[I].Name, R);
  }
  return secondsSince(Start);
}

RunResult runCompileWorkload(const CompileWorkload &W, const Options &O) {
  RunResult R;
  R.PlanThreads = W.ParallelPlans ? ThreadPool::defaultThreadCount() : 1;
  TraceRecorder &Recorder = TraceRecorder::instance();
  if (O.Trace)
    Recorder.enable(1 << 20);

  // Inputs and the oracle come first, outside every timed region.
  std::vector<BenchProgram> Programs = W.Build();
  const size_t N = Programs.size();
  std::vector<std::string> Names = namesOf(Programs);
  std::vector<ArgBuffers> Pristine, Refs;
  for (const BenchProgram &P : Programs) {
    Pristine.emplace_back(P.Source, O.Seed);
    Refs.push_back(referenceOutput(P.Source, O.Seed));
  }

  EngineSetup Setup = setUpEngine(W, R);
  Engine &Eng = *Setup.Eng;
  std::vector<double> SetupS = {Setup.NormalizedS};

  // Engine::optimize with a cold plan cache, after a probe of the host;
  // \p Ms receives its time in ms. A throw or a fallback to the
  // tree-walker is a failure and yields a null kernel.
  auto optimizeCold = [&](size_t I, Timing &Ms) {
    Eng.clearPlanCache();
    ++R.Attempted;
    Kernel K;
    Ms.Slowdown = R.probeHost();
    Clock::time_point Start = Clock::now();
    try {
      TraceSpan Span(TraceCategory::Bench, "api.optimize");
      K = Eng.optimize(Programs[I].Source);
    } catch (const std::exception &E) {
      R.fail(Names[I] + ": optimize threw: " + E.what());
      return Kernel();
    }
    Ms.Value = secondsSince(Start) * 1e3 / Ms.Slowdown;
    if (K.isTreeWalk() || K.isExhausted()) {
      R.fail(Names[I] + ": optimize fell back instead of compiling");
      return Kernel();
    }
    return K;
  };

  // The first optimize of each program yields the kernel whose warm runs
  // are timed; every later one must produce the same schedule.
  std::vector<Kernel> Optimized(N);
  std::vector<uint64_t> FirstHash(N, 0);
  for (size_t I : seededOrder(N, deriveSeed(O.Seed, 0x0B7))) {
    Timing Ms;
    Optimized[I] = optimizeCold(I, Ms);
    if (!Optimized[I])
      return R; // Nothing to run.
    FirstHash[I] = structuralHashWithMarks(Optimized[I].program());
  }
  std::vector<RunSlot> Slots;
  for (size_t I = 0; I < N; ++I) {
    Slots.push_back(makeRunSlot(Optimized[I], Pristine[I], Names[I], R));
    Slots.back().ProbeAllCores = W.ParallelPlans;
  }

  // A cold request takes a program from source to a checked result:
  // Engine::optimize with a cold plan cache, Kernel::bind and the first
  // Kernel::run on fresh inputs, each part normalized by the probe before
  // it (bind and run by the kernel's own kind of probe); the output is
  // checked afterwards.
  std::vector<std::vector<Timing>> OptMs(N), ColdMs(N);
  std::vector<Timing> AllOptMs;
  auto coldRequest = [&](size_t I) {
    ArgBuffers &Work = Slots[I].Work;
    Work.restoreFrom(Pristine[I]);
    Timing Ms;
    Kernel K = optimizeCold(I, Ms);
    if (!K)
      return;
    double RunSlowdown =
        W.ParallelPlans ? R.probeHost(true) : Ms.Slowdown;
    Clock::time_point Start = Clock::now();
    BoundArgs Bound;
    RunStatus Status;
    {
      TraceSpan Span(TraceCategory::Bench, "serve.bind");
      Bound = K.bind(Work.binding());
    }
    if (Bound.ok()) {
      TraceSpan Span(TraceCategory::Bench, "exec.run");
      Status = K.run(Bound);
    }
    Timing RequestMs{Ms.Value + secondsSince(Start) * 1e3 / RunSlowdown,
                     RunSlowdown};
    ++R.Attempted;
    if (!Bound.ok())
      R.fail(Names[I] + ": bind failed: " + Bound.error());
    else if (!Status.ok())
      R.fail(Names[I] + ": first run failed: " + Status.Error);
    else if (structuralHashWithMarks(K.program()) != FirstHash[I])
      R.fail(Names[I] + ": optimize is not deterministic");
    else if (checkOutput(Work, Refs[I], Names[I], R)) {
      OptMs[I].push_back(Ms);
      AllOptMs.push_back(Ms);
      ColdMs[I].push_back(RequestMs);
    }
  };

  // The measured window: rounds that each take every program through a
  // cold request and then run its kept kernel warm (one untimed run, then
  // RunsPerVisit timed ones), in a seeded order per round, so that every
  // metric samples the whole window. The later set-ups open the first
  // rounds; their time does not count against the window.
  const int Rounds = O.Trace ? 5 : MinRounds;
  const int Setups = O.Trace ? 1 : W.SetupRepeats;
  const double Budget = O.Trace ? 0.0 : O.Seconds;
  double SetupInWindowS = 0.0;
  Clock::time_point WindowStart = Clock::now();
  for (int Round = 0;
       Round < Rounds || secondsSince(WindowStart) - SetupInWindowS < Budget;
       ++Round) {
    if (static_cast<int>(SetupS.size()) < Setups) {
      EngineSetup Again = setUpEngine(W, R);
      SetupS.push_back(Again.NormalizedS);
      SetupInWindowS += Again.Seconds;
    }
    for (size_t I : seededOrder(N, deriveSeed(O.Seed, Round))) {
      coldRequest(I);
      Eng.clearPlanCache(); // Frees the fresh plan: the warm runs and the
                            // peak resident set see the kept kernels only.
      timedRun(Slots[I], Names[I], R);
      for (int Run = 0; Run < RunsPerVisit; ++Run) {
        Timing Us = timedRun(Slots[I], Names[I], R);
        if (Us.Value >= 0.0)
          Slots[I].Runs.push_back(Us);
      }
    }
  }
  std::vector<double> RunUs = medianRunUs(Slots);
  checkOutputs(Slots, Names, Refs, R);

  ProgramDetail Detail =
      measureDetail(Eng, Programs, Optimized, Pristine, RunUs, O.Seed, R);
  std::vector<double> OptMedians, ColdMedians, P90Ms;
  for (size_t I = 0; I < N; ++I) {
    OptMedians.push_back(quietMedian(OptMs[I]));
    ColdMedians.push_back(quietMedian(ColdMs[I]));
    P90Ms.push_back(quantile(valuesOf(Slots[I].Runs), 0.90) * 1e-3);
    if (!O.Trace && samplesBeyond(Slots[I].Runs.size(), 90) < 10)
      R.fail(Names[I] + ": too few runs for a p90 with 10 samples beyond");
  }
  addProgramRows(Programs, OptMedians, RunUs, Detail, R);

  auto &M = R.Metrics;
  if (!O.Trace) {
    M["setup_s"] = median(SetupS);
    M["optimize_ms_p50"] = quietMedian(AllOptMs);
    M["run_us_geomean"] = geomean(RunUs);
    // A typical program's cold-request and warm-run tail latency (each
    // program's quantile from its own samples, geomean across programs,
    // so no one program's share of the pooled samples decides the value).
    M["latency_ms_p50"] = geomean(ColdMedians);
    M["latency_ms_tail"] = geomean(P90Ms);
    // Derived from latency_ms_p50's per-program medians: programs per
    // second one client takes from source to a checked result. Their sum
    // weights the heavy programs, which the geomean discounts.
    M["max_rps"] =
        static_cast<double>(N) /
        (std::accumulate(ColdMedians.begin(), ColdMedians.end(), 0.0) * 1e-3);
    M["peak_rss_mb"] = peakRssMb();

    TailChoice OptTail = chooseTailPercentile(valuesOf(AllOptMs));
    R.report("setup_s", M["setup_s"], "s",
             "median of " + std::to_string(SetupS.size()) + " set-ups");
    R.report("optimize_ms_p50", M["optimize_ms_p50"], "ms",
             "quiet median of " + std::to_string(AllOptMs.size()) +
                 " cold optimizes");
    R.report("optimize_ms_p" + jsonNumber(OptTail.Percentile), OptTail.Value,
             "ms", "of all, the highest percentile with >= 10 samples beyond, n=" +
                       std::to_string(OptTail.Count));
    R.report("run_us_geomean", M["run_us_geomean"], "us",
             "geomean of per-program quiet-median warm runs");
    R.report("latency_ms_p50", M["latency_ms_p50"], "ms",
             "geomean of per-program quiet-median cold request (optimize + "
             "bind + first run)");
    R.report("latency_ms_tail", M["latency_ms_tail"], "ms",
             "geomean of per-program p90 over all warm runs, >= " +
                 std::to_string(Slots.front().Runs.size()) + " runs each");
    R.report("max_rps", M["max_rps"], "1/s",
             "programs per second from source to a checked result, one "
             "client, at the per-program quiet medians");
    R.report("peak_rss_mb", M["peak_rss_mb"], "MB");
    return R;
  }

  // Traced run: seeding, the layer decomposition, and the recorder's cost.
  if (W.SeedFromA) {
    M["sched.seed_s"] = Setup.SeedS;
    M["sched.candidates_per_s"] =
        static_cast<double>(Setup.Candidates) / Setup.SeedS;
    M["sched.simcache_hit_ratio"] =
        static_cast<double>(Setup.SimHits) /
        static_cast<double>(Setup.SimHits + Setup.SimMisses);
  }
  measureLayers(Eng, Programs, Optimized, Pristine, RunUs, Detail, O.Seed, 3,
                R);
  std::vector<double> On, Off;
  for (int Round = 0; Round < 6; ++Round) {
    for (bool Traced : {Round % 2 == 0, Round % 2 != 0}) {
      if (Traced)
        Recorder.enable();
      else
        Recorder.disable();
      (Traced ? On : Off).push_back(overheadRound(Eng, Programs, Slots, R));
    }
  }
  Recorder.enable();
  M["obs.trace_overhead_pct"] = (median(On) / median(Off) - 1.0) * 100.0;
  if (W.Serves)
    measureServing(O, R);
  return R;
}

} // namespace

RunResult runPolyBenchVariants(const Options &O) {
  // Plans run on one thread: these kernels fork at most one parallel loop
  // of 60 us-11 ms, where waking the pool's parked workers costs about as
  // much as it saves, and on a shared host that wake-up cost follows the
  // other tenants. With the default threads the normalized runs of the
  // forking programs (the BLAS-lifted 2mm, 3mm and gemm, and the
  // stencils) read 1.1-1.6x slower from one half hour to the next, while
  // the serial ones held within 5%.
  CompileWorkload W;
  W.Build = [] { return polyBenchPrograms(); };
  W.SeedFromA = true;
  W.Serves = true;
  W.SetupRepeats = 3; // Seeding takes seconds.
  return runCompileWorkload(W, O);
}

RunResult runCloudscVariants(const Options &O) {
  CompileWorkload W;
  W.Build = [] {
    std::vector<BenchProgram> Programs;
    for (auto [Variant, Name] :
         {std::pair{CloudscVariant::Fortran, "Fortran"},
          std::pair{CloudscVariant::C, "C"},
          std::pair{CloudscVariant::DaCe, "DaCe"}})
      Programs.push_back({std::string("cloudsc/") + Name, "cloudsc", Name,
                          buildCloudsc(CloudscConfig(), Variant)});
    return Programs;
  };
  W.ParallelPlans = true; // 6-37 parallel loops a plan, one block a core.
  W.SetupRepeats = MinRounds; // Set-up takes under a millisecond here.
  return runCompileWorkload(W, O);
}

} // namespace perfbench
