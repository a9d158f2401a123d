//===- perfbench/src/Main.cpp - The benchmark's command line -------------===//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   daisy_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                   [--out-dir <dir>] [--commit <id>] [--source-digest <d>]
///
/// Prints a human-readable report, writes the full result (host
/// fingerprint, every metric, per-program rows) to
/// <out-dir>/<workload>-seed<n>-trace<t>.json, and prints as its last line
/// one JSON object: {"correct", "attempted", "failed", "metrics"}. The
/// metrics are the end-to-end ones (--trace 0) or the per-layer ones
/// (--trace 1); the traced run also writes the Chrome trace next to the
/// result. Exits 1 when any output was wrong or any operation failed, 2 on
/// a usage error.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "sched/Evaluator.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <fstream>
#include <thread>

using namespace daisy;
using namespace perfbench;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// BENCHMARK.json's end_to_end list: every workload reports each one.
const MetricSpec EndToEnd[] = {
    {"setup_s", "s"},           {"optimize_ms_p50", "ms"},
    {"run_us_geomean", "us"},   {"latency_ms_p50", "ms"},
    {"latency_ms_tail", "ms"},  {"max_rps", "1/s"},
    {"peak_rss_mb", "MB"},
};

/// BENCHMARK.json's per_layer list. A workload that does not exercise a
/// layer reports 0 for it (cloudsc_variants: seeding, serve.* and
/// loadgen.*; polybench_variants: exec.parallel_speedup).
const MetricSpec PerLayer[] = {
    {"normalize.ms_p50", "ms"},
    {"normalize.loops_distributed", "count"},
    {"normalize.nests_permuted", "count"},
    {"normalize.canonical_matches", "count"},
    {"sched.schedule_ms_p50", "ms"},
    {"sched.idiom_ms", "ms"},
    {"sched.transfer_ms", "ms"},
    {"sched.recipe_ms", "ms"},
    {"sched.idiom_lifted", "count"},
    {"sched.transfer_exact", "count"},
    {"sched.transfer_nearest", "count"},
    {"sched.transfer_miss", "count"},
    {"sched.seed_s", "s"},
    {"sched.candidates_per_s", "1/s"},
    {"sched.simcache_hit_ratio", "ratio"},
    {"sched.speedup_vs_source", "ratio"},
    {"sched.variant_spread", "ratio"},
    {"machine.rank_corr", "rho"},
    {"api.compile_us_p50", "us"},
    {"api.compile_hit_us_p50", "us"},
    {"exec.elems_per_s_geomean", "elem/s"},
    {"exec.specialized_kernels", "count"},
    {"exec.multi_stmt_loops", "count"},
    {"exec.parallel_loops", "count"},
    {"exec.parallel_speedup", "ratio"},
    {"serve.p50_ms", "ms"},
    {"serve.p99_ms", "ms"},
    {"serve.queue_wait_us_p50", "us"},
    {"serve.queue_wait_us_p99", "us"},
    {"serve.batch_wait_us_p50", "us"},
    {"serve.batch_wait_us_p99", "us"},
    {"serve.run_us_p50", "us"},
    {"serve.run_us_p99", "us"},
    {"serve.utilization", "ratio"},
    {"serve.batched_share", "ratio"},
    {"serve.submit_us_p50", "us"},
    {"serve.bind_us_p50", "us"},
    {"loadgen.lateness_us_p99", "us"},
    {"obs.trace_overhead_pct", "%"},
    {"frontends.self_ms", "ms"},
    {"normalize.self_ms", "ms"},
    {"sched.self_ms", "ms"},
    {"machine.self_ms", "ms"},
    {"api.self_ms", "ms"},
    {"exec.self_ms", "ms"},
    {"serve.self_ms", "ms"},
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: daisy_perfbench --workload "
               "polybench_variants|cloudsc_variants --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--commit <id>] "
               "[--source-digest <d>]\n",
               Why);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = Value;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (*End || Value.empty())
        usage("--seed takes a whole number");
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(Value.c_str(), &End);
      if (*End || !(O.Seconds > 0 && O.Seconds <= 3600))
        usage("--seconds takes a number in (0, 3600]");
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        usage("--trace takes 0 or 1");
      O.Trace = Value == "1";
    } else if (Flag == "--out-dir") {
      O.OutDir = Value;
    } else if (Flag == "--commit") {
      O.Commit = Value;
    } else if (Flag == "--source-digest") {
      O.SourceDigest = Value;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (O.Workload.empty())
    usage("--workload is required");
  return O;
}

void makeDirs(const std::string &Path) {
  for (size_t Pos = 0; Pos != std::string::npos;) {
    Pos = Path.find('/', Pos + 1);
    mkdir(Path.substr(0, Pos).c_str(), 0755);
  }
}

std::string fingerprint(const Options &O, const RunResult &R) {
  Evaluator Eval(benchEngineOptions().Sim, benchEngineOptions().Eval);
  return JsonObject()
      .str("workload", O.Workload)
      .num("seed", static_cast<double>(O.Seed))
      .num("seconds", O.Seconds)
      .num("trace", O.Trace)
      .num("nproc", std::thread::hardware_concurrency())
      .num("plan_threads", R.PlanThreads)
      .num("evaluator_threads", Eval.threadCount())
      .num("server_workers", serverWorkers())
#ifdef __clang__
      .str("compiler", "clang " __VERSION__)
#else
      .str("compiler", "gcc " __VERSION__)
#endif
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("commit", O.Commit)
      .str("source_digest", O.SourceDigest)
      .text();
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  RunResult R;
  if (O.Workload == "polybench_variants")
    R = runPolyBenchVariants(O);
  else if (O.Workload == "cloudsc_variants")
    R = runCloudscVariants(O);
  else
    usage(("unknown workload " + O.Workload).c_str());

  std::string Stem = O.OutDir + "/" + O.Workload + "-seed" +
                     std::to_string(O.Seed) + "-trace" +
                     std::to_string(O.Trace);
  makeDirs(O.OutDir);

  std::vector<std::string> NotExercised;
  std::map<std::string, double> SelfMs;
  if (O.Trace) {
    TraceRecorder::instance().disable();
    SelfMs = layerSelfMs();
    for (const auto &[Layer, Ms] : SelfMs)
      R.Metrics[Layer + ".self_ms"] = Ms;
    if (!TraceRecorder::instance().dumpTrace(Stem + ".trace.json"))
      R.fail("could not write " + Stem + ".trace.json");
  }

  // The result line carries exactly one mode's BENCHMARK.json metric list.
  JsonObject Metrics, All;
  const MetricSpec *Begin = O.Trace ? std::begin(PerLayer) : std::begin(EndToEnd);
  const MetricSpec *End = O.Trace ? std::end(PerLayer) : std::end(EndToEnd);
  for (const MetricSpec *M = Begin; M != End; ++M) {
    auto It = R.Metrics.find(M->Name);
    double Value = It == R.Metrics.end() ? NaN : It->second;
    if (!std::isfinite(Value)) {
      if (!O.Trace)
        R.fail(std::string("end-to-end metric ") + M->Name +
               " was not measured");
      else
        NotExercised.push_back(M->Name);
      Value = 0.0;
    }
    Metrics.raw(M->Name,
                JsonObject().num("value", Value).str("unit", M->Unit).text());
  }
  for (const auto &[Name, Value] : R.Metrics)
    All.num(Name, Value);
  bool Correct = R.Failed == 0 && R.TraceValid;

  // Human-readable report.
  std::printf("== %s  seed %llu  %s\n", O.Workload.c_str(),
              static_cast<unsigned long long>(O.Seed),
              O.Trace ? "traced (per-layer metrics)" : "untraced (end-to-end)");
  for (const RunResult::Line &L : R.Report)
    std::printf("  %-26s %14.6g %-6s %s\n", L.Name.c_str(), L.Value,
                L.Unit.c_str(), L.Note.c_str());
  double ErrorRate =
      R.Attempted ? static_cast<double>(R.Failed) / static_cast<double>(R.Attempted)
                  : 0.0;
  double Slowdown = perfbench::median(R.Slowdowns);
  std::printf("  %-26s %14.6g %-6s median of %zu probes; times above are "
              "normalized by it\n",
              "host_slowdown", Slowdown, "x", R.Slowdowns.size());
  std::printf("  %-26s %14.6g %-6s %llu failed of %llu attempted\n",
              "error_rate", ErrorRate, "ratio",
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  if (O.Trace) {
    for (const MetricSpec &M : PerLayer)
      std::printf("  %-30s %14.6g %s\n", M.Name,
                  R.Metrics.count(M.Name) ? R.Metrics[M.Name] : 0.0, M.Unit);
    std::printf("  self time by layer (ms):");
    for (const auto &[Layer, Ms] : SelfMs)
      std::printf(" %s %.3f", Layer.c_str(), Ms);
    std::printf("\n  trace: %s.trace.json\n", Stem.c_str());
  }
  for (const std::string &E : R.Errors)
    std::printf("  FAILED: %s\n", E.c_str());

  // Full result file.
  std::string Rows = "[";
  for (size_t I = 0; I < R.Rows.size(); ++I)
    Rows += (I ? ",\n  " : "\n  ") + R.Rows[I];
  Rows += "]";
  std::string Report = "[";
  for (size_t I = 0; I < R.Report.size(); ++I)
    Report += (I ? ", " : "") + JsonObject()
                                    .str("name", R.Report[I].Name)
                                    .num("value", R.Report[I].Value)
                                    .str("unit", R.Report[I].Unit)
                                    .str("note", R.Report[I].Note)
                                    .text();
  Report += "]";
  std::string Errors = "[";
  for (size_t I = 0; I < R.Errors.size(); ++I)
    Errors += (I ? ", " : "") + jsonString(R.Errors[I]);
  Errors += "]";
  std::string NotEx = "[";
  for (size_t I = 0; I < NotExercised.size(); ++I)
    NotEx += (I ? ", " : "") + jsonString(NotExercised[I]);
  NotEx += "]";
  JsonObject File;
  File.raw("host", fingerprint(O, R))
      .raw("correct", Correct ? "true" : "false")
      .num("attempted", static_cast<double>(R.Attempted))
      .num("failed", static_cast<double>(R.Failed))
      .num("error_rate", ErrorRate)
      .num("host_slowdown_median", Slowdown)
      .num("host_slowdown_p90", quantile(R.Slowdowns, 0.9))
      .raw("metrics", All.text())
      .raw("report", Report)
      .raw("not_exercised", NotEx)
      .raw("errors", Errors)
      .raw("programs", Rows);
  std::string Text = File.text();
  for (const std::string &Member : R.Extra)
    Text.insert(Text.size() - 1, ", " + Member);
  std::ofstream(Stem + ".json") << Text << "\n";

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              Metrics.text().c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
