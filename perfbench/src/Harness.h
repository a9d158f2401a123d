//===- perfbench/src/Harness.h - Shared benchmark machinery ------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the run options, the result it hands back
/// to Main.cpp, caller-owned argument buffers checked against the
/// tree-walk reference, warm-run timing, per-program detail rows, and the
/// per-layer decomposition of Engine::schedule that the traced run uses.
///
/// The benchmark drives the library only through its public headers. It
/// times a layer by wrapping the calls into that layer, and it emits
/// obs/Trace spans around those calls only in the traced run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "Helpers.h"

#include "api/Engine.h"
#include "frontends/PolyBench.h"
#include "obs/Trace.h"
#include "serve/BoundArgs.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

//===----------------------------------------------------------------------===//
// Host-speed normalization
//===----------------------------------------------------------------------===//
//
// On a shared host the same code runs up to twice as slow while other
// tenants load its cores, and that load shifts every few seconds, so the
// wall-clock times of one commit spread from run to run by far more than a
// useful regression bound. Each timed operation therefore follows a fixed
// probe on the same thread, and its time is divided by the probe's
// slowdown (probe time / ReferenceProbeUs): it reads as the time the
// operation takes on a host where the probe takes ReferenceProbeUs. A
// series is then summarized by its quiet median (Helpers.h). The probe is
// the benchmark's own code and calls no library function, so a change to
// daisy moves a normalized time as it moves the wall-clock time.
//
// A plan whose parallel loops keep every core busy runs as fast as the
// cores together, not as the calling thread's core: its runs follow the
// probe run at once on every plan thread, and divide by their mean
// slowdown: in six runs at median slowdowns of 1.1-2.1, CLOUDSC's warm
// runs read 18.6-22.1 ms this way and 24.7-30.9 ms by the calling
// thread's probe.
//
//===----------------------------------------------------------------------===//

/// The probe's time on a quiet core of a 4-vCPU Xeon VM (96-107 us
/// measured there).
constexpr double ReferenceProbeUs = 100.0;

/// Runs the probe once on the calling thread: 30 passes of floating-point
/// work over two 32 KiB arrays. Returns its time in microseconds.
double probeUs();

/// The mean time of the probe run at once on \p Threads threads, one each.
double probeAllCoresUs(int Threads);

/// Command-line options of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string OutDir = ".bench_build/results";
  std::string Commit = "unknown";
  std::string SourceDigest = "unknown";
};

/// Everything a workload run hands back to Main.cpp.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors; ///< The first few failures, for humans.
  /// BENCHMARK.json's metrics by name: end-to-end ones in an untraced run,
  /// per-layer ones in a traced run.
  std::map<std::string, double> Metrics;
  /// Named values with unit and a note (including serve_p50_ms and the
  /// other per-workload names), printed as the human-readable report and
  /// kept in the result file.
  struct Line {
    std::string Name;
    double Value;
    std::string Unit;
    std::string Note;
  };
  std::vector<Line> Report;
  std::vector<std::string> Rows;  ///< One JSON object per program.
  std::vector<std::string> Extra; ///< Further `"key": value` JSON members.
  bool TraceValid = true;         ///< Traced runs: decomposition held.
  int PlanThreads = 0;            ///< Resolved PlanOptions::NumThreads.
  std::vector<double> Slowdowns;  ///< Every host slowdown probed.

  void fail(const std::string &Why);
  /// Runs the probe on the calling thread, or on every plan thread when
  /// \p AllCores; returns its slowdown (probe time / ReferenceProbeUs) and
  /// records it in Slowdowns.
  double probeHost(bool AllCores = false);
  void report(const std::string &Name, double Value, const std::string &Unit,
              const std::string &Note = "") {
    Report.push_back({Name, Value, Unit, Note});
  }
};

/// Minimal JSON object writer; numbers keep all 17 significant digits and
/// non-finite values become null.
class JsonObject {
public:
  JsonObject &num(const std::string &Key, double Value);
  JsonObject &str(const std::string &Key, const std::string &Value);
  JsonObject &raw(const std::string &Key, const std::string &Json);
  std::string text() const { return "{" + Body + "}"; }

private:
  void key(const std::string &Key);
  std::string Body;
};

std::string jsonNumber(double Value);
std::string jsonString(const std::string &Value);

/// Peak resident set size of this process so far (getrusage), in MB.
double peakRssMb();

/// Seeded permutation of 0..N-1 (the program order of one round).
std::vector<size_t> seededOrder(size_t N, uint64_t Seed);

/// Worker lanes of the served workload: every core but the client's.
int serverWorkers();

//===----------------------------------------------------------------------===//
// Programs, buffers and the correctness oracle
//===----------------------------------------------------------------------===//

/// One program of a workload.
struct BenchProgram {
  std::string Name;    ///< "gemm/B", "cloudsc/DaCe".
  std::string Group;   ///< Variants of one kernel share a group.
  std::string Variant; ///< "A", "B", "NPBench", "Fortran", ...
  daisy::Program Source;
};

/// The 45 PolyBench programs (15 kernels x A, B, NPBench), or one variant.
std::vector<BenchProgram> polyBenchPrograms();
std::vector<BenchProgram> polyBenchPrograms(daisy::VariantKind Variant);

std::vector<std::string> namesOf(const std::vector<BenchProgram> &Programs);

/// Caller-owned storage of every non-transient array of a program,
/// filled by DataEnv::initDeterministic(Seed).
struct ArgBuffers {
  std::vector<std::string> Names;
  std::vector<std::vector<double>> Data;

  ArgBuffers() = default;
  ArgBuffers(const daisy::Program &Prog, uint64_t Seed);
  daisy::ArgBinding binding();
  /// Copies \p Other's contents; both must come from the same program.
  void restoreFrom(const ArgBuffers &Other);
};

/// The correctness oracle: the unscheduled source program run by the
/// tree-walk interpreter on the seeded inputs. Never the compiler under
/// test.
ArgBuffers referenceOutput(const daisy::Program &Source, uint64_t Seed);

/// The one tolerance every output is held to, relative with a floor of 1:
/// scheduling reorders floating-point reductions (2mm differs from the
/// reference by 3.4e-13, gemver by 4.4e-11), so bit-identity is not
/// required here.
constexpr double OutputTolerance = 1e-9;

/// Largest |got - ref| / max(1, |ref|) over all arrays; infinity when the
/// layouts differ or a value is not finite.
double outputError(const ArgBuffers &Got, const ArgBuffers &Ref);

/// A kernel bound to its own buffers, ready for timed warm runs.
struct RunSlot {
  daisy::Kernel K;
  const ArgBuffers *Pristine = nullptr;
  ArgBuffers Work;
  daisy::BoundArgs Bound;
  bool ProbeAllCores = false; ///< The plan keeps every core busy.
  std::vector<Timing> Runs;   ///< Timed warm runs.
};

/// Binds \p K to a copy of \p Pristine; a failed bind is a failure.
RunSlot makeRunSlot(const daisy::Kernel &K, const ArgBuffers &Pristine,
                    const std::string &Name, RunResult &R);

/// Probes the host, restores the inputs, then runs once under a timer (and
/// an "exec.run" span when tracing). Returns the run time in microseconds
/// at the reference host speed, or a negative Value after recording a
/// failed run.
Timing timedRun(RunSlot &Slot, const std::string &Name, RunResult &R);

/// \p Rounds warm runs of every slot, round-robin in a seeded order per
/// round. The first run of each slot warms it and is not timed.
void measureRuns(std::vector<RunSlot> &Slots,
                 const std::vector<std::string> &Names, uint64_t Seed,
                 int Rounds, RunResult &R);

/// Compares \p Got with \p Ref at OutputTolerance; one attempted
/// operation, and a failure naming \p Name when they differ.
bool checkOutput(const ArgBuffers &Got, const ArgBuffers &Ref,
                 const std::string &Name, RunResult &R);

/// Runs each slot once on fresh inputs and compares with \p Refs.
void checkOutputs(std::vector<RunSlot> &Slots,
                  const std::vector<std::string> &Names,
                  const std::vector<ArgBuffers> &Refs, RunResult &R);

/// quietMedian of each slot's timed runs.
std::vector<double> medianRunUs(const std::vector<RunSlot> &Slots);

//===----------------------------------------------------------------------===//
// Per-program detail and per-layer metrics
//===----------------------------------------------------------------------===//

/// Run time of the compiled but unscheduled source and simulated seconds
/// of the optimized program, per program (the detail rows, and the inputs
/// of sched.speedup_vs_source and machine.rank_corr).
struct ProgramDetail {
  std::vector<double> SourceRunUs;
  std::vector<double> SimulatedS;
  std::vector<double> SpeedupVsSource;
};

ProgramDetail measureDetail(daisy::Engine &Eng,
                            const std::vector<BenchProgram> &Programs,
                            const std::vector<daisy::Kernel> &Optimized,
                            const std::vector<ArgBuffers> &Pristine,
                            const std::vector<double> &OptimizedRunUs,
                            uint64_t Seed, RunResult &R);

/// One JSON row per program: optimize time, run time, speedup over the
/// source and simulated seconds.
void addProgramRows(const std::vector<BenchProgram> &Programs,
                    const std::vector<double> &OptimizeMs,
                    const std::vector<double> &RunUs,
                    const ProgramDetail &Detail, RunResult &R);

/// The simulated machine the engines score candidates on (the A/B
/// experiment's eight simulated cores).
daisy::EngineOptions benchEngineOptions();

/// Traced-run layer metrics of a set of programs optimized by \p Eng:
/// the step-by-step decomposition of Engine::schedule (checked against
/// it by structuralHashWithMarks), compile times, canonical matches across
/// variants, exec statistics, parallel speedup, speedup over the source,
/// variant spread and the simulator's rank correlation.
void measureLayers(daisy::Engine &Eng,
                   const std::vector<BenchProgram> &Programs,
                   const std::vector<daisy::Kernel> &Optimized,
                   const std::vector<ArgBuffers> &Pristine,
                   const std::vector<double> &OptimizedRunUs,
                   const ProgramDetail &Detail, uint64_t Seed, int Rounds,
                   RunResult &R);

/// Self time per layer (span duration minus the time its child spans
/// cover) over every Begin/End span of the recorder, in ms, keyed by the
/// layer prefix of the span name ("engine.*" spans count as api).
std::map<std::string, double> layerSelfMs();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
