//===- perfbench/src/Harness.cpp ------------------------------------------===//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "BenchCommon.h"
#include "exec/Interpreter.h"
#include "exec/ThreadPool.h"
#include "ir/StructuralHash.h"
#include "normalize/Pipeline.h"
#include "sched/Embedding.h"
#include "sched/Idiom.h"
#include "sched/Recipe.h"
#include "support/Random.h"
#include "transform/Parallelize.h"

#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>
#include <unordered_map>

using namespace daisy;

namespace perfbench {

void RunResult::fail(const std::string &Why) {
  ++Failed;
  if (Errors.size() < 20)
    Errors.push_back(Why);
}

double RunResult::probeHost(bool AllCores) {
  double Us = AllCores ? probeAllCoresUs(ThreadPool::defaultThreadCount())
                       : probeUs();
  Slowdowns.push_back(Us / ReferenceProbeUs);
  return Slowdowns.back();
}

//===----------------------------------------------------------------------===//
// Host-speed normalization
//===----------------------------------------------------------------------===//

namespace {
volatile double ProbeSink; ///< Keeps the probe's result alive.
} // namespace

double probeUs() {
  // Resident in L1 and L2; the update converges to 0.5, so no value turns
  // denormal and every probe does the same work.
  thread_local std::vector<double> A(4096, 1.0), B(4096, 0.5);
  Clock::time_point Start = Clock::now();
  double Sum = 0.0;
  for (int Pass = 0; Pass < 30; ++Pass)
    for (size_t I = 0; I < A.size(); ++I) {
      Sum += A[I] * B[I];
      A[I] = A[I] * 0.9999999 + B[(I * 7) & 4095] * 1e-7;
    }
  ProbeSink = Sum;
  return secondsSince(Start) * 1e6;
}

double probeAllCoresUs(int Threads) {
  std::vector<double> Us(static_cast<size_t>(Threads));
  std::atomic<int> Ready{0};
  auto probeOn = [&](size_t I) {
    Ready.fetch_add(1);
    while (Ready.load() < Threads)
      ; // Start together, so that the probes share the cores.
    Us[I] = probeUs();
  };
  std::vector<std::thread> Others;
  for (size_t I = 1; I < Us.size(); ++I)
    Others.emplace_back(probeOn, I);
  probeOn(0);
  for (std::thread &T : Others)
    T.join();
  return std::accumulate(Us.begin(), Us.end(), 0.0) /
         static_cast<double>(Us.size());
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

std::string jsonNumber(double Value) {
  if (!std::isfinite(Value))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  return Buf;
}

std::string jsonString(const std::string &Value) {
  std::string Out = "\"";
  for (char C : Value) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

void JsonObject::key(const std::string &Key) {
  if (!Body.empty())
    Body += ", ";
  Body += jsonString(Key) + ": ";
}

JsonObject &JsonObject::num(const std::string &Key, double Value) {
  key(Key);
  Body += jsonNumber(Value);
  return *this;
}

JsonObject &JsonObject::str(const std::string &Key, const std::string &Value) {
  key(Key);
  Body += jsonString(Value);
  return *this;
}

JsonObject &JsonObject::raw(const std::string &Key, const std::string &Json) {
  key(Key);
  Body += Json;
  return *this;
}

//===----------------------------------------------------------------------===//
// Small utilities
//===----------------------------------------------------------------------===//

double peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

std::vector<size_t> seededOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  Rng Rand(Seed);
  Rand.shuffle(Order);
  return Order;
}

EngineOptions benchEngineOptions() { return bench::benchEngineOptions(8); }

int serverWorkers() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
}

std::vector<BenchProgram> polyBenchPrograms(VariantKind Variant) {
  static const char *const Names[] = {"A", "B", "NPBench"};
  std::vector<BenchProgram> Programs;
  for (PolyBenchKernel Kernel : allPolyBenchKernels()) {
    std::string Group = polyBenchName(Kernel);
    const char *V = Names[static_cast<int>(Variant)];
    Programs.push_back(
        {Group + "/" + V, Group, V, buildPolyBench(Kernel, Variant)});
  }
  return Programs;
}

std::vector<std::string> namesOf(const std::vector<BenchProgram> &Programs) {
  std::vector<std::string> Names;
  for (const BenchProgram &P : Programs)
    Names.push_back(P.Name);
  return Names;
}

std::vector<BenchProgram> polyBenchPrograms() {
  std::vector<BenchProgram> Programs;
  for (VariantKind V : {VariantKind::A, VariantKind::B, VariantKind::NPBench})
    for (BenchProgram &P : polyBenchPrograms(V))
      Programs.push_back(std::move(P));
  return Programs;
}

//===----------------------------------------------------------------------===//
// Buffers and the oracle
//===----------------------------------------------------------------------===//

namespace {

ArgBuffers extractBuffers(const Program &Prog, const DataEnv &Env) {
  ArgBuffers B;
  for (const ArrayDecl &Decl : Prog.arrays()) {
    if (Decl.Transient)
      continue;
    B.Names.push_back(Decl.Name);
    B.Data.push_back(Env.buffer(Decl.Name));
  }
  return B;
}

} // namespace

ArgBuffers::ArgBuffers(const Program &Prog, uint64_t Seed) {
  DataEnv Env(Prog);
  Env.initDeterministic(Seed);
  *this = extractBuffers(Prog, Env);
}

ArgBinding ArgBuffers::binding() {
  ArgBinding Binding;
  for (size_t I = 0; I < Names.size(); ++I)
    Binding.bind(Names[I], Data[I]);
  return Binding;
}

void ArgBuffers::restoreFrom(const ArgBuffers &Other) {
  for (size_t I = 0; I < Data.size(); ++I)
    std::copy(Other.Data[I].begin(), Other.Data[I].end(), Data[I].begin());
}

ArgBuffers referenceOutput(const Program &Source, uint64_t Seed) {
  DataEnv Env(Source);
  Env.initDeterministic(Seed);
  interpretTreeWalk(Source, Env);
  return extractBuffers(Source, Env);
}

double outputError(const ArgBuffers &Got, const ArgBuffers &Ref) {
  if (Got.Names != Ref.Names)
    return Inf;
  double Worst = 0.0;
  for (size_t A = 0; A < Got.Data.size(); ++A) {
    const std::vector<double> &G = Got.Data[A], &E = Ref.Data[A];
    if (G.size() != E.size())
      return Inf;
    for (size_t I = 0; I < G.size(); ++I) {
      if (G[I] == E[I])
        continue;
      if (!std::isfinite(G[I]) || !std::isfinite(E[I]))
        return Inf;
      Worst = std::max(Worst,
                       std::fabs(G[I] - E[I]) / std::max(1.0, std::fabs(E[I])));
    }
  }
  return Worst;
}

//===----------------------------------------------------------------------===//
// Timed runs
//===----------------------------------------------------------------------===//

RunSlot makeRunSlot(const Kernel &K, const ArgBuffers &Pristine,
                    const std::string &Name, RunResult &R) {
  RunSlot Slot;
  Slot.K = K;
  Slot.Pristine = &Pristine;
  Slot.Work = Pristine;
  ++R.Attempted;
  Slot.Bound = K.bind(Slot.Work.binding());
  if (!Slot.Bound.ok())
    R.fail(Name + ": bind failed: " + Slot.Bound.error());
  return Slot;
}

Timing timedRun(RunSlot &Slot, const std::string &Name, RunResult &R) {
  double Slowdown = R.probeHost(Slot.ProbeAllCores);
  Slot.Work.restoreFrom(*Slot.Pristine);
  ++R.Attempted;
  if (!Slot.Bound.ok()) {
    R.fail(Name + ": run on unbound arguments");
    return {-1.0, Slowdown};
  }
  Clock::time_point Start = Clock::now();
  RunStatus Status;
  {
    TraceSpan Span(TraceCategory::Bench, "exec.run");
    Status = Slot.K.run(Slot.Bound);
  }
  double Us = secondsSince(Start) * 1e6 / Slowdown;
  if (!Status.ok()) {
    R.fail(Name + ": run failed: " + Status.Error);
    return {-1.0, Slowdown};
  }
  return {Us, Slowdown};
}

void measureRuns(std::vector<RunSlot> &Slots,
                 const std::vector<std::string> &Names, uint64_t Seed,
                 int Rounds, RunResult &R) {
  for (size_t I = 0; I < Slots.size(); ++I)
    timedRun(Slots[I], Names[I], R); // Warm-up: pools, caches, pages.
  for (int Round = 0; Round < Rounds; ++Round) {
    for (size_t I : seededOrder(Slots.size(), deriveSeed(Seed, Round))) {
      Timing T = timedRun(Slots[I], Names[I], R);
      if (T.Value >= 0.0)
        Slots[I].Runs.push_back(T);
    }
  }
}

bool checkOutput(const ArgBuffers &Got, const ArgBuffers &Ref,
                 const std::string &Name, RunResult &R) {
  ++R.Attempted;
  double Err = outputError(Got, Ref);
  if (Err <= OutputTolerance)
    return true;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.3g", Err);
  R.fail(Name + ": output differs from the tree-walk reference by " + Buf);
  return false;
}

void checkOutputs(std::vector<RunSlot> &Slots,
                  const std::vector<std::string> &Names,
                  const std::vector<ArgBuffers> &Refs, RunResult &R) {
  for (size_t I = 0; I < Slots.size(); ++I)
    if (timedRun(Slots[I], Names[I], R).Value >= 0.0)
      checkOutput(Slots[I].Work, Refs[I], Names[I], R);
}

std::vector<double> medianRunUs(const std::vector<RunSlot> &Slots) {
  std::vector<double> Medians;
  for (const RunSlot &Slot : Slots)
    Medians.push_back(quietMedian(Slot.Runs));
  return Medians;
}

//===----------------------------------------------------------------------===//
// Per-program detail
//===----------------------------------------------------------------------===//

ProgramDetail measureDetail(Engine &Eng,
                            const std::vector<BenchProgram> &Programs,
                            const std::vector<Kernel> &Optimized,
                            const std::vector<ArgBuffers> &Pristine,
                            const std::vector<double> &OptimizedRunUs,
                            uint64_t Seed, RunResult &R) {
  ProgramDetail D;
  std::vector<RunSlot> Slots;
  for (size_t I = 0; I < Programs.size(); ++I) {
    Kernel Source;
    {
      TraceSpan Span(TraceCategory::Bench, "api.compile_source");
      Source = Eng.compile(Programs[I].Source);
    }
    Slots.push_back(makeRunSlot(Source, Pristine[I], Programs[I].Name, R));
  }
  measureRuns(Slots, namesOf(Programs), deriveSeed(Seed, 0x5EC), 3, R);
  D.SourceRunUs = medianRunUs(Slots);
  SimOptions Sim = bench::machineOptions(8);
  for (size_t I = 0; I < Programs.size(); ++I) {
    TraceSpan Span(TraceCategory::Bench, "machine.simulate");
    D.SimulatedS.push_back(simulateProgram(Optimized[I].program(), Sim).Seconds);
    D.SpeedupVsSource.push_back(D.SourceRunUs[I] / OptimizedRunUs[I]);
  }
  return D;
}

void addProgramRows(const std::vector<BenchProgram> &Programs,
                    const std::vector<double> &OptimizeMs,
                    const std::vector<double> &RunUs,
                    const ProgramDetail &Detail, RunResult &R) {
  for (size_t I = 0; I < Programs.size(); ++I)
    R.Rows.push_back(JsonObject()
                         .str("program", Programs[I].Name)
                         .num("optimize_ms", OptimizeMs[I])
                         .num("run_us", RunUs[I])
                         .num("source_run_us", Detail.SourceRunUs[I])
                         .num("speedup_vs_source", Detail.SpeedupVsSource[I])
                         .num("simulated_s", Detail.SimulatedS[I])
                         .text());
}

//===----------------------------------------------------------------------===//
// Per-layer decomposition (traced runs)
//===----------------------------------------------------------------------===//

namespace {

struct LayerCounts {
  int64_t LoopsDistributed = 0, NestsPermuted = 0, IdiomLifted = 0,
          TransferExact = 0, TransferNearest = 0, TransferMiss = 0;
};

struct LayerTimes {
  double NormalizeMs = 0, IdiomMs = 0, TransferMs = 0, RecipeMs = 0;
};

double msSince(Clock::time_point Start) { return secondsSince(Start) * 1e3; }

/// DaisyScheduler::schedule, one layer call at a time and in its order,
/// each call timed and wrapped in a span named after its layer.
Program scheduleByLayer(const Program &Prog, const TransferTuningDatabase &Db,
                        const DaisyOptions &Opts, LayerCounts &C,
                        LayerTimes &T) {
  NormalizationStats Stats;
  Clock::time_point Start = Clock::now();
  Program Result = [&] {
    TraceSpan Span(TraceCategory::Bench, "normalize.normalize");
    return normalize(Prog, {}, &Stats);
  }();
  T.NormalizeMs += msSince(Start);
  C.LoopsDistributed += Stats.Fission.LoopsDistributed;
  C.NestsPermuted += Stats.StrideMin.NestsPermuted;

  for (NodePtr &Node : Result.topLevel()) {
    if (Node->kind() != NodeKind::Loop)
      continue;
    if (dynCast<Loop>(Node)->isOpaque()) {
      Start = Clock::now();
      TraceSpan Span(TraceCategory::Bench, "sched.recipe");
      parallelizeWithAtomics(Node, Result.params(), &Result);
      T.RecipeMs += msSince(Start);
      continue;
    }
    Start = Clock::now();
    std::optional<IdiomMatch> Match;
    {
      TraceSpan Span(TraceCategory::Bench, "sched.idiom");
      Match = detectBlasIdiom(Node, Result, Opts.Idioms);
    }
    T.IdiomMs += msSince(Start);
    if (Match) {
      Node = Match->Call;
      ++C.IdiomLifted;
      continue;
    }
    Start = Clock::now();
    const DatabaseEntry *Entry;
    uint64_t Hash;
    {
      TraceSpan Span(TraceCategory::Bench, "sched.transfer");
      Hash = structuralHash(Node);
      Entry = Db.lookup(embedNest(Node, Result), Hash,
                        Opts.MaxTransferDistance);
    }
    T.TransferMs += msSince(Start);
    if (!Entry)
      ++C.TransferMiss;
    else if (Entry->CanonicalHash == Hash)
      ++C.TransferExact;
    else
      ++C.TransferNearest;
    Recipe Chosen = Entry ? Entry->Optimization : Recipe::defaultParallelRecipe();
    Start = Clock::now();
    {
      TraceSpan Span(TraceCategory::Bench, "sched.recipe");
      Node = applyRecipe(Chosen, Node, Result);
    }
    T.RecipeMs += msSince(Start);
  }
  return Result;
}

/// Element writes of one execution of \p Prog (the unit of elements/s):
/// one per computation instance, and one per output element of a call.
int64_t countElementWrites(const std::vector<NodePtr> &Nodes,
                           const ValueEnv &Env) {
  int64_t Total = 0;
  for (const NodePtr &Node : Nodes) {
    if (dynCast<Computation>(Node)) {
      ++Total;
    } else if (const auto *Call = dynCast<CallNode>(Node)) {
      const std::vector<int64_t> &Dims = Call->dims();
      switch (Call->callee()) {
      case BlasKind::Gemm:
        Total += Dims[0] * Dims[1];
        break;
      case BlasKind::Syrk:
      case BlasKind::Syr2k:
        Total += Dims[0] * (Dims[0] + 1) / 2;
        break;
      case BlasKind::Gemv:
        Total += Dims[0];
        break;
      }
    } else if (const auto *L = dynCast<Loop>(Node)) {
      ValueEnv Inner = Env;
      int64_t Hi = L->upper().evaluate(Env);
      for (int64_t I = L->lower().evaluate(Env); I < Hi; I += L->step()) {
        Inner[L->iterator()] = I;
        Total += countElementWrites(L->body(), Inner);
      }
    }
  }
  return Total;
}

} // namespace

void measureLayers(Engine &Eng, const std::vector<BenchProgram> &Programs,
                   const std::vector<Kernel> &Optimized,
                   const std::vector<ArgBuffers> &Pristine,
                   const std::vector<double> &OptimizedRunUs,
                   const ProgramDetail &Detail, uint64_t Seed, int Rounds,
                   RunResult &R) {
  const DaisyOptions Daisy = TuneOptions().Daisy;
  std::vector<double> NormalizeMs, ScheduleMs, IdiomMs, TransferMs, RecipeMs,
      CompileUs, CompileHitUs;
  LayerCounts Counts;
  for (int Round = 0; Round < Rounds; ++Round) {
    for (size_t I : seededOrder(Programs.size(), deriveSeed(Seed, Round))) {
      const Program &Source = Programs[I].Source;
      Clock::time_point Start = Clock::now();
      Program Scheduled = Eng.schedule(Source);
      ScheduleMs.push_back(msSince(Start));

      LayerCounts C;
      LayerTimes T;
      Program ByLayer = scheduleByLayer(Source, Eng.database(), Daisy, C, T);
      NormalizeMs.push_back(T.NormalizeMs);
      IdiomMs.push_back(T.IdiomMs);
      TransferMs.push_back(T.TransferMs);
      RecipeMs.push_back(T.RecipeMs);
      if (Round == 0) {
        Counts.LoopsDistributed += C.LoopsDistributed;
        Counts.NestsPermuted += C.NestsPermuted;
        Counts.IdiomLifted += C.IdiomLifted;
        Counts.TransferExact += C.TransferExact;
        Counts.TransferNearest += C.TransferNearest;
        Counts.TransferMiss += C.TransferMiss;
      }
      ++R.Attempted;
      if (structuralHashWithMarks(ByLayer) !=
          structuralHashWithMarks(Scheduled)) {
        R.TraceValid = false;
        R.fail(Programs[I].Name + ": the layer-by-layer schedule differs "
                                  "from Engine::schedule");
      }

      Eng.clearPlanCache();
      Start = Clock::now();
      {
        TraceSpan Span(TraceCategory::Bench, "api.compile");
        Kernel Cold = Eng.compile(ByLayer);
      }
      CompileUs.push_back(secondsSince(Start) * 1e6);
      Start = Clock::now();
      {
        TraceSpan Span(TraceCategory::Bench, "api.compile_hit");
        Kernel Hit = Eng.compile(ByLayer);
      }
      CompileHitUs.push_back(secondsSince(Start) * 1e6);
    }
  }

  // How many non-reference variants normalize to the reference variant's
  // canonical form (the first program of each group is the reference).
  int64_t Matches = 0;
  std::unordered_map<std::string, uint64_t> ReferenceHash;
  for (const BenchProgram &P : Programs) {
    uint64_t Hash = structuralHash(normalize(P.Source));
    auto [It, First] = ReferenceHash.emplace(P.Group, Hash);
    if (!First && It->second == Hash)
      ++Matches;
  }

  // Exec statistics, throughput, and the parallel backend's speedup over
  // one thread (on the programs whose plans fork at all).
  ExecPlan::Stats Sum;
  std::vector<double> ElemsPerS;
  std::vector<RunSlot> SerialSlots;
  std::vector<std::string> SerialNames;
  std::vector<double> ParallelRunUs;
  for (size_t I = 0; I < Programs.size(); ++I) {
    ExecPlan::Stats S = Optimized[I].plan().stats();
    Sum.SpecializedKernels += S.SpecializedKernels;
    Sum.MultiStmtInnerLoops += S.MultiStmtInnerLoops;
    Sum.ParallelLoops += S.ParallelLoops;
    ValueEnv Env = Programs[I].Source.params();
    ElemsPerS.push_back(
        static_cast<double>(
            countElementWrites(Programs[I].Source.topLevel(), Env)) /
        (OptimizedRunUs[I] * 1e-6));
    // Plans compiled for one thread never fork: nothing to compare.
    if (S.ParallelLoops == 0 || Eng.options().Plan.NumThreads == 1)
      continue;
    PlanOptions Serial = Eng.options().Plan;
    Serial.NumThreads = 1;
    Kernel K = Eng.compile(Optimized[I].program(), Serial);
    SerialSlots.push_back(makeRunSlot(K, Pristine[I], Programs[I].Name, R));
    SerialNames.push_back(Programs[I].Name);
    ParallelRunUs.push_back(OptimizedRunUs[I]);
  }
  measureRuns(SerialSlots, SerialNames, deriveSeed(Seed, 0x1F), 5, R);
  std::vector<double> SerialRunUs = medianRunUs(SerialSlots), ParallelSpeedup;
  for (size_t I = 0; I < SerialRunUs.size(); ++I)
    ParallelSpeedup.push_back(SerialRunUs[I] / ParallelRunUs[I]);

  // Mean relative spread of optimized run time across each kernel's
  // variants.
  std::map<std::string, std::pair<double, double>> MinMax;
  for (size_t I = 0; I < Programs.size(); ++I) {
    auto [It, First] = MinMax.emplace(
        Programs[I].Group, std::make_pair(OptimizedRunUs[I], OptimizedRunUs[I]));
    It->second.first = std::min(It->second.first, OptimizedRunUs[I]);
    It->second.second = std::max(It->second.second, OptimizedRunUs[I]);
  }
  double SpreadSum = 0.0;
  size_t SpreadGroups = 0;
  for (const auto &[Group, MM] : MinMax) {
    size_t Members = 0;
    for (const BenchProgram &P : Programs)
      Members += P.Group == Group;
    if (Members < 2)
      continue;
    SpreadSum += (MM.second - MM.first) / MM.first;
    ++SpreadGroups;
  }

  auto &M = R.Metrics;
  M["normalize.ms_p50"] = median(NormalizeMs);
  M["normalize.loops_distributed"] = static_cast<double>(Counts.LoopsDistributed);
  M["normalize.nests_permuted"] = static_cast<double>(Counts.NestsPermuted);
  M["normalize.canonical_matches"] = static_cast<double>(Matches);
  M["sched.schedule_ms_p50"] = median(ScheduleMs);
  M["sched.idiom_ms"] = median(IdiomMs);
  M["sched.transfer_ms"] = median(TransferMs);
  M["sched.recipe_ms"] = median(RecipeMs);
  M["sched.idiom_lifted"] = static_cast<double>(Counts.IdiomLifted);
  M["sched.transfer_exact"] = static_cast<double>(Counts.TransferExact);
  M["sched.transfer_nearest"] = static_cast<double>(Counts.TransferNearest);
  M["sched.transfer_miss"] = static_cast<double>(Counts.TransferMiss);
  M["sched.speedup_vs_source"] = geomean(Detail.SpeedupVsSource);
  M["sched.variant_spread"] = SpreadGroups ? SpreadSum / SpreadGroups : 0.0;
  double Rho = spearman(Detail.SimulatedS, OptimizedRunUs);
  M["machine.rank_corr"] = std::isfinite(Rho) ? Rho : 0.0;
  M["api.compile_us_p50"] = median(CompileUs);
  M["api.compile_hit_us_p50"] = median(CompileHitUs);
  M["exec.elems_per_s_geomean"] = geomean(ElemsPerS);
  M["exec.specialized_kernels"] = static_cast<double>(Sum.SpecializedKernels);
  M["exec.multi_stmt_loops"] = static_cast<double>(Sum.MultiStmtInnerLoops);
  M["exec.parallel_loops"] = static_cast<double>(Sum.ParallelLoops);
  M["exec.parallel_speedup"] =
      ParallelSpeedup.empty() ? NaN : geomean(ParallelSpeedup);
}

std::map<std::string, double> layerSelfMs() {
  struct Open {
    uint16_t NameId;
    uint64_t StartNs;
    uint64_t ChildNs = 0;
  };
  std::map<uint32_t, std::vector<Open>> Stacks;
  std::map<uint16_t, std::string> LayerOf;
  std::map<std::string, double> SelfMs;
  for (const TraceEvent &E : TraceRecorder::instance().snapshot()) {
    std::vector<Open> &Stack = Stacks[E.Tid];
    if (E.Phase == TracePhase::Begin) {
      Stack.push_back({E.NameId, E.StartNs});
      continue;
    }
    if (E.Phase != TracePhase::End || Stack.empty())
      continue;
    Open Span = Stack.back();
    Stack.pop_back();
    uint64_t Dur = E.StartNs > Span.StartNs ? E.StartNs - Span.StartNs : 0;
    if (!Stack.empty())
      Stack.back().ChildNs += Dur;
    auto It = LayerOf.find(Span.NameId);
    if (It == LayerOf.end()) {
      std::string Name = traceNameOf(Span.NameId);
      std::string Layer = Name.substr(0, Name.find('.'));
      It = LayerOf.emplace(Span.NameId, Layer == "engine" ? "api" : Layer)
               .first;
    }
    SelfMs[It->second] +=
        static_cast<double>(Dur - std::min(Dur, Span.ChildNs)) * 1e-6;
  }
  return SelfMs;
}

} // namespace perfbench
