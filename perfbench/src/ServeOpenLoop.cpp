//===- perfbench/src/ServeOpenLoop.cpp - open-loop serving step ----------===//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve layer's measurement, made in polybench_variants' traced run:
/// a Server with nproc - 1 workers serves the 15 optimized PolyBench B
/// kernels to one open-loop client sending Poisson arrivals at a fixed
/// reference rate. The client thread takes the remaining core: it sends
/// each request when due,
/// stamps each completion as its future turns ready,
/// checks a seeded sample of outputs against the tree-walk reference,
/// restores the request's inputs and frees its argument slot. Every
/// request owns its buffers (one slot, bound once with Kernel::bind), so a
/// request that finds no free slot fails instead of being skipped.
///
/// Latency is timed from each request's due time, so client lateness and
/// stalls are charged to the requests behind them.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "serve/Server.h"
#include "support/Random.h"
#include "support/Statistics.h"

#include <cmath>
#include <future>
#include <memory>
#include <thread>

using namespace daisy;
using namespace daisy::serve;

namespace perfbench {

namespace {

/// Share of requests per kernel: fixed here, not drawn from the seed.
/// Skewed toward the cheap kernels: 88% of requests run in under 0.4 ms on
/// a worker lane, while fdtd-2d (3.5 ms) and heat-3d (10.5 ms) form the
/// heavy tail. A request runs 0.5 ms on average.
const std::map<std::string, double> Popularity = {
    {"atax", 11},   {"bicg", 11},       {"mvt", 11},        {"gesummv", 10},
    {"syrk", 9},    {"gemm", 9},        {"syr2k", 7},       {"jacobi-2d", 7},
    {"2mm", 6},     {"covariance", 4},  {"correlation", 4}, {"3mm", 3},
    {"gemver", 3},  {"fdtd-2d", 3},     {"heat-3d", 2}};

/// The offered load of the measured step: about 40% of the capacity this
/// mix measured on a 4-vCPU host with 3 workers (3200-5600 req/s, the
/// highest Poisson rate whose p99 stayed within 200 ms without a growing
/// backlog). On a quiet host the workers are busy a quarter to a third of
/// the time (serve.utilization 0.22-0.36), queue waits reach 0.6-4.6 ms
/// at p99 and one request in 25 to 35 runs in a micro-batch. It is the
/// highest of the rates 700, 1100, 1500 and 2200 req/s, run interleaved in
/// one process, before the p50 knee: p50 read 0.17-0.21 ms at the first
/// three and 0.20-0.33 ms at 2200 req/s.
constexpr double ReferenceRate = 1500.0;
/// A step sends at least this many requests, so its p99 has 10 samples
/// beyond it.
constexpr size_t MinStepRequests = 1000;
/// p99 limit of a valid step: about twenty times heat-3d's run time, so a
/// step fails on queueing, not on a cluster of heavy requests.
constexpr double LatencyLimitMs = 200.0;
/// Argument slots of a kernel: its share of SlotSeconds of traffic at the
/// reference rate, and at least MinSlots, so that a stall that short fails
/// no request at the reference rate.
constexpr double SlotSeconds = 0.3;
constexpr size_t MinSlots = 16;
constexpr double CheckShare = 0.125; ///< Seeded share of checked outputs.
/// Length of the untimed step that warms the server (see warmServer).
constexpr double WarmUpSeconds = 2.0;

struct ArgSlot {
  ArgBuffers Work;
  BoundArgs Bound;
};

struct ServedKernel {
  BenchProgram Prog;
  ArgBuffers Pristine, Ref;
  Kernel K;
  std::vector<ArgSlot> Slots;
  std::vector<int> Free; ///< Indices of the free slots.
  double Weight = 0.0;

  int claimSlot() {
    if (Free.empty())
      return -1;
    int Slot = Free.back();
    Free.pop_back();
    return Slot;
  }
  void releaseSlot(int Slot) { Free.push_back(Slot); }
};

struct Request {
  size_t Kernel = 0;
  bool Check = false;
  int Slot = -1;
  RequestTimes Times;
  std::future<RunStatus> Done;
};

struct StepResult {
  double Rate = 0.0;
  std::vector<RequestTimes> Times;
  OpenLoopAccount Acc;
  double P50Ms = NaN, P99Ms = NaN;
  size_t QueueDepthAtEnd = 0, OutstandingAtEnd = 0;
  double WallS = 0.0;
  std::vector<double> SubmitUs;
  size_t Mismatches = 0, NoSlot = 0, NotOk = 0;
  double MaxGapMs = 0.0; ///< Longest pass of the client loop.
  double SendS = 0.0; ///< Last send, from the step's start.
  bool Passed = false;
  double throughput() const {
    return static_cast<double>(Acc.Sent - OutstandingAtEnd) / SendS;
  }
};

/// One open-loop step of \p Count requests at \p Rate. Each checked
/// output counts in \p R as an attempted operation, and a mismatch as a
/// failed one; the other failures fail the step, and countStep charges
/// them to \p R.
StepResult runStep(Server &S, std::vector<std::unique_ptr<ServedKernel>> &Ks,
                   double Rate, size_t Count, uint64_t Seed, int Workers,
                   RunResult &R) {
  std::vector<double> Cumulative;
  double Total = 0.0;
  for (const auto &K : Ks)
    Cumulative.push_back(Total += K->Weight);
  std::vector<Request> Reqs(Count);
  Rng Rand(Seed);
  double Due = 0.0;
  for (Request &Q : Reqs) {
    Due += -std::log(1.0 - Rand.nextDouble()) / Rate;
    Q.Times.Due = Due;
    double Pick = Rand.nextDouble() * Total;
    Q.Kernel = static_cast<size_t>(
        std::upper_bound(Cumulative.begin(), Cumulative.end(), Pick) -
        Cumulative.begin());
    Q.Kernel = std::min(Q.Kernel, Ks.size() - 1);
    Q.Check = Rand.nextDouble() < CheckShare;
  }

  // One client thread sends each request when due and stamps each
  // completion as its future turns ready. It spins around sends and light
  // requests, so neither waits on a thread wake-up.
  const Clock::time_point Start = Clock::now();
  auto now = [&] {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  };
  StepResult Step;
  Step.Rate = Rate;
  std::vector<size_t> Open;
  size_t Next = 0;
  double LastSend = -Inf;
  constexpr double SpinWindow = 1e-3;
  const double GiveUpS = Reqs.back().Times.Due + 60.0;
  // Stamps every completed request, checks its output when sampled,
  // restores its inputs and frees its slot.
  auto harvest = [&] {
    for (size_t J = 0; J < Open.size();) {
      Request &Q = Reqs[Open[J]];
      if (Q.Done.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++J;
        continue;
      }
      Q.Times.Done = now();
      ServedKernel &K = *Ks[Q.Kernel];
      ArgSlot &Slot = K.Slots[static_cast<size_t>(Q.Slot)];
      Q.Times.Ok = Q.Done.get().ok();
      Step.NotOk += !Q.Times.Ok;
      if (Q.Times.Ok && Q.Check &&
          !checkOutput(Slot.Work, K.Ref, K.Prog.Name + " (served)", R)) {
        Q.Times.Ok = false;
        ++Step.Mismatches;
      }
      Slot.Work.restoreFrom(K.Pristine);
      K.releaseSlot(Q.Slot);
      Open[J] = Open.back();
      Open.pop_back();
    }
  };
  double LastPass = 0.0;
  while (Next < Count || !Open.empty()) {
    double Now = now();
    Step.MaxGapMs = std::max(Step.MaxGapMs, (Now - LastPass) * 1e3);
    LastPass = Now;
    if (Next < Count && Reqs[Next].Times.Due <= Now) {
      Request &Q = Reqs[Next++];
      ServedKernel &K = *Ks[Q.Kernel];
      Q.Slot = K.claimSlot();
      if (Q.Slot < 0) {
        // A slot whose request completed is free even if not yet seen.
        harvest();
        Q.Slot = K.claimSlot();
      }
      if (Q.Slot >= 0) {
        Clock::time_point SubmitStart = Clock::now();
        Q.Times.Sent = now();
        {
          TraceSpan Span(TraceCategory::Bench, "serve.submit");
          Q.Done = S.submit(K.K, K.Slots[static_cast<size_t>(Q.Slot)].Bound);
        }
        Step.SubmitUs.push_back(secondsSince(SubmitStart) * 1e6);
        LastSend = Q.Times.Sent;
        Open.push_back(Next - 1);
      } else {
        ++Step.NoSlot;
      }
      if (Next == Count) {
        Step.SendS = now();
        Step.QueueDepthAtEnd = S.queueDepth();
        Step.OutstandingAtEnd = Open.size();
      }
      continue;
    }
    harvest();
    Now = now();
    if (Now > GiveUpS) {
      R.fail("requests still pending a minute after the step's last send");
      break;
    }
    // Spin while a send is imminent or a recent request may complete any
    // moment; otherwise yield the core to the server for a moment. A
    // request older than SpinWindow is a heavy one, and a late stamp on it
    // is small beside its run time.
    double NextDue = Next < Count ? Reqs[Next].Times.Due : Inf;
    if (NextDue - Now > SpinWindow && Now - LastSend > SpinWindow)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  Step.WallS = now();

  for (const Request &Q : Reqs)
    Step.Times.push_back(Q.Times);
  Step.Acc = accountOpenLoop(Step.Times);
  Step.P50Ms = quantile(Step.Acc.LatencyMs, 0.50);
  Step.P99Ms = quantile(Step.Acc.LatencyMs, 0.99);
  Step.Passed = Step.Acc.Failed == 0 && Step.P99Ms <= LatencyLimitMs &&
                !backlogGrowing(Step.Acc.Sent, Step.OutstandingAtEnd, Workers);
  return Step;
}

std::string stepJson(const StepResult &S) {
  return JsonObject()
      .num("rate", S.Rate)
      .num("requests", static_cast<double>(S.Acc.Attempted))
      .num("sent", static_cast<double>(S.Acc.Sent))
      .num("completed", static_cast<double>(S.Acc.Completed))
      .num("failed", static_cast<double>(S.Acc.Failed))
      .num("failed_no_slot", static_cast<double>(S.NoSlot))
      .num("failed_status", static_cast<double>(S.NotOk))
      .num("failed_output", static_cast<double>(S.Mismatches))
      .num("p50_ms", S.P50Ms)
      .num("p99_ms", S.P99Ms)
      .num("outstanding_at_end", static_cast<double>(S.OutstandingAtEnd))
      .num("queue_depth_at_end", static_cast<double>(S.QueueDepthAtEnd))
      .num("lateness_us_p99", quantile(S.Acc.LatenessUs, 0.99))
      .num("lateness_us_max", quantile(S.Acc.LatenessUs, 1.0))
      .num("client_max_gap_ms", S.MaxGapMs)
      .num("throughput", S.throughput())
      .raw("passed", S.Passed ? "true" : "false")
      .text();
}

/// Constructs a server, lifts and optimizes the served programs, and binds
/// every argument slot: what a deployment pays before its first request.
struct ServeSetup {
  std::unique_ptr<Server> S;
  std::vector<Kernel> Kernels;               ///< One per served kernel.
  std::vector<std::vector<BoundArgs>> Bound; ///< Per kernel, per slot.
  std::vector<double> BindUs;
};

ServeSetup setUp(std::vector<std::unique_ptr<ServedKernel>> &Ks, int Workers,
                 RunResult &R) {
  ServeSetup Out;
  std::vector<BenchProgram> Lifted;
  {
    TraceSpan Span(TraceCategory::Bench, "frontends.build");
    Lifted = polyBenchPrograms(VariantKind::B);
  }
  ServerOptions SO;
  SO.Workers = Workers;
  SO.Policy = BackpressurePolicy::Reject;
  SO.Engine = benchEngineOptions();
  Out.S = std::make_unique<Server>(SO);
  for (size_t I = 0; I < Ks.size(); ++I) {
    ++R.Attempted;
    {
      TraceSpan Span(TraceCategory::Bench, "api.optimize");
      Out.Kernels.push_back(Out.S->optimize(Lifted[I].Source));
    }
    const Kernel &K = Out.Kernels.back();
    if (K.isTreeWalk() || K.isExhausted())
      R.fail(Ks[I]->Prog.Name + ": optimize fell back instead of compiling");
    Out.Bound.emplace_back();
    for (ArgSlot &Slot : Ks[I]->Slots) {
      Clock::time_point BindStart = Clock::now();
      ++R.Attempted;
      {
        TraceSpan Span(TraceCategory::Bench, "serve.bind");
        Out.Bound.back().push_back(K.bind(Slot.Work.binding()));
      }
      Out.BindUs.push_back(secondsSince(BindStart) * 1e6);
      if (!Out.Bound.back().back().ok())
        R.fail(Ks[I]->Prog.Name +
               ": bind failed: " + Out.Bound.back().back().error());
    }
  }
  return Out;
}

/// Serves \p Ks from \p Setup's kernels and bindings.
void install(ServeSetup &Setup,
             std::vector<std::unique_ptr<ServedKernel>> &Ks) {
  for (size_t I = 0; I < Ks.size(); ++I) {
    Ks[I]->K = Setup.Kernels[I];
    for (size_t J = 0; J < Ks[I]->Slots.size(); ++J)
      Ks[I]->Slots[J].Bound = Setup.Bound[I][J];
  }
}

/// Two requests per kernel through the server, one at a time: pooled
/// contexts and pages exist before a measured step starts.
void warmServer(Server &S, std::vector<std::unique_ptr<ServedKernel>> &Ks,
                RunResult &R) {
  for (auto &K : Ks) {
    for (int Rep = 0; Rep < 2; ++Rep) {
      ArgSlot &Slot = K->Slots[0];
      RunStatus Status = S.submit(K->K, Slot.Bound).get();
      Slot.Work.restoreFrom(K->Pristine);
      if (!Status.ok())
        R.fail(K->Prog.Name + ": warm-up request failed: " + Status.Error);
    }
  }
}

/// Charges a step's refused, expired, slot-less or failed requests to
/// \p R (runStep already charged its wrong outputs).
void countStep(const StepResult &Step, RunResult &R) {
  R.Attempted += Step.Acc.Attempted;
  size_t Refused = Step.Acc.Failed - Step.Mismatches;
  R.Failed += Refused;
  if (Refused)
    R.Errors.push_back(std::to_string(Refused) +
                       " requests at the reference rate were refused, "
                       "expired, found no free slot or did not run");
}

} // namespace

void measureServing(const Options &O, RunResult &R) {
  TraceRecorder &Recorder = TraceRecorder::instance();
  const int Workers = serverWorkers();

  // Inputs, the oracle, and every request's buffers, before any timing.
  std::vector<std::unique_ptr<ServedKernel>> Ks;
  double TotalWeight = 0.0;
  for (const auto &[Name, Weight] : Popularity)
    TotalWeight += Weight;
  for (BenchProgram &P : polyBenchPrograms(VariantKind::B)) {
    auto K = std::make_unique<ServedKernel>();
    K->Pristine = ArgBuffers(P.Source, O.Seed);
    K->Ref = referenceOutput(P.Source, O.Seed);
    K->Weight = Popularity.at(P.Group);
    K->Slots.resize(std::max(
        MinSlots, static_cast<size_t>(std::ceil(
                      ReferenceRate * K->Weight / TotalWeight * SlotSeconds))));
    for (size_t I = 0; I < K->Slots.size(); ++I) {
      K->Slots[I].Work = K->Pristine;
      K->Free.push_back(static_cast<int>(I));
    }
    K->Prog = std::move(P);
    Ks.push_back(std::move(K));
  }
  const size_t Requests = std::max(
      MinStepRequests, static_cast<size_t>(0.2 * O.Seconds * ReferenceRate));

  // The reference rate untraced on one server and traced on a fresh one,
  // so the stage histograms hold the traced step alone. The process's
  // first concurrent load runs slow for about a second (on a 4-vCPU host
  // the queue grew to 400 ms before it drained), so an untimed step
  // precedes the untraced one.
  Recorder.disable();
  ServeSetup Setup = setUp(Ks, Workers, R);
  install(Setup, Ks);
  warmServer(*Setup.S, Ks, R);
  runStep(*Setup.S, Ks, ReferenceRate,
          static_cast<size_t>(WarmUpSeconds * ReferenceRate),
          deriveSeed(O.Seed, 0x3A), Workers, R);
  StepResult Off = runStep(*Setup.S, Ks, ReferenceRate, Requests,
                           deriveSeed(O.Seed, 0x5E), Workers, R);
  countStep(Off, R);
  Setup.S.reset();

  Recorder.enable();
  ServeSetup Fresh = setUp(Ks, Workers, R);
  install(Fresh, Ks);
  Server &T = *Fresh.S;
  warmServer(T, Ks, R);
  int64_t Batched0 = statsCounter("Serve.BatchedRuns"),
          Completed0 = statsCounter("Serve.Completed");
  double RunSum0 = T.stageSumUs(Server::Stage::Run);
  StepResult On = runStep(T, Ks, ReferenceRate, Requests,
                          deriveSeed(O.Seed, 0x5E), Workers, R);
  countStep(On, R);

  auto &M = R.Metrics;
  using St = Server::Stage;
  M["serve.p50_ms"] = Off.P50Ms;
  M["serve.p99_ms"] = Off.P99Ms;
  M["serve.queue_wait_us_p50"] = T.stageQuantileUs(St::QueueWait, 0.50);
  M["serve.queue_wait_us_p99"] = T.stageQuantileUs(St::QueueWait, 0.99);
  M["serve.batch_wait_us_p50"] = T.stageQuantileUs(St::BatchWait, 0.50);
  M["serve.batch_wait_us_p99"] = T.stageQuantileUs(St::BatchWait, 0.99);
  M["serve.run_us_p50"] = T.stageQuantileUs(St::Run, 0.50);
  M["serve.run_us_p99"] = T.stageQuantileUs(St::Run, 0.99);
  M["serve.utilization"] =
      (T.stageSumUs(St::Run) - RunSum0) / (Workers * On.WallS * 1e6);
  int64_t DoneDelta = statsCounter("Serve.Completed") - Completed0;
  M["serve.batched_share"] =
      DoneDelta > 0 ? static_cast<double>(statsCounter("Serve.BatchedRuns") -
                                          Batched0) /
                          static_cast<double>(DoneDelta)
                    : 0.0;
  M["serve.submit_us_p50"] = median(On.SubmitUs);
  std::vector<double> BindUs = Setup.BindUs;
  BindUs.insert(BindUs.end(), Fresh.BindUs.begin(), Fresh.BindUs.end());
  M["serve.bind_us_p50"] = median(BindUs);
  M["loadgen.lateness_us_p99"] = quantile(Off.Acc.LatenessUs, 0.99);
  R.Extra.push_back("\"serving\": " +
                    JsonObject()
                        .num("reference_rate", ReferenceRate)
                        .num("latency_limit_ms", LatencyLimitMs)
                        .num("workers", Workers)
                        .num("slot_seconds", SlotSeconds)
                        .num("trace_overhead_pct",
                             (On.P50Ms / Off.P50Ms - 1.0) * 100.0)
                        .raw("untraced", stepJson(Off))
                        .raw("traced", stepJson(On))
                        .text());
}

} // namespace perfbench
