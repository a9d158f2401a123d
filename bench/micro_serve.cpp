//===- bench/micro_serve.cpp - serving-runtime throughput -----------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Micro benchmark of the serving runtime (serve/Server.h) on two
// workloads:
//
//   - gemm (3 arrays, ~260k element writes): compute-bound — shows the
//     async machinery adds no measurable per-request cost when requests
//     are heavy;
//   - blend (24 arrays, 2k element writes): binding-bound — the serving
//     profile the validate-once BoundArgs path exists for. Synchronous
//     run(ArgBinding) re-resolves 24 names against 24 declarations with
//     string compares on every request; the prepared submit path pays
//     that once at bind time.
//
// Measured paths per workload: synchronous run(ArgBinding), synchronous
// run(BoundArgs), and Server::submit with prepared BoundArgs at workers
// {1, 2, 4}, pipelined 32 requests deep, plus the queue-depth histogram
// per async configuration.
//
// Self-checks (always on, regardless of flags): async results are
// bit-identical to synchronous Kernel::run at every worker {1,2,4} x
// scheduling {fifo, fairshare} configuration on both workloads, and
// every completed light-tenant flood request is bit-checked too.
//
// Tail latency: a seeded bursty heavy-tailed trace (Poisson bursts,
// ~85% tiny blends / ~10% mid gemms / ~5% multi-millisecond heavy gemms;
// tiny requests carry tight deadlines, mid ones a 10 s deadline, heavy
// ones none) replays against a 1-worker server once per scheduling
// policy {fifo, edf}; p50/p95/p99 server-side sojourn and expired counts
// land in the JSON.
//
// Multi-tenant flood: a light tenant's closed-loop latency is measured
// solo, then against a heavy tenant submitting HeavyPerLight (30)
// requests per light one — once under FIFO (no isolation) and once
// under FairShare with a per-tenant admission quota. Light-tenant p99
// and per-tenant completions land in the JSON.
//
// Online tuning: the naive gemm nest served closed-loop with
// EngineOptions::OnlineTuning off vs on. The on row warms up until the
// tuner lane promotes the re-searched plan on measured gain, so its
// steady-state p50/p99 reflect the hot-swapped plan; every request on
// both sides of the swap is bit-checked against the synchronous
// reference, and the swap/rollback counts land in the JSON.
//
// Observability: the flight recorder's (obs/Trace.h) cost on the gemm
// sync column, measured three ways per interleaved round — baseline
// (uninstrumented), recorder off (each run wrapped in a trace site whose
// disabled gate is one relaxed load), recorder on (each run emits one
// Complete event into the lock-free ring). Per-request p50/p99 for all
// three land in the JSON, plus one Prometheus scrape of a served round
// (Server::metricsText) written next to the JSON as
// <output>_metrics.prom for CI to upload.
//
// Gates: (1) on the binding-bound workload, the prepared-BoundArgs
// submit path at 1 worker must reach synchronous run(ArgBinding)
// throughput (>= 1x) — the two paths are sampled interleaved and
// compared by the median of per-pair ratios, so machine-wide drift
// cancels; (2) EDF p99 must beat FIFO p99 on the bursty trace;
// (3) under the heavy flood, FairShare must keep the light tenant's p99
// at most half of FIFO's in the same run (FIFO queues the light burst
// behind the heavy backlog; FairShare alternates it with the heavy
// tenant);
// (4) the online-tuning row must promote at least one
// measured-gain hot-swap; (5) recorder-on p50 must stay within 5% of
// recorder-off on the gemm sync column, and recorder-off within 5% of
// the uninstrumented baseline. --no-gate records instead of failing (CI
// runners have unpredictable scheduling).
//
// Usage: micro_serve [--no-gate] [output.json]   (default BENCH_serve.json)
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "ir/Builder.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Random.h"
#include "support/Statistics.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace daisy;
using namespace daisy::serve;

namespace {

constexpr int InFlight = 32; ///< Pipeline depth of the async rounds.

Program makeGemm(int N) {
  Program Prog("serve_gemm");
  Prog.addArray("A", {N, N});
  Prog.addArray("B", {N, N});
  Prog.addArray("C", {N, N});
  Prog.append(forLoop(
      "i", 0, N,
      {forLoop("j", 0, N,
               {forLoop("k", 0, N,
                        {assign("S0", "C", {ax("i"), ax("j")},
                                read("C", {ax("i"), ax("j")}) +
                                    read("A", {ax("i"), ax("k")}) *
                                        read("B", {ax("k"), ax("j")}))})})}));
  return Prog;
}

/// The binding-bound serving microkernel: Outj[i] = In2j[i] + c*In2j+1[i]
/// over \p Pairs output arrays of \p N elements — 3x'Pairs' named arrays,
/// a few thousand element writes.
Program makeBlend(int Pairs, int N) {
  Program Prog("serve_blend");
  std::vector<NodePtr> Body;
  for (int J = 0; J < Pairs; ++J) {
    std::string A = "InA" + std::to_string(J);
    std::string B = "InB" + std::to_string(J);
    std::string Out = "Out" + std::to_string(J);
    Prog.addArray(A, {N});
    Prog.addArray(B, {N});
    Prog.addArray(Out, {N});
    Body.push_back(assign("S" + std::to_string(J), Out, {ax("i")},
                          read(A, {ax("i")}) +
                              lit(0.5) * read(B, {ax("i")})));
  }
  Prog.append(forLoop("i", 0, N, std::move(Body)));
  return Prog;
}

/// One request's caller-owned buffers, initialized like a deterministic
/// DataEnv so every path starts from identical inputs.
struct OwnedArgs {
  std::vector<std::pair<std::string, std::vector<double>>> Buffers;

  explicit OwnedArgs(const Program &Prog, uint64_t Seed = 1) {
    DataEnv Env(Prog);
    Env.initDeterministic(Seed);
    for (const ArrayDecl &Decl : Prog.arrays())
      if (!Decl.Transient)
        Buffers.emplace_back(Decl.Name, Env.buffer(Decl.Name));
  }

  ArgBinding binding() {
    ArgBinding Args;
    for (auto &[Name, Storage] : Buffers)
      Args.bind(Name, Storage);
    return Args;
  }
};

double now() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void fail(const char *Message) {
  std::fprintf(stderr, "FAIL: %s\n", Message);
  std::exit(1);
}

/// Requests/s of repeated synchronous runs, measured for ~MinSeconds.
template <typename Fn> double syncRps(Fn Run, double MinSeconds = 0.2) {
  int Reps = 0;
  double Start = now(), Elapsed = 0.0;
  do {
    Run();
    ++Reps;
    Elapsed = now() - Start;
  } while (Elapsed < MinSeconds);
  return Reps / Elapsed;
}

/// A server + prebound in-flight request slots for one async workload.
struct AsyncHarness {
  Server S;
  Kernel K;
  std::vector<std::unique_ptr<OwnedArgs>> Owned;
  std::vector<BoundArgs> Bound;
  std::vector<std::future<RunStatus>> Futures;

  AsyncHarness(const Program &Prog, int Workers)
      : S([&] {
          ServerOptions Options;
          Options.Workers = Workers;
          return Options;
        }()),
        K(S.compile(Prog)), Futures(InFlight) {
    for (int I = 0; I < InFlight; ++I) {
      Owned.push_back(std::make_unique<OwnedArgs>(Prog));
      Bound.push_back(K.bind(Owned.back()->binding()));
      if (!Bound.back().ok())
        fail("bind failed in async harness");
    }
  }

  /// One pipelined round: submit every slot, await every future.
  void round() {
    for (int I = 0; I < InFlight; ++I)
      Futures[I] = S.submit(K, Bound[I]);
    for (int I = 0; I < InFlight; ++I)
      if (!Futures[I].get().ok())
        fail("async run failed");
  }

  double rps(double MinSeconds = 0.2) {
    int Reps = 0;
    double Start = now(), Elapsed = 0.0;
    do {
      round();
      Reps += InFlight;
      Elapsed = now() - Start;
    } while (Elapsed < MinSeconds);
    return Reps / Elapsed;
  }
};

/// Bit-identity: four fresh requests through a (Workers, Scheduling)
/// server must reproduce the synchronous reference exactly.
/// FairShare submits under two tenants so the deficit-round-robin path
/// serves the requests.
void checkIdentity(const Program &Prog, const char *Name) {
  OwnedArgs Reference(Prog);
  Kernel Direct = Kernel::compile(Prog);
  if (!Direct.run(Reference.binding()))
    fail("reference run failed");
  for (int Workers : {1, 2, 4})
    for (SchedulerPolicy Policy :
         {SchedulerPolicy::Fifo, SchedulerPolicy::FairShare}) {
      ServerOptions Options;
      Options.Workers = Workers;
      Options.Scheduling = Policy;
      Server S(Options);
      Kernel K = S.compile(Prog);
      constexpr int Requests = 4;
      std::vector<std::unique_ptr<OwnedArgs>> Owned;
      std::vector<std::future<RunStatus>> Futures;
      for (int I = 0; I < Requests; ++I) {
        Owned.push_back(std::make_unique<OwnedArgs>(Prog));
        SubmitOptions SO;
        SO.Tenant = static_cast<uint32_t>(I % 2);
        Futures.push_back(S.submit(K, K.bind(Owned.back()->binding()), SO));
      }
      for (int I = 0; I < Requests; ++I) {
        if (!Futures[I].get().ok())
          fail("async request failed during identity check");
        if (Owned[I]->Buffers != Reference.Buffers) {
          std::fprintf(stderr,
                       "FAIL: %s async results diverge from synchronous "
                       "run at workers=%d policy=%s\n",
                       Name, Workers,
                       Policy == SchedulerPolicy::Fifo ? "fifo"
                                                       : "fairshare");
          std::exit(1);
        }
      }
    }
}

struct AsyncRow {
  int Workers = 0;
  double Rps = 0.0;
  std::vector<uint64_t> DepthHist;
};

struct WorkloadResult {
  std::string Name;
  double SyncRps = 0.0;
  double PreparedRps = 0.0;
  std::vector<AsyncRow> Async;
};

WorkloadResult benchWorkload(const std::string &Name, const Program &Prog) {
  WorkloadResult Result;
  Result.Name = Name;

  Kernel K = Kernel::compile(Prog);
  OwnedArgs SyncArgs(Prog);
  ArgBinding SyncBinding = SyncArgs.binding();
  Result.SyncRps = syncRps([&] { K.run(SyncBinding); });
  BoundArgs Prepared = K.bind(SyncArgs.binding());
  if (!Prepared.ok())
    fail("bind failed for prepared sync row");
  Result.PreparedRps = syncRps([&] { K.run(Prepared); });

  for (int Workers : {1, 2, 4}) {
    AsyncHarness H(Prog, Workers);
    AsyncRow Row;
    Row.Workers = Workers;
    Row.Rps = H.rps();
    Row.DepthHist = H.S.queueDepthHistogram();
    Result.Async.push_back(std::move(Row));
  }
  return Result;
}

void printWorkload(const WorkloadResult &R) {
  std::printf("%s:\n", R.Name.c_str());
  std::printf("  %-26s %12.0f\n", "sync run(ArgBinding)", R.SyncRps);
  std::printf("  %-26s %12.0f\n", "sync run(BoundArgs)", R.PreparedRps);
  for (const AsyncRow &Row : R.Async)
    std::printf("  async w%-19d %12.0f\n", Row.Workers, Row.Rps);
}

//===----------------------------------------------------------------------===//
// Bursty heavy-tailed trace: tail latency per scheduling policy
//===----------------------------------------------------------------------===//

/// One synthetic request class in the trace mix.
enum class ReqClass { Tiny, Mid, Heavy };

struct ReqEvent {
  ReqClass Class = ReqClass::Tiny;
  uint64_t GapUs = 0;    ///< Idle time before this submit.
  bool Tight = false;    ///< Tiny request with a 500us budget.
};

/// Draws a Poisson(Mean) variate by Knuth's product-of-uniforms method —
/// burst sizes, so the trace has genuine bursts rather than a steady
/// trickle.
uint64_t poisson(Rng &R, double Mean) {
  double L = std::exp(-Mean), P = 1.0;
  uint64_t K = 0;
  do {
    ++K;
    P *= R.nextDouble();
  } while (P > L);
  return K - 1;
}

/// Exponential inter-burst gap in microseconds.
uint64_t expGapUs(Rng &R, double MeanUs) {
  double U = R.nextDouble();
  if (U <= 0.0)
    U = 1e-12;
  return static_cast<uint64_t>(-MeanUs * std::log(U));
}

/// A seeded bursty trace: Poisson-sized bursts of back-to-back submits
/// separated by exponential idle gaps, drawing a heavy-tailed class mix
/// (~85% tiny blends, ~10% mid gemms, ~5% multi-millisecond heavy gemms).
std::vector<ReqEvent> makeTrace(uint64_t Seed, size_t Count) {
  Rng Bursts(deriveSeed(Seed, 1)), Mix(deriveSeed(Seed, 2));
  std::vector<ReqEvent> Trace;
  while (Trace.size() < Count) {
    // Near-critical load: bursts arrive slightly slower than the worker
    // drains them, so the queue empties between bursts and the tail is
    // set by *ordering within a burst* (what the policies differ on),
    // not by an ever-growing backlog (which drowns every policy alike).
    uint64_t Burst = 1 + poisson(Bursts, 7.0);
    uint64_t Gap = 200 + expGapUs(Bursts, 2000.0);
    for (uint64_t I = 0; I < Burst && Trace.size() < Count; ++I) {
      ReqEvent E;
      E.GapUs = I == 0 ? Gap : 0;
      double Draw = Mix.nextDouble();
      E.Class = Draw < 0.85   ? ReqClass::Tiny
                : Draw < 0.95 ? ReqClass::Mid
                              : ReqClass::Heavy;
      E.Tight = E.Class == ReqClass::Tiny && Mix.nextDouble() < 0.10;
      Trace.push_back(E);
    }
  }
  return Trace;
}

struct TailRow {
  const char *Policy = "";
  double P50Us = 0.0, P95Us = 0.0, P99Us = 0.0; ///< Server-side, global.
  double TinyP50Us = 0.0, TinyP99Us = 0.0; ///< Client-side, deadlined class.
  uint64_t Completed = 0, Expired = 0;
};

double quantileUs(std::vector<double> &Sojourns, double Q) {
  if (Sojourns.empty())
    return 0.0;
  size_t Rank = static_cast<size_t>(Q * (Sojourns.size() - 1));
  std::nth_element(Sojourns.begin(), Sojourns.begin() + Rank, Sojourns.end());
  return Sojourns[Rank] * 1e6;
}

/// Replays \p Trace against a 1-worker server under \p Policy. Tiny
/// requests carry a loose 100ms deadline (tight ones 500us), mid
/// requests a 10s one that never binds, and heavy requests none — so
/// EDF serves a burst's tiny head first, then its mid requests ahead of
/// the heavy tail, while FIFO by construction cannot reorder.
///
/// Two latency views land in the row: the server-side sojourn histogram
/// over all completed requests (global — includes the heavy requests a
/// deadline-driven policy deliberately defers, so it shows each policy's
/// trade, not a ranking), and client-observed sojourn quantiles of the
/// deadlined tiny class (a poller thread stamps each future as it
/// becomes ready) — the metric the policies compete on.
TailRow replayTrace(const std::vector<ReqEvent> &Trace,
                    SchedulerPolicy Policy, const char *Name) {
  ServerOptions Options;
  Options.Workers = 1;
  Options.QueueCapacity = 1024;
  Options.Policy = BackpressurePolicy::Block;
  Options.Scheduling = Policy;
  Server S(Options);

  Program TinyProg = makeBlend(/*Pairs=*/4, /*N=*/32);
  Program MidProg = makeGemm(64);
  Program HeavyProg = makeGemm(160);
  Kernel Tiny = S.compile(TinyProg);
  Kernel Mid = S.compile(MidProg);
  Kernel Heavy = S.compile(HeavyProg);

  // Reference results per class, for the always-on bit-identity check.
  OwnedArgs TinyRef(TinyProg), MidRef(MidProg), HeavyRef(HeavyProg);
  if (!Kernel::compile(TinyProg).run(TinyRef.binding()) ||
      !Kernel::compile(MidProg).run(MidRef.binding()) ||
      !Kernel::compile(HeavyProg).run(HeavyRef.binding()))
    fail("trace reference run failed");

  // All request state exists before the clock starts: the replay loop
  // does nothing but sleep and submit.
  struct Slot {
    ReqClass Class;
    OwnedArgs Args;
    BoundArgs Bound;
    std::future<RunStatus> Done;
    Slot(ReqClass Class, const Program &Prog, const Kernel &K)
        : Class(Class), Args(Prog), Bound(K.bind(Args.binding())) {}
  };
  std::vector<std::unique_ptr<Slot>> Slots;
  for (const ReqEvent &E : Trace) {
    const Program &Prog = E.Class == ReqClass::Tiny  ? TinyProg
                          : E.Class == ReqClass::Mid ? MidProg
                                                     : HeavyProg;
    const Kernel &K = E.Class == ReqClass::Tiny  ? Tiny
                      : E.Class == ReqClass::Mid ? Mid
                                                 : Heavy;
    Slots.push_back(std::make_unique<Slot>(E.Class, Prog, K));
    if (!Slots.back()->Bound.ok())
      fail("trace bind failed");
  }

  // A poller thread stamps each future the moment it turns ready, giving
  // client-observed per-class sojourns without one waiter thread per
  // request. SubmittedCount publishes slots to the poller.
  std::vector<double> SubmitAt(Trace.size(), 0.0), DoneAt(Trace.size(), 0.0);
  std::atomic<size_t> SubmittedCount{0};
  std::thread Poller([&] {
    std::vector<bool> Seen(Trace.size(), false);
    size_t Remaining = Trace.size();
    while (Remaining > 0) {
      size_t Limit = SubmittedCount.load(std::memory_order_acquire);
      for (size_t I = 0; I < Limit; ++I) {
        if (Seen[I])
          continue;
        if (Slots[I]->Done.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          DoneAt[I] = now();
          Seen[I] = true;
          --Remaining;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });

  for (size_t I = 0; I < Trace.size(); ++I) {
    const ReqEvent &E = Trace[I];
    if (E.GapUs)
      std::this_thread::sleep_for(std::chrono::microseconds(E.GapUs));
    const Kernel &K = E.Class == ReqClass::Tiny  ? Tiny
                      : E.Class == ReqClass::Mid ? Mid
                                                 : Heavy;
    SubmitOptions SO;
    if (E.Class == ReqClass::Tiny)
      SO.Timeout = E.Tight ? std::chrono::microseconds(500)
                           : std::chrono::milliseconds(100);
    else if (E.Class == ReqClass::Mid)
      SO.Timeout = std::chrono::seconds(10);
    SubmitAt[I] = now();
    Slots[I]->Done = S.submit(K, Slots[I]->Bound, SO);
    SubmittedCount.store(I + 1, std::memory_order_release);
  }
  S.drain();
  Poller.join();

  TailRow Row;
  Row.Policy = Name;
  std::vector<double> TinySojourns;
  for (size_t I = 0; I < Slots.size(); ++I) {
    Slot &TheSlot = *Slots[I];
    RunStatus Status = TheSlot.Done.get();
    if (Status.ok()) {
      ++Row.Completed;
      const OwnedArgs &Ref = TheSlot.Class == ReqClass::Tiny  ? TinyRef
                             : TheSlot.Class == ReqClass::Mid ? MidRef
                                                              : HeavyRef;
      if (TheSlot.Args.Buffers != Ref.Buffers)
        fail("trace result diverges from synchronous reference");
      if (TheSlot.Class == ReqClass::Tiny)
        TinySojourns.push_back(DoneAt[I] - SubmitAt[I]);
    } else if (Status.Why == RunStatus::Expired) {
      ++Row.Expired;
    } else {
      fail("trace request neither completed nor expired");
    }
  }
  // Global quantiles are server-side (enqueue to completion) over every
  // completed request; the deadlined tiny class additionally gets exact
  // client-observed quantiles. Expired work is reported separately.
  Row.P50Us = S.latencyQuantileUs(0.50);
  Row.P95Us = S.latencyQuantileUs(0.95);
  Row.P99Us = S.latencyQuantileUs(0.99);
  Row.TinyP50Us = quantileUs(TinySojourns, 0.50);
  Row.TinyP99Us = quantileUs(TinySojourns, 0.99);
  return Row;
}

//===----------------------------------------------------------------------===//
// Multi-tenant flood: light-tenant latency under a heavy co-tenant
//===----------------------------------------------------------------------===//

struct TenantFloodRow {
  std::string Policy;
  uint32_t LightWeight = 1;    ///< SubmitOptions::Weight of light submits.
  double LightP99Us = 0.0;     ///< Client-observed light-tenant sojourn.
  uint64_t LightCompleted = 0; ///< Light requests served (of LightReqs).
  uint64_t HeavyCompleted = 0; ///< Heavy completions when light finished.
  uint64_t HeavyShed = 0;      ///< Heavy overflow the quota rejected.
};

constexpr int LightBurst = 8;     ///< Light requests per closed-loop round.
constexpr int LightRounds = 10;   ///< Rounds per row (80 sojourn samples).
constexpr int HeavyPerLight = 30; ///< Heavy-tenant flood factor (by rate).

/// One flood row: each round, the heavy tenant (tenant 2) fires a
/// rate-proportional burst of HeavyPerLight * LightBurst cheap blends at
/// the server, then the light tenant (tenant 1) submits its own burst of
/// LightBurst blends and waits for all of them — per-request
/// client-observed sojourns are the row's latency samples, and every
/// completed light result is bit-checked against a synchronous
/// reference. Under FIFO the light requests sit behind the heavy
/// backlog, while FairShare serves the light deque its own round-robin
/// quantum.
/// \p Flood false measures the light tenant alone (the solo baseline,
/// whose p99 then includes the light tenant's own queueing). Light
/// submits carry a retry budget, so a FIFO-full queue delays rather than
/// drops them (the jittered-backoff path); fire-and-forget heavy futures
/// resolve by drain(), overflow beyond the quota shed as the heavy
/// tenant's own Overloaded rejections. \p LightWeight is the
/// SubmitOptions::Weight the light tenant submits under — FairShare's
/// deficit round-robin grants it that many pops per quantum against the
/// heavy tenant's weight of 1, which the weighted-flood sweep uses to
/// show Weight translating into tail latency end to end.
TenantFloodRow floodRound(SchedulerPolicy Policy, const char *Name,
                          size_t TenantQuota, bool Flood,
                          uint32_t LightWeight = 1) {
  ServerOptions Options;
  Options.Workers = 1;
  Options.QueueCapacity = 512;
  Options.Policy = BackpressurePolicy::Reject;
  Options.Scheduling = Policy;
  Options.TenantQuota = TenantQuota;
  Server S(Options);

  Program LightProg = makeBlend(/*Pairs=*/8, /*N=*/32);
  Program HeavyProg = makeBlend(/*Pairs=*/4, /*N=*/32);
  Kernel LightK = S.compile(LightProg);
  Kernel HeavyK = S.compile(HeavyProg);

  OwnedArgs LightRef(LightProg);
  if (!Kernel::compile(LightProg).run(LightRef.binding()))
    fail("flood reference run failed");

  // All slots and bindings exist before the clock starts.
  struct Slot {
    OwnedArgs Args;
    BoundArgs Bound;
    std::future<RunStatus> Done;
    Slot(const Program &Prog, const Kernel &K)
        : Args(Prog), Bound(K.bind(Args.binding())) {}
  };
  constexpr int LightReqs = LightBurst * LightRounds;
  std::vector<std::unique_ptr<Slot>> Light, Heavy;
  for (int I = 0; I < LightReqs; ++I)
    Light.push_back(std::make_unique<Slot>(LightProg, LightK));
  if (Flood)
    for (int I = 0; I < LightReqs * HeavyPerLight; ++I)
      Heavy.push_back(std::make_unique<Slot>(HeavyProg, HeavyK));
  for (auto &TheSlot : Light)
    if (!TheSlot->Bound.ok())
      fail("light bind failed");
  for (auto &TheSlot : Heavy)
    if (!TheSlot->Bound.ok())
      fail("heavy bind failed");

  resetStatsCounters();
  TenantFloodRow Row;
  Row.Policy = Name;
  Row.LightWeight = LightWeight;
  std::vector<double> Sojourns;
  std::vector<double> SubmitAt(LightBurst, 0.0);
  for (int Round = 0; Round < LightRounds; ++Round) {
    if (Flood)
      for (int H = 0; H < LightBurst * HeavyPerLight; ++H) {
        SubmitOptions HeavyOpts;
        HeavyOpts.Tenant = 2;
        Slot &TheSlot =
            *Heavy[size_t(Round) * LightBurst * HeavyPerLight + H];
        TheSlot.Done = S.submit(HeavyK, TheSlot.Bound, HeavyOpts);
      }
    for (int I = 0; I < LightBurst; ++I) {
      SubmitOptions LightOpts;
      LightOpts.Tenant = 1;
      LightOpts.Weight = LightWeight;
      LightOpts.MaxRetries = 50;
      LightOpts.Backoff = std::chrono::microseconds(100);
      Slot &TheSlot = *Light[size_t(Round) * LightBurst + I];
      SubmitAt[size_t(I)] = now();
      TheSlot.Done = S.submit(LightK, TheSlot.Bound, LightOpts);
    }
    for (int I = 0; I < LightBurst; ++I) {
      Slot &TheSlot = *Light[size_t(Round) * LightBurst + I];
      RunStatus Status = TheSlot.Done.get();
      if (Status.ok()) {
        Sojourns.push_back(now() - SubmitAt[size_t(I)]);
        ++Row.LightCompleted;
        if (TheSlot.Args.Buffers != LightRef.Buffers)
          fail("flood light result diverges from synchronous reference");
      }
    }
  }
  // Snapshot mid-flood heavy progress before drain() lets the backlog
  // finish: this is the service the heavy tenant got while competing.
  Row.HeavyCompleted =
      static_cast<uint64_t>(statsCounter("Serve.Tenant2.Completed"));
  S.drain();
  Row.HeavyShed =
      static_cast<uint64_t>(statsCounter("Serve.Tenant2.Rejected"));
  for (auto &TheSlot : Heavy)
    (void)TheSlot->Done.get(); // Definite statuses; overflow was shed.
  Row.LightP99Us = quantileUs(Sojourns, 0.99);
  return Row;
}

//===----------------------------------------------------------------------===//
// Online tuning: closed-loop latency with the tuner lane off vs on
//===----------------------------------------------------------------------===//

struct OnlineTuningRow {
  const char *Mode = "";
  double P50Us = 0.0;      ///< Closed-loop request sojourn, steady state.
  double P99Us = 0.0;
  int64_t TuneSwaps = 0;   ///< Measured-gain hot-swaps (from health()).
  int64_t TuneRollbacks = 0;
};

/// One closed-loop latency row on the naive gemm nest. With \p Tuning
/// the server engine's background tuner lane samples every run, and the
/// warmup phase runs until the re-searched plan (the BLAS-call lift of
/// the nest — bit-identical accumulation order, far faster) is
/// hot-swapped in on measured gain; the steady-state measurement then
/// reflects the promoted plan. Every completed request — warmup
/// requests straddling the swap included — is bit-checked against a
/// synchronous reference, so the row doubles as the swap's bit-identity
/// self-check.
OnlineTuningRow tuningRound(bool Tuning) {
  ServerOptions Options;
  Options.Workers = 1;
  Options.QueueCapacity = 64;
  if (Tuning) {
    Options.Engine.OnlineTuning.Enable = true;
    Options.Engine.OnlineTuning.Interval = std::chrono::microseconds(2000);
    Options.Engine.OnlineTuning.SampleEvery = 1;
    Options.Engine.OnlineTuning.MinSamples = 8;
    Options.Engine.OnlineTuning.MinGainPct = 3.0; // A real measured gain.
  }
  Server S(Options);

  Program G = makeGemm(64);
  Kernel K = S.compile(G);

  OwnedArgs Ref(G);
  if (!Kernel::compile(G).run(Ref.binding()))
    fail("online-tuning reference run failed");

  // One reusable request slot; gemm accumulates into C, so inputs are
  // restored element-wise before every submit (never reallocated — the
  // BoundArgs slot table points into this storage).
  OwnedArgs Slot(G);
  const OwnedArgs Init(G);
  BoundArgs Bound = K.bind(Slot.binding());
  if (!Bound.ok())
    fail("online-tuning bind failed");

  auto RunOne = [&]() -> double {
    for (size_t B = 0; B < Slot.Buffers.size(); ++B)
      std::copy(Init.Buffers[B].second.begin(), Init.Buffers[B].second.end(),
                Slot.Buffers[B].second.begin());
    double T0 = now();
    RunStatus Status = S.submit(K, Bound).get();
    double T1 = now();
    if (!Status.ok())
      fail("online-tuning request failed");
    if (Slot.Buffers != Ref.Buffers)
      fail("online-tuning result diverges from synchronous reference "
           "(bit-identity across the hot-swap broken)");
    return T1 - T0;
  };

  // Warmup. With tuning on, drive traffic until the tuner lane has
  // measured, probed, and promoted (bounded at ~5 s — the gate below
  // catches a missing swap).
  auto SwapsNow = [&]() -> int64_t { return S.health().TuneSwaps; };
  double WarmupStart = now();
  do {
    for (int I = 0; I < 16; ++I)
      (void)RunOne();
  } while (Tuning && SwapsNow() < 1 && now() - WarmupStart < 5.0);

  // Steady state.
  std::vector<double> Sojourns;
  for (int I = 0; I < 200; ++I)
    Sojourns.push_back(RunOne());

  OnlineTuningRow Row;
  Row.Mode = Tuning ? "on" : "off";
  Row.P50Us = quantileUs(Sojourns, 0.50);
  Row.P99Us = quantileUs(Sojourns, 0.99);
  HealthSnapshot Health = S.health();
  Row.TuneSwaps = Health.TuneSwaps;
  Row.TuneRollbacks = Health.TuneRollbacks;
  return Row;
}

//===----------------------------------------------------------------------===//
// Observability: flight-recorder overhead on the gemm sync column
//===----------------------------------------------------------------------===//

/// Per-request sojourns of \p Iters sync gemm runs. With \p Instrument
/// each run is wrapped in a trace site the way the runtime instruments
/// its own hot paths — name id pre-resolved, so a disabled recorder
/// costs one relaxed load per request and an enabled one costs two
/// timestamps plus a single Complete-event ring write. Uninstrumented
/// (\p Instrument false) is the baseline the recorder-off rows are
/// compared against.
std::vector<double> obsRound(Kernel &K, BoundArgs &Args, bool Instrument,
                             uint16_t NameId, int Iters) {
  TraceRecorder &TR = TraceRecorder::instance();
  std::vector<double> Sojourns;
  Sojourns.reserve(static_cast<size_t>(Iters));
  for (int I = 0; I < Iters; ++I) {
    double T0 = now();
    if (Instrument) {
      // One relaxed load is all a disabled site pays.
      if (TR.enabled()) {
        uint64_t StartNs = TR.nowNs();
        K.run(Args);
        TR.emitComplete(TraceCategory::Bench, NameId, StartNs,
                        TR.nowNs() - StartNs);
      } else {
        K.run(Args);
      }
    } else {
      K.run(Args);
    }
    Sojourns.push_back(now() - T0);
  }
  return Sojourns;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *JsonPath = "BENCH_serve.json";
  bool Gate = true;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--no-gate")
      Gate = false;
    else
      JsonPath = Argv[I];
  }

  Program Gemm = makeGemm(64);
  Program Blend = makeBlend(/*Pairs=*/16, /*N=*/32);

  checkIdentity(Gemm, "gemm");
  checkIdentity(Blend, "blend");
  std::printf("bit-identity: async == sync at workers {1,2,4} x "
              "{fifo,fairshare} on both workloads\n\n");

  std::printf("requests/s (pipelined %d deep on the async rows):\n",
              InFlight);
  WorkloadResult GemmResult = benchWorkload("gemm 64x64x64 (3 arrays)",
                                            Gemm);
  printWorkload(GemmResult);
  WorkloadResult BlendResult =
      benchWorkload("blend 16x32 (48 arrays)", Blend);
  printWorkload(BlendResult);

  // Gate measurement: sync run(ArgBinding) vs prepared submit at 1
  // worker on the binding-bound workload, sampled interleaved; the
  // median of per-pair ratios cancels machine-wide drift.
  Kernel BlendK = Kernel::compile(Blend);
  OwnedArgs BlendArgs(Blend);
  ArgBinding BlendBinding = BlendArgs.binding();
  AsyncHarness GateHarness(Blend, /*Workers=*/1);
  std::vector<double> Ratios;
  for (int Pair = 0; Pair < 7; ++Pair) {
    double Sync = syncRps([&] { BlendK.run(BlendBinding); }, 0.1);
    double Async = GateHarness.rps(0.1);
    Ratios.push_back(Async / Sync);
  }
  double GateRatio = median(Ratios);
  std::printf("\ngate (blend, 1 worker): prepared submit / sync = %.3fx "
              "(median of %zu interleaved pairs)\n",
              GateRatio, Ratios.size());

  // Tail latency under a bursty heavy-tailed trace, per scheduling
  // policy. Same seeded trace for every policy; the only variable is
  // which queued request the worker serves next. Three interleaved
  // rounds per policy, keeping each policy's best round — transient
  // machine noise (the usual CI hazard) inflates a round, never
  // deflates one.
  std::vector<ReqEvent> Trace = makeTrace(/*Seed=*/42, /*Count=*/400);
  constexpr int Rounds = 3;
  const SchedulerPolicy Policies[] = {SchedulerPolicy::Fifo,
                                      SchedulerPolicy::EarliestDeadlineFirst};
  const char *PolicyNames[] = {"fifo", "edf"};
  TailRow Tails[std::size(Policies)];
  for (int Round = 0; Round < Rounds; ++Round)
    for (size_t P = 0; P < std::size(Policies); ++P) {
      TailRow Row = replayTrace(Trace, Policies[P], PolicyNames[P]);
      if (Round == 0 || Row.TinyP99Us < Tails[P].TinyP99Us)
        Tails[P] = Row;
    }
  std::printf("\ntail latency, bursty trace (%zu requests, 1 worker, best "
              "of %d rounds; us):\n",
              Trace.size(), Rounds);
  for (const TailRow &Row : Tails)
    std::printf("  %-9s all p50 %7.0f p95 %7.0f p99 %7.0f | deadlined p50 "
                "%7.0f p99 %7.0f | completed %3llu expired %3llu\n",
                Row.Policy, Row.P50Us, Row.P95Us, Row.P99Us, Row.TinyP50Us,
                Row.TinyP99Us, static_cast<unsigned long long>(Row.Completed),
                static_cast<unsigned long long>(Row.Expired));
  // The gate compares the deadlined class: global p99 straddles the
  // no-deadline heavy requests EDF deliberately defers, so it measures
  // each policy's trade rather than ranking them.
  double TailRatio = Tails[1].TinyP99Us / Tails[0].TinyP99Us;
  std::printf("gate (bursty trace): edf deadlined-p99 / fifo deadlined-p99 "
              "= %.3fx\n",
              TailRatio);

  // Multi-tenant flood: the light tenant's closed-loop p99 solo, then
  // against a HeavyPerLight-times heavy co-tenant under FIFO (no
  // isolation) and under FairShare with a per-tenant admission quota.
  // Three interleaved rounds, keeping each configuration's best (lowest)
  // p99 — the tail-latency convention: transient machine noise inflates
  // a round's p99, never deflates it, so the best round is the
  // scheduling story. The ratios compare best rounds: normalizing each
  // round by its own solo baseline would let one noisy solo round
  // deflate a policy's ratio. The gate compares FairShare with FIFO in
  // the same run rather than with solo: once a heavy backlog exists,
  // FairShare serves the weight-1 light burst one-for-one with heavy
  // requests of about the same cost, so its p99 sits near 2x solo by
  // construction, while FIFO's grows with the backlog. At a flood factor
  // of 10 the worker drains the heavy burst before the light one
  // arrives, and both policies read near solo.
  TenantFloodRow Solo, FifoFlood, FairFlood;
  for (int Round = 0; Round < 3; ++Round) {
    TenantFloodRow S1 = floodRound(SchedulerPolicy::Fifo, "solo",
                                   /*TenantQuota=*/0, /*Flood=*/false);
    TenantFloodRow S2 = floodRound(SchedulerPolicy::Fifo, "fifo",
                                   /*TenantQuota=*/0, /*Flood=*/true);
    TenantFloodRow S3 = floodRound(SchedulerPolicy::FairShare, "fairshare",
                                   /*TenantQuota=*/32, /*Flood=*/true);
    if (Round == 0 || S1.LightP99Us < Solo.LightP99Us)
      Solo = S1;
    if (Round == 0 || S2.LightP99Us < FifoFlood.LightP99Us)
      FifoFlood = S2;
    if (Round == 0 || S3.LightP99Us < FairFlood.LightP99Us)
      FairFlood = S3;
  }
  std::printf("\nmulti-tenant flood (%d light requests in bursts of %d, "
              "heavy tenant %dx by rate, 1 worker, best of 3 rounds):\n",
              LightBurst * LightRounds, LightBurst, HeavyPerLight);
  for (const TenantFloodRow *Row : {&Solo, &FifoFlood, &FairFlood})
    std::printf("  %-9s light p99 %9.0f us | light completed %3llu | heavy "
                "completed %4llu shed %4llu\n",
                Row->Policy.c_str(), Row->LightP99Us,
                static_cast<unsigned long long>(Row->LightCompleted),
                static_cast<unsigned long long>(Row->HeavyCompleted),
                static_cast<unsigned long long>(Row->HeavyShed));
  double FifoBlowup = FifoFlood.LightP99Us / Solo.LightP99Us;
  double FairBlowup = FairFlood.LightP99Us / Solo.LightP99Us;
  double FairOverFifo = FairFlood.LightP99Us / FifoFlood.LightP99Us;
  std::printf("gate (multi-tenant): fairshare light-p99 / fifo light-p99 "
              "= %.3fx (over solo: fairshare %.3fx, fifo %.3fx; best of 3 "
              "interleaved rounds)\n",
              FairOverFifo, FairBlowup, FifoBlowup);
  std::printf("serve counters: submitted %lld, completed %lld, "
              "queue-depth max %lld\n",
              static_cast<long long>(statsCounter("Serve.Submitted")),
              static_cast<long long>(statsCounter("Serve.Completed")),
              static_cast<long long>(statsCounter("Serve.QueueDepthMax")));

  // Weighted flood: the same heavy-flood trace under FairShare, sweeping
  // the light tenant's SubmitOptions::Weight. The deficit round-robin
  // grants the light queue Weight pops per quantum against the heavy
  // tenant's weight of 1, so a larger weight buys the light tenant a
  // tighter tail under identical pressure. Three interleaved rounds,
  // keeping each weight's lowest light p99, as the flood rows above do.
  // Record-only — the isolation gate above already covers the weight-1
  // configuration.
  constexpr int WeightedRounds = 3;
  TenantFloodRow WeightedRows[3];
  const uint32_t LightWeights[3] = {1, 2, 4};
  for (int Round = 0; Round < WeightedRounds; ++Round)
    for (size_t I = 0; I < 3; ++I) {
      char WName[16];
      std::snprintf(WName, sizeof(WName), "weight-%u", LightWeights[I]);
      TenantFloodRow Row = floodRound(SchedulerPolicy::FairShare, WName,
                                      /*TenantQuota=*/32, /*Flood=*/true,
                                      LightWeights[I]);
      if (Round == 0 || Row.LightP99Us < WeightedRows[I].LightP99Us)
        WeightedRows[I] = Row;
    }
  std::printf("\nweighted flood (fairshare, light-tenant weight sweep, "
              "heavy tenant weight 1, best of %d interleaved rounds):\n",
              WeightedRounds);
  for (const TenantFloodRow &Row : WeightedRows)
    std::printf("  %-9s light p99 %9.0f us | light completed %3llu | heavy "
                "completed %4llu shed %4llu\n",
                Row.Policy.c_str(), Row.LightP99Us,
                static_cast<unsigned long long>(Row.LightCompleted),
                static_cast<unsigned long long>(Row.HeavyCompleted),
                static_cast<unsigned long long>(Row.HeavyShed));

  // Online tuning: the same naive gemm served closed-loop with the
  // tuner lane off, then on. The on row's warmup runs until the
  // re-searched bit-identical plan is promoted on measured gain, so its
  // steady state is the hot-swapped plan; every request either side of
  // the swap is bit-checked against the synchronous reference.
  OnlineTuningRow TuneOff = tuningRound(/*Tuning=*/false);
  OnlineTuningRow TuneOn = tuningRound(/*Tuning=*/true);
  std::printf("\nonline tuning (gemm 64x64x64, closed loop, 1 worker):\n");
  for (const OnlineTuningRow *Row : {&TuneOff, &TuneOn})
    std::printf("  tuning %-4s p50 %7.0f us p99 %7.0f us | swaps %lld "
                "rollbacks %lld\n",
                Row->Mode, Row->P50Us, Row->P99Us,
                static_cast<long long>(Row->TuneSwaps),
                static_cast<long long>(Row->TuneRollbacks));

  // Observability: what the flight recorder costs on the gemm sync
  // column. Each round samples baseline (uninstrumented), recorder-off
  // (disabled trace site), and recorder-on (one Complete event per run)
  // back to back; medians of per-round p50 ratios cancel machine-wide
  // drift the same way the throughput gate does. Under DAISY_TRACE the
  // recorder arrived enabled — its state is restored afterwards.
  TraceRecorder &TR = TraceRecorder::instance();
  const bool TraceWasOn = TR.enabled();
  const uint16_t ObsName = traceNameId("bench.gemm_sync");
  Kernel ObsK = Kernel::compile(Gemm);
  OwnedArgs ObsArgs(Gemm);
  BoundArgs ObsBound = ObsK.bind(ObsArgs.binding());
  if (!ObsBound.ok())
    fail("observability bind failed");
  constexpr int ObsIters = 64, ObsRounds = 7;
  std::vector<double> ObsBase, ObsOff, ObsOn, OnOverOff, OffOverBase;
  (void)obsRound(ObsK, ObsBound, false, ObsName, ObsIters); // Warm caches.
  for (int Round = 0; Round < ObsRounds; ++Round) {
    TR.disable();
    std::vector<double> Base =
        obsRound(ObsK, ObsBound, false, ObsName, ObsIters);
    std::vector<double> Off =
        obsRound(ObsK, ObsBound, true, ObsName, ObsIters);
    TR.enable(TR.capacity());
    std::vector<double> On = obsRound(ObsK, ObsBound, true, ObsName, ObsIters);
    OnOverOff.push_back(quantileUs(On, 0.50) / quantileUs(Off, 0.50));
    OffOverBase.push_back(quantileUs(Off, 0.50) / quantileUs(Base, 0.50));
    ObsBase.insert(ObsBase.end(), Base.begin(), Base.end());
    ObsOff.insert(ObsOff.end(), Off.begin(), Off.end());
    ObsOn.insert(ObsOn.end(), On.begin(), On.end());
  }
  double ObsOnOverOff = median(OnOverOff);
  double ObsOffOverBase = median(OffOverBase);
  std::printf("\nobservability (gemm 64x64x64 sync, %d requests per row; "
              "us):\n",
              ObsIters * ObsRounds);
  struct {
    const char *Tracing;
    std::vector<double> *Sojourns;
  } ObsRows[3] = {{"baseline", &ObsBase}, {"off", &ObsOff}, {"on", &ObsOn}};
  for (auto &Row : ObsRows)
    std::printf("  recorder %-8s p50 %7.0f us p99 %7.0f us\n", Row.Tracing,
                quantileUs(*Row.Sojourns, 0.50),
                quantileUs(*Row.Sojourns, 0.99));
  std::printf("  on/off p50 %.3fx, off/baseline p50 %.3fx (medians of %d "
              "interleaved rounds)\n",
              ObsOnOverOff, ObsOffOverBase, ObsRounds);

  // One served round with the recorder on: serve-stage spans land in any
  // DAISY_TRACE capture, and the server's scrape becomes the Prometheus
  // artifact CI uploads next to the JSON.
  AsyncHarness ObsServe(Gemm, /*Workers=*/1);
  ObsServe.round();
  std::string MetricsPath = JsonPath;
  if (MetricsPath.size() >= 5 &&
      MetricsPath.compare(MetricsPath.size() - 5, 5, ".json") == 0)
    MetricsPath.erase(MetricsPath.size() - 5);
  MetricsPath += "_metrics.prom";
  if (std::FILE *Prom = std::fopen(MetricsPath.c_str(), "w")) {
    std::string Text = ObsServe.S.metricsText();
    std::fwrite(Text.data(), 1, Text.size(), Prom);
    std::fclose(Prom);
    std::printf("wrote %s\n", MetricsPath.c_str());
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", MetricsPath.c_str());
  }
  if (!TraceWasOn)
    TR.disable();

  if (std::FILE *Json = std::fopen(JsonPath, "w")) {
    std::fprintf(Json, "{\n  \"in_flight\": %d,\n", InFlight);
    std::fprintf(Json, "  \"workloads\": [\n");
    const WorkloadResult *Results[] = {&GemmResult, &BlendResult};
    for (size_t W = 0; W < 2; ++W) {
      const WorkloadResult &R = *Results[W];
      std::fprintf(Json,
                   "    {\"name\": \"%s\",\n"
                   "     \"sync_argbinding_rps\": %.1f,\n"
                   "     \"sync_prepared_rps\": %.1f,\n"
                   "     \"async\": [\n",
                   R.Name.c_str(), R.SyncRps, R.PreparedRps);
      for (size_t I = 0; I < R.Async.size(); ++I) {
        const AsyncRow &Row = R.Async[I];
        std::fprintf(Json,
                     "       {\"workers\": %d, \"rps\": %.1f, "
                     "\"queue_depth_histogram\": [",
                     Row.Workers, Row.Rps);
        for (size_t B = 0; B < Row.DepthHist.size(); ++B)
          std::fprintf(Json, "%s%llu", B ? ", " : "",
                       static_cast<unsigned long long>(Row.DepthHist[B]));
        std::fprintf(Json, "]}%s\n", I + 1 < R.Async.size() ? "," : "");
      }
      std::fprintf(Json, "     ]}%s\n", W == 0 ? "," : "");
    }
    std::fprintf(Json, "  ],\n");
    std::fprintf(Json, "  \"tail_latency\": {\"requests\": %zu, ",
                 Trace.size());
    std::fprintf(Json, "\"policies\": [\n");
    for (size_t I = 0; I < std::size(Tails); ++I) {
      const TailRow &Row = Tails[I];
      std::fprintf(Json,
                   "     {\"policy\": \"%s\", \"p50_us\": %.1f, "
                   "\"p95_us\": %.1f, \"p99_us\": %.1f, "
                   "\"deadlined_p50_us\": %.1f, \"deadlined_p99_us\": %.1f, "
                   "\"completed\": %llu, \"expired\": %llu}%s\n",
                   Row.Policy, Row.P50Us, Row.P95Us, Row.P99Us, Row.TinyP50Us,
                   Row.TinyP99Us,
                   static_cast<unsigned long long>(Row.Completed),
                   static_cast<unsigned long long>(Row.Expired),
                   I + 1 < std::size(Tails) ? "," : "");
    }
    std::fprintf(Json, "  ]},\n");
    std::fprintf(Json,
                 "  \"multi_tenant\": {\"light_requests\": %d, "
                 "\"light_burst\": %d, \"heavy_per_light\": %d, "
                 "\"rows\": [\n",
                 LightBurst * LightRounds, LightBurst, HeavyPerLight);
    {
      const TenantFloodRow *Rows[] = {&Solo, &FifoFlood, &FairFlood};
      for (size_t I = 0; I < 3; ++I)
        std::fprintf(
            Json,
            "     {\"policy\": \"%s\", \"light_p99_us\": %.1f, "
            "\"light_completed\": %llu, \"heavy_completed\": %llu, "
            "\"heavy_shed\": %llu}%s\n",
            Rows[I]->Policy.c_str(), Rows[I]->LightP99Us,
            static_cast<unsigned long long>(Rows[I]->LightCompleted),
            static_cast<unsigned long long>(Rows[I]->HeavyCompleted),
            static_cast<unsigned long long>(Rows[I]->HeavyShed),
            I + 1 < 3 ? "," : "");
    }
    std::fprintf(Json, "  ], \"weighted_flood_best_of_rounds\": %d, "
                       "\"weighted_flood\": [\n",
                 WeightedRounds);
    for (size_t I = 0; I < 3; ++I)
      std::fprintf(
          Json,
          "     {\"light_weight\": %u, \"light_p99_us\": %.1f, "
          "\"light_completed\": %llu, \"heavy_completed\": %llu, "
          "\"heavy_shed\": %llu}%s\n",
          WeightedRows[I].LightWeight, WeightedRows[I].LightP99Us,
          static_cast<unsigned long long>(WeightedRows[I].LightCompleted),
          static_cast<unsigned long long>(WeightedRows[I].HeavyCompleted),
          static_cast<unsigned long long>(WeightedRows[I].HeavyShed),
          I + 1 < 3 ? "," : "");
    std::fprintf(Json,
                 "  ], \"fairshare_p99_over_solo\": %.3f, "
                 "\"fifo_p99_over_solo\": %.3f},\n",
                 FairBlowup, FifoBlowup);
    std::fprintf(Json, "  \"online_tuning\": [\n");
    {
      const OnlineTuningRow *Rows[] = {&TuneOff, &TuneOn};
      for (size_t I = 0; I < 2; ++I)
        std::fprintf(Json,
                     "     {\"tuning\": \"%s\", \"p50_us\": %.1f, "
                     "\"p99_us\": %.1f, \"tune_swaps\": %lld, "
                     "\"tune_rollbacks\": %lld}%s\n",
                     Rows[I]->Mode, Rows[I]->P50Us, Rows[I]->P99Us,
                     static_cast<long long>(Rows[I]->TuneSwaps),
                     static_cast<long long>(Rows[I]->TuneRollbacks),
                     I + 1 < 2 ? "," : "");
    }
    std::fprintf(Json, "  ],\n");
    std::fprintf(Json,
                 "  \"observability\": {\"workload\": \"gemm sync\", "
                 "\"requests_per_row\": %d, \"rows\": [\n",
                 ObsIters * ObsRounds);
    for (size_t I = 0; I < 3; ++I)
      std::fprintf(Json,
                   "     {\"tracing\": \"%s\", \"p50_us\": %.1f, "
                   "\"p99_us\": %.1f}%s\n",
                   ObsRows[I].Tracing, quantileUs(*ObsRows[I].Sojourns, 0.50),
                   quantileUs(*ObsRows[I].Sojourns, 0.99),
                   I + 1 < 3 ? "," : "");
    std::fprintf(Json,
                 "  ], \"on_p50_over_off_p50\": %.3f, "
                 "\"off_p50_over_baseline_p50\": %.3f},\n",
                 ObsOnOverOff, ObsOffOverBase);
    std::fprintf(Json,
                 "  \"gate\": {\"workload\": \"blend\", "
                 "\"prepared_submit_over_sync\": %.3f, "
                 "\"edf_p99_over_fifo_p99\": %.3f, "
                 "\"fairshare_light_p99_over_fifo\": %.3f, "
                 "\"online_tuning_swaps\": %lld, "
                 "\"tracing_on_p50_over_off_p50\": %.3f}\n}\n",
                 GateRatio, TailRatio, FairOverFifo,
                 static_cast<long long>(TuneOn.TuneSwaps), ObsOnOverOff);
    std::fclose(Json);
    std::printf("wrote %s\n", JsonPath);
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", JsonPath);
  }

  bool Failed = false;
  if (GateRatio < 1.0) {
    std::printf("%s: prepared-BoundArgs submit path below sync "
                "run(ArgBinding) throughput at 1 worker (%.3fx)\n",
                Gate ? "FAIL" : "WARN", GateRatio);
    Failed = true;
  } else {
    std::printf("OK: prepared submit path >= sync throughput at 1 worker "
                "(%.3fx)\n",
                GateRatio);
  }
  if (TailRatio >= 1.0) {
    std::printf("%s: EDF deadlined-class p99 not below FIFO on the bursty "
                "trace (%.3fx)\n",
                Gate ? "FAIL" : "WARN", TailRatio);
    Failed = true;
  } else {
    std::printf("OK: EDF deadlined-class p99 below FIFO on the bursty "
                "trace (%.3fx)\n",
                TailRatio);
  }
  if (FairOverFifo > 0.5) {
    std::printf("%s: FairShare light-tenant p99 above half of FIFO's "
                "under the heavy flood (%.3fx)\n",
                Gate ? "FAIL" : "WARN", FairOverFifo);
    Failed = true;
  } else {
    std::printf("OK: FairShare keeps the flooded light tenant's p99 below "
                "half of FIFO's (%.3fx; over solo %.3fx vs %.3fx)\n",
                FairOverFifo, FairBlowup, FifoBlowup);
  }
  if (TuneOn.TuneSwaps < 1) {
    std::printf("%s: online tuning promoted no plan on measured gain "
                "(tune_swaps = %lld)\n",
                Gate ? "FAIL" : "WARN",
                static_cast<long long>(TuneOn.TuneSwaps));
    Failed = true;
  } else {
    std::printf("OK: online tuning hot-swapped a measured-gain plan "
                "(swaps %lld, bit-identical across the swap; p99 "
                "%.0f -> %.0f us)\n",
                static_cast<long long>(TuneOn.TuneSwaps), TuneOff.P99Us,
                TuneOn.P99Us);
  }
  if (ObsOnOverOff > 1.05) {
    std::printf("%s: recorder-on p50 more than 5%% above recorder-off on "
                "the gemm sync column (%.3fx)\n",
                Gate ? "FAIL" : "WARN", ObsOnOverOff);
    Failed = true;
  } else {
    std::printf("OK: flight recorder on costs <= 5%% p50 on the gemm sync "
                "column (%.3fx vs off)\n",
                ObsOnOverOff);
  }
  if (ObsOffOverBase > 1.05) {
    std::printf("%s: disabled trace site p50 more than 5%% above the "
                "uninstrumented baseline (%.3fx)\n",
                Gate ? "FAIL" : "WARN", ObsOffOverBase);
    Failed = true;
  } else {
    std::printf("OK: disabled trace site is free on the gemm sync column "
                "(%.3fx vs baseline)\n",
                ObsOffOverBase);
  }
  return Failed && Gate ? 1 : 0;
}
