//===- serve/Server.cpp ---------------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "exec/ThreadPool.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/FailPoint.h"
#include "support/Random.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

using namespace daisy;
using namespace daisy::serve;

namespace {

// The depth / latency bucketing that used to be hand-rolled here lives in
// support/Histogram.h now (Log2Bucketing / LogLinearBucketing), shared
// with the per-stage histograms and the obs/Metrics exporter.

/// Microseconds between two stamps, clamped at zero: the histograms take
/// unsigned samples, and a negative difference would wrap to a huge one.
uint64_t elapsedUs(TimePoint From, TimePoint To) {
  auto Us = std::chrono::duration_cast<std::chrono::microseconds>(To - From)
                .count();
  return Us < 0 ? 0 : static_cast<uint64_t>(Us);
}

/// Equal-jittered retry sleep: half the nominal backoff deterministic,
/// half uniform. A cohort of submitters rejected by the same full-queue
/// event decorrelates instead of re-arriving in lockstep and colliding
/// again, and no submitter ever sleeps less than half the nominal value.
std::chrono::microseconds jitteredBackoff(std::chrono::microseconds Backoff) {
  static thread_local Rng JitterRng(deriveSeed(
      0xB0FFull,
      std::hash<std::thread::id>{}(std::this_thread::get_id())));
  uint64_t Half = static_cast<uint64_t>(Backoff.count()) / 2;
  if (Half == 0)
    return Backoff;
  return std::chrono::microseconds(Half + JitterRng.nextBelow(Half + 1));
}

} // namespace

Server::Server(ServerOptions Options)
    : Opts(std::move(Options)), Eng(Opts.Engine),
      CSubmitted(statsCounterCell("Serve.Submitted")),
      CCompleted(statsCounterCell("Serve.Completed")),
      CRejected(statsCounterCell("Serve.Rejected")),
      CExpired(statsCounterCell("Serve.Expired")),
      CRetries(statsCounterCell("Serve.SubmitRetries")),
      CDepthMax(statsCounterCell("Serve.QueueDepthMax")),
      // Flight-recorder names interned once here: the dispatch path emits
      // with resolved ids, never a map lookup.
      TnSubmit(traceNameId("serve.submit")),
      TnRequest(traceNameId("serve.request")),
      TnQueueWait(traceNameId("serve.queue_wait")),
      TnBatchWait(traceNameId("serve.batch_wait")),
      TnRun(traceNameId("serve.run")) {
  Queue = Scheduler::create(Opts.Scheduling, Opts.QueueCapacity, Opts.Policy,
                            Opts.TenantQuota);

  int Workers =
      Opts.Workers > 0 ? Opts.Workers : ThreadPool::defaultThreadCount();
  // The pool's lanes become queue drainers for the server's lifetime: the
  // dispatcher parks inside one fork-join run() whose W tasks are the
  // worker loops, and returns when close() lets every lane drain out.
  // Reusing ThreadPool keeps the nesting rule: a kernel executed by a
  // lane runs its parallel-marked loops serially (bit-identical by the
  // ExecPlan contract); concurrency comes from serving W requests at
  // once instead.
  Pool = std::make_unique<ThreadPool>(Workers);
  Dispatcher = std::thread([this, Workers] {
    Pool->run(Workers, [this](int) { workerLane(); });
  });
}

Server::~Server() {
  Queue->close();
  if (Dispatcher.joinable())
    Dispatcher.join();
  // All lanes have exited: every admitted request was executed, shed, or
  // failed and every future fulfilled. ~ThreadPool joins the parked
  // workers.
}

Server::TenantCounters &Server::tenantCounters(uint32_t Tenant) {
  std::lock_guard<std::mutex> Lock(TenantMutex);
  auto It = TenantStats.find(Tenant);
  if (It == TenantStats.end()) {
    std::string Base = "Serve.Tenant" + std::to_string(Tenant) + ".";
    It = TenantStats
             .emplace(Tenant,
                      TenantCounters{statsCounterCell(Base + "Submitted"),
                                     statsCounterCell(Base + "Completed"),
                                     statsCounterCell(Base + "Rejected"),
                                     statsCounterCell(Base + "Expired")})
             .first;
  }
  return It->second;
}

Kernel Server::compile(const Program &Prog) { return Eng.compile(Prog); }

Kernel Server::optimize(const Program &Prog, const TuneOptions &Options) {
  return Eng.optimize(Prog, Options);
}

std::future<RunStatus> Server::submit(const Kernel &K, BoundArgs Args,
                                      const SubmitOptions &Options) {
  CSubmitted.fetch_add(1, std::memory_order_relaxed);
  TenantCounters &Tenant = tenantCounters(Options.Tenant);
  Tenant.Submitted.fetch_add(1, std::memory_order_relaxed);
  Request R;
  R.K = K;
  R.Args = std::move(Args);
  R.Tenant = Options.Tenant;
  R.Weight = Options.Weight ? Options.Weight : 1;
  R.EnqueuedAt = serveNow();
  R.Deadline = Options.Deadline;
  if (R.Deadline == noDeadline() && Options.Timeout.count() > 0)
    R.Deadline = R.EnqueuedAt + Options.Timeout;
  std::future<RunStatus> Result = R.Done.get_future();

  // Fail fast on arguments that could never execute; the worker-side
  // stale-kernel check still guards requests that race a rebind.
  if (!R.Args.ok()) {
    R.Done.set_value(invalidBoundArgsStatus(R.Args));
    CCompleted.fetch_add(1, std::memory_order_relaxed);
    Tenant.Completed.fetch_add(1, std::memory_order_relaxed);
    return Result;
  }

  // Count admission before the push: a worker may complete the request
  // before push() even returns, and drain()'s Finished must never
  // overtake Admitted.
  Admitted.fetch_add(1);
  size_t DepthAfter = 0;
  std::chrono::microseconds Backoff = Options.Backoff;
  Scheduler::PushResult Pushed;
  for (int Attempt = 0;; ++Attempt) {
    // Fault site "serve.queue.push": a firing Trigger makes this push act
    // as if the queue were full, exercising the Overloaded/retry paths
    // without needing a real capacity storm.
    Pushed = DAISY_FAILPOINT("serve.queue.push")
                 ? Scheduler::PushResult::Overloaded
                 : Queue->push(R, &DepthAfter);
    if (Pushed == Scheduler::PushResult::Ok) {
      maxStatsCounter(CDepthMax, static_cast<int64_t>(DepthAfter));
      DepthHist.record(DepthAfter);
      // Flight recorder: one instant per admission, arg = depth after the
      // push, so a trace shows the queue growing under load.
      TraceRecorder &TR = TraceRecorder::instance();
      if (TR.enabled())
        TR.emit(TracePhase::Instant, TraceCategory::Serve, TnSubmit,
                DepthAfter);
      return Result;
    }
    if (Pushed != Scheduler::PushResult::Overloaded ||
        Attempt >= Options.MaxRetries)
      break;
    // A deadline can lapse during backoff; classify that as Expired, not
    // Overloaded — the caller's deadline budget, not the queue, decided.
    if (R.Deadline != noDeadline() && serveNow() >= R.Deadline) {
      Pushed = Scheduler::PushResult::Expired;
      break;
    }
    CRetries.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(jitteredBackoff(Backoff));
    Backoff = std::min(Backoff * 2, std::chrono::microseconds(100000));
  }

  {
    // The rollback can complete a drain, so it synchronizes like
    // Finished does.
    std::lock_guard<std::mutex> Lock(DrainMutex);
    Admitted.fetch_sub(1);
  }
  DrainCV.notify_all();
  RunStatus Failed;
  switch (Pushed) {
  case Scheduler::PushResult::Expired:
    CExpired.fetch_add(1, std::memory_order_relaxed);
    Tenant.Expired.fetch_add(1, std::memory_order_relaxed);
    Failed = RunStatus::expired();
    break;
  case Scheduler::PushResult::ShutDown:
    CRejected.fetch_add(1, std::memory_order_relaxed);
    Tenant.Rejected.fetch_add(1, std::memory_order_relaxed);
    Failed = RunStatus::shutDown();
    break;
  default:
    CRejected.fetch_add(1, std::memory_order_relaxed);
    Tenant.Rejected.fetch_add(1, std::memory_order_relaxed);
    Failed = RunStatus::overloaded();
    break;
  }
  R.Done.set_value(std::move(Failed));
  return Result;
}

std::future<RunStatus> Server::submit(const Kernel &K, const ArgBinding &Args,
                                      const SubmitOptions &Options) {
  return submit(K, K.bind(Args), Options);
}

void Server::workerLane() {
  std::optional<Request> Next;
  std::vector<Request> Expired;
  while (Queue->pop(Next, Expired)) {
    // Claim stamp: queue wait ends here.
    if (Next)
      Next->ClaimedAt = serveNow();

    // Shed work first: the futures are already lost causes and cheap to
    // fail, and doing it before the dispatch keeps the latency of the
    // surviving request honest.
    if (!Expired.empty()) {
      for (Request &E : Expired) {
        E.Done.set_value(RunStatus::expired());
        tenantCounters(E.Tenant).Expired.fetch_add(1,
                                                   std::memory_order_relaxed);
      }
      CExpired.fetch_add(static_cast<int64_t>(Expired.size()),
                         std::memory_order_relaxed);
      finishMany(Expired.size());
    }
    if (!Next)
      continue;

    // Fault site "serve.worker": an armed Delay stalls this lane between
    // pop and dispatch — the window in which deadlines lapse and other
    // lanes must pick up the slack.
    (void)DAISY_FAILPOINT("serve.worker");
    dispatch(*Next);
  }
}

void Server::dispatch(Request &R) {
  TimePoint RunStart = serveNow(); // Claim → dispatch start ends here.
  // The guarded path of a synchronous Kernel::run(BoundArgs): it fails
  // non-ok and stale arguments with their status, owns the "kernel.run"
  // fault site and the circuit breaker, and returns the borrowed context
  // to the kernel's pool when the run ends.
  RunStatus Status = R.K.run(R.Args);
  TimePoint Now = serveNow();
  recordLatency(R.EnqueuedAt, Now);
  // Stage decomposition of the same sojourn: queue wait ends at the
  // claim stamp, batch wait at the dispatch stamp, run at completion.
  QueueWaitHist.record(elapsedUs(R.EnqueuedAt, R.ClaimedAt));
  BatchWaitHist.record(elapsedUs(R.ClaimedAt, RunStart));
  RunHist.record(elapsedUs(RunStart, Now));
  TraceRecorder &TR = TraceRecorder::instance();
  if (TR.enabled()) {
    // The request's stage spans, reconstructed post-completion as Chrome
    // "X" (complete) events — begin/end pairing across the submitting
    // and dispatching threads would corrupt lane nesting. Arg carries
    // the admission sequence so one request's spans correlate across
    // lanes in a trace viewer.
    uint64_t EnqNs = TR.toNs(R.EnqueuedAt);
    uint64_t ClaimNs = TR.toNs(R.ClaimedAt);
    uint64_t RunNs = TR.toNs(RunStart);
    uint64_t NowNs = TR.toNs(Now);
    TR.emitComplete(TraceCategory::Serve, TnRequest, EnqNs, NowNs - EnqNs,
                    R.Seq);
    TR.emitComplete(TraceCategory::Serve, TnQueueWait, EnqNs,
                    ClaimNs - EnqNs, R.Seq);
    TR.emitComplete(TraceCategory::Serve, TnBatchWait, ClaimNs,
                    RunNs - ClaimNs, R.Seq);
    TR.emitComplete(TraceCategory::Serve, TnRun, RunNs, NowNs - RunNs,
                    R.Seq);
  }
  tenantCounters(R.Tenant).Completed.fetch_add(1, std::memory_order_relaxed);
  R.Done.set_value(std::move(Status));
  CCompleted.fetch_add(1, std::memory_order_relaxed);
  finishMany(1);
}

void Server::finishMany(uint64_t N) {
  {
    std::lock_guard<std::mutex> Lock(DrainMutex);
    Finished += N;
  }
  DrainCV.notify_all();
}

void Server::drain() {
  {
    std::unique_lock<std::mutex> Lock(DrainMutex);
    DrainCV.wait(Lock, [&] { return Finished == Admitted.load(); });
  }
  // Quiescent point: everything admitted has completed, so the database
  // is as consistent as it gets — persist it if it changed. No-op without
  // a DatabasePath or with unchanged entries. Tuning cycles are drained
  // first so a calibration recorded by an in-flight cycle makes this
  // checkpoint instead of the next one.
  Eng.drainTuning();
  (void)Eng.checkpointNow();
}

HealthSnapshot Server::health() const {
  HealthSnapshot H;
  H.QueueDepth = queueDepth();
  H.QueueCapacity = std::max<size_t>(Opts.QueueCapacity, 1);
  H.Quarantined = Eng.quarantinedCount();
  H.CheckpointGeneration = Eng.checkpointGeneration();
  if (const OnlineTuner *T = Eng.tuner()) {
    OnlineTuner::Stats S = T->stats();
    H.TuningEnabled = S.Enabled;
    H.TuneTracked = S.Tracked;
    H.TuneProbesInFlight = S.ProbesInFlight;
    H.TuneSwaps = S.Swaps;
    H.TuneRollbacks = S.Rollbacks;
  }
  H.P50Us = latencyQuantileUs(0.5);
  H.P99Us = latencyQuantileUs(0.99);
  H.Submitted = CSubmitted.load(std::memory_order_relaxed);
  H.Completed = CCompleted.load(std::memory_order_relaxed);
  H.Rejected = CRejected.load(std::memory_order_relaxed);
  H.Expired = CExpired.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(TenantMutex);
    H.Tenants.reserve(TenantStats.size());
    for (const auto &[Id, Cells] : TenantStats) {
      HealthSnapshot::TenantRow Row;
      Row.Tenant = Id;
      Row.Submitted = Cells.Submitted.load(std::memory_order_relaxed);
      Row.Completed = Cells.Completed.load(std::memory_order_relaxed);
      Row.Rejected = Cells.Rejected.load(std::memory_order_relaxed);
      Row.Expired = Cells.Expired.load(std::memory_order_relaxed);
      H.Tenants.push_back(Row);
    }
  }
  std::sort(H.Tenants.begin(), H.Tenants.end(),
            [](const HealthSnapshot::TenantRow &A,
               const HealthSnapshot::TenantRow &B) {
              return A.Tenant < B.Tenant;
            });
  return H;
}

void Server::recordLatency(TimePoint EnqueuedAt, TimePoint Now) {
  LatencyHist.record(elapsedUs(EnqueuedAt, Now));
}

double Server::latencyQuantileUs(double Q) const {
  return LatencyHist.quantile(Q);
}

uint64_t Server::latencyCount() const { return LatencyHist.count(); }

double Server::stageQuantileUs(Stage S, double Q) const {
  return stageHist(S).quantile(Q);
}

uint64_t Server::stageCount(Stage S) const { return stageHist(S).count(); }

double Server::stageSumUs(Stage S) const { return stageHist(S).approxSum(); }

std::vector<uint64_t> Server::queueDepthHistogram() const {
  auto Counts = DepthHist.snapshot();
  return std::vector<uint64_t>(Counts.begin(), Counts.end());
}

namespace {

MetricsSnapshot serverMetricsSnapshot(const DepthHistogram &Depth,
                                      const LatencyHistogram &Latency,
                                      const LatencyHistogram &QueueWait,
                                      const LatencyHistogram &BatchWait,
                                      const LatencyHistogram &Run) {
  MetricsSnapshot Snap = snapshotMetrics(); // The whole counter registry.
  Snap.Histograms.push_back(snapshotHistogram(
      "Serve.QueueDepth", "queue depth sampled after each admission",
      Depth));
  Snap.Histograms.push_back(snapshotHistogram(
      "Serve.LatencyUs", "end-to-end request sojourn, microseconds",
      Latency));
  Snap.Histograms.push_back(snapshotHistogram(
      "Serve.QueueWaitUs", "submit to worker claim, microseconds",
      QueueWait));
  Snap.Histograms.push_back(snapshotHistogram(
      "Serve.BatchWaitUs", "worker claim to dispatch start, microseconds",
      BatchWait));
  Snap.Histograms.push_back(snapshotHistogram(
      "Serve.RunUs", "dispatch start to completion, microseconds", Run));
  return Snap;
}

} // namespace

std::string Server::metricsText() const {
  return metricsToPrometheus(serverMetricsSnapshot(
      DepthHist, LatencyHist, QueueWaitHist, BatchWaitHist, RunHist));
}

std::string Server::metricsJson() const {
  return metricsToJson(serverMetricsSnapshot(
      DepthHist, LatencyHist, QueueWaitHist, BatchWaitHist, RunHist));
}

bool Server::dumpTrace(const std::string &Path) const {
  return TraceRecorder::instance().dumpTrace(Path);
}
