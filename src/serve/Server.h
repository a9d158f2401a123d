//===- serve/Server.h - Asynchronous kernel-serving runtime ------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer on top of the api/ facade: the object a
/// daisy-embedding service creates once to serve compiled kernels to many
/// concurrent clients.
///
/// A Server owns
///
/// - one Engine (Server::engine()): its plan cache serves every compile
///   and its transfer-tuning database every optimize, so a normalized
///   variant finds the entries seeded from any other variant of its
///   kernel, and the database persists to one checkpoint lineage at
///   EngineOptions::DatabasePath;
/// - one pluggable, bounded request queue (serve/Scheduler.h) chosen by
///   ServerOptions::Scheduling — FIFO (the default),
///   earliest-deadline-first, or deficit-weighted FairShare over
///   tenants — with an explicit backpressure policy and optional
///   per-tenant admission quotas, so overload is a decision, not an
///   accident, and one tenant's overload is *its own*;
/// - a worker pool (one dedicated exec/ThreadPool instance driven by a
///   dispatcher thread) whose lanes all drain that one queue through
///   its blocking pop. A lane serves one request per dispatch, in the
///   policy's order, through the same guarded Kernel::run(BoundArgs) a
///   synchronous caller uses; the run borrows a pooled context from the
///   request's kernel and returns it when the run ends.
///
/// Server::submit(kernel, boundArgs, submitOptions) returns a
/// std::future<RunStatus>. SubmitOptions adds the robustness surface:
/// an absolute Deadline (or relative Timeout), which is also the one
/// urgency EDF orders by, and retry-with-backoff for transient
/// Overloaded rejections. Work whose deadline passes is *never*
/// dispatched — it is shed at admission or at pop time and its future
/// completes immediately with RunStatus whose Why == RunStatus::Expired.
///
/// The hot path is string-compare-free: arguments are prepared once with
/// Kernel::bind and the workers execute on resolved slot tables. Results
/// are bit-identical to synchronous Kernel::run at every worker and
/// scheduler configuration — workers execute on the pool, so
/// parallel-marked loops inside a kernel degrade to serial per the
/// ThreadPool nesting rule (bit-identical by the ExecPlan contract) and
/// request-level parallelism takes their place.
///
/// drain() blocks until every admitted request has completed; the
/// destructor closes admission, drains, and joins — every future a submit
/// ever returned is completed or failed, never leaked.
///
/// Counters (support/Statistics): Serve.Submitted, Serve.Completed,
/// Serve.Rejected, Serve.Expired, Serve.SubmitRetries,
/// Serve.QueueDepthMax — plus the same four outcome counters per tenant
/// as Serve.Tenant<id>.{Submitted,Completed,Rejected,Expired}. Invariant
/// after drain(), globally and per tenant:
/// Submitted == Completed + Rejected + Expired.
///
/// Observability (obs/): every completed request decomposes its sojourn
/// into three stage histograms — queue wait (submit → worker claim),
/// batch wait (claim → dispatch start: expiry shedding and the
/// "serve.worker" fault site), run (dispatch start → completion) —
/// and, when the flight recorder (obs/Trace.h) is on, emits one Chrome
/// "X" span per stage plus a whole-request span, reconstructed from the
/// request's stored timestamps after completion (no cross-thread B/E
/// pairing). metricsText()/metricsJson() expose the entire counter
/// registry and all four latency histograms as Prometheus text / JSON;
/// dumpTrace(path) writes the recorder ring as Chrome trace JSON.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_SERVE_SERVER_H
#define DAISY_SERVE_SERVER_H

#include "api/Engine.h"
#include "serve/BoundArgs.h"
#include "serve/Scheduler.h"
#include "support/Histogram.h"

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace daisy {

class ThreadPool;

namespace serve {

/// Construction-time configuration of a Server.
struct ServerOptions {
  /// Worker lanes draining the queue; 0 resolves to
  /// ThreadPool::defaultThreadCount() (DAISY_THREADS or the hardware
  /// concurrency).
  int Workers = 0;
  /// Bound of the request queue. Admission beyond it applies Policy:
  /// Block parks the submitting thread on the scheduler's not-full
  /// waiter list until a worker frees a slot (a blocked submitter whose
  /// request carries a Deadline gives up when it passes and the future
  /// completes as Expired without ever enqueuing); Reject fails the push
  /// immediately with RunStatus::Overloaded — which SubmitOptions
  /// retry-with-backoff can absorb. A request whose deadline has already
  /// passed at submit is shed at admission under either policy.
  size_t QueueCapacity = 1024;
  /// What submit does when the queue is full.
  BackpressurePolicy Policy = BackpressurePolicy::Block;
  /// Which request-ordering policy serves the queue (serve/Scheduler.h).
  SchedulerPolicy Scheduling = SchedulerPolicy::Fifo;
  /// Per-tenant admission quota (0 = off): the most queued requests one
  /// tenant (SubmitOptions::Tenant) may hold. A tenant at quota is
  /// treated like a full queue — Reject fails it with Overloaded, Block
  /// waits — even while other tenants still have headroom, so a flooding
  /// tenant sheds its *own* traffic.
  size_t TenantQuota = 0;
  /// Configuration of the server's Engine. With
  /// EngineOptions::DatabasePath set, the engine recovers its database
  /// from that path at construction and drain() checkpoints it there.
  EngineOptions Engine;
};

/// Structured health snapshot (Server::health): the operator's view of
/// queue pressure, self-protection state, and durable-state progress.
struct HealthSnapshot {
  /// One tenant's cumulative outcome counters
  /// (Serve.Tenant<id>.{Submitted,Completed,Rejected,Expired}).
  struct TenantRow {
    uint32_t Tenant = 0;
    int64_t Submitted = 0, Completed = 0, Rejected = 0, Expired = 0;
  };
  size_t QueueDepth = 0;           ///< Queued requests at snapshot time.
  size_t QueueCapacity = 0;        ///< Configured capacity.
  size_t Quarantined = 0;          ///< Keys with a non-closed breaker.
  uint64_t CheckpointGeneration = 0; ///< Newest written/recovered.
  /// Online tuner view (EngineOptions::OnlineTuning; zeros when off).
  bool TuningEnabled = false;
  size_t TuneTracked = 0;          ///< Kernels under measurement.
  size_t TuneProbesInFlight = 0;   ///< Candidates awaiting a decision.
  int64_t TuneSwaps = 0;           ///< Promoted (measured-gain) hot-swaps.
  int64_t TuneRollbacks = 0;       ///< Probes reverted on regression.
  double P50Us = 0.0, P99Us = 0.0; ///< Rolling sojourn-time quantiles.
  int64_t Submitted = 0, Completed = 0, Rejected = 0, Expired = 0;
  std::vector<TenantRow> Tenants; ///< Every tenant seen so far.
  /// The overall verdict: no kernel is quarantined.
  bool healthy() const { return Quarantined == 0; }
};

/// Per-submit scheduling and resilience knobs. Default-constructed: no
/// deadline, no retries, tenant 0 at weight 1.
struct SubmitOptions {
  /// Absolute deadline; work not *started* by this point is shed and its
  /// future completes with Why == RunStatus::Expired. It is also the
  /// request's urgency: EarliestDeadlineFirst serves the earliest next.
  TimePoint Deadline = noDeadline();
  /// Relative convenience: when non-zero and Deadline is unset, the
  /// deadline becomes now + Timeout at submit entry.
  std::chrono::microseconds Timeout{0};
  /// Transient-Overloaded retries (Reject policy): submit re-pushes up
  /// to this many extra times before failing the future.
  int MaxRetries = 0;
  /// Base sleep before the first retry; doubles per retry, capped at
  /// 100ms. The actual sleep is equal-jittered — Backoff/2 plus a
  /// uniform draw up to Backoff/2 — so a cohort of rejected submitters
  /// does not re-arrive in lockstep and collide again.
  std::chrono::microseconds Backoff{200};
  /// Tenant identity: the key of FairShare scheduling, per-tenant
  /// quotas, and the Serve.Tenant<id>.* counters.
  uint32_t Tenant = 0;
  /// FairShare weight: consecutive requests this tenant is served per
  /// rotation turn (clamped to >= 1; the latest submitted weight wins).
  uint32_t Weight = 1;
};

/// The serving runtime. Thread-safe: submit/compile/drain may be called
/// from any number of threads. Destroying the server while a submit call
/// is still executing is the usual object-lifetime race and remains the
/// caller's to avoid; futures obtained before destruction stay valid.
class Server {
public:
  explicit Server(ServerOptions Options = {});
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Engine::compile on the server's engine (one plan cache).
  Kernel compile(const Program &Prog);

  /// Engine::optimize on the server's engine (one tuning database).
  Kernel optimize(const Program &Prog, const TuneOptions &Options = {});

  /// The engine every compile, optimize and checkpoint goes through.
  Engine &engine() { return Eng; }

  /// Enqueues one run of \p K on prepared arguments and returns the
  /// future completed by a worker. Non-ok or mismatched \p Args fail the
  /// future with the diagnostic instead of executing; a full queue
  /// blocks, rejects, or retries per the backpressure policy and
  /// \p Options; expired work completes as Expired without running.
  std::future<RunStatus> submit(const Kernel &K, BoundArgs Args,
                                const SubmitOptions &Options = {});

  /// Convenience: validates \p Args against \p K (the one string-compare
  /// pass) and submits the resulting BoundArgs.
  std::future<RunStatus> submit(const Kernel &K, const ArgBinding &Args,
                                const SubmitOptions &Options = {});

  /// Blocks until every request admitted so far (and any admitted while
  /// draining) has completed, then checkpoints the engine's database if
  /// it changed (a quiescent point is the cheapest consistent one).
  /// The server keeps serving afterwards.
  void drain();

  /// A structured health snapshot: queue depth, quarantine state,
  /// checkpoint and tuner progress, rolling latency quantiles, and
  /// per-tenant outcome counters. A read: it changes no server state.
  HealthSnapshot health() const;

  /// Requests admitted but not yet picked up by a worker.
  size_t queueDepth() const { return Queue->depth(); }

  /// High-water mark of the queue depth since construction.
  size_t queueDepthMax() const { return Queue->maxDepthSeen(); }

  /// Log2-bucketed histogram of the queue depth sampled after every
  /// admitted request: bucket B counts samples with depth in
  /// [2^B, 2^(B+1)).
  std::vector<uint64_t> queueDepthHistogram() const;

  /// Quantile (0 <= Q <= 1) of completed-request sojourn time in
  /// microseconds — submit entry to worker completion, measured
  /// server-side on a log-linear histogram (four sub-buckets per octave,
  /// so about ±12% resolution). Returns 0 when nothing completed yet.
  /// Expired and rejected requests are not latency samples.
  double latencyQuantileUs(double Q) const;

  /// Completed-request latency samples recorded so far.
  uint64_t latencyCount() const;

  /// Midpoint-weighted estimate of the sum of all end-to-end sojourns in
  /// microseconds (the cross-check target for the per-stage sums).
  double latencySumUs() const { return LatencyHist.approxSum(); }

  /// The three stages a completed request's sojourn decomposes into.
  /// QueueWait + BatchWait + Run sums (within bucketing resolution) to
  /// the end-to-end sojourn latencyQuantileUs measures.
  enum class Stage {
    QueueWait, ///< Submit entry → worker claims the request.
    BatchWait, ///< Claim → dispatch start: expiry shedding and the
               ///< "serve.worker" fault site.
    Run,       ///< Dispatch start → completion.
  };

  /// Quantile of one stage's duration in microseconds, on the same
  /// log-linear buckets as latencyQuantileUs; 0 before any completion.
  double stageQuantileUs(Stage S, double Q) const;

  /// Samples recorded into one stage histogram (== completions observed
  /// by that stage).
  uint64_t stageCount(Stage S) const;

  /// Midpoint-weighted sum of one stage's samples in microseconds — the
  /// cross-stage accounting check: sum over stages ≈ sum of sojourns.
  double stageSumUs(Stage S) const;

  /// The whole counter registry (every subsystem's Serve.*, Engine.*,
  /// Tune.*, ... counters) plus this server's four latency histograms,
  /// rendered as Prometheus text exposition format (obs/Metrics.h).
  std::string metricsText() const;

  /// The same snapshot as JSON (dotted metric names preserved).
  std::string metricsJson() const;

  /// Writes the process flight-recorder ring (obs/Trace.h) as Chrome
  /// trace JSON to \p Path; false if the file cannot be written.
  bool dumpTrace(const std::string &Path) const;

  const ServerOptions &options() const { return Opts; }

private:
  /// The four outcome cells of one tenant, resolved once per tenant and
  /// cached (references stay valid for the process lifetime).
  struct TenantCounters {
    std::atomic<int64_t> &Submitted, &Completed, &Rejected, &Expired;
  };

  void workerLane();
  void dispatch(Request &R);
  void finishMany(uint64_t N);
  void recordLatency(TimePoint EnqueuedAt, TimePoint Now);
  TenantCounters &tenantCounters(uint32_t Tenant);

  ServerOptions Opts;
  Engine Eng;
  std::unique_ptr<Scheduler> Queue;

  /// Pre-resolved Serve.* counter cells (support/Statistics): the hot
  /// path increments relaxed atomics instead of paying a name lookup
  /// under the registry mutex per request.
  std::atomic<int64_t> &CSubmitted, &CCompleted, &CRejected, &CExpired,
      &CRetries, &CDepthMax;

  /// Lazily resolved Serve.Tenant<id>.* cells, keyed by tenant.
  mutable std::mutex TenantMutex;
  std::unordered_map<uint32_t, TenantCounters> TenantStats;

  /// Depth-after-push samples, log2 buckets (support/Histogram.h).
  DepthHistogram DepthHist;

  /// Sojourn-time samples (submit → completion), log-linear microsecond
  /// buckets, plus the three per-stage decompositions of the same
  /// population (indexed by Stage via stageHist).
  LatencyHistogram LatencyHist;
  LatencyHistogram QueueWaitHist;
  LatencyHistogram BatchWaitHist;
  LatencyHistogram RunHist;

  const LatencyHistogram &stageHist(Stage S) const {
    return S == Stage::QueueWait ? QueueWaitHist
           : S == Stage::BatchWait ? BatchWaitHist
                                   : RunHist;
  }

  /// Pre-resolved flight-recorder name ids (obs/Trace.h): the dispatch
  /// path emits trace events with no interning lookup, mirroring the
  /// statsCounterCell pre-resolution above.
  uint16_t TnSubmit, TnRequest, TnQueueWait, TnBatchWait, TnRun;

  /// Admitted vs finished request counts backing drain(). Admitted is
  /// incremented lock-free on the submit path (an increment can never
  /// satisfy a drain waiter, so no notification is needed); Finished
  /// advances under DrainMutex so waiters cannot miss the final
  /// transition, once per dispatch or expiry sweep. The rejected-submit
  /// rollback decrement also notifies under the mutex.
  std::mutex DrainMutex;
  std::condition_variable DrainCV;
  std::atomic<uint64_t> Admitted{0};
  uint64_t Finished = 0;

  /// The worker pool and the dispatcher thread whose ThreadPool::run
  /// call turns the pool's lanes into queue drainers. Last members, so
  /// they stop before anything they use is destroyed.
  std::unique_ptr<ThreadPool> Pool;
  std::thread Dispatcher;
};

} // namespace serve
} // namespace daisy

#endif // DAISY_SERVE_SERVER_H
