//===- serve/Scheduler.h - Pluggable request-scheduling policies -*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The admission-controlled buffer between request producers
/// (Server::submit from any thread) and the worker pool draining it —
/// with the *ordering policy* pluggable at construction, in the style of
/// a runtime-chosen modular scheduler: one public interface, several
/// private implementations, selected by ServerOptions.
///
/// The Scheduler base class owns everything every policy shares — the
/// capacity bound, the backpressure decision, the mutex/condvar waiter
/// machinery with wake accounting, deadline bookkeeping, and the
/// admission sequence — and delegates only the storage decisions (where
/// a request waits, which request is served next) to virtual hooks
/// called under the lock. Three policies exist:
///
///   - Fifo (the default): strict admission order in one deque. No
///     request overtakes another, so per-request latency is fair, at the
///     cost of tail latency under bursts — one heavy request delays
///     everything behind it.
///   - EarliestDeadlineFirst: the queued request with the earliest
///     deadline is served next (no-deadline requests rank last, ties
///     break in admission order). Under overload this is the policy that
///     completes the most requests before their deadlines.
///   - FairShare: deficit-weighted round-robin over per-tenant deques.
///     Each turn the front tenant of the rotation earns Weight credits
///     and serves one request per credit, FIFO within the tenant; a
///     tenant with no credit left rotates to the back. One tenant's
///     backlog therefore delays another tenant's head-of-line request by
///     at most one rotation, not by the whole backlog.
///
/// Per-tenant admission quotas (Scheduler ctor / ServerOptions
/// TenantQuota) bound how much of the shared capacity one tenant may
/// occupy, under every policy: a tenant at its quota is rejected
/// (Reject) or waits (Block) even while the queue has room, so a
/// flooding tenant's overflow becomes *its own* Overloaded/Expired
/// statuses and never consumes the headroom other tenants' requests
/// need.
///
/// Deadlines are enforced in two places, and expired work is *never*
/// dispatched:
///
///   - at admission: push() returns PushResult::Expired for a request
///     whose deadline already passed (including a Block-policy submitter
///     whose deadline expires while waiting for space);
///   - at pop: pop() sweeps expired requests out of the queue into the
///     caller's Expired vector before selecting the next request; the
///     server completes their futures with RunStatus::Expired
///     immediately. The sweep is lazy — it runs when a worker pops, not
///     on a timer — which is exactly when it matters: an expired request
///     can only waste resources by being dispatched.
///
/// A pop hands out exactly one request, the policy's head: no request is
/// ever pulled ahead of the policy's order to share a dispatch with
/// another.
///
/// close() stops admission (pushes fail with ShutDown) but lets poppers
/// drain every admitted request, so shutdown completes or fails every
/// future and leaks none.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_SERVE_SCHEDULER_H
#define DAISY_SERVE_SCHEDULER_H

#include "api/Kernel.h"
#include "serve/BoundArgs.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace daisy {
namespace serve {

/// What submit does when the queue is full.
enum class BackpressurePolicy {
  Block, ///< Wait for a worker to make space.
  Reject ///< Fail the request immediately with RunStatus::Overloaded.
};

/// Which request-ordering policy a Server's scheduler uses.
enum class SchedulerPolicy {
  Fifo,                  ///< Strict admission order (the classic queue).
  EarliestDeadlineFirst, ///< Earliest deadline next; no-deadline last.
  FairShare              ///< Deficit-weighted round-robin over tenants.
};

/// The serving clock. Deadlines are absolute points on it.
using ServeClock = std::chrono::steady_clock;
using TimePoint = ServeClock::time_point;

/// The "no deadline" sentinel: later than every real deadline.
constexpr TimePoint noDeadline() { return TimePoint::max(); }

inline TimePoint serveNow() { return ServeClock::now(); }

/// One queued unit of work: the kernel to run, its prepared arguments,
/// the promise backing the caller's future, and the scheduling fields
/// the policy orders by. Move-only (the promise).
struct Request {
  Kernel K;
  BoundArgs Args;
  std::promise<RunStatus> Done;
  TimePoint Deadline = noDeadline();
  TimePoint EnqueuedAt{}; ///< Submit stamp; sojourn = completion - this.
  TimePoint ClaimedAt{};  ///< Worker pop stamp; queue wait = this -
                          ///< EnqueuedAt. Set by the claiming lane, not
                          ///< the scheduler.
  uint64_t Seq = 0;       ///< Admission order, assigned by push().
  uint32_t Tenant = 0;    ///< Fair-share / quota identity (0 = default).
  uint32_t Weight = 1;    ///< FairShare credits per rotation turn (>= 1).
};

/// The pluggable scheduler. Public entry points are thread-safe; the
/// protected storage hooks run under the scheduler's lock.
class Scheduler {
public:
  /// \p TenantQuota caps how many queued requests any single tenant may
  /// hold at once (0 = no per-tenant cap; effective quota is clamped to
  /// Capacity). A push over quota is treated exactly like a push into a
  /// full queue: Reject fails it with Overloaded, Block waits until the
  /// tenant drains (deadline-aware, so it can expire while waiting).
  Scheduler(size_t Capacity, BackpressurePolicy Policy, size_t TenantQuota = 0)
      : Capacity(Capacity ? Capacity : 1), Policy(Policy),
        TenantQuota(TenantQuota ? std::min(TenantQuota, this->Capacity) : 0) {}
  virtual ~Scheduler() = default;
  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  enum class PushResult { Ok, Overloaded, ShutDown, Expired };

  /// Creates the policy implementation ServerOptions selected.
  static std::unique_ptr<Scheduler> create(SchedulerPolicy Which,
                                           size_t Capacity,
                                           BackpressurePolicy Policy,
                                           size_t TenantQuota = 0);

  /// Admits \p R, applying the backpressure policy when full. Returns
  /// ShutDown after close(), Expired when \p R's deadline has already
  /// passed (or passes while a Block-policy push waits for space) — in
  /// every non-Ok case \p R is handed back untouched so the caller can
  /// fail its promise. On success, \p DepthAfter (when non-null)
  /// receives the queue depth including \p R.
  PushResult push(Request &R, size_t *DepthAfter = nullptr);

  /// Blocks until at least one request is available (or the queue is
  /// closed and empty — returns false, the worker-exit signal). Moves
  /// the policy's head request into \p Next, and every queued request
  /// whose deadline has passed into \p Expired (shed, never dispatched;
  /// the caller completes their futures with RunStatus::Expired).
  /// Returns true when either holds a request.
  bool pop(std::optional<Request> &Next, std::vector<Request> &Expired);

  /// Stops admission and wakes every waiter; already-admitted requests
  /// remain poppable until drained.
  void close();

  /// Requests currently queued (admitted, not yet popped).
  size_t depth() const;

  /// High-water mark of depth() over the scheduler's lifetime, sampled
  /// after every successful push.
  size_t maxDepthSeen() const;

  size_t capacity() const { return Capacity; }

protected:
  // Storage hooks, called under Mutex.

  /// Stores \p R in the policy's structure. The base class tracks the
  /// stored count itself (one enqueue, 1 + Expired.size() removals per
  /// pop), so policies keep no redundant counters and the hot paths
  /// never pay a virtual call just to read a size.
  virtual void enqueueLocked(Request &&R) = 0;

  /// Moves every stored request with Deadline <= \p Now into \p Expired
  /// (relative order of survivors preserved). Called only while requests
  /// with finite deadlines are queued.
  virtual void shedExpiredLocked(TimePoint Now,
                                 std::vector<Request> &Expired) = 0;

  /// Removes and returns the policy's head request. Precondition: at
  /// least one request is stored.
  virtual Request popHeadLocked() = 0;

private:
  /// True when admitting one more request of \p Tenant would exceed the
  /// per-tenant quota. Called under Mutex; always false with quota off.
  bool tenantAtQuotaLocked(uint32_t Tenant) const;

  /// Decrements the per-tenant occupancy for a request leaving the
  /// queue. Called under Mutex; no-op with quota off.
  void tenantReleaseLocked(const Request &R);

  const size_t Capacity;
  const BackpressurePolicy Policy;
  const size_t TenantQuota; ///< 0 = per-tenant cap disabled.

  mutable std::mutex Mutex;
  std::condition_variable NotEmpty; ///< Signals poppers: work or close().
  std::condition_variable NotFull;  ///< Signals blocked pushers.
  size_t Queued = 0;   ///< Requests currently stored by the policy.
  size_t MaxDepth = 0;
  bool Closed = false;
  uint64_t NextSeq = 0;

  /// Queued requests with finite deadlines. The expiry sweep is O(depth),
  /// so pop pays it only while this is non-zero — a deadline-free
  /// workload never scans.
  size_t FiniteDeadlines = 0;

  /// Per-tenant occupancy, maintained only when TenantQuota > 0 (the
  /// quota-off hot path never touches the map).
  std::unordered_map<uint32_t, size_t> TenantQueued;

  /// Wake accounting: a push pays a futex wake only when a popper is
  /// actually waiting and no wake is already in flight toward it —
  /// without this, a burst of pushes racing one not-yet-scheduled worker
  /// issues one syscall per request. PendingPopWakes counts notify_one
  /// calls whose receiver has not left (or re-entered) the wait loop yet;
  /// every wait return decrements it, so a popper that loses its item to
  /// another lane and waits again re-arms notification. All under Mutex.
  size_t WaitingPop = 0;
  size_t PendingPopWakes = 0;
  size_t WaitingPush = 0;
};

} // namespace serve
} // namespace daisy

#endif // DAISY_SERVE_SCHEDULER_H
