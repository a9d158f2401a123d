//===- serve/Scheduler.cpp ------------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Scheduler.h"

#include <deque>
#include <tuple>

namespace daisy {
namespace serve {

//===----------------------------------------------------------------------===//
// Base machinery: admission, backpressure, quotas, waiting, shedding.
//===----------------------------------------------------------------------===//

bool Scheduler::tenantAtQuotaLocked(uint32_t Tenant) const {
  if (!TenantQuota)
    return false;
  auto It = TenantQueued.find(Tenant);
  return It != TenantQueued.end() && It->second >= TenantQuota;
}

void Scheduler::tenantReleaseLocked(const Request &R) {
  if (!TenantQuota)
    return;
  auto It = TenantQueued.find(R.Tenant);
  if (It != TenantQueued.end() && --It->second == 0)
    TenantQueued.erase(It);
}

Scheduler::PushResult Scheduler::push(Request &R, size_t *DepthAfter) {
  std::unique_lock<std::mutex> Lock(Mutex);
  // Admission shedding: work that is already late never enters the queue.
  if (R.Deadline != noDeadline() && serveNow() >= R.Deadline)
    return PushResult::Expired;
  // A tenant at its quota is handled exactly like a full queue, so a
  // flooding tenant's overflow becomes its own Overloaded/Expired and
  // never occupies the capacity other tenants' requests need.
  if (Policy == BackpressurePolicy::Block) {
    while (!Closed && (Queued >= Capacity || tenantAtQuotaLocked(R.Tenant))) {
      ++WaitingPush;
      if (R.Deadline == noDeadline()) {
        NotFull.wait(Lock);
        --WaitingPush;
      } else {
        std::cv_status S = NotFull.wait_until(Lock, R.Deadline);
        --WaitingPush;
        // A deadline that passes while we wait for space is an admission
        // expiry: the caller gets the request back un-queued. (If space
        // appeared at the same instant, the pop-time sweep would shed it
        // anyway — failing here just skips the round trip.)
        if (S == std::cv_status::timeout && !Closed &&
            (Queued >= Capacity || tenantAtQuotaLocked(R.Tenant)))
          return PushResult::Expired;
      }
    }
  } else if (!Closed && (Queued >= Capacity || tenantAtQuotaLocked(R.Tenant))) {
    return PushResult::Overloaded;
  }
  if (Closed)
    return PushResult::ShutDown;

  R.Seq = NextSeq++;
  if (R.Deadline != noDeadline())
    ++FiniteDeadlines;
  if (TenantQuota)
    ++TenantQueued[R.Tenant];
  enqueueLocked(std::move(R));
  ++Queued;

  size_t Depth = Queued;
  if (Depth > MaxDepth)
    MaxDepth = Depth;
  if (DepthAfter)
    *DepthAfter = Depth;

  bool Wake = WaitingPop > PendingPopWakes;
  if (Wake)
    ++PendingPopWakes;
  Lock.unlock();
  if (Wake)
    NotEmpty.notify_one();
  return PushResult::Ok;
}

bool Scheduler::pop(std::optional<Request> &Next,
                    std::vector<Request> &Expired) {
  Next.reset();
  Expired.clear();
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    // Shed first, select second: an expired request must not be picked
    // as the head (EDF would otherwise favour exactly the requests that
    // are already lost). The sweep is skipped entirely while nothing
    // queued carries a finite deadline.
    if (FiniteDeadlines > 0 && Queued > 0) {
      shedExpiredLocked(serveNow(), Expired);
      FiniteDeadlines -= Expired.size();
      Queued -= Expired.size();
      for (const Request &R : Expired)
        tenantReleaseLocked(R);
    }
    if (Queued > 0) {
      Next.emplace(popHeadLocked());
      --Queued;
      if (Next->Deadline != noDeadline())
        --FiniteDeadlines;
      tenantReleaseLocked(*Next);
    }
    if (Next || !Expired.empty())
      break;
    if (Closed)
      return false;
    ++WaitingPop;
    NotEmpty.wait(Lock);
    --WaitingPop;
    if (PendingPopWakes > 0)
      --PendingPopWakes;
  }
  bool WakePushers = WaitingPush > 0;
  Lock.unlock();
  // Both dispatched and shed requests freed space; blocked pushers race
  // for it, so wake them all.
  if (WakePushers)
    NotFull.notify_all();
  return true;
}

void Scheduler::close() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Closed = true;
  }
  NotEmpty.notify_all();
  NotFull.notify_all();
}

size_t Scheduler::depth() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Queued;
}

size_t Scheduler::maxDepthSeen() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return MaxDepth;
}

namespace {

//===----------------------------------------------------------------------===//
// Deque helpers every policy builds on.
//===----------------------------------------------------------------------===//

Request takeFront(std::deque<Request> &Q) {
  Request R = std::move(Q.front());
  Q.pop_front();
  return R;
}

/// Moves every request of \p Q with Deadline <= \p Now into \p Expired
/// in one forward compaction pass (a per-element deque::erase would shift
/// the tail once per shed request), survivors keeping their order.
void shedExpiredFrom(std::deque<Request> &Q, TimePoint Now,
                     std::vector<Request> &Expired) {
  size_t Size = Q.size();
  size_t Write = 0;
  for (size_t Read = 0; Read < Size; ++Read) {
    if (Q[Read].Deadline <= Now) {
      Expired.push_back(std::move(Q[Read]));
      continue;
    }
    if (Write != Read)
      Q[Write] = std::move(Q[Read]);
    ++Write;
  }
  Q.erase(Q.begin() + Write, Q.end());
}

//===----------------------------------------------------------------------===//
// Fifo: one deque in admission order, head first.
//===----------------------------------------------------------------------===//

class FifoScheduler final : public Scheduler {
public:
  using Scheduler::Scheduler;

private:
  void enqueueLocked(Request &&R) override { Q.push_back(std::move(R)); }

  void shedExpiredLocked(TimePoint Now,
                         std::vector<Request> &Expired) override {
    shedExpiredFrom(Q, Now, Expired);
  }

  Request popHeadLocked() override { return takeFront(Q); }

  std::deque<Request> Q;
};

//===----------------------------------------------------------------------===//
// EarliestDeadlineFirst: min (Deadline, Seq) next; no-deadline requests
// carry the noDeadline() sentinel and therefore rank after every dated
// request, tie-broken FIFO among themselves.
//===----------------------------------------------------------------------===//

class EdfScheduler final : public Scheduler {
public:
  using Scheduler::Scheduler;

private:
  void enqueueLocked(Request &&R) override { Q.push_back(std::move(R)); }

  void shedExpiredLocked(TimePoint Now,
                         std::vector<Request> &Expired) override {
    shedExpiredFrom(Q, Now, Expired);
  }

  Request popHeadLocked() override {
    // Linear scan beats a heap here: depth is bounded by Capacity (a few
    // hundred), and the erase below is linear anyway.
    size_t Head = 0;
    for (size_t I = 1; I < Q.size(); ++I)
      if (std::tie(Q[I].Deadline, Q[I].Seq) <
          std::tie(Q[Head].Deadline, Q[Head].Seq))
        Head = I;
    Request R = std::move(Q[Head]);
    Q.erase(Q.begin() + Head);
    return R;
  }

  std::deque<Request> Q;
};

//===----------------------------------------------------------------------===//
// FairShare: deficit-weighted round-robin over per-tenant FIFO deques.
// The rotation's front tenant earns Weight credits when it has none,
// spends one credit per served request, and rotates to the back when its
// credit runs out — so a tenant with Weight W gets W consecutive turns
// per rotation, and a flooding tenant delays another tenant's head
// request by at most one rotation, never by its whole backlog.
//===----------------------------------------------------------------------===//

class FairShareScheduler final : public Scheduler {
public:
  using Scheduler::Scheduler;

private:
  struct TenantQ {
    std::deque<Request> Q;
    int64_t Credit = 0;
    uint32_t Weight = 1;
    bool Active = false; ///< Present in Rotation.
  };

  void enqueueLocked(Request &&R) override {
    TenantQ &T = Tenants[R.Tenant];
    // The latest request's weight wins: weights are per-tenant config
    // the submitter passes on every request, not per-request state.
    T.Weight = R.Weight ? R.Weight : 1;
    if (!T.Active) {
      T.Active = true;
      T.Credit = 0; // A returning tenant starts a fresh turn.
      Rotation.push_back(R.Tenant);
    }
    T.Q.push_back(std::move(R));
  }

  void shedExpiredLocked(TimePoint Now,
                         std::vector<Request> &Expired) override {
    for (size_t I = 0; I < Rotation.size();) {
      TenantQ &T = Tenants[Rotation[I]];
      shedExpiredFrom(T.Q, Now, Expired);
      if (T.Q.empty()) {
        T.Active = false;
        T.Credit = 0;
        Rotation.erase(Rotation.begin() + I);
      } else {
        ++I;
      }
    }
  }

  Request popHeadLocked() override {
    // Precondition (base class): at least one request is queued, so the
    // rotation is non-empty and its front tenant's deque is non-empty.
    uint32_t Id = Rotation.front();
    TenantQ &T = Tenants[Id];
    if (T.Credit < 1)
      T.Credit = T.Weight;
    Request R = takeFront(T.Q);
    T.Credit -= 1;
    if (T.Q.empty()) {
      T.Active = false;
      T.Credit = 0;
      Rotation.pop_front();
    } else if (T.Credit < 1) {
      Rotation.pop_front();
      Rotation.push_back(Id);
    }
    return R;
  }

  std::unordered_map<uint32_t, TenantQ> Tenants;
  std::deque<uint32_t> Rotation; ///< Tenants with queued work, turn order.
};

} // namespace

std::unique_ptr<Scheduler> Scheduler::create(SchedulerPolicy Which,
                                             size_t Capacity,
                                             BackpressurePolicy Policy,
                                             size_t TenantQuota) {
  switch (Which) {
  case SchedulerPolicy::Fifo:
    return std::make_unique<FifoScheduler>(Capacity, Policy, TenantQuota);
  case SchedulerPolicy::EarliestDeadlineFirst:
    return std::make_unique<EdfScheduler>(Capacity, Policy, TenantQuota);
  case SchedulerPolicy::FairShare:
    return std::make_unique<FairShareScheduler>(Capacity, Policy, TenantQuota);
  }
  return std::make_unique<FifoScheduler>(Capacity, Policy, TenantQuota);
}

} // namespace serve
} // namespace daisy
