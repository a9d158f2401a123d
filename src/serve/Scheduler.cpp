//===- serve/Scheduler.cpp ------------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Scheduler.h"

#include <array>
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

bool Scheduler::popBatch(std::vector<Request> &Batch,
                         std::vector<Request> &Expired, size_t MaxBatch) {
  Batch.clear();
  Expired.clear();
  if (MaxBatch == 0)
    MaxBatch = 1;
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    // Shed first, select second: an expired request must not be picked
    // as the batch head (EDF would otherwise favour exactly the requests
    // that are already lost). The sweep is skipped entirely while
    // nothing queued carries a finite deadline.
    if (FiniteDeadlines > 0 && Queued > 0) {
      shedExpiredLocked(serveNow(), Expired);
      FiniteDeadlines -= Expired.size();
      Queued -= Expired.size();
      for (const Request &R : Expired)
        tenantReleaseLocked(R);
    }
    if (Queued > 0) {
      selectBatchLocked(Batch, MaxBatch);
      Queued -= Batch.size();
      for (const Request &R : Batch) {
        if (FiniteDeadlines > 0 && R.Deadline != noDeadline())
          --FiniteDeadlines;
        tenantReleaseLocked(R);
      }
    }
    if (!Batch.empty() || !Expired.empty())
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

void Scheduler::fifoSelectFrom(std::deque<Request> &Q,
                               std::vector<Request> &Batch, size_t MaxBatch) {
  Batch.push_back(std::move(Q.front()));
  Q.pop_front();
  const void *Token = Batch.front().Args.kernelToken();
  if (!Token || Batch.size() >= MaxBatch || Q.empty())
    return;
  size_t Size = Q.size();
  size_t Write = 0, Read = 0;
  for (; Read < Size; ++Read) {
    Request &Cand = Q[Read];
    if (Batch.size() < MaxBatch && Cand.Args.kernelToken() == Token) {
      Batch.push_back(std::move(Cand));
      continue;
    }
    if (Write == Read && Batch.size() == MaxBatch)
      break; // No holes behind us and the batch is full: tail stays put.
    if (Write != Read)
      Q[Write] = std::move(Q[Read]);
    ++Write;
  }
  if (Read == Size)
    Q.erase(Q.begin() + Write, Q.end());
}

void Scheduler::shedExpiredFrom(std::deque<Request> &Q, TimePoint Now,
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

namespace {

//===----------------------------------------------------------------------===//
// Fifo: one deque in admission order, head first, with same-kernel
// micro-batch coalescing.
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

  void selectBatchLocked(std::vector<Request> &Batch,
                         size_t MaxBatch) override {
    fifoSelectFrom(Q, Batch, MaxBatch);
  }

  std::deque<Request> Q;
};

//===----------------------------------------------------------------------===//
// PriorityLane: one FIFO lane per Priority, highest first.
//===----------------------------------------------------------------------===//

class PriorityLaneScheduler final : public Scheduler {
public:
  using Scheduler::Scheduler;

private:
  static size_t laneOf(Priority P) {
    size_t Lane = static_cast<size_t>(P);
    return Lane < NumPriorityLanes ? Lane : NumPriorityLanes - 1;
  }

  void enqueueLocked(Request &&R) override {
    Lanes[laneOf(R.Prio)].push_back(std::move(R));
  }

  void shedExpiredLocked(TimePoint Now,
                         std::vector<Request> &Expired) override {
    for (auto &Lane : Lanes)
      shedExpiredFrom(Lane, Now, Expired);
  }

  void selectBatchLocked(std::vector<Request> &Batch,
                         size_t MaxBatch) override {
    for (auto &Lane : Lanes)
      if (!Lane.empty()) {
        fifoSelectFrom(Lane, Batch, MaxBatch);
        return;
      }
  }

  std::array<std::deque<Request>, NumPriorityLanes> Lanes;
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

  void selectBatchLocked(std::vector<Request> &Batch,
                         size_t MaxBatch) override {
    // Linear scan beats a heap here: depth is bounded by Capacity (a few
    // hundred), the scan runs once per *batch* not per request, and a
    // heap would still need the same-token compaction pass below.
    size_t Head = 0;
    for (size_t I = 1; I < Q.size(); ++I)
      if (std::tie(Q[I].Deadline, Q[I].Seq) <
          std::tie(Q[Head].Deadline, Q[Head].Seq))
        Head = I;
    const void *Token = Q[Head].Args.kernelToken();
    Batch.push_back(std::move(Q[Head]));
    // Coalesce same-kernel requests in admission order. A coalesced
    // request may have a later deadline than queue survivors — batching
    // trades strict EDF order for amortized dispatch, same as every
    // policy trades it for MaxBatch > 1.
    size_t Size = Q.size();
    size_t Write = 0;
    for (size_t Read = 0; Read < Size; ++Read) {
      if (Read == Head)
        continue;
      if (Token && Batch.size() < MaxBatch &&
          Q[Read].Args.kernelToken() == Token) {
        Batch.push_back(std::move(Q[Read]));
        continue;
      }
      if (Write != Read)
        Q[Write] = std::move(Q[Read]);
      ++Write;
    }
    Q.erase(Q.begin() + Write, Q.end());
  }

  std::deque<Request> Q;
};

//===----------------------------------------------------------------------===//
// FairShare: deficit-weighted round-robin over per-tenant FIFO deques.
// The rotation's front tenant earns Weight credits when it has none,
// spends one credit per selected batch, and rotates to the back when its
// credit runs out — so a tenant with Weight W gets W consecutive batch
// turns per rotation, and a flooding tenant delays another tenant's head
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

  void selectBatchLocked(std::vector<Request> &Batch,
                         size_t MaxBatch) override {
    // Precondition (base class): at least one request is queued, so the
    // rotation is non-empty and its front tenant's deque is non-empty.
    uint32_t Id = Rotation.front();
    TenantQ &T = Tenants[Id];
    if (T.Credit < 1)
      T.Credit = T.Weight;
    // FIFO + coalescing *within this tenant only*: sweeping another
    // tenant's same-kernel requests into this batch would hand the
    // flooding tenant exactly the bypass the rotation exists to deny.
    fifoSelectFrom(T.Q, Batch, MaxBatch);
    T.Credit -= 1;
    if (T.Q.empty()) {
      T.Active = false;
      T.Credit = 0;
      Rotation.pop_front();
    } else if (T.Credit < 1) {
      Rotation.pop_front();
      Rotation.push_back(Id);
    }
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
  case SchedulerPolicy::PriorityLane:
    return std::make_unique<PriorityLaneScheduler>(Capacity, Policy,
                                                   TenantQuota);
  case SchedulerPolicy::EarliestDeadlineFirst:
    return std::make_unique<EdfScheduler>(Capacity, Policy, TenantQuota);
  case SchedulerPolicy::FairShare:
    return std::make_unique<FairShareScheduler>(Capacity, Policy, TenantQuota);
  }
  return std::make_unique<FifoScheduler>(Capacity, Policy, TenantQuota);
}

} // namespace serve
} // namespace daisy
