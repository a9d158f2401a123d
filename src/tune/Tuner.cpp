//===- tune/Tuner.cpp -----------------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tune/Tuner.h"

#include "api/Engine.h"
#include "api/KernelImpl.h"
#include "exec/Interpreter.h"
#include "machine/Simulator.h"
#include "obs/Trace.h"
#include "support/FailPoint.h"
#include "support/Statistics.h"

#include <algorithm>
#include <utility>

using namespace daisy;

namespace {

/// Hot kernels re-searched per cycle.
constexpr size_t TopK = 4;
/// Cycles a kernel sits out after a rollback before being retried.
constexpr uint32_t CooldownCycles = 4;
/// Seed of the bit-identity check's deterministic input fill.
constexpr uint64_t EquivalenceSeed = 1;

/// Builds the version-slot -> base-slot translation for running a
/// candidate program on argument tables prepared against \p Base. Every
/// candidate non-transient must match a base non-transient by name with
/// the exact element count, and every base non-transient must be covered
/// exactly once — anything else returns false and the candidate is
/// rejected (a plan that cannot see all caller buffers cannot substitute
/// for the base plan). \p Map comes back empty for an index-identical
/// layout (the common case: scheduling reorders loops, not arrays),
/// which the run path treats as the identity mapping.
bool buildSlotMap(const Program &Base, const Program &Candidate,
                  std::vector<int32_t> &Map) {
  const std::vector<ArrayDecl> &BaseArrays = Base.arrays();
  const std::vector<ArrayDecl> &CandArrays = Candidate.arrays();
  Map.assign(CandArrays.size(), -1);
  std::vector<char> Covered(BaseArrays.size(), 0);
  for (size_t S = 0; S < CandArrays.size(); ++S) {
    const ArrayDecl &Decl = CandArrays[S];
    if (Decl.Transient)
      continue; // Version-local scratch; stays -1.
    size_t B = BaseArrays.size();
    for (size_t I = 0; I < BaseArrays.size(); ++I)
      if (BaseArrays[I].Name == Decl.Name) {
        B = I;
        break;
      }
    if (B == BaseArrays.size() || BaseArrays[B].Transient || Covered[B] ||
        boundElementCount(BaseArrays[B]) != boundElementCount(Decl))
      return false;
    Covered[B] = 1;
    Map[S] = static_cast<int32_t>(B);
  }
  for (size_t I = 0; I < BaseArrays.size(); ++I)
    if (!BaseArrays[I].Transient && !Covered[I])
      return false;
  // Identity shortcut: same slot count and every slot maps to itself
  // (transients of an identical layout are -1 but positionally equal).
  if (CandArrays.size() == BaseArrays.size()) {
    bool Identity = true;
    for (size_t S = 0; S < CandArrays.size() && Identity; ++S)
      Identity = Map[S] == static_cast<int32_t>(S) ||
                 (Map[S] == -1 && BaseArrays[S].Transient);
    if (Identity) {
      Map.clear();
      return true;
    }
  }
  return true;
}

} // namespace

OnlineTuner::OnlineTuner(Engine &Owner, OnlineTuningOptions Options)
    : Owner(Owner), Opts(std::move(Options)) {}

OnlineTuner::~OnlineTuner() { stop(); }

void OnlineTuner::start() {
  if (Opts.Interval.count() <= 0 || Lane.joinable())
    return;
  LaneStop = false;
  Lane = std::thread([this] { laneLoop(); });
}

void OnlineTuner::stop() {
  {
    std::lock_guard<std::mutex> Lock(LaneMutex);
    LaneStop = true;
  }
  LaneCV.notify_all();
  if (Lane.joinable())
    Lane.join();
}

void OnlineTuner::drain() {
  // A cycle holds CycleMutex for its whole duration; acquiring it is the
  // "no cycle in flight" barrier.
  std::lock_guard<std::mutex> Lock(CycleMutex);
}

void OnlineTuner::laneLoop() {
  std::unique_lock<std::mutex> Lock(LaneMutex);
  while (!LaneStop) {
    LaneCV.wait_for(Lock, Opts.Interval);
    if (LaneStop)
      break;
    Lock.unlock();
    (void)runCycle();
    Lock.lock();
  }
}

void OnlineTuner::registerKernel(uint64_t RoutingKey,
                                 std::shared_ptr<const KernelImpl> Impl) {
  if (!Impl || !Impl->Plan)
    return;
  std::lock_guard<std::mutex> Lock(RegMutex);
  auto It = Registry.find(RoutingKey);
  if (It == Registry.end()) {
    Entry E;
    E.Impl = Impl;
    E.Base = Impl->Prog.clone();
    E.CurrentHash = Engine::routingKey(Impl->Prog);
    Registry.emplace(RoutingKey, std::move(E));
    return;
  }
  // Recompiled under the same key (plan-cache eviction): rebind to the
  // live instance. The probe state belonged to the old impl — whatever
  // plan it was running stays with it until its last handle drops; the
  // fresh instance starts from its base plan again. Rejected candidates
  // and cooldown are kernel-identity state and survive.
  Entry &E = It->second;
  E.Impl = std::move(Impl);
  E.Probing = false;
  E.ProbeId = 0;
  E.CandidateHash = 0;
  E.CurrentHash = Engine::routingKey(E.Base);
}

size_t OnlineTuner::runCycle() {
  std::lock_guard<std::mutex> CycleLock(CycleMutex);
  // The cycle span brackets rank + search + decide, so a flight-recorder
  // capture shows tuner work as one block per cycle on its own lane.
  TraceSpan CycleSpan(TraceCategory::Tune, "tune.cycle");
  NCycles.fetch_add(1, std::memory_order_relaxed);

  // Phase 1 (under RegMutex, cheap): prune dead kernels, pin the live
  // ones, and collect the ranking inputs. Everything heavy happens on
  // the pinned handles without the registry lock, so Engine::compile's
  // registerKernel never stalls behind a simulation or search.
  struct Work {
    uint64_t Key;
    std::shared_ptr<const KernelImpl> Impl;
    double TotalUs;
    bool Probing;
    bool CoolingDown;
  };
  std::vector<Work> Ranked;
  {
    std::lock_guard<std::mutex> Lock(RegMutex);
    for (auto It = Registry.begin(); It != Registry.end();) {
      std::shared_ptr<const KernelImpl> Impl = It->second.Impl.lock();
      if (!Impl) {
        It = Registry.erase(It);
        continue;
      }
      const KernelProfile *Prof = Impl->profile();
      if (Prof && Prof->sampledCount() >= Opts.MinSamples) {
        bool Cooling = It->second.Cooldown > 0;
        if (Cooling)
          --It->second.Cooldown;
        Ranked.push_back({It->first, std::move(Impl), Prof->sampledTotalUs(),
                          It->second.Probing, Cooling});
      }
      ++It;
    }
  }
  std::sort(Ranked.begin(), Ranked.end(), [](const Work &A, const Work &B) {
    return A.TotalUs > B.TotalUs;
  });
  if (Ranked.size() > TopK)
    Ranked.resize(TopK);

  size_t Actions = 0;
  for (Work &W : Ranked) {
    if (W.Probing) {
      if (decideProbe(W.Key, W.Impl))
        ++Actions;
    } else if (!W.CoolingDown) {
      if (tryImprove(W.Key, W.Impl))
        ++Actions;
    }
  }
  return Actions;
}

bool OnlineTuner::tryImprove(uint64_t Key,
                             const std::shared_ptr<const KernelImpl> &Impl) {
  const KernelProfile *Prof = Impl->profile();
  if (!Prof)
    return false;

  // Measured incumbent runtime over the current window.
  KernelProfile::Snapshot Snap = Prof->snapshot();
  uint32_t CurId = Impl->currentVersionId();
  const KernelProfile::VersionStats *Cur = Snap.versionStats(CurId);
  if (!Cur || Cur->Count < Opts.MinSamples)
    return false;
  double MeasMeanUs = Cur->MeanUs;

  std::shared_ptr<const PlanVersion> CurV = Impl->currentVersion();
  const Program &CurProg = CurV ? CurV->Prog : Impl->Prog;

  // Calibrate the machine model against reality: one scale factor per
  // routing key, persisted through the database so checkpoints carry it.
  double SimCurSec = simulateProgram(CurProg, Owner.options().Sim).Seconds;
  double Scale = 0.0;
  if (SimCurSec > 0.0) {
    Scale = (MeasMeanUs * 1e-6) / SimCurSec;
    Owner.recordCalibration(Key, Scale);
    NCalibrations.fetch_add(1, std::memory_order_relaxed);
    addStatsCounter("Engine.TuneCalibrations");
  }

  // Re-search: the full scheduling pipeline against the database as
  // seeded and calibrated *now*.
  Program Base;
  uint64_t CurrentHash;
  {
    std::lock_guard<std::mutex> Lock(RegMutex);
    auto It = Registry.find(Key);
    if (It == Registry.end())
      return false;
    Base = It->second.Base.clone();
    CurrentHash = It->second.CurrentHash;
  }
  Program Cand;
  {
    // The search (beam search + simulation) dominates a cycle's cost;
    // span it separately from the cheap bookkeeping around it.
    TraceSpan SearchSpan(TraceCategory::Tune, "tune.search", Key);
    Cand = Owner.schedule(Base);
  }
  uint64_t CandHash = Engine::routingKey(Cand);
  if (CandHash == CurrentHash)
    return false; // The search proposes what is already running.
  {
    std::lock_guard<std::mutex> Lock(RegMutex);
    auto It = Registry.find(Key);
    if (It == Registry.end() || It->second.RejectedHashes.count(CandHash))
      return false;
  }
  auto reject = [&] {
    std::lock_guard<std::mutex> Lock(RegMutex);
    auto It = Registry.find(Key);
    if (It != Registry.end())
      It->second.RejectedHashes.insert(CandHash);
    NRejects.fetch_add(1, std::memory_order_relaxed);
    addStatsCounter("Engine.TuneRejects");
  };

  // Gate 1: the candidate must address exactly the caller buffers the
  // base kernel addresses.
  std::vector<int32_t> SlotMap;
  if (!buildSlotMap(Impl->Prog, Cand, SlotMap)) {
    reject();
    return false;
  }

  // Gate 2: calibrated predicted gain. Scale cancels against the
  // incumbent's own calibration, so this is the simulator's relative
  // verdict anchored to a measured baseline; the measured probe window
  // makes the real call. A non-positive prediction only stands aside
  // when the caller asked for forced promotion (negative MinGainPct).
  if (Opts.MinGainPct >= 0.0 && SimCurSec > 0.0) {
    double PredictedUs = simulateProgram(Cand, Owner.options().Sim).Seconds *
                         Scale * 1e6;
    if (PredictedUs >= MeasMeanUs) {
      reject();
      return false;
    }
  }

  // Gate 3: bit-identity. Eps = 0.0 — the candidate must reproduce the
  // base program's results byte for byte on a deterministic fill, or it
  // never reaches live traffic.
  if (!semanticallyEquivalent(Impl->Prog, Cand, 0.0, EquivalenceSeed)) {
    reject();
    return false;
  }

  // Compile off the hot path and install as a probe.
  std::shared_ptr<const PlanVersion> V;
  try {
    V = std::make_shared<PlanVersion>(Cand, Owner.options().Plan,
                                      std::move(SlotMap),
                                      Impl->claimVersionId());
  } catch (...) {
    reject(); // A candidate that cannot compile is a dead end.
    return false;
  }
  if (!Impl->installProbe(std::move(V)))
    return false; // Probe already in flight.
  {
    std::lock_guard<std::mutex> Lock(RegMutex);
    auto It = Registry.find(Key);
    if (It != Registry.end()) {
      Entry &E = It->second;
      E.Probing = true;
      E.ProbeId = Impl->currentVersionId();
      E.CandidateHash = CandHash;
      E.PriorMeanUs = MeasMeanUs;
    }
  }
  NProbes.fetch_add(1, std::memory_order_relaxed);
  addStatsCounter("Engine.TuneProbes");
  traceInstant(TraceCategory::Tune, "tune.probe", Key);
  return true;
}

bool OnlineTuner::decideProbe(uint64_t Key,
                              const std::shared_ptr<const KernelImpl> &Impl) {
  uint32_t ProbeId;
  double PriorMeanUs;
  uint64_t CandHash;
  {
    std::lock_guard<std::mutex> Lock(RegMutex);
    auto It = Registry.find(Key);
    if (It == Registry.end() || !It->second.Probing)
      return false;
    ProbeId = It->second.ProbeId;
    PriorMeanUs = It->second.PriorMeanUs;
    CandHash = It->second.CandidateHash;
  }
  const KernelProfile *Prof = Impl->profile();
  if (!Prof)
    return false;
  KernelProfile::Snapshot Snap = Prof->snapshot();
  const KernelProfile::VersionStats *P = Snap.versionStats(ProbeId);
  if (!P || P->Count < Opts.MinSamples)
    return false; // Not enough probe traffic yet; decide next cycle.

  double GainPct =
      PriorMeanUs > 0.0 ? 100.0 * (1.0 - P->MeanUs / PriorMeanUs) : 0.0;
  // Fault site "tune.promote": a firing Trigger makes the promote
  // decision see a full regression, forcing the rollback path without a
  // genuinely slow plan.
  bool ForcedRegression;
  try {
    ForcedRegression = DAISY_FAILPOINT("tune.promote");
  } catch (...) {
    ForcedRegression = true;
  }
  if (ForcedRegression)
    GainPct = -100.0;

  bool Promote = GainPct >= Opts.MinGainPct;
  if (Promote)
    Impl->promoteProbe();
  else
    Impl->rollbackProbe();
  {
    std::lock_guard<std::mutex> Lock(RegMutex);
    auto It = Registry.find(Key);
    if (It != Registry.end()) {
      Entry &E = It->second;
      E.Probing = false;
      E.ProbeId = 0;
      if (Promote) {
        E.CurrentHash = CandHash;
      } else {
        E.RejectedHashes.insert(CandHash);
        E.Cooldown = CooldownCycles;
      }
      E.CandidateHash = 0;
    }
  }
  if (Promote) {
    NSwaps.fetch_add(1, std::memory_order_relaxed);
    addStatsCounter("Engine.TuneSwaps");
    traceInstant(TraceCategory::Tune, "tune.swap", Key);
  } else {
    NRollbacks.fetch_add(1, std::memory_order_relaxed);
    addStatsCounter("Engine.TuneRollbacks");
    traceInstant(TraceCategory::Tune, "tune.rollback", Key);
  }
  return true;
}

OnlineTuner::Stats OnlineTuner::stats() const {
  Stats S;
  S.Enabled = Opts.Enable;
  {
    std::lock_guard<std::mutex> Lock(RegMutex);
    S.Tracked = Registry.size();
    for (const auto &[Key, E] : Registry) {
      (void)Key;
      if (E.Probing)
        ++S.ProbesInFlight;
    }
  }
  S.Cycles = NCycles.load(std::memory_order_relaxed);
  S.Probes = NProbes.load(std::memory_order_relaxed);
  S.Swaps = NSwaps.load(std::memory_order_relaxed);
  S.Rollbacks = NRollbacks.load(std::memory_order_relaxed);
  S.Rejects = NRejects.load(std::memory_order_relaxed);
  S.Calibrations = NCalibrations.load(std::memory_order_relaxed);
  return S;
}
