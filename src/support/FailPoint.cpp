//===- support/FailPoint.cpp ----------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FailPoint.h"

#include "support/Hashing.h"
#include "support/Random.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

namespace daisy {

namespace {

struct SiteState {
  FailPointConfig Config;
  Rng Stream{0};
  uint64_t Fires = 0;
};

struct Registry {
  std::mutex Mutex;
  std::unordered_map<std::string, SiteState> Sites;
};

Registry &registry() {
  static Registry R;
  return R;
}

/// Fast path guard: sites pay one relaxed load when nothing is armed.
std::atomic<size_t> ArmedCount{0};

} // namespace

void armFailPoint(const std::string &Site, const FailPointConfig &Config,
                  uint64_t Seed) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  SiteState &State = R.Sites[Site];
  State.Config = Config;
  State.Stream = Rng(deriveSeed(Seed, fnv1a(Site)));
  State.Fires = 0;
  ArmedCount.store(R.Sites.size(), std::memory_order_relaxed);
}

void disarmFailPoint(const std::string &Site) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.Sites.erase(Site);
  ArmedCount.store(R.Sites.size(), std::memory_order_relaxed);
}

void disarmAllFailPoints() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.Sites.clear();
  ArmedCount.store(0, std::memory_order_relaxed);
}

uint64_t failPointFireCount(const std::string &Site) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  auto It = R.Sites.find(Site);
  return It == R.Sites.end() ? 0 : It->second.Fires;
}

bool failPointEvaluate(const char *Site) {
  if (ArmedCount.load(std::memory_order_relaxed) == 0)
    return false;
  FailAction Action;
  uint64_t DelayMicros = 0;
  {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.Mutex);
    auto It = R.Sites.find(Site);
    if (It == R.Sites.end())
      return false;
    SiteState &State = It->second;
    if (State.Fires >= State.Config.MaxFires)
      return false;
    // The draw happens under the lock so the site's stream is consumed
    // in a serializable order; the schedule across sites depends only on
    // how many times each site is evaluated, never on which thread won.
    if (State.Stream.nextDouble() >= State.Config.Probability)
      return false;
    ++State.Fires;
    Action = State.Config.Action;
    DelayMicros = State.Config.DelayMicros;
  }
  // Side effects happen outside the registry lock: a sleeping or
  // throwing fail point must not serialize every other site.
  switch (Action) {
  case FailAction::Trigger:
    return true;
  case FailAction::Throw:
    throw std::runtime_error(std::string("injected fault at fail point '") +
                             Site + "'");
  case FailAction::Delay:
    std::this_thread::sleep_for(std::chrono::microseconds(DelayMicros));
    return false;
  }
  return false;
}

std::vector<std::string> armFailPointsFromSpec(const std::string &Spec,
                                               uint64_t Seed) {
  // Every entry is parsed before any is armed, so a malformed entry
  // throws with nothing armed: no earlier site outlives the failed call.
  std::vector<std::string> Sites;
  std::vector<FailPointConfig> Configs;
  size_t Pos = 0;
  auto malformed = [&](const std::string &Entry) {
    throw std::invalid_argument(
        "malformed fail-point spec entry '" + Entry +
        "' (want site=action[:micros]@probability[xmaxfires])");
  };
  while (Pos < Spec.size()) {
    size_t End = Spec.find(';', Pos);
    std::string Entry = Spec.substr(
        Pos, End == std::string::npos ? std::string::npos : End - Pos);
    Pos = End == std::string::npos ? Spec.size() : End + 1;
    if (Entry.empty())
      continue;

    size_t Eq = Entry.find('=');
    if (Eq == std::string::npos || Eq == 0)
      malformed(Entry);
    std::string Site = Entry.substr(0, Eq);
    std::string Rest = Entry.substr(Eq + 1);

    FailPointConfig Config;
    size_t At = Rest.find('@');
    std::string ActionPart = At == std::string::npos ? Rest : Rest.substr(0, At);
    if (size_t Colon = ActionPart.find(':'); Colon != std::string::npos) {
      Config.DelayMicros =
          std::strtoull(ActionPart.c_str() + Colon + 1, nullptr, 10);
      ActionPart.resize(Colon);
    }
    if (ActionPart == "trigger")
      Config.Action = FailAction::Trigger;
    else if (ActionPart == "throw")
      Config.Action = FailAction::Throw;
    else if (ActionPart == "delay")
      Config.Action = FailAction::Delay;
    else
      malformed(Entry);
    if (At != std::string::npos) {
      std::string Prob = Rest.substr(At + 1);
      if (size_t X = Prob.find('x'); X != std::string::npos) {
        Config.MaxFires = std::strtoull(Prob.c_str() + X + 1, nullptr, 10);
        Prob.resize(X);
      }
      char *EndPtr = nullptr;
      Config.Probability = std::strtod(Prob.c_str(), &EndPtr);
      if (EndPtr == Prob.c_str())
        malformed(Entry);
    }
    Sites.push_back(std::move(Site));
    Configs.push_back(Config);
  }
  for (size_t I = 0; I < Sites.size(); ++I)
    armFailPoint(Sites[I], Configs[I], Seed);
  return Sites;
}

} // namespace daisy
