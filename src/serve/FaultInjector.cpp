//===- serve/FaultInjector.cpp --------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/FaultInjector.h"

#include <cstdlib>

using namespace daisy;
using namespace daisy::serve;

// Teardown disarms exactly the sites this scenario armed, even when
// another injector is live in an outer scope.
FaultInjector::FaultInjector(const std::string &Spec, uint64_t Seed)
    : Seed(Seed), Sites(armFailPointsFromSpec(Spec, Seed)) {}

FaultInjector::~FaultInjector() {
  for (const std::string &Site : Sites)
    disarmFailPoint(Site);
}

void FaultInjector::arm(const std::string &Site,
                        const FailPointConfig &Config) {
  armFailPoint(Site, Config, Seed);
  Sites.push_back(Site);
}

uint64_t FaultInjector::seedFromEnv(uint64_t Default) {
  if (const char *Env = std::getenv("DAISY_FAILPOINTS_SEED"))
    if (*Env)
      return std::strtoull(Env, nullptr, 10);
  return Default;
}
