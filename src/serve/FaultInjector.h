//===- serve/FaultInjector.h - Scoped fault-injection scenarios --*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAII front end over support/FailPoint for the serving runtime's
/// fault-injection tests: a FaultInjector arms a scenario — a set of
/// named fault sites with seeded probabilities — on construction and
/// disarms exactly those sites on destruction, so a test that throws or
/// early-returns can never leak an armed fault into the next test.
///
/// The serving runtime currently marks five sites:
///
///   "engine.compile"     Engine::compile plan compilation (Throw here
///                        exercises the tree-walk fallback);
///   "engine.quarantine"  the breaker admission of a guarded run
///                        (Trigger slams a closed breaker open as if the
///                        failure threshold had been crossed — requests
///                        reroute to the tree-walk path immediately);
///   "serve.queue.push"   Server::submit admission (Trigger forces an
///                        Overloaded rejection as if the queue were
///                        full, feeding the retry/backoff path);
///   "serve.worker"       top of a worker-lane dispatch (Delay stalls
///                        the lane between pop and run, while queued
///                        deadlines lapse and the other lanes carry the
///                        load);
///   "kernel.run"         prepared-run dispatch (Delay makes the kernel
///                        itself slow, per request; Trigger injects a
///                        run fault — an Engine-compiled kernel heals
///                        it through the tree-walk reference path and
///                        its circuit breaker counts it, a raw
///                        Kernel::compile kernel surfaces
///                        RunStatus::Faulted).
///
/// Scenarios are reproducible: every site draws from an Rng stream
/// derived from (scenario seed, site name), independent of thread
/// interleaving. See support/FailPoint.h for the spec string grammar.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_SERVE_FAULTINJECTOR_H
#define DAISY_SERVE_FAULTINJECTOR_H

#include "support/FailPoint.h"

#include <cstdint>
#include <string>
#include <vector>

namespace daisy {
namespace serve {

class FaultInjector {
public:
  /// An empty scenario; arm sites with arm().
  explicit FaultInjector(uint64_t Seed) : Seed(Seed) {}

  /// Arms every site of \p Spec ("site=action[:micros]@prob[xmaxfires];
  /// ..." — support/FailPoint grammar) under \p Seed.
  FaultInjector(const std::string &Spec, uint64_t Seed);

  /// Disarms every site this injector armed (and only those).
  ~FaultInjector();

  FaultInjector(const FaultInjector &) = delete;
  FaultInjector &operator=(const FaultInjector &) = delete;

  /// Arms one site under the scenario seed.
  void arm(const std::string &Site, const FailPointConfig &Config);

  /// Fires of \p Site since arming.
  uint64_t fireCount(const std::string &Site) const {
    return failPointFireCount(Site);
  }

  /// Scenario seed for this process: the DAISY_FAILPOINTS_SEED
  /// environment variable when set (decimal), else \p Default — how CI
  /// sweeps one test binary across seeds.
  static uint64_t seedFromEnv(uint64_t Default);

  uint64_t seed() const { return Seed; }

private:
  uint64_t Seed;
  std::vector<std::string> Sites;
};

} // namespace serve
} // namespace daisy

#endif // DAISY_SERVE_FAULTINJECTOR_H
