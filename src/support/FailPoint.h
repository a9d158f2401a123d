//===- support/FailPoint.h - Deterministic fault injection -------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A registry of named fault-injection sites ("fail points") used to test
/// the serving runtime's failure paths deterministically.
///
/// A subsystem marks a site with DAISY_FAILPOINT("dotted.site.name") at
/// the place a fault could occur (a compile that throws, a queue that
/// fills, a kernel that runs slow, a worker that stalls). Tests arm a
/// site by name with an action, a seeded firing probability, and an
/// optional fire budget; every evaluation of an armed site draws from a
/// per-site Rng stream (support/Random deriveSeed of the scenario seed
/// and the site name), so a fault schedule is exactly reproducible from
/// its seed regardless of thread interleaving.
///
/// Actions:
///   - Trigger: DAISY_FAILPOINT returns true and the site interprets it
///     (e.g. the server treats a push as queue-full);
///   - Throw:   the evaluation throws std::runtime_error (injected
///     compile failure);
///   - Delay:   the evaluation sleeps DelayMicros then returns false
///     (slow kernel, stalled worker).
///
/// Only a call in the running binary arms a site: armFailPoint,
/// armFailPointsFromSpec, or a serve/FaultInjector.h scenario. The
/// environment cannot arm one; DAISY_FAILPOINTS_SEED only overrides a
/// scenario's seed (FaultInjector::seedFromEnv).
///
/// Fail points are compiled into every build, so the tests that arm them
/// run in Release too. An unarmed site costs an out-of-line call to
/// failPointEvaluate and one relaxed atomic load while no site in the
/// process is armed; only while some site is armed does an evaluation
/// also take the registry lock and look its name up.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_SUPPORT_FAILPOINT_H
#define DAISY_SUPPORT_FAILPOINT_H

#include <cstdint>
#include <string>
#include <vector>

namespace daisy {

/// What an armed fail point does when its probability draw fires.
enum class FailAction : uint8_t {
  Trigger, ///< failPointEvaluate returns true; the site interprets it.
  Throw,   ///< failPointEvaluate throws std::runtime_error.
  Delay,   ///< failPointEvaluate sleeps DelayMicros, then returns false.
};

/// Arming configuration of one site.
struct FailPointConfig {
  FailAction Action = FailAction::Trigger;
  /// Chance an evaluation fires, drawn from the site's seeded stream.
  double Probability = 1.0;
  /// The site disarms itself after this many fires (default: unlimited).
  uint64_t MaxFires = ~0ull;
  /// Sleep duration of FailAction::Delay fires.
  uint64_t DelayMicros = 0;
};

/// Arms \p Site with \p Config. The site's probability stream is seeded
/// from (\p Seed, fnv1a(\p Site)), so two sites armed under one scenario
/// seed draw independently and reproducibly. Re-arming replaces the
/// previous configuration and resets the fire count.
void armFailPoint(const std::string &Site, const FailPointConfig &Config,
                  uint64_t Seed);

/// Disarms \p Site (no-op when not armed).
void disarmFailPoint(const std::string &Site);

/// Disarms every armed site (test teardown).
void disarmAllFailPoints();

/// Number of times \p Site has fired since it was (re-)armed.
uint64_t failPointFireCount(const std::string &Site);

/// The function behind DAISY_FAILPOINT. Returns true only for a firing
/// Trigger site; applies Throw/Delay side effects itself.
bool failPointEvaluate(const char *Site);

/// Arms sites from a scenario spec string:
///   "site=action[:micros]@probability[xmaxfires][;site=...]"
/// e.g. "engine.compile=throw@1.0x1;kernel.run=delay:2000@0.25".
/// Returns the armed site names in spec order; throws
/// std::invalid_argument on a malformed spec, having armed none of its
/// entries.
std::vector<std::string> armFailPointsFromSpec(const std::string &Spec,
                                               uint64_t Seed);

#define DAISY_FAILPOINT(Site) ::daisy::failPointEvaluate(Site)

} // namespace daisy

#endif // DAISY_SUPPORT_FAILPOINT_H
