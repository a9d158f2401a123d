//===- perfbench/src/Workloads.h - The benchmark's workloads -----*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads. Each builds its inputs from Options::Seed, sets up
/// several times (the median is setup_s), measures for Options::Seconds,
/// checks every output against the tree-walk reference, and fills
/// RunResult::Metrics with the end-to-end metrics (untraced run) or the
/// per-layer metrics (traced run).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Harness.h"

namespace perfbench {

/// Seeds the database from the 15 PolyBench A variants, then optimizes
/// and runs all 45 programs (A, B, NPBench).
RunResult runPolyBenchVariants(const Options &O);

/// Optimizes and runs the CLOUDSC proxy in its Fortran, C and DaCe forms
/// on an empty database.
RunResult runCloudscVariants(const Options &O);

/// The serve layer's per-layer metrics, for polybench_variants' traced
/// run: serves the 15 optimized PolyBench B kernels from a Server under
/// open-loop Poisson traffic at a fixed reference rate, untraced and then
/// traced on a fresh server.
void measureServing(const Options &O, RunResult &R);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
