//===- transform/Parallelize.h - Parallel & vector marking -------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Marks loops for parallel and SIMD execution. The machine model consumes
/// the marks; legality comes from analysis/Legality.h.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_TRANSFORM_PARALLELIZE_H
#define DAISY_TRANSFORM_PARALLELIZE_H

#include "analysis/Dependence.h"
#include "ir/Program.h"

namespace daisy {

/// Marks the outermost parallelizable loop of \p Root parallel (in place).
/// When \p Prog is provided, privatizable transients are discounted as an
/// OpenMP-style parallelizer would. Returns true if a loop was marked.
bool parallelizeOutermost(const NodePtr &Root, const ValueEnv &Params,
                          const Program *Prog = nullptr);

/// The same marking over \p Deps, which must be computeDependences(Root,
/// Params): a caller that has already analyzed the nest (the transfer
/// lookup's embedNest in DaisyScheduler::schedule) does not analyze it
/// again. Marking leaves the dependences as they are, so \p Deps stays
/// valid across marks; a restructuring transform (permute, tile)
/// invalidates it. The overload without \p Deps delegates here.
bool parallelizeOutermost(const NodePtr &Root,
                          const std::vector<Dependence> &Deps,
                          const ValueEnv &Params,
                          const Program *Prog = nullptr);

/// Marks the outermost loop parallel with atomic updates if it carries
/// only reduction dependences (in place). Returns true on success. This is
/// the naive fallback applied to opaque (unliftable) nests.
bool parallelizeWithAtomics(const NodePtr &Root, const ValueEnv &Params,
                            const Program *Prog = nullptr);

/// Marks the innermost loop of every perfect band in \p Root vectorized if
/// its innermost computations access memory with unit or zero stride (in
/// place). Bodies with more than \p MaxBodyComputations statements are
/// refused — the compiler-vectorizer behaviour the paper observes on
/// CLOUDSC's inlined/unrolled loop bodies (§5.1). Returns the number of
/// loops marked.
int vectorizeInnermostUnitStride(const NodePtr &Root, const Program &Prog,
                                 int MaxBodyComputations = 8);

} // namespace daisy

#endif // DAISY_TRANSFORM_PARALLELIZE_H
