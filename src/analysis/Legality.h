//===- analysis/Legality.h - Transformation legality queries -----*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Legality queries for the loop transformations: permutation, distribution
/// (fission), fusion, and parallelization. All queries are built on the
/// conservative dependence analysis, so a "legal" verdict is sound while an
/// "illegal" verdict may be conservative. The queries a caller repeats on
/// one nest (permutation, parallelism, reduction) also take the nest's
/// dependences precomputed, so one analysis serves them all.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_ANALYSIS_LEGALITY_H
#define DAISY_ANALYSIS_LEGALITY_H

#include "analysis/Dependence.h"
#include "ir/Program.h"

#include <memory>
#include <set>
#include <string>
#include <vector>

namespace daisy {

/// Returns the perfect band of \p Root: the maximal chain of loops where
/// each loop's body is exactly one child loop. \p Root must be a loop; it
/// is always the first entry.
std::vector<std::shared_ptr<Loop>> perfectNestBand(const NodePtr &Root);

/// True if permuting the perfect band of \p Root into iterator order
/// \p NewOrder preserves all dependences. \p NewOrder must be a
/// permutation of the band's iterator names.
bool isPermutationLegal(const NodePtr &Root,
                        const std::vector<std::string> &NewOrder,
                        const ValueEnv &Params);

/// The same query over \p Deps, which must be computeDependences(Root,
/// Params): a caller that tests several orders of one band analyzes the
/// nest once. The ValueEnv overload delegates here.
bool isPermutationLegal(const NodePtr &Root,
                        const std::vector<std::string> &NewOrder,
                        const std::vector<Dependence> &Deps);

/// Loops (by node identity) in \p Root's subtree that carry no dependence
/// and can therefore run in parallel.
///
/// When \p Prog is provided, dependences on *privatizable transients* are
/// discounted, as an OpenMP-style parallelizer would privatize them: a
/// transient array (or scalar) whose subscripts reference no iterator at
/// or above the carrier loop, and whose first access under the carrier is
/// a write that does not read the array itself, gets a fresh private copy
/// per iteration.
std::set<const Loop *> parallelizableLoops(const NodePtr &Root,
                                           const ValueEnv &Params,
                                           const Program *Prog = nullptr);

/// The same query over \p Deps, which must be computeDependences(Root,
/// Params). The ValueEnv overload delegates here.
std::set<const Loop *> parallelizableLoops(const NodePtr &Root,
                                           const std::vector<Dependence> &Deps,
                                           const Program *Prog = nullptr);

/// Transient arrays accessed under the loop \p Carrier that an OpenMP-style
/// parallelizer may give a fresh private copy per iteration of \p Carrier.
/// An array qualifies iff, under \p Carrier:
///
/// - no subscript of any access references \p Carrier's iterator or any of
///   \p EnclosingIters (every iteration touches the same elements),
/// - no loop bound below \p Carrier on a path to an access references
///   those iterators (every iteration runs the same accessing iteration
///   space),
/// - every read of the array is preceded, in execution order, by a write
///   of the same element: an earlier statement writing with identical
///   subscripts under a value-identical below-carrier loop context (each
///   iteration defines what it uses before using it).
///
/// The define-before-use condition makes the buffer's pre-iteration
/// contents unobservable within one iteration, which is what both the
/// parallelization legality discount and the parallel execution backend's
/// per-thread private copies rely on; keeping them on this one helper is
/// what keeps transform and exec in agreement. The per-array test is
/// isPrivatizableUnder.
std::set<std::string> privatizableArraysUnder(
    const NodePtr &Carrier, const std::vector<std::string> &EnclosingIters,
    const Program &Prog);

/// The define-before-use test behind privatizableArraysUnder, for one
/// array: true iff \p Array meets the three conditions above under the
/// carrier and at least one statement writes it. It is the one copy of
/// the test, shared by privatizableArraysUnder (and through it the
/// parallelizer and the execution backend) and by transient contraction
/// (transform/Distribute.h contractTransients), so contraction and
/// execution cannot disagree about which buffers are private.
///
/// \p Stmts are the statements under the carrier in execution order, with
/// their loop paths (collectStatements); statements that do not access
/// \p Array are skipped, so a caller may pass only those that do. Entry
/// \p CarrierDepth of every path is the carrier, and the loops after it
/// form the below-carrier context. \p FixedIters holds the carrier's
/// iterator and its enclosing iterators. The first \p IgnoredSubscripts
/// subscripts of every access are left out of the test: contraction asks
/// whether the array stays privatizable once those dimensions are gone.
bool isPrivatizableUnder(const std::vector<StmtInfo> &Stmts,
                         size_t CarrierDepth,
                         const std::set<std::string> &FixedIters,
                         const std::string &Array,
                         size_t IgnoredSubscripts = 0);

/// True if \p Target carries only reduction-style self-dependences: every
/// dependence carried by \p Target has identical source and sink whose
/// right-hand side is an associative update (add/mul/min/max at the root)
/// of the written access. Such loops can be parallelized with atomic
/// updates — the expensive fallback the paper reports for correlation and
/// covariance.
bool isReductionLoop(const NodePtr &Root, const Loop *Target,
                     const ValueEnv &Params);

/// The same query over \p Deps, which must be computeDependences(Root,
/// Params): a caller that asks about several loops of one nest analyzes it
/// once. The ValueEnv overload delegates here.
bool isReductionLoop(const std::vector<Dependence> &Deps, const Loop *Target);

/// Partition of \p L's immediate body into the finest legal distribution:
/// strongly connected components of the body-item dependence graph, in an
/// execution order that respects all dependences. Each group is a list of
/// body indices in original order; groups of size one whose item is a loop
/// or independent computation are "atomic" nests after fission.
std::vector<std::vector<size_t>> distributionGroups(const Loop &L,
                                                    const ValueEnv &Params);

/// True if the adjacent sibling loops \p First then \p Second (in that
/// execution order) can be fused into one loop: identical step, identical
/// bounds (after renaming \p Second's iterator), and no aliasing pair of
/// accesses where a \p First instance at a later fused iteration conflicts
/// with a \p Second instance at an earlier one.
bool canFuseLoops(const std::shared_ptr<Loop> &First,
                  const std::shared_ptr<Loop> &Second,
                  const ValueEnv &Params);

} // namespace daisy

#endif // DAISY_ANALYSIS_LEGALITY_H
