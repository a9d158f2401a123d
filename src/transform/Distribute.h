//===- transform/Distribute.h - Loop fission & scalar expansion --*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loop distribution (fission), the scalar expansion that enables it, and
/// its inverse, transient contraction.
///
/// Distribution splits a loop's body into the groups computed by
/// distributionGroups (analysis/Legality.h), one loop per group. Scalars
/// written and read inside the loop would otherwise glue all their users
/// into one group; scalar expansion first promotes such loop-local scalars
/// to transient arrays indexed by the loop iterator — exactly the ZQP_0 /
/// ZCOND_0 pattern of the paper's CLOUDSC study (Fig. 10b).
///
/// A frontend can arrive already expanded, and further than fission ever
/// would: CLOUDSC's DaCe variant stores every intermediate scalar as a
/// full NBLOCKS x KLEV x NPROMA transient. Such storage lets fission split
/// what the scalar form keeps in one loop, so normalization contracts it
/// back first (normalize/Pipeline.h).
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_TRANSFORM_DISTRIBUTE_H
#define DAISY_TRANSFORM_DISTRIBUTE_H

#include "ir/Program.h"

#include <vector>

namespace daisy {

/// Expands loop-local scalars in \p L's body into transient arrays over
/// \p L's iterator. A scalar qualifies when (a) it is declared transient
/// (a temporary, not a program output), (b) it is written inside the body
/// before any read on every path (textually), (c) it is not part of a
/// recurrence (no computation both reads and writes it), and (d) it is not
/// accessed anywhere outside \p L in \p Prog. New arrays are registered on
/// \p Prog as transient. Returns the rewritten loop (or the original
/// pointer if nothing changed).
///
/// Condition (d) is count-based: one walk of \p Prog and one of \p L
/// count every candidate's accesses, and a scalar escapes when the
/// program holds more of them than \p L. \p Prog must therefore hold
/// \p L's accesses once, as \p L itself or as a copy of it.
std::shared_ptr<Loop> expandScalars(const std::shared_ptr<Loop> &L,
                                    Program &Prog);

/// What one contractTransients call changed.
struct ContractionStats {
  int ArraysContracted = 0;
  int64_t ElementsBefore = 0; ///< Total elements of those arrays before.
  int64_t ElementsAfter = 0;  ///< ... and after contraction.
};

/// Contracts transient arrays, the inverse of expandScalars: drops the
/// leading dimensions of a transient that only index the loops around it,
/// where that is exact.
///
/// A transient T of rank >= 1 is a candidate when no CallNode names it and
/// no opaque loop encloses any of its accesses. Let C[0..n) be the loops
/// enclosing every access of T, outermost first. T drops its first K
/// dimensions for the largest K (K <= n, K <= rank) for which both hold:
///
/// - at every access, subscript d < K is exactly C[d]'s iterator
///   (coefficient 1, no constant, not shadowed by an inner loop);
/// - with those K subscripts left out, T passes privatizableArraysUnder's
///   test (analysis/Legality.h isPrivatizableUnder) under every C[d],
///   d < K, with C[0..d) as the enclosing iterators.
///
/// The second condition means every iteration of C[K-1] defines each
/// element it reads before reading it, so no iteration reads a value
/// another one wrote and the contracted program computes the same values.
/// It also makes T privatizable under every C[d]: a C[d] the parallelizer
/// could mark before contraction can still be marked, and the execution
/// backend gives each thread its own copy of T, as it already does for
/// expandScalars' arrays.
///
/// The array keeps its name and slot (Program::reshapeArray); only its
/// shape and its subscripts change. Statements are rewritten in place, so
/// \p Prog must own its nodes (normalize runs this on its own clone).
/// Returns at once when \p Prog declares no transient of rank >= 1.
ContractionStats contractTransients(Program &Prog);

/// Distributes \p L into one loop per entry of \p Groups (body-item index
/// lists, as produced by distributionGroups, each item in exactly one
/// group). Returns the replacement sequence. The pieces take \p L's body
/// items without copying them, so \p L is left with an empty body.
std::vector<NodePtr>
distributeLoop(Loop &L, const std::vector<std::vector<size_t>> &Groups);

} // namespace daisy

#endif // DAISY_TRANSFORM_DISTRIBUTE_H
