//===- normalize/Fission.h - Maximal loop fission pass -----------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first normalization criterion (paper §2.1): maximal loop fission.
///
/// Every loop's body is distributed into the finest legal partition (the
/// strongly connected components of the body dependence graph), at every
/// nesting level, to a fixed point. Loop-local scalars are expanded to
/// transient arrays first so that independent computations communicating
/// through a scalar can be separated. The result is a sequence of "atomic"
/// loop nests whose bodies cannot be split further.
///
/// Each pass visits the loops in pre-order: expand, distribute, then the
/// pieces' bodies. A distribution can enable another one level up, so
/// passes repeat until one changes no loop. A pass analyzes only loops
/// whose result can have changed, and leaves alone the loops an earlier
/// pass settled:
///
/// - an opaque loop;
/// - a loop that came back with no expansion, no distribution and
///   unchanged children: its body and the program's other accesses to
///   its scalars are what its analysis saw;
/// - every piece of a distribution whose children came back unchanged.
///   The piece is one strongly connected component of its parent's graph
///   over the same items, so it does not split, and each of its scalars
///   either escapes it or was already not expandable in the parent.
///
/// Rewrites happen in place: expansion and distribution replace a loop in
/// its parent's body, and distribution moves the body items into the
/// pieces. The program therefore holds every access exactly once at each
/// step, which is what expandScalars' escape count needs.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_NORMALIZE_FISSION_H
#define DAISY_NORMALIZE_FISSION_H

#include "ir/Program.h"

namespace daisy {

/// Statistics reported by the fission pass.
struct FissionStats {
  int LoopsDistributed = 0;
  int ScalarsExpanded = 0;
  int Iterations = 0;
  /// distributionGroups calls of the run: the loops its passes analyzed.
  int LoopsAnalyzed = 0;
};

/// Applies maximal loop fission to \p Prog in place (top-level sequence is
/// rewritten; opaque nests are skipped). Loops are rewritten in place, so
/// \p Prog must own its nodes (normalize runs this on its own clone).
FissionStats maximalLoopFission(Program &Prog);

} // namespace daisy

#endif // DAISY_NORMALIZE_FISSION_H
