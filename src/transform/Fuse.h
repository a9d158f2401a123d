//===- transform/Fuse.h - Loop fusion ----------------------------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loop fusion: merging adjacent compatible loops, and the
/// producer-consumer fusion recipe used in the CLOUDSC study (paper §5.1:
/// "iteratively fuses all one-to-one producer-consumer relations between
/// loop nests").
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_TRANSFORM_FUSE_H
#define DAISY_TRANSFORM_FUSE_H

#include "ir/Program.h"

#include <memory>
#include <vector>

namespace daisy {

/// Fuses \p First and \p Second into one loop carrying \p First's
/// iterator. The caller must have verified legality (canFuseLoops).
///
/// The fused loop carries no parallel mark, even when both inputs do:
/// fusion can create a dependence that the fused loop carries (\p First
/// writes A[i] and \p Second reads A[i-1]), which canFuseLoops accepts. A
/// caller that wants it parallel re-marks it (transform/Parallelize.h).
/// Loops inside the two bodies keep their marks: fusion leaves their
/// bodies unchanged.
std::shared_ptr<Loop> fuseLoops(const std::shared_ptr<Loop> &First,
                                const std::shared_ptr<Loop> &Second);

/// Repeatedly fuses adjacent sibling loops in \p Nodes connected by a
/// one-to-one producer-consumer dataflow edge, as long as fusion is legal
/// and the fused body stays at or below \p MaxBodyComputations immediate
/// statements (the CLOUDSC recipe fuses chains without recreating the
/// oversized bodies fission removed). Returns the rewritten sequence.
/// \p Prog provides array layouts and parameters.
std::vector<NodePtr> fuseProducerConsumers(const std::vector<NodePtr> &Nodes,
                                           const Program &Prog,
                                           int MaxBodyComputations = 1 << 20);

} // namespace daisy

#endif // DAISY_TRANSFORM_FUSE_H
