//===- sched/Embedding.h - Performance embeddings ----------------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Performance embeddings of loop nests (after Trümper et al., ICS'23,
/// "Performance Embeddings: A Similarity-Based Transfer Tuning Approach"):
/// fixed-size feature vectors whose Euclidean distance identifies loop
/// nests that profit from the same optimization recipes. The transfer-
/// tuning database (paper §4) keys its entries by these embeddings.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_SCHED_EMBEDDING_H
#define DAISY_SCHED_EMBEDDING_H

#include "analysis/Dependence.h"
#include "ir/Program.h"

#include <array>
#include <string>

namespace daisy {

/// A fixed-size performance feature vector of one loop nest.
struct PerformanceEmbedding {
  static constexpr size_t Size = 16;
  std::array<double, Size> Features{};

  /// Euclidean distance to \p Other.
  double distance(const PerformanceEmbedding &Other) const;

  std::string toString() const;
};

/// Computes the embedding of nest \p Root within \p Prog.
PerformanceEmbedding embedNest(const NodePtr &Root, const Program &Prog);

/// The same embedding over \p Deps, which must be computeDependences(Root,
/// Prog.params()): the parallel-fraction and reduction features read the
/// nest's dependences, so a caller that also parallelizes the nest
/// (DaisyScheduler::schedule) analyzes it once. The two-argument overload
/// delegates here.
PerformanceEmbedding embedNest(const NodePtr &Root, const Program &Prog,
                               const std::vector<Dependence> &Deps);

} // namespace daisy

#endif // DAISY_SCHED_EMBEDDING_H
