//===- analysis/Dependence.h - Data dependence analysis ----------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conservative data-dependence analysis over the loop-nest IR.
///
/// For each ordered pair of computations accessing the same array (at least
/// one a write), the analysis enumerates direction vectors over the common
/// loops and tests feasibility of the per-dimension subscript equations with
/// a GCD test and Banerjee-style interval bounds. The result is sound
/// (every real dependence is reported) but conservative (spurious direction
/// vectors may be reported when bounds are symbolic or subscripts are
/// coupled).
///
/// Direction semantics: an entry describes source iteration vs. sink
/// iteration of the shared loop, outermost first. `Lt` means the source
/// instance runs in an earlier iteration of that loop than the sink.
///
/// Cost model: one computeDependences call gathers each statement's
/// accesses and iterator ranges once, and rewrites every subscript as a
/// dense integer row (one coefficient per iterator, parameters folded
/// into the constant) before testing any pair. The pair tests then run on
/// integers only. A query that needs the dependences of one nest several
/// times takes them precomputed: the overloads of isPermutationLegal,
/// parallelizableLoops and isReductionLoop in analysis/Legality.h,
/// embedNest in sched/Embedding.h and parallelizeOutermost in
/// transform/Parallelize.h accept the result of one call. The daisy
/// scheduler analyzes each normalized nest once for its transfer lookup
/// and the default recipe's parallelization together.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_ANALYSIS_DEPENDENCE_H
#define DAISY_ANALYSIS_DEPENDENCE_H

#include "analysis/Accesses.h"
#include "ir/Program.h"

#include <functional>
#include <string>
#include <vector>

namespace daisy {

/// Relation between the source and sink iteration of one common loop.
enum class DepDirection { Eq, Lt, Gt };

/// Classification by access kinds.
enum class DepKind {
  Flow,   ///< Write then read (true dependence).
  Anti,   ///< Read then write.
  Output  ///< Write then write.
};

/// A dependence between two computation instances.
struct Dependence {
  /// Source and sink computations (source executes first).
  std::shared_ptr<Computation> Src;
  std::shared_ptr<Computation> Dst;
  /// The array causing the dependence.
  std::string Array;
  DepKind Kind = DepKind::Flow;
  /// The common loops of source and sink, outermost first.
  std::vector<std::shared_ptr<Loop>> CommonLoops;
  /// One feasible direction vector over CommonLoops.
  std::vector<DepDirection> Directions;

  /// True if all directions are Eq (dependence within one iteration of
  /// every common loop).
  bool isLoopIndependent() const;

  /// Index into CommonLoops of the first Lt entry, or -1 for a
  /// loop-independent dependence.
  int carrierLevel() const;

  /// Renders e.g. "flow S0 -> S1 on A [<,=]".
  std::string toString() const;
};

/// Direction-vector feasibility oracle for one pair of accesses, before any
/// execution-order filtering. Exposed separately because fusion legality
/// needs the unfiltered answer.
///
/// Returns every direction vector over the common loops of \p S and \p T
/// for which "access \p A in \p S and access \p B in \p T may touch the
/// same element" is feasible. An empty result means independence.
std::vector<std::vector<DepDirection>>
feasibleDirectionVectors(const StmtInfo &S, const ArrayAccess &A,
                         const StmtInfo &T, const ArrayAccess &B,
                         const ValueEnv &Params);

/// Selects the ordered statement pairs (source, sink) a computeDependences
/// call tests; pairs it rejects report no dependence.
using StmtPairFilter =
    std::function<bool(const StmtInfo &Src, const StmtInfo &Dst)>;

/// Computes all dependences among the computations under \p Roots, in
/// order of source statement, then sink statement.
///
/// A direction vector is reported as a dependence from S to T iff it is
/// feasible and consistent with execution order: lexicographically positive,
/// or all-Eq when S textually precedes T. When \p Tested is given, only
/// the statement pairs it accepts are tested.
std::vector<Dependence>
computeDependences(const std::vector<NodePtr> &Roots, const ValueEnv &Params,
                   const StmtPairFilter &Tested = nullptr);

/// Overload scoped to a single nest.
std::vector<Dependence>
computeDependences(const NodePtr &Root, const ValueEnv &Params,
                   const StmtPairFilter &Tested = nullptr);

} // namespace daisy

#endif // DAISY_ANALYSIS_DEPENDENCE_H
