//===- normalize/Fission.cpp ----------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "normalize/Fission.h"

#include "analysis/Legality.h"
#include "transform/Distribute.h"

#include <set>

using namespace daisy;

namespace {

/// The state of one maximalLoopFission run across its passes.
class Fissioner {
public:
  Fissioner(Program &Prog, FissionStats &Stats) : Prog(Prog), Stats(Stats) {}

  /// Runs one pass over the loops of \p Body, in place. Returns true if
  /// every loop came back unchanged.
  bool fissionBody(std::vector<NodePtr> &Body) {
    bool Unchanged = true;
    for (size_t I = 0; I < Body.size();) {
      if (Body[I]->kind() == NodeKind::Loop)
        Unchanged &= fissionLoop(Body, I);
      else
        ++I;
    }
    return Unchanged;
  }

private:
  /// One fission step on the loop at Body[I]: expand scalars, distribute
  /// into SCC groups, then recurse into the bodies of the resulting loops.
  /// Advances \p I past the pieces. Returns true if the loop came back
  /// unchanged.
  bool fissionLoop(std::vector<NodePtr> &Body, size_t &I) {
    auto L = std::static_pointer_cast<Loop>(Body[I]);
    if (Settled.count(L) || L->isOpaque()) {
      ++I;
      return true;
    }

    std::shared_ptr<Loop> Expanded = expandScalars(L, Prog);
    bool WasExpanded = Expanded != L;
    if (WasExpanded) {
      ++Stats.ScalarsExpanded;
      Body[I] = Expanded;
    }

    ++Stats.LoopsAnalyzed;
    std::vector<std::vector<size_t>> Groups =
        distributionGroups(*Expanded, Prog.params());
    bool Distributed = Groups.size() > 1;
    if (Distributed) {
      ++Stats.LoopsDistributed;
      std::vector<NodePtr> Pieces = distributeLoop(*Expanded, Groups);
      auto At = Body.begin() + static_cast<std::ptrdiff_t>(I);
      At = Body.erase(At);
      Body.insert(At, std::make_move_iterator(Pieces.begin()),
                  std::make_move_iterator(Pieces.end()));
    }

    bool Unchanged = !WasExpanded && !Distributed;
    for (size_t End = I + (Distributed ? Groups.size() : 1); I < End; ++I) {
      auto Piece = std::static_pointer_cast<Loop>(Body[I]);
      bool ChildrenUnchanged = fissionBody(Piece->body());
      if (ChildrenUnchanged && (Unchanged || Distributed))
        Settled.insert(std::move(Piece));
      Unchanged &= ChildrenUnchanged;
    }
    return Unchanged;
  }

  Program &Prog;
  FissionStats &Stats;
  /// Loops one more pass cannot change. Held by shared_ptr: expansion
  /// frees the loops it rebuilds, and a freed address reused by a new
  /// loop must not read as settled.
  std::set<std::shared_ptr<Loop>> Settled;
};

} // namespace

FissionStats daisy::maximalLoopFission(Program &Prog) {
  FissionStats Stats;
  Fissioner Pass(Prog, Stats);
  // Fixed-point pipeline (paper §3.2): fission only ever splits loops into
  // smaller loops, so iterating until a pass changes no loop terminates.
  constexpr int MaxIterations = 8;
  for (int Iter = 0; Iter < MaxIterations; ++Iter) {
    ++Stats.Iterations;
    if (Pass.fissionBody(Prog.topLevel()))
      break;
  }
  return Stats;
}
