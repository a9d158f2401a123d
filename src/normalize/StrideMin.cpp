//===- normalize/StrideMin.cpp --------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "normalize/StrideMin.h"

#include "analysis/Legality.h"
#include "analysis/Stride.h"
#include "ir/StructuralHash.h"
#include "transform/Permute.h"

#include <algorithm>

using namespace daisy;

namespace {

double nestCost(const NodePtr &Root, const Program &Prog,
                const StrideMinOptions &Options) {
  if (Options.UseOutOfOrderCriterion)
    return static_cast<double>(outOfOrderCount(Root, Prog));
  return sumOfStridesCost(Root, Prog);
}

/// Finds the minimal-cost legal permutation of \p Root's perfect band by
/// full enumeration, analyzing the nest's dependences once for all orders.
/// Ties break toward the candidate nest with the smaller structuralHash,
/// which ignores iterator names: two nests that differ only in their
/// spelling normalize to the same form, and the pass stays deterministic
/// and idempotent.
NodePtr enumerateBest(const NodePtr &Root, const Program &Prog,
                      const StrideMinOptions &Options,
                      StrideMinStats &Stats) {
  std::vector<std::shared_ptr<Loop>> Band = perfectNestBand(Root);
  std::vector<std::string> Order;
  for (const auto &L : Band)
    Order.push_back(L->iterator());
  std::sort(Order.begin(), Order.end());
  std::vector<Dependence> Deps = computeDependences(Root, Prog.params());

  NodePtr Best;
  double BestCost = 0.0;
  uint64_t BestHash = 0;
  do {
    ++Stats.EnumeratedPermutations;
    if (!isPermutationLegal(Root, Order, Deps))
      continue;
    NodePtr Candidate = applyPermutation(Root, Order);
    double Cost = nestCost(Candidate, Prog, Options);
    uint64_t Hash = structuralHash(Candidate);
    if (!Best || Cost < BestCost || (Cost == BestCost && Hash < BestHash)) {
      Best = Candidate;
      BestCost = Cost;
      BestHash = Hash;
    }
  } while (std::next_permutation(Order.begin(), Order.end()));

  return Best ? Best : Root->clone();
}

/// Approximation for deep bands: repeatedly swap adjacent band loops when
/// the swap is legal and lowers the cost (an insertion-sort over iterator
/// groups).
NodePtr sortApproximation(const NodePtr &Root, const Program &Prog,
                          const StrideMinOptions &Options) {
  NodePtr Current = Root->clone();
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::vector<std::shared_ptr<Loop>> Band = perfectNestBand(Current);
    std::vector<Dependence> Deps = computeDependences(Current, Prog.params());
    for (size_t I = 0; I + 1 < Band.size(); ++I) {
      std::vector<std::string> Order;
      for (const auto &L : Band)
        Order.push_back(L->iterator());
      std::swap(Order[I], Order[I + 1]);
      if (!isPermutationLegal(Current, Order, Deps))
        continue;
      NodePtr Swapped = applyPermutation(Current, Order);
      if (nestCost(Swapped, Prog, Options) <
          nestCost(Current, Prog, Options)) {
        Current = Swapped;
        Changed = true;
        break;
      }
    }
  }
  return Current;
}

/// Recursion below the band: permute each loop child of the band's
/// innermost loop.
void recurseBelowBand(const NodePtr &Root, const Program &Prog,
                      const StrideMinOptions &Options,
                      StrideMinStats &Stats) {
  std::vector<std::shared_ptr<Loop>> Band = perfectNestBand(Root);
  if (Band.empty())
    return;
  auto &Innermost = Band.back();
  for (NodePtr &Child : Innermost->body())
    if (Child->kind() == NodeKind::Loop)
      Child = minimizeStridesInNest(Child, Prog, Options, Stats);
}

} // namespace

NodePtr daisy::minimizeStridesInNest(const NodePtr &Root,
                                     const Program &Prog,
                                     const StrideMinOptions &Options,
                                     StrideMinStats &Stats) {
  auto L = std::dynamic_pointer_cast<Loop>(Root);
  if (!L)
    return Root->clone();
  if (L->isOpaque())
    return Root->clone();
  ++Stats.NestsVisited;

  std::vector<std::shared_ptr<Loop>> Band = perfectNestBand(Root);
  NodePtr Result;
  if (Band.size() < 2) {
    Result = Root->clone();
  } else if (static_cast<int>(Band.size()) <= Options.MaxEnumerationDepth) {
    Result = enumerateBest(Root, Prog, Options, Stats);
  } else {
    Result = sortApproximation(Root, Prog, Options);
  }

  auto bandOrder = [](const NodePtr &Node) {
    std::vector<std::string> Order;
    for (const auto &L : perfectNestBand(Node))
      Order.push_back(L->iterator());
    return Order;
  };
  if (bandOrder(Result) != bandOrder(Root))
    ++Stats.NestsPermuted;
  recurseBelowBand(Result, Prog, Options, Stats);
  return Result;
}

StrideMinStats daisy::minimizeStrides(Program &Prog,
                                      const StrideMinOptions &Options) {
  StrideMinStats Stats;
  for (NodePtr &Node : Prog.topLevel())
    Node = minimizeStridesInNest(Node, Prog, Options, Stats);
  return Stats;
}
