//===- transform/Parallelize.cpp ------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "transform/Parallelize.h"

#include "analysis/Accesses.h"
#include "analysis/Legality.h"
#include "analysis/Stride.h"

#include <functional>

using namespace daisy;

namespace {

/// Estimated computation instances under \p Node.
double instancesUnder(const NodePtr &Node, const ValueEnv &Params) {
  double Total = 0.0;
  for (const StmtInfo &S : collectStatements(Node)) {
    double Iters = 1.0;
    for (const IterRange &R : conservativeRanges(S.Path, Params))
      Iters *= static_cast<double>(std::max<int64_t>(R.span(), 1));
    Total += Iters;
  }
  return Total;
}

} // namespace

bool daisy::parallelizeOutermost(const NodePtr &Root, const ValueEnv &Params,
                                 const Program *Prog) {
  return parallelizeOutermost(Root, computeDependences(Root, Params), Params,
                              Prog);
}

bool daisy::parallelizeOutermost(const NodePtr &Root,
                                 const std::vector<Dependence> &Deps,
                                 const ValueEnv &Params,
                                 const Program *Prog) {
  auto Parallel = parallelizableLoops(Root, Deps, Prog);
  bool Marked = false;
  // Pre-order: the first parallelizable loop on each path is outermost.
  // A profitability guard skips regions too small to amortize the
  // fork/join overhead — parallelizing a small inner loop would pay that
  // overhead once per enclosing iteration.
  constexpr double MinInstancesPerRegion = 4096.0;
  std::map<std::string, IterRange> Known;
  std::function<void(const NodePtr &, double)> Walk =
      [&](const NodePtr &Node, double EnclosingIters) {
        auto *L = dynCast<Loop>(Node);
        if (!L)
          return;
        if (Parallel.count(L) &&
            instancesUnder(Node, Params) >=
                MinInstancesPerRegion * EnclosingIters) {
          L->setParallel(true);
          Marked = true;
          return; // nested parallelism is not modeled
        }
        IterRange Lower = evaluateInterval(L->lower(), Known, Params);
        IterRange Upper = evaluateInterval(L->upper(), Known, Params);
        IterRange R{Lower.Min, Upper.Max - 1};
        double Trip =
            static_cast<double>(std::max<int64_t>(R.span(), 1)) /
            static_cast<double>(L->step());
        Known[L->iterator()] = R;
        for (const NodePtr &Child : L->body())
          Walk(Child, EnclosingIters * Trip);
        Known.erase(L->iterator());
      };
  Walk(Root, 1.0);
  return Marked;
}

bool daisy::parallelizeWithAtomics(const NodePtr &Root,
                                   const ValueEnv &Params,
                                   const Program *Prog) {
  auto L = std::dynamic_pointer_cast<Loop>(Root);
  if (!L)
    return false;
  if (parallelizeOutermost(Root, Params, Prog))
    return true;
  if (!isReductionLoop(Root, L.get(), Params))
    return false;
  L->setParallel(true);
  L->setAtomicReduction(true);
  return true;
}

int daisy::vectorizeInnermostUnitStride(const NodePtr &Root,
                                        const Program &Prog,
                                        int MaxBodyComputations) {
  int Marked = 0;
  visitNodes(Root, [&](const NodePtr &Node) {
    auto *L = dynCast<Loop>(Node);
    if (!L)
      return;
    // Innermost loops only: no loop children.
    for (const NodePtr &Child : L->body())
      if (Child->kind() == NodeKind::Loop)
        return;
    // Oversized bodies defeat the vectorizer (register pressure, too many
    // live values to keep in SIMD registers).
    if (static_cast<int>(L->body().size()) > MaxBodyComputations)
      return;
    // All accesses of the body must be unit- or zero-stride in L.
    for (const NodePtr &Child : L->body()) {
      const auto *C = dynCast<Computation>(Child.get());
      if (!C)
        return;
      auto CheckAccess = [&](const ArrayAccess &Access) {
        int64_t Stride =
            accessStride(Access, L->iterator(), L->step(), Prog);
        return Stride == 0 || Stride == 1;
      };
      if (!CheckAccess(C->write()))
        return;
      for (const ArrayAccess &R : C->reads())
        if (!CheckAccess(R))
          return;
    }
    L->setVectorized(true);
    ++Marked;
  });
  return Marked;
}
