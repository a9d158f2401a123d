//===- sched/Embedding.cpp ------------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sched/Embedding.h"

#include "analysis/Accesses.h"
#include "analysis/Legality.h"
#include "analysis/Stride.h"
#include "support/StringUtils.h"

#include <cmath>
#include <set>

using namespace daisy;

double PerformanceEmbedding::distance(
    const PerformanceEmbedding &Other) const {
  double Sum = 0.0;
  for (size_t I = 0; I < Size; ++I) {
    double Diff = Features[I] - Other.Features[I];
    Sum += Diff * Diff;
  }
  return std::sqrt(Sum);
}

std::string PerformanceEmbedding::toString() const {
  std::vector<std::string> Parts;
  for (double F : Features)
    Parts.push_back(formatDouble(F, 2));
  return "[" + join(Parts, ", ") + "]";
}

PerformanceEmbedding daisy::embedNest(const NodePtr &Root,
                                      const Program &Prog) {
  return embedNest(Root, Prog, computeDependences(Root, Prog.params()));
}

PerformanceEmbedding daisy::embedNest(const NodePtr &Root,
                                      const Program &Prog,
                                      const std::vector<Dependence> &Deps) {
  PerformanceEmbedding E;
  std::vector<StmtInfo> Stmts = collectStatements(Root);
  if (Stmts.empty())
    return E;

  int Depth = loopDepth(Root);
  std::vector<std::shared_ptr<Loop>> Band = perfectNestBand(Root);

  double TotalIters = 0.0;
  double Flops = 0.0;
  double Reads = 0.0;
  double UnitStride = 0.0, ZeroStride = 0.0, LargeStride = 0.0;
  double Accesses = 0.0;
  double UnitStrideWrites = 0.0;
  bool Triangular = false;
  std::set<std::string> Arrays;
  double DataBytes = 0.0;
  size_t MaxRank = 0;

  for (const StmtInfo &S : Stmts) {
    std::vector<IterRange> Ranges =
        conservativeRanges(S.Path, Prog.params());
    double Iters = 1.0;
    for (const IterRange &R : Ranges)
      Iters *= static_cast<double>(std::max<int64_t>(R.span(), 1));
    TotalIters += Iters;
    Flops += static_cast<double>(S.Comp->flops());

    const std::string Innermost =
        S.Path.empty() ? "" : S.Path.back()->iterator();
    // A bound term that is not a parameter references an outer iterator:
    // the nest is triangular.
    for (const auto &L : S.Path) {
      for (const auto &[Name, Coeff] : L->lower().terms())
        Triangular |= Prog.params().count(Name) == 0;
      for (const auto &[Name, Coeff] : L->upper().terms())
        Triangular |= Prog.params().count(Name) == 0;
    }

    auto Classify = [&](const ArrayAccess &Access, bool IsWrite) {
      Accesses += 1.0;
      if (const ArrayDecl *Decl = Prog.findArray(Access.Array)) {
        Arrays.insert(Access.Array);
        DataBytes += static_cast<double>(Decl->elementCount()) * 8.0;
        MaxRank = std::max(MaxRank, Decl->Shape.size());
      }
      int64_t Stride =
          Innermost.empty() ? 0 : accessStride(Access, Innermost, 1, Prog);
      if (Stride == 0)
        ZeroStride += 1.0;
      else if (Stride == 1) {
        UnitStride += 1.0;
        if (IsWrite)
          UnitStrideWrites += 1.0;
      } else if (std::llabs(Stride) >= 8)
        LargeStride += 1.0;
    };
    Classify(S.Comp->write(), true);
    for (const ArrayAccess &R : S.Comp->reads())
      Classify(R, false);
    Reads += static_cast<double>(S.Comp->reads().size());
  }

  // One analysis serves the parallel fraction and the reduction flag.
  auto Parallel = parallelizableLoops(Root, Deps);
  auto Loops = collectLoops(Root);
  double ParallelFrac =
      Loops.empty() ? 0.0
                    : static_cast<double>(Parallel.size()) /
                          static_cast<double>(Loops.size());
  bool Reduction = false;
  for (const auto &L : Loops)
    if (!Parallel.count(L.get()))
      Reduction |= isReductionLoop(Deps, L.get());

  double NumStmts = static_cast<double>(Stmts.size());
  E.Features[0] = static_cast<double>(Depth);
  E.Features[1] = std::log2(std::max(TotalIters, 1.0));
  E.Features[2] = NumStmts;
  E.Features[3] = Flops / NumStmts;
  E.Features[4] = Reads / NumStmts;
  E.Features[5] = Accesses > 0 ? UnitStride / Accesses : 0.0;
  E.Features[6] = Accesses > 0 ? ZeroStride / Accesses : 0.0;
  E.Features[7] = Accesses > 0 ? LargeStride / Accesses : 0.0;
  E.Features[8] = Reduction ? 1.0 : 0.0;
  E.Features[9] = ParallelFrac;
  E.Features[10] = std::log2(std::max(DataBytes, 1.0));
  E.Features[11] = Triangular ? 1.0 : 0.0;
  E.Features[12] = static_cast<double>(MaxRank);
  E.Features[13] = static_cast<double>(Arrays.size());
  E.Features[14] = UnitStrideWrites > 0 ? 1.0 : 0.0;
  E.Features[15] =
      Depth > 0 ? static_cast<double>(Band.size()) / Depth : 0.0;
  return E;
}
