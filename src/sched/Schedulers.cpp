//===- sched/Schedulers.cpp -----------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sched/Schedulers.h"

#include "analysis/Legality.h"
#include "ir/StructuralHash.h"
#include "sched/Idiom.h"
#include "transform/Parallelize.h"
#include "transform/Tile.h"

#include <algorithm>

using namespace daisy;

Scheduler::~Scheduler() = default;

std::optional<Program> ClangScheduler::schedule(const Program &Prog) {
  Program Result = Prog.clone();
  for (const NodePtr &Node : Result.topLevel())
    vectorizeInnermostUnitStride(Node, Result);
  return Result;
}

std::optional<Program> IccScheduler::schedule(const Program &Prog) {
  Program Result = Prog.clone();
  for (const NodePtr &Node : Result.topLevel()) {
    parallelizeOutermost(Node, Result.params(), &Result);
    vectorizeInnermostUnitStride(Node, Result);
  }
  return Result;
}

std::optional<Program> PollyScheduler::schedule(const Program &Prog) {
  Program Result = Prog.clone();
  for (NodePtr &Node : Result.topLevel()) {
    if (Node->kind() != NodeKind::Loop)
      continue;
    // First-level tiling of the full band, then second-level tiling of
    // the resulting point band (-polly-2nd-level-tiling).
    size_t BandSize = perfectNestBand(Node).size();
    if (BandSize >= 2) {
      Node = tileBand(Node,
                      std::vector<int64_t>(BandSize, FirstLevelTile),
                      Result.params());
      size_t NewBand = perfectNestBand(Node).size();
      if (NewBand > BandSize) {
        // Second level applies to the point loops (the trailing band).
        std::vector<int64_t> Second(NewBand, 0);
        for (size_t I = BandSize; I < NewBand; ++I)
          Second[I] = SecondLevelTile;
        Node = tileBand(Node, Second, Result.params());
      }
    }
    // Strip-mine vectorization of the innermost band level when it is
    // unit-stride; otherwise Polly leaves the loop scalar.
    int Marked = vectorizeInnermostUnitStride(Node, Result);
    (void)Marked;
    parallelizeOutermost(Node, Result.params(), &Result);
  }
  return Result;
}

namespace {

/// True if \p R is Recipe::defaultParallelRecipe(): parallelize, then
/// vectorize.
bool isDefaultParallelRecipe(const Recipe &R) {
  return R.Steps.size() == 2 &&
         R.Steps[0].StepKind == RecipeStep::Kind::ParallelizeOutermost &&
         R.Steps[1].StepKind == RecipeStep::Kind::VectorizeInnermost;
}

/// Tiramisu adapter applicability: the nest must be a perfect,
/// rectangular band with at least one parallelizable loop and no lifting
/// barrier.
bool tiramisuConvertible(const NodePtr &Node, const Program &Prog) {
  const auto *L = dynCast<Loop>(Node);
  if (!L || L->isOpaque())
    return false;
  auto Band = perfectNestBand(Node);
  if (Band.empty())
    return false;
  // Perfect: the innermost band loop contains only computations.
  for (const NodePtr &Child : Band.back()->body())
    if (Child->kind() == NodeKind::Loop)
      return false;
  // Rectangular bounds: only parameters and constants.
  for (const auto &Loop : Band) {
    for (const auto &[Name, Coeff] : Loop->lower().terms())
      if (!Prog.params().count(Name))
        return false;
    for (const auto &[Name, Coeff] : Loop->upper().terms())
      if (!Prog.params().count(Name))
        return false;
  }
  // Parallel loops exist.
  auto Parallel = parallelizableLoops(Node, Prog.params());
  for (const auto &Loop : Band)
    if (Parallel.count(Loop.get()))
      return true;
  return false;
}

} // namespace

std::optional<Program> TiramisuScheduler::schedule(const Program &Prog) {
  // The adapter applies maximal loop fission before conversion (paper §4,
  // Baselines).
  Program Result = normalize(
      Prog, [] {
        NormalizationOptions O;
        O.EnableStrideMinimization = false; // fission only
        return O;
      }());

  for (const NodePtr &Node : Result.topLevel())
    if (!tiramisuConvertible(Node, Result))
      return std::nullopt; // the paper's X

  // One evaluator (and simulation cache) for the whole program: the
  // top-3 re-measurement below hits the cache the MCTS just filled.
  Evaluator Eval(EvalOptions);
  for (size_t I = 0; I < Result.topLevel().size(); ++I) {
    std::vector<Recipe> Candidates =
        mctsCandidates(Result, I, Eval, Budget, /*TopK=*/3);
    if (Candidates.empty())
      continue;
    // "We test the top three candidates and apply the best optimization
    // among these."
    std::vector<double> Seconds =
        Eval.recipeSecondsBatch(Result, I, Candidates);
    size_t BestIdx = 0;
    for (size_t C = 1; C < Candidates.size(); ++C)
      if (Seconds[C] < Seconds[BestIdx])
        BestIdx = C;
    Result.topLevel()[I] =
        applyRecipe(Candidates[BestIdx], Result.topLevel()[I], Result);
  }
  return Result;
}

std::optional<Program> DaisyScheduler::schedule(const Program &Prog) {
  Program Result = Options.EnableNormalization ? normalize(Prog)
                                               : Prog.clone();
  if (!Options.EnableOptimization)
    return Result;

  for (size_t I = 0; I < Result.topLevel().size(); ++I) {
    NodePtr &Node = Result.topLevel()[I];
    if (Node->kind() != NodeKind::Loop)
      continue;
    auto *L = dynCast<Loop>(Node);
    if (L->isOpaque()) {
      // Lifting failed (paper §4.1): the nest is not optimized and any
      // reduction is executed in parallel with expensive atomics.
      parallelizeWithAtomics(Node, Result.params(), &Result);
      continue;
    }
    // BLAS-3 idiom replacement.
    if (auto Match = detectBlasIdiom(Node, Result, Options.Idioms)) {
      Node = Match->Call;
      continue;
    }
    // Transfer tuning: nearest database recipe, legality-checked apply.
    // One dependence analysis serves the lookup's embedding and the
    // default recipe's parallelization.
    std::vector<Dependence> Deps = computeDependences(Node, Result.params());
    const DatabaseEntry *Entry =
        Db ? Db->lookup(embedNest(Node, Result, Deps), structuralHash(Node),
                        Options.MaxTransferDistance)
           : nullptr;
    if (Entry && !isDefaultParallelRecipe(Entry->Optimization)) {
      Node = applyRecipe(Entry->Optimization, Node, Result);
      continue;
    }
    // The default recipe only marks loops, so it marks Node in place
    // (Result owns it) where applyRecipe would mark a copy.
    parallelizeOutermost(Node, Deps, Result.params(), &Result);
    vectorizeInnermostUnitStride(Node, Result);
  }
  return Result;
}

void DaisyScheduler::seedDatabase(TransferTuningDatabase &Db,
                                  const Program &AVariant, Evaluator &Eval,
                                  const SearchBudget &Budget, Rng &Rand,
                                  const DaisyOptions &Options) {
  Program Norm = normalize(AVariant);
  for (size_t I = 0; I < Norm.topLevel().size(); ++I) {
    const NodePtr &Node = Norm.topLevel()[I];
    if (Node->kind() != NodeKind::Loop || dynCast<Loop>(Node)->isOpaque())
      continue;
    DatabaseEntry Entry;
    Entry.Name = AVariant.name() + "/nest" + std::to_string(I);
    Entry.CanonicalHash = structuralHash(Node);
    Entry.Embedding = embedNest(Node, Norm);
    if (detectBlasIdiom(Node, Norm, Options.Idioms))
      Entry.Optimization = Recipe::blasRecipe();
    else
      Entry.Optimization = evolveRecipe(Norm, I, Db, Eval, Budget, Rand);
    Db.insert(std::move(Entry));
  }
}

