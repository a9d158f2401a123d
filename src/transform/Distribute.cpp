//===- transform/Distribute.cpp -------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "transform/Distribute.h"

#include "analysis/Legality.h"
#include "ir/Rewrite.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <set>

using namespace daisy;

namespace {

/// Accumulates where a scalar is accessed relative to loop L's body.
struct ScalarUsage {
  int FirstWriteItem = -1; // body item of the first textual write
  int FirstReadItem = -1;  // body item of the first textual read
  bool InRecurrence = false;
};

/// Calls \p Visit on every array access \p Comp reads, in the order of
/// Computation::reads(), without copying the accesses.
void forEachRead(const Computation &Comp,
                 const std::function<void(const ArrayAccess &)> &Visit) {
  visitExpr(Comp.rhs(), [&Visit](const Expr &Node) {
    if (Node.kind() == ExprKind::Read)
      Visit(Node.access());
  });
}

void scanScalarUses(const std::vector<NodePtr> &Body,
                    std::map<std::string, ScalarUsage> &Usage) {
  for (size_t Item = 0; Item < Body.size(); ++Item) {
    for (const auto &C : collectComputations(Body[Item])) {
      bool WritesScalar = C->write().Indices.empty();
      forEachRead(*C, [&](const ArrayAccess &R) {
        if (!R.Indices.empty())
          return;
        ScalarUsage &U = Usage[R.Array];
        if (U.FirstReadItem < 0)
          U.FirstReadItem = static_cast<int>(Item);
        if (WritesScalar && C->write().Array == R.Array)
          U.InRecurrence = true;
      });
      if (WritesScalar) {
        ScalarUsage &U = Usage[C->write().Array];
        if (U.FirstWriteItem < 0)
          U.FirstWriteItem = static_cast<int>(Item);
      }
    }
  }
}

/// Adds \p Delta to \p Counts[A] for every access (read or write) under
/// \p Node of an array A that \p Counts holds.
void tallyAccesses(const NodePtr &Node, std::map<std::string, int> &Counts,
                   int Delta) {
  if (Node->kind() == NodeKind::Loop) {
    for (const NodePtr &Child : static_cast<const Loop &>(*Node).body())
      tallyAccesses(Child, Counts, Delta);
    return;
  }
  const auto *C = dynCast<Computation>(Node);
  if (!C)
    return;
  auto Note = [&](const ArrayAccess &A) {
    auto It = Counts.find(A.Array);
    if (It != Counts.end())
      It->second += Delta;
  };
  Note(C->write());
  forEachRead(*C, Note);
}

/// What contraction's one walk learns about a transient.
struct TransientUses {
  /// Statements accessing the transient, in execution order, with their
  /// loop paths from the top level.
  std::vector<StmtInfo> Stmts;
  /// The loops enclosing every access, outermost first.
  std::vector<std::shared_ptr<Loop>> Common;
  /// Named by a CallNode, or accessed under an opaque loop.
  bool Rejected = false;
};

/// Records, for every transient in \p Uses, the statements under \p Node
/// that access it.
void scanTransientUses(const NodePtr &Node,
                       std::vector<std::shared_ptr<Loop>> &Path,
                       bool UnderOpaque,
                       std::map<std::string, TransientUses> &Uses,
                       int &Order) {
  if (const auto *Call = dynCast<CallNode>(Node)) {
    for (const std::string &Arg : Call->args()) {
      auto It = Uses.find(Arg);
      if (It != Uses.end())
        It->second.Rejected = true;
    }
    return;
  }
  if (Node->kind() == NodeKind::Computation) {
    auto Comp = std::static_pointer_cast<Computation>(Node);
    auto Note = [&](const std::string &Array) {
      auto It = Uses.find(Array);
      if (It == Uses.end())
        return;
      TransientUses &U = It->second;
      U.Rejected |= UnderOpaque;
      if (!U.Stmts.empty() && U.Stmts.back().Comp == Comp)
        return;
      U.Common = U.Stmts.empty() ? Path : commonLoops(U.Common, Path);
      U.Stmts.push_back(StmtInfo{Comp, Path, Order});
    };
    Note(Comp->write().Array);
    forEachRead(*Comp, [&](const ArrayAccess &R) { Note(R.Array); });
    ++Order;
    return;
  }
  auto L = std::static_pointer_cast<Loop>(Node);
  Path.push_back(L);
  for (const NodePtr &Child : L->body())
    scanTransientUses(Child, Path, UnderOpaque || L->isOpaque(), Uses,
                      Order);
  Path.pop_back();
}

/// The number of leading subscripts, at most \p Max, that are exactly
/// U.Common[d]'s iterator at every access of \p Array.
size_t loopIndexedDims(const std::string &Array, const TransientUses &U,
                       size_t Max) {
  size_t K = Max;
  for (const StmtInfo &S : U.Stmts) {
    auto Match = [&](const ArrayAccess &A) {
      if (A.Array != Array)
        return;
      size_t D = 0;
      for (; D < K && D < A.Indices.size(); ++D) {
        const std::string &It = U.Common[D]->iterator();
        const AffineExpr &Index = A.Indices[D];
        bool Exact = Index.constantTerm() == 0 && Index.terms().size() == 1 &&
                     Index.coefficient(It) == 1;
        // An inner loop rebinding the name hides C[d]'s iterator.
        bool Shadowed =
            std::any_of(S.Path.begin() + static_cast<std::ptrdiff_t>(D) + 1,
                        S.Path.end(), [&It](const std::shared_ptr<Loop> &L) {
                          return L->iterator() == It;
                        });
        if (!Exact || Shadowed)
          break;
      }
      K = D;
    };
    Match(S.Comp->write());
    forEachRead(*S.Comp, Match);
  }
  return K;
}

/// How many leading dimensions of \p Array contraction drops (0: none).
size_t contractibleDims(const std::string &Array, const TransientUses &U,
                        size_t Rank) {
  for (size_t K = loopIndexedDims(Array, U, std::min(U.Common.size(), Rank));
       K > 0; --K) {
    std::set<std::string> Fixed;
    bool Private = true;
    for (size_t D = 0; D < K && Private; ++D) {
      Fixed.insert(U.Common[D]->iterator());
      Private = isPrivatizableUnder(U.Stmts, D, Fixed, Array, K);
    }
    if (Private)
      return K;
  }
  return 0;
}

} // namespace

ContractionStats daisy::contractTransients(Program &Prog) {
  ContractionStats Stats;
  std::map<std::string, TransientUses> Uses;
  for (const ArrayDecl &Decl : Prog.arrays())
    if (Decl.Transient && !Decl.Shape.empty())
      Uses[Decl.Name];
  if (Uses.empty())
    return Stats;

  std::vector<std::shared_ptr<Loop>> Path;
  int Order = 0;
  for (const NodePtr &Top : Prog.topLevel())
    scanTransientUses(Top, Path, /*UnderOpaque=*/false, Uses, Order);

  std::map<std::string, size_t> Dropped;
  std::set<Computation *> Touched;
  for (const auto &[Name, U] : Uses) {
    if (U.Rejected || U.Stmts.empty())
      continue;
    size_t K = contractibleDims(Name, U, Prog.array(Name).Shape.size());
    if (K == 0)
      continue;
    Dropped[Name] = K;
    for (const StmtInfo &S : U.Stmts)
      Touched.insert(S.Comp.get());
  }

  auto Drop = [&Dropped](const ArrayAccess &A) -> std::optional<ArrayAccess> {
    auto It = Dropped.find(A.Array);
    if (It == Dropped.end())
      return std::nullopt;
    auto Kept = A.Indices.begin() + static_cast<std::ptrdiff_t>(It->second);
    return ArrayAccess{A.Array, {Kept, A.Indices.end()}};
  };
  for (Computation *C : Touched) {
    if (std::optional<ArrayAccess> Write = Drop(C->write()))
      C->setWrite(std::move(*Write));
    C->setRhs(rewriteReads(C->rhs(), Drop));
  }
  for (const auto &[Name, K] : Dropped) {
    const std::vector<int64_t> &Shape = Prog.array(Name).Shape;
    ++Stats.ArraysContracted;
    Stats.ElementsBefore += Prog.array(Name).elementCount();
    Prog.reshapeArray(Name, std::vector<int64_t>(
                                Shape.begin() + static_cast<std::ptrdiff_t>(K),
                                Shape.end()));
    Stats.ElementsAfter += Prog.array(Name).elementCount();
  }
  return Stats;
}

std::shared_ptr<Loop> daisy::expandScalars(const std::shared_ptr<Loop> &L,
                                           Program &Prog) {
  // A usable expansion index needs a constant-trip loop.
  bool BoundsConstant = true;
  for (const auto &[Name, C] : L->lower().terms())
    BoundsConstant &= Prog.params().count(Name) != 0;
  for (const auto &[Name, C] : L->upper().terms())
    BoundsConstant &= Prog.params().count(Name) != 0;
  if (!BoundsConstant)
    return L;
  int64_t Lo = L->lower().evaluate(Prog.params());
  int64_t Hi = L->upper().evaluate(Prog.params());
  if (Hi <= Lo)
    return L;

  std::map<std::string, ScalarUsage> Usage;
  scanScalarUses(L->body(), Usage);

  // Each candidate's accesses outside L: one walk of the program counts
  // them all, one walk of L takes L's own away.
  std::map<std::string, int> Outside;
  for (const auto &[Name, U] : Usage) {
    if (U.FirstWriteItem < 0 || U.FirstReadItem < 0)
      continue; // written-only or read-only: no cross-group glue
    if (U.InRecurrence)
      continue; // true scalar recurrence: expansion changes semantics
    if (U.FirstReadItem <= U.FirstWriteItem)
      continue; // reads may observe a previous iteration's value, or all
                // uses live in one item where fission cannot separate them
    const ArrayDecl *Decl = Prog.findArray(Name);
    if (!Decl || !Decl->Shape.empty())
      continue; // not a scalar
    if (!Decl->Transient)
      continue; // observable output: its final value must survive
    Outside[Name] = 0;
  }
  if (Outside.empty())
    return L;
  for (const NodePtr &Top : Prog.topLevel())
    tallyAccesses(Top, Outside, 1);
  tallyAccesses(L, Outside, -1);

  std::shared_ptr<Loop> Current = L;
  for (const auto &[Name, Count] : Outside) {
    if (Count != 0)
      continue; // accessed outside L: its value must survive the loop

    std::string Expanded = Prog.freshArrayName(Name + "_x");
    Prog.addArray(Expanded, {Hi - Lo}, /*Transient=*/true);
    AffineExpr Index = AffineExpr::var(L->iterator()) - Lo;
    NodePtr Rewritten = retargetArrayInNode(Current, Name, Expanded, {Index});
    Current = std::static_pointer_cast<Loop>(Rewritten);
  }
  return Current;
}

std::vector<NodePtr>
daisy::distributeLoop(Loop &L,
                      const std::vector<std::vector<size_t>> &Groups) {
  std::vector<NodePtr> Result;
  Result.reserve(Groups.size());
  for (const std::vector<size_t> &Group : Groups) {
    std::vector<NodePtr> Body;
    Body.reserve(Group.size());
    for (size_t Item : Group) {
      assert(Item < L.body().size() && L.body()[Item] &&
             "group index out of range or repeated");
      Body.push_back(std::move(L.body()[Item]));
    }
    auto Piece = std::make_shared<Loop>(L.iterator(), L.lower(), L.upper(),
                                        std::move(Body), L.step());
    Piece->setParallel(L.isParallel());
    Piece->setVectorized(L.isVectorized());
    Piece->setAtomicReduction(L.usesAtomicReduction());
    Piece->setOpaque(L.isOpaque());
    Result.push_back(std::move(Piece));
  }
  L.body().clear();
  return Result;
}
