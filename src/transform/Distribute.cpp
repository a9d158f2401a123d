//===- transform/Distribute.cpp -------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "transform/Distribute.h"

#include "ir/Rewrite.h"

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

/// Number of accesses (reads + writes) to array \p Name under \p Root.
int countAccesses(const NodePtr &Root, const std::string &Name) {
  int Count = 0;
  for (const auto &C : collectComputations(Root)) {
    if (C->write().Array == Name)
      ++Count;
    forEachRead(*C, [&](const ArrayAccess &R) { Count += R.Array == Name; });
  }
  return Count;
}

/// True if the scalar \p Name is accessed outside \p Inside within
/// \p Prog. Comparison is count-based because transformation passes work
/// on clones whose computations are distinct objects from the program's:
/// if the program contains exactly as many accesses as \p Inside, all of
/// them are the loop's own.
bool scalarEscapes(const Program &Prog, const NodePtr &Inside,
                   const std::string &Name) {
  int ProgramAccesses = 0;
  for (const NodePtr &Top : Prog.topLevel())
    ProgramAccesses += countAccesses(Top, Name);
  return ProgramAccesses != countAccesses(Inside, Name);
}

} // namespace

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

  std::shared_ptr<Loop> Current = L;
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
    if (scalarEscapes(Prog, Current, Name))
      continue;

    std::string Expanded = Prog.freshArrayName(Name + "_x");
    Prog.addArray(Expanded, {Hi - Lo}, /*Transient=*/true);
    AffineExpr Index = AffineExpr::var(L->iterator()) - Lo;
    NodePtr Rewritten = retargetArrayInNode(Current, Name, Expanded, {Index});
    Current = std::static_pointer_cast<Loop>(Rewritten);
  }
  return Current;
}

std::vector<NodePtr>
daisy::distributeLoop(const std::shared_ptr<Loop> &L,
                      const std::vector<std::vector<size_t>> &Groups) {
  std::vector<NodePtr> Result;
  Result.reserve(Groups.size());
  for (const std::vector<size_t> &Group : Groups) {
    std::vector<NodePtr> Body;
    Body.reserve(Group.size());
    for (size_t Item : Group) {
      assert(Item < L->body().size() && "group index out of range");
      Body.push_back(L->body()[Item]->clone());
    }
    auto Copy = std::make_shared<Loop>(L->iterator(), L->lower(), L->upper(),
                                       std::move(Body), L->step());
    Copy->setParallel(L->isParallel());
    Copy->setVectorized(L->isVectorized());
    Copy->setAtomicReduction(L->usesAtomicReduction());
    Copy->setOpaque(L->isOpaque());
    Result.push_back(Copy);
  }
  return Result;
}
