//===- analysis/Legality.cpp ----------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Legality.h"

#include "ir/Rewrite.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <tuple>

using namespace daisy;

std::vector<std::shared_ptr<Loop>>
daisy::perfectNestBand(const NodePtr &Root) {
  std::vector<std::shared_ptr<Loop>> Band;
  NodePtr Current = Root;
  while (auto L = std::dynamic_pointer_cast<Loop>(Current)) {
    Band.push_back(L);
    if (L->body().size() != 1)
      break;
    Current = L->body()[0];
  }
  return Band;
}

bool daisy::isPermutationLegal(const NodePtr &Root,
                               const std::vector<std::string> &NewOrder,
                               const ValueEnv &Params) {
  return isPermutationLegal(Root, NewOrder, computeDependences(Root, Params));
}

bool daisy::isPermutationLegal(const NodePtr &Root,
                               const std::vector<std::string> &NewOrder,
                               const std::vector<Dependence> &Deps) {
  std::vector<std::shared_ptr<Loop>> Band = perfectNestBand(Root);
  assert(NewOrder.size() == Band.size() &&
         "permutation must cover the full band");

  // A permutation is illegal outright if it would hoist a loop above one
  // whose bounds it defines (triangular nests).
  std::map<std::string, size_t> NewPosition;
  for (size_t I = 0; I < NewOrder.size(); ++I)
    NewPosition[NewOrder[I]] = I;
  for (size_t I = 0; I < Band.size(); ++I) {
    const auto &L = Band[I];
    auto CheckBound = [&](const AffineExpr &Bound) {
      for (const auto &[Name, Coefficient] : Bound.terms()) {
        auto It = NewPosition.find(Name);
        if (It == NewPosition.end())
          continue; // parameter
        if (It->second >= NewPosition.at(L->iterator()))
          return false; // bound variable no longer enclosing
      }
      return true;
    };
    if (!CheckBound(L->lower()) || !CheckBound(L->upper()))
      return false;
  }

  // Map band loop pointer -> the level its iterator takes after permuting.
  std::map<const Loop *, size_t> NewLevel;
  for (const auto &L : Band)
    NewLevel[L.get()] = NewPosition.at(L->iterator());

  std::vector<StmtInfo> Stmts = collectStatements(Root);
  std::map<const Computation *, int> Order;
  for (const StmtInfo &S : Stmts)
    Order[S.Comp.get()] = S.Order;

  for (const Dependence &Dep : Deps) {
    // Permute the direction entries of band loops; entries of deeper
    // (non-band) common loops keep their relative order after the band.
    std::vector<DepDirection> Permuted(Dep.Directions.size(),
                                       DepDirection::Eq);
    size_t BandCount = 0;
    for (size_t I = 0; I < Dep.CommonLoops.size(); ++I)
      if (NewLevel.count(Dep.CommonLoops[I].get()))
        ++BandCount;
    size_t NonBandNext = BandCount;
    for (size_t I = 0; I < Dep.CommonLoops.size(); ++I) {
      auto It = NewLevel.find(Dep.CommonLoops[I].get());
      if (It != NewLevel.end()) {
        assert(It->second < Permuted.size());
        Permuted[It->second] = Dep.Directions[I];
      } else {
        Permuted[NonBandNext++] = Dep.Directions[I];
      }
    }
    // The permuted vector must stay consistent with execution order.
    bool AllEq = true;
    bool Positive = false;
    for (DepDirection Dir : Permuted) {
      if (Dir == DepDirection::Lt) {
        Positive = true;
        AllEq = false;
        break;
      }
      if (Dir == DepDirection::Gt) {
        AllEq = false;
        break;
      }
    }
    if (Positive)
      continue;
    if (AllEq && Order.at(Dep.Src.get()) <= Order.at(Dep.Dst.get()))
      continue;
    return false;
  }
  return true;
}

namespace {

/// Value signature of the loops enclosing a statement strictly below the
/// carrier: two statements with equal signatures run under the same
/// iteration space in every carrier iteration.
using LoopContext = std::vector<std::tuple<std::string, AffineExpr,
                                           AffineExpr, int64_t>>;

LoopContext belowCarrierContext(const StmtInfo &S, size_t CarrierDepth) {
  LoopContext Ctx;
  for (size_t I = CarrierDepth + 1; I < S.Path.size(); ++I) {
    const auto &L = S.Path[I];
    Ctx.emplace_back(L->iterator(), L->lower(), L->upper(), L->step());
  }
  return Ctx;
}

} // namespace

bool daisy::isPrivatizableUnder(const std::vector<StmtInfo> &Stmts,
                                size_t CarrierDepth,
                                const std::set<std::string> &FixedIters,
                                const std::string &Array,
                                size_t IgnoredSubscripts) {
  auto MentionsFixed = [&](const AffineExpr &Expr) {
    for (const auto &[Name, Coeff] : Expr.terms())
      if (FixedIters.count(Name))
        return true;
    return false;
  };
  auto SubscriptsOk = [&](const ArrayAccess &A) {
    for (size_t D = IgnoredSubscripts; D < A.Indices.size(); ++D)
      if (MentionsFixed(A.Indices[D]))
        return false;
    return true;
  };
  auto SameSubscripts = [&](const ArrayAccess &A, const ArrayAccess &B) {
    return std::equal(A.Indices.begin() + IgnoredSubscripts, A.Indices.end(),
                      B.Indices.begin() + IgnoredSubscripts, B.Indices.end());
  };

  // One write per (access, context) form seen so far, in order.
  std::vector<std::pair<const ArrayAccess *, LoopContext>> Defined;
  std::vector<const ArrayAccess *> Reads;
  for (const StmtInfo &S : Stmts) {
    const ArrayAccess &Write = S.Comp->write();
    bool Writes = Write.Array == Array;
    Reads.clear();
    visitExpr(S.Comp->rhs(), [&](const Expr &Node) {
      if (Node.kind() == ExprKind::Read && Node.access().Array == Array)
        Reads.push_back(&Node.access());
    });
    if (!Writes && Reads.empty())
      continue;

    // Subscripts and the below-carrier iteration space must be identical
    // across carrier iterations.
    LoopContext Ctx = belowCarrierContext(S, CarrierDepth);
    for (const auto &[It, Lower, Upper, Step] : Ctx)
      if (MentionsFixed(Lower) || MentionsFixed(Upper))
        return false;
    if (Writes && !SubscriptsOk(Write))
      return false;
    for (const ArrayAccess *R : Reads)
      if (!SubscriptsOk(*R))
        return false;

    // Define-before-use: every read must repeat the subscripts and context
    // of an earlier write (a computation reads its operands before
    // writing, so its own write does not count).
    for (const ArrayAccess *R : Reads) {
      auto Earlier = [&](const auto &Def) {
        return Def.second == Ctx && SameSubscripts(*Def.first, *R);
      };
      if (std::none_of(Defined.begin(), Defined.end(), Earlier))
        return false;
    }
    if (Writes)
      Defined.emplace_back(&Write, std::move(Ctx));
  }
  return !Defined.empty();
}

std::set<std::string> daisy::privatizableArraysUnder(
    const NodePtr &Carrier, const std::vector<std::string> &EnclosingIters,
    const Program &Prog) {
  const auto *CarrierLoop = dynCast<Loop>(Carrier);
  assert(CarrierLoop && "privatization carrier must be a loop");

  std::set<std::string> Fixed(EnclosingIters.begin(), EnclosingIters.end());
  Fixed.insert(CarrierLoop->iterator());
  std::vector<StmtInfo> Stmts = collectStatements(Carrier);
  std::set<std::string> Candidates;
  for (const StmtInfo &S : Stmts) {
    const ArrayDecl *Decl = Prog.findArray(S.Comp->write().Array);
    if (Decl && Decl->Transient)
      Candidates.insert(Decl->Name);
  }

  std::set<std::string> Result;
  for (const std::string &Array : Candidates)
    if (isPrivatizableUnder(Stmts, /*CarrierDepth=*/0, Fixed, Array))
      Result.insert(Array);
  return Result;
}

std::set<const Loop *> daisy::parallelizableLoops(const NodePtr &Root,
                                                  const ValueEnv &Params,
                                                  const Program *Prog) {
  return parallelizableLoops(Root, computeDependences(Root, Params), Prog);
}

std::set<const Loop *>
daisy::parallelizableLoops(const NodePtr &Root,
                           const std::vector<Dependence> &Deps,
                           const Program *Prog) {
  // Privatizable sets are per carrier loop; compute them lazily, once.
  std::map<const Loop *, std::set<std::string>> PrivCache;
  auto Privatizable = [&](const Dependence &Dep, size_t Level) {
    const Loop *Carrier = Dep.CommonLoops[Level].get();
    auto It = PrivCache.find(Carrier);
    if (It == PrivCache.end()) {
      std::vector<std::string> Enclosing;
      for (size_t I = 0; I < Level; ++I)
        Enclosing.push_back(Dep.CommonLoops[I]->iterator());
      It = PrivCache
               .emplace(Carrier, privatizableArraysUnder(
                                     Dep.CommonLoops[Level], Enclosing,
                                     *Prog))
               .first;
    }
    return It->second.count(Dep.Array) != 0;
  };

  std::set<const Loop *> Carriers;
  for (const Dependence &Dep : Deps) {
    int Level = Dep.carrierLevel();
    if (Level < 0)
      continue;
    if (Prog && Privatizable(Dep, static_cast<size_t>(Level)))
      continue;
    Carriers.insert(Dep.CommonLoops[static_cast<size_t>(Level)].get());
  }
  std::set<const Loop *> Result;
  for (const auto &L : collectLoops(Root))
    if (!Carriers.count(L.get()))
      Result.insert(L.get());
  return Result;
}

/// Matches `target = target op expr` reductions with an associative op.
static bool isAssociativeUpdate(const Computation &Comp) {
  const ExprPtr &Rhs = Comp.rhs();
  if (Rhs->kind() != ExprKind::Binary)
    return false;
  switch (Rhs->binaryOp()) {
  case BinaryOpKind::Add:
  case BinaryOpKind::Mul:
  case BinaryOpKind::Min:
  case BinaryOpKind::Max:
    break;
  default:
    return false;
  }
  for (const ExprPtr &Operand : Rhs->operands())
    if (Operand->kind() == ExprKind::Read &&
        Operand->access() == Comp.write())
      return true;
  return false;
}

bool daisy::isReductionLoop(const NodePtr &Root, const Loop *Target,
                            const ValueEnv &Params) {
  return isReductionLoop(computeDependences(Root, Params), Target);
}

bool daisy::isReductionLoop(const std::vector<Dependence> &Deps,
                            const Loop *Target) {
  bool CarriesAny = false;
  for (const Dependence &Dep : Deps) {
    int Level = Dep.carrierLevel();
    if (Level < 0 ||
        Dep.CommonLoops[static_cast<size_t>(Level)].get() != Target)
      continue;
    CarriesAny = true;
    if (Dep.Src != Dep.Dst || !isAssociativeUpdate(*Dep.Src))
      return false;
  }
  return CarriesAny;
}

std::vector<std::vector<size_t>>
daisy::distributionGroups(const Loop &L, const ValueEnv &Params) {
  const std::vector<NodePtr> &Body = L.body();
  size_t N = Body.size();
  if (N == 1)
    return {{0}};

  // Map each computation to the body item containing it.
  std::map<const Computation *, size_t> Item;
  for (size_t I = 0; I < N; ++I)
    for (const auto &C : collectComputations(Body[I]))
      Item[C.get()] = I;

  // Dependence graph over body items. A shell loop sharing the original
  // body nodes keeps computation pointers valid for the Item map. Only
  // statement pairs in different items can add an edge, so only those are
  // tested; the filter reads each statement's item by its order.
  auto Shell = std::make_shared<Loop>(L.iterator(), L.lower(), L.upper(),
                                      Body, L.step());
  std::vector<int> ItemOf;
  for (const StmtInfo &S : collectStatements(Shell)) {
    auto It = Item.find(S.Comp.get());
    ItemOf.push_back(It == Item.end() ? -1 : static_cast<int>(It->second));
  }
  auto InDifferentItems = [&ItemOf](const StmtInfo &S, const StmtInfo &T) {
    int SrcItem = ItemOf[static_cast<size_t>(S.Order)];
    int DstItem = ItemOf[static_cast<size_t>(T.Order)];
    return SrcItem >= 0 && DstItem >= 0 && SrcItem != DstItem;
  };
  std::vector<std::set<size_t>> Succ(N);
  for (const Dependence &Dep :
       computeDependences(Shell, Params, InDifferentItems))
    Succ[Item.at(Dep.Src.get())].insert(Item.at(Dep.Dst.get()));

  // Tarjan SCC over body items.
  std::vector<int> Index(N, -1), Low(N, 0), CompOf(N, -1);
  std::vector<bool> OnStack(N, false);
  std::vector<size_t> Stack;
  int NextIndex = 0, NextComp = 0;
  std::function<void(size_t)> StrongConnect = [&](size_t V) {
    Index[V] = Low[V] = NextIndex++;
    Stack.push_back(V);
    OnStack[V] = true;
    for (size_t W : Succ[V]) {
      if (Index[W] < 0) {
        StrongConnect(W);
        Low[V] = std::min(Low[V], Low[W]);
      } else if (OnStack[W]) {
        Low[V] = std::min(Low[V], Index[W]);
      }
    }
    if (Low[V] == Index[V]) {
      for (;;) {
        size_t W = Stack.back();
        Stack.pop_back();
        OnStack[W] = false;
        CompOf[W] = NextComp;
        if (W == V)
          break;
      }
      ++NextComp;
    }
  };
  for (size_t V = 0; V < N; ++V)
    if (Index[V] < 0)
      StrongConnect(V);

  // Group items by SCC.
  std::vector<std::vector<size_t>> Groups(static_cast<size_t>(NextComp));
  for (size_t V = 0; V < N; ++V)
    Groups[static_cast<size_t>(CompOf[V])].push_back(V);

  // Execution order of groups: topological w.r.t. inter-group edges,
  // breaking ties by minimal original body index (stable).
  std::vector<std::set<size_t>> GroupSucc(Groups.size());
  std::vector<size_t> InDegree(Groups.size(), 0);
  for (size_t V = 0; V < N; ++V)
    for (size_t W : Succ[V]) {
      size_t GV = static_cast<size_t>(CompOf[V]);
      size_t GW = static_cast<size_t>(CompOf[W]);
      if (GV != GW && GroupSucc[GV].insert(GW).second)
        ++InDegree[GW];
    }
  std::vector<size_t> Ready;
  for (size_t G = 0; G < Groups.size(); ++G)
    if (InDegree[G] == 0)
      Ready.push_back(G);
  auto MinItem = [&Groups](size_t G) { return Groups[G].front(); };
  std::vector<std::vector<size_t>> Ordered;
  while (!Ready.empty()) {
    auto Best = std::min_element(
        Ready.begin(), Ready.end(),
        [&](size_t A, size_t B) { return MinItem(A) < MinItem(B); });
    size_t G = *Best;
    Ready.erase(Best);
    Ordered.push_back(Groups[G]);
    for (size_t W : GroupSucc[G])
      if (--InDegree[W] == 0)
        Ready.push_back(W);
  }
  assert(Ordered.size() == Groups.size() && "dependence graph had a cycle "
                                            "between groups");
  return Ordered;
}

bool daisy::canFuseLoops(const std::shared_ptr<Loop> &First,
                         const std::shared_ptr<Loop> &Second,
                         const ValueEnv &Params) {
  if (First->step() != Second->step())
    return false;
  // Bounds must match once Second's iterator is renamed to First's.
  AffineExpr Lower =
      Second->lower().renamed(Second->iterator(), First->iterator());
  AffineExpr Upper =
      Second->upper().renamed(Second->iterator(), First->iterator());
  if (!(Lower == First->lower()) || !(Upper == First->upper()))
    return false;

  // Build the candidate fused loop.
  std::vector<NodePtr> FusedBody = cloneBody(First->body());
  size_t FirstBodySize = FusedBody.size();
  for (const NodePtr &Child : Second->body())
    FusedBody.push_back(
        renameIterator(Child, Second->iterator(), First->iterator()));
  auto Fused = std::make_shared<Loop>(First->iterator(), First->lower(),
                                      First->upper(), std::move(FusedBody),
                                      First->step());

  // Identify which fused statements came from the first body.
  std::vector<StmtInfo> Stmts = collectStatements(Fused);
  std::map<const Computation *, bool> FromFirst;
  for (size_t I = 0; I < Fused->body().size(); ++I)
    for (const auto &C : collectComputations(Fused->body()[I]))
      FromFirst[C.get()] = I < FirstBodySize;

  // Fusion is illegal iff some access pair between a first-body statement
  // and a second-body statement (one of them a write) may alias with the
  // first-body instance at a strictly later fused iteration: in the
  // original program every First instance ran before every Second
  // instance, and fusion would reverse that pair.
  for (const StmtInfo &S : Stmts) {
    if (!FromFirst.at(S.Comp.get()))
      continue;
    AccessList SAcc = accessesOf(*S.Comp);
    for (const StmtInfo &T : Stmts) {
      if (FromFirst.at(T.Comp.get()))
        continue;
      AccessList TAcc = accessesOf(*T.Comp);
      std::vector<std::pair<const ArrayAccess *, const ArrayAccess *>> Pairs;
      for (const ArrayAccess &R : TAcc.Reads)
        if (R.Array == SAcc.Write.Array)
          Pairs.push_back({&SAcc.Write, &R});
      for (const ArrayAccess &R : SAcc.Reads)
        if (R.Array == TAcc.Write.Array)
          Pairs.push_back({&R, &TAcc.Write});
      if (SAcc.Write.Array == TAcc.Write.Array)
        Pairs.push_back({&SAcc.Write, &TAcc.Write});
      for (const auto &[A, B] : Pairs) {
        for (const auto &Directions :
             feasibleDirectionVectors(S, *A, T, *B, Params)) {
          // Only the fused (outermost common) level matters; deeper
          // common loops cannot exist across the two original bodies.
          if (!Directions.empty() && Directions[0] == DepDirection::Gt)
            return false;
        }
      }
    }
  }
  return true;
}
