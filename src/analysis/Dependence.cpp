//===- analysis/Dependence.cpp --------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dependence.h"

#include <cassert>
#include <map>
#include <numeric>

using namespace daisy;

bool Dependence::isLoopIndependent() const {
  for (DepDirection Dir : Directions)
    if (Dir != DepDirection::Eq)
      return false;
  return true;
}

int Dependence::carrierLevel() const {
  for (size_t I = 0; I < Directions.size(); ++I)
    if (Directions[I] == DepDirection::Lt)
      return static_cast<int>(I);
  return -1;
}

std::string Dependence::toString() const {
  std::string Result;
  switch (Kind) {
  case DepKind::Flow:
    Result = "flow ";
    break;
  case DepKind::Anti:
    Result = "anti ";
    break;
  case DepKind::Output:
    Result = "output ";
    break;
  }
  Result += Src->name() + " -> " + Dst->name() + " on " + Array + " [";
  for (size_t I = 0; I < Directions.size(); ++I) {
    if (I != 0)
      Result += ",";
    Result += Directions[I] == DepDirection::Eq
                  ? "="
                  : (Directions[I] == DepDirection::Lt ? "<" : ">");
  }
  return Result + "]";
}

namespace {

/// Accumulates Coefficient * Range into [Min, Max].
void accumulate(int64_t Coefficient, const IterRange &Range, int64_t &Min,
                int64_t &Max) {
  if (Coefficient >= 0) {
    Min += Coefficient * Range.Min;
    Max += Coefficient * Range.Max;
  } else {
    Min += Coefficient * Range.Max;
    Max += Coefficient * Range.Min;
  }
}

/// One access as dense integer rows: per subscript, one coefficient per
/// variable of its statement, with parameters folded into the constant.
struct PreparedAccess {
  const ArrayAccess *Access = nullptr;
  /// Dense id of the array within one analysis (-1 when unused).
  int ArrayId = -1;
  /// rank() x NumVars coefficients, row-major.
  std::vector<int64_t> Coeffs;
  /// One constant per subscript.
  std::vector<int64_t> Constants;

  size_t rank() const { return Constants.size(); }
};

/// A statement prepared once for all its pair tests. Its variables are the
/// distinct non-parameter names of its enclosing iterators and subscripts,
/// numbered by name: loops that shadow an iterator share its variable, and
/// a name bound outside the analyzed roots (an enclosing iterator of a
/// subtree analyzed alone) gets a variable that no loop bounds. In a pair
/// test the source statement's variables and the sink statement's are
/// distinct, so a variable is identified by (side, name).
struct PreparedStmt {
  const StmtInfo *Info = nullptr;
  /// Conservative iterator ranges, parallel to Info->Path.
  std::vector<IterRange> Ranges;
  /// The variable of each enclosing loop's iterator, parallel to Info->Path.
  std::vector<size_t> PathVar;
  size_t NumVars = 0;
  std::vector<PreparedAccess> Accesses;
};

PreparedStmt prepare(const StmtInfo &Info,
                     const std::vector<const ArrayAccess *> &Accesses,
                     const ValueEnv &Params) {
  PreparedStmt P;
  P.Info = &Info;
  P.Ranges = conservativeRanges(Info.Path, Params);

  std::vector<const std::string *> Names;
  auto VarOf = [&Names](const std::string &Name) {
    for (size_t V = 0; V < Names.size(); ++V)
      if (*Names[V] == Name)
        return V;
    Names.push_back(&Name);
    return Names.size() - 1;
  };
  for (const auto &L : Info.Path)
    P.PathVar.push_back(VarOf(L->iterator()));
  for (const ArrayAccess *Access : Accesses)
    for (const AffineExpr &Index : Access->Indices)
      for (const auto &[Name, Coefficient] : Index.terms())
        if (!Params.count(Name))
          VarOf(Name);
  P.NumVars = Names.size();

  for (const ArrayAccess *Access : Accesses) {
    PreparedAccess PA;
    PA.Access = Access;
    PA.Coeffs.assign(Access->Indices.size() * P.NumVars, 0);
    for (size_t Dim = 0; Dim < Access->Indices.size(); ++Dim) {
      const AffineExpr &Index = Access->Indices[Dim];
      int64_t Constant = Index.constantTerm();
      for (const auto &[Name, Coefficient] : Index.terms()) {
        auto ParamIt = Params.find(Name);
        if (ParamIt != Params.end())
          Constant += Coefficient * ParamIt->second;
        else
          PA.Coeffs[Dim * P.NumVars + VarOf(Name)] += Coefficient;
      }
      PA.Constants.push_back(Constant);
    }
    P.Accesses.push_back(std::move(PA));
  }
  return P;
}

/// What a statement pair (S, T) fixes for all its access pairs: the number
/// of common loops, and per side the range of each variable a loop below
/// them binds (the deepest such loop when iterators are shadowed).
struct PairFrame {
  size_t NumCommon = 0;
  std::vector<const IterRange *> SrcPrivate;
  std::vector<const IterRange *> SinkPrivate;

  void reset(const PreparedStmt &S, const PreparedStmt &T) {
    const auto &SPath = S.Info->Path;
    const auto &TPath = T.Info->Path;
    NumCommon = 0;
    while (NumCommon < SPath.size() && NumCommon < TPath.size() &&
           SPath[NumCommon] == TPath[NumCommon])
      ++NumCommon;
    bindPrivate(S, SrcPrivate);
    bindPrivate(T, SinkPrivate);
  }

private:
  void bindPrivate(const PreparedStmt &Stmt,
                   std::vector<const IterRange *> &Private) const {
    Private.assign(Stmt.NumVars, nullptr);
    for (size_t L = NumCommon; L < Stmt.PathVar.size(); ++L)
      Private[Stmt.PathVar[L]] = &Stmt.Ranges[L];
  }
};

/// Appends to \p Out every direction vector over the common loops of
/// \p Frame for which access \p A of \p S (source side) and access \p B of
/// \p T (sink side) may touch the same element. Each subscript gives one
/// equation sum(a_v * s_v) - sum(b_w * t_w) + c = 0; a vector is feasible
/// iff every equation passes the GCD test and Banerjee-style interval
/// bounds, where private variables span their range and common loops are
/// constrained by the vector's entry:
///   Eq: I_src = I_sink = I, I in Range.
///   Lt: I_src in Range, Delta in [1, span-1], I_sink = I_src + Delta.
///   Gt: I_sink in Range, Delta in [1, span-1], I_src = I_sink + Delta.
/// All 3^k vectors are tested; the parts of the test that do not depend on
/// the vector are evaluated once.
void feasibleVectors(const PreparedStmt &S, const PreparedAccess &A,
                     const PreparedStmt &T, const PreparedAccess &B,
                     const PairFrame &Frame,
                     std::vector<std::vector<DepDirection>> &Out) {
  assert(A.rank() == B.rank() && "pair test needs equal ranks");
  size_t NumCommon = Frame.NumCommon;
  for (size_t L = 0; L < NumCommon; ++L)
    if (S.Ranges[L].isEmpty())
      return;

  size_t Rank = A.rank();
  // Per equation: [Min, Max] of the constant plus private variables, then
  // (source, sink) coefficients per common loop.
  std::vector<int64_t> Base;
  std::vector<int64_t> Common;
  Base.reserve(2 * Rank);
  Common.reserve(2 * Rank * NumCommon);
  for (size_t Dim = 0; Dim < Rank; ++Dim) {
    const int64_t *ARow = A.Coeffs.data() + Dim * S.NumVars;
    const int64_t *BRow = B.Coeffs.data() + Dim * T.NumVars;
    int64_t Constant = A.Constants[Dim] - B.Constants[Dim];
    int64_t G = 0;
    for (size_t V = 0; V < S.NumVars; ++V)
      G = std::gcd(G, ARow[V] < 0 ? -ARow[V] : ARow[V]);
    for (size_t V = 0; V < T.NumVars; ++V)
      G = std::gcd(G, BRow[V] < 0 ? -BRow[V] : BRow[V]);
    if (G == 0 ? Constant != 0 : Constant % G != 0)
      return;
    int64_t Min = Constant;
    int64_t Max = Constant;
    for (size_t V = 0; V < S.NumVars; ++V) {
      if (ARow[V] == 0 || !Frame.SrcPrivate[V])
        continue;
      if (Frame.SrcPrivate[V]->isEmpty())
        return;
      accumulate(ARow[V], *Frame.SrcPrivate[V], Min, Max);
    }
    for (size_t V = 0; V < T.NumVars; ++V) {
      if (BRow[V] == 0 || !Frame.SinkPrivate[V])
        continue;
      if (Frame.SinkPrivate[V]->isEmpty())
        return;
      accumulate(-BRow[V], *Frame.SinkPrivate[V], Min, Max);
    }
    Base.push_back(Min);
    Base.push_back(Max);
    for (size_t L = 0; L < NumCommon; ++L) {
      Common.push_back(ARow[S.PathVar[L]]);
      Common.push_back(-BRow[T.PathVar[L]]);
    }
  }

  auto Feasible = [&](const std::vector<DepDirection> &Directions) {
    for (size_t L = 0; L < NumCommon; ++L)
      if (Directions[L] != DepDirection::Eq && S.Ranges[L].span() < 2)
        return false; // cannot have two distinct iterations
    for (size_t Dim = 0; Dim < Rank; ++Dim) {
      int64_t Min = Base[2 * Dim];
      int64_t Max = Base[2 * Dim + 1];
      const int64_t *Coeffs = Common.data() + 2 * Dim * NumCommon;
      for (size_t L = 0; L < NumCommon; ++L) {
        int64_t ASrc = Coeffs[2 * L];
        int64_t ASink = Coeffs[2 * L + 1];
        if (ASrc == 0 && ASink == 0)
          continue;
        const IterRange &R = S.Ranges[L];
        IterRange Delta{1, R.span() - 1};
        accumulate(ASrc + ASink, R, Min, Max);
        if (Directions[L] == DepDirection::Lt)
          accumulate(ASink, Delta, Min, Max);
        else if (Directions[L] == DepDirection::Gt)
          accumulate(ASrc, Delta, Min, Max);
      }
      if (Min > 0 || Max < 0)
        return false;
    }
    return true;
  };

  size_t Total = 1;
  for (size_t I = 0; I < NumCommon; ++I)
    Total *= 3;
  std::vector<DepDirection> Directions(NumCommon, DepDirection::Eq);
  for (size_t Code = 0; Code < Total; ++Code) {
    size_t Rest = Code;
    for (size_t I = 0; I < NumCommon; ++I) {
      static constexpr DepDirection Table[3] = {
          DepDirection::Eq, DepDirection::Lt, DepDirection::Gt};
      Directions[I] = Table[Rest % 3];
      Rest /= 3;
    }
    if (Feasible(Directions))
      Out.push_back(Directions);
  }
}

/// True if \p Directions is consistent with execution order for a source
/// statement that does (\p SrcFirst) or does not textually precede the
/// sink: lexicographically positive (the first non-Eq entry is Lt), or
/// all-Eq after a preceding source. Within one instance a computation
/// reads its operands before writing, so an all-Eq self-pair is no
/// dependence between instances.
bool followsExecutionOrder(const std::vector<DepDirection> &Directions,
                           bool SrcFirst) {
  for (DepDirection Dir : Directions) {
    if (Dir == DepDirection::Lt)
      return true;
    if (Dir == DepDirection::Gt)
      return false;
  }
  return SrcFirst;
}

} // namespace

std::vector<std::vector<DepDirection>>
daisy::feasibleDirectionVectors(const StmtInfo &S, const ArrayAccess &A,
                                const StmtInfo &T, const ArrayAccess &B,
                                const ValueEnv &Params) {
  std::vector<std::vector<DepDirection>> Result;
  if (A.Array != B.Array || A.Indices.size() != B.Indices.size())
    return Result;
  PreparedStmt PS = prepare(S, {&A}, Params);
  PreparedStmt PT = prepare(T, {&B}, Params);
  PairFrame Frame;
  Frame.reset(PS, PT);
  feasibleVectors(PS, PS.Accesses[0], PT, PT.Accesses[0], Frame, Result);
  return Result;
}

std::vector<Dependence>
daisy::computeDependences(const std::vector<NodePtr> &Roots,
                          const ValueEnv &Params,
                          const StmtPairFilter &Tested) {
  std::vector<Dependence> Result;
  std::vector<StmtInfo> Stmts = collectStatements(Roots);

  // Each statement's accesses (write first, then reads), rows and ranges,
  // gathered once for all pairs it takes part in.
  std::vector<AccessList> Lists(Stmts.size());
  std::vector<PreparedStmt> Prepared;
  Prepared.reserve(Stmts.size());
  std::map<std::string, int> ArrayIds;
  for (size_t I = 0; I < Stmts.size(); ++I) {
    Lists[I] = accessesOf(*Stmts[I].Comp);
    std::vector<const ArrayAccess *> Accesses{&Lists[I].Write};
    for (const ArrayAccess &R : Lists[I].Reads)
      Accesses.push_back(&R);
    Prepared.push_back(prepare(Stmts[I], Accesses, Params));
    for (PreparedAccess &PA : Prepared.back().Accesses) {
      int NextId = static_cast<int>(ArrayIds.size());
      PA.ArrayId = ArrayIds.emplace(PA.Access->Array, NextId).first->second;
    }
  }

  struct Pair {
    const PreparedAccess *A;
    const PreparedAccess *B;
    DepKind Kind;
  };
  std::vector<Pair> Pairs;
  PairFrame Frame;
  std::vector<std::vector<DepDirection>> Vectors;
  for (size_t SI = 0; SI < Stmts.size(); ++SI) {
    const StmtInfo &S = Stmts[SI];
    const PreparedStmt &PS = Prepared[SI];
    const PreparedAccess &SWrite = PS.Accesses.front();
    for (size_t TI = 0; TI < Stmts.size(); ++TI) {
      const StmtInfo &T = Stmts[TI];
      if (Tested && !Tested(S, T))
        continue;
      const PreparedStmt &PT = Prepared[TI];
      const PreparedAccess &TWrite = PT.Accesses.front();

      // The (source access, sink access, kind) pairs with at least one
      // write on the same array: write -> read (flow), read -> write
      // (anti), write -> write (output).
      Pairs.clear();
      for (size_t R = 1; R < PT.Accesses.size(); ++R)
        if (PT.Accesses[R].ArrayId == SWrite.ArrayId)
          Pairs.push_back({&SWrite, &PT.Accesses[R], DepKind::Flow});
      for (size_t R = 1; R < PS.Accesses.size(); ++R)
        if (PS.Accesses[R].ArrayId == TWrite.ArrayId)
          Pairs.push_back({&PS.Accesses[R], &TWrite, DepKind::Anti});
      if (SWrite.ArrayId == TWrite.ArrayId)
        Pairs.push_back({&SWrite, &TWrite, DepKind::Output});
      if (Pairs.empty())
        continue;

      Frame.reset(PS, PT);
      for (const Pair &P : Pairs) {
        if (P.A->rank() != P.B->rank())
          continue;
        Vectors.clear();
        feasibleVectors(PS, *P.A, PT, *P.B, Frame, Vectors);
        for (std::vector<DepDirection> &Directions : Vectors) {
          if (!followsExecutionOrder(Directions, S.Order < T.Order))
            continue;
          Dependence Dep;
          Dep.Src = S.Comp;
          Dep.Dst = T.Comp;
          Dep.Array = P.A->Access->Array;
          Dep.Kind = P.Kind;
          Dep.CommonLoops.assign(S.Path.begin(),
                                 S.Path.begin() + Frame.NumCommon);
          Dep.Directions = std::move(Directions);
          Result.push_back(std::move(Dep));
        }
      }
    }
  }
  return Result;
}

std::vector<Dependence>
daisy::computeDependences(const NodePtr &Root, const ValueEnv &Params,
                          const StmtPairFilter &Tested) {
  return computeDependences(std::vector<NodePtr>{Root}, Params, Tested);
}
