//===- ir/Expr.h - Value expression DAG --------------------------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scalar value expressions forming the right-hand side of computations.
///
/// A computation (paper §2: "a unit of work ... where exactly one of the
/// instructions is a write of a scalar value to a data container") evaluates
/// an Expr tree and stores the result. Expr nodes are immutable and shared;
/// array subscripts inside Read nodes are AffineExprs.
///
/// Besides plain arithmetic the node set includes the transcendental and
/// select operations needed to express CLOUDSC-style physics (FOEEWM-like
/// saturation formulas use exp/min/max/select).
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_IR_EXPR_H
#define DAISY_IR_EXPR_H

#include "ir/AffineExpr.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace daisy {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Discriminator for Expr nodes.
enum class ExprKind {
  Constant, ///< Floating-point literal.
  Read,     ///< Array element read with affine subscripts.
  Iter,     ///< Loop iterator used as a value.
  Param,    ///< Program parameter used as a value.
  Unary,    ///< Unary arithmetic.
  Binary,   ///< Binary arithmetic / comparison.
  Select    ///< Ternary select: Cond != 0 ? TrueValue : FalseValue.
};

/// Unary operation codes.
enum class UnaryOpKind { Neg, Exp, Log, Sqrt, Abs };

/// Binary operation codes. Comparisons yield 0.0 or 1.0.
enum class BinaryOpKind {
  Add, Sub, Mul, Div, Min, Max, Pow,
  Lt, Le, Gt, Ge, Eq
};

/// An array access: array name plus one affine subscript per dimension.
/// Scalars are modeled as zero-dimensional arrays (empty subscript vector).
struct ArrayAccess {
  std::string Array;
  std::vector<AffineExpr> Indices;

  bool operator==(const ArrayAccess &Other) const {
    return Array == Other.Array && Indices == Other.Indices;
  }

  std::string toString() const;
};

/// Immutable value-expression node.
class Expr {
public:
  ExprKind kind() const { return Kind; }

  // Constant
  double constantValue() const;
  // Read
  const ArrayAccess &access() const;
  // Iter / Param
  const std::string &name() const;
  // Unary
  UnaryOpKind unaryOp() const;
  // Binary
  BinaryOpKind binaryOp() const;
  // Operands (Unary: 1, Binary: 2, Select: 3 as cond/true/false).
  const std::vector<ExprPtr> &operands() const { return Operands; }

  /// Renders a C-like textual form.
  std::string toString() const;

  // Factories.
  static ExprPtr makeConstant(double Value);
  static ExprPtr makeRead(const std::string &Array,
                          std::vector<AffineExpr> Indices);
  static ExprPtr makeIter(const std::string &Name);
  static ExprPtr makeParam(const std::string &Name);
  static ExprPtr makeUnary(UnaryOpKind Op, ExprPtr Operand);
  static ExprPtr makeBinary(BinaryOpKind Op, ExprPtr Lhs, ExprPtr Rhs);
  static ExprPtr makeSelect(ExprPtr Cond, ExprPtr TrueValue,
                            ExprPtr FalseValue);

private:
  Expr() = default;

  ExprKind Kind = ExprKind::Constant;
  double Constant = 0.0;
  ArrayAccess Access;
  std::string Name;
  UnaryOpKind UnaryOp = UnaryOpKind::Neg;
  BinaryOpKind BinaryOp = BinaryOpKind::Add;
  std::vector<ExprPtr> Operands;
};

/// Invokes \p Visit on every node of \p Root in pre-order.
void visitExpr(const ExprPtr &Root,
               const std::function<void(const Expr &)> &Visit);

/// Collects every array access read by \p Root, in visit order.
std::vector<ArrayAccess> collectReads(const ExprPtr &Root);

/// Counts floating-point operations in \p Root (comparisons and selects
/// count as one operation each).
int64_t countFlops(const ExprPtr &Root);

/// Returns a copy of \p Root with iterator/affine variable \p OldName
/// replaced by the affine expression \p Replacement (in Read subscripts)
/// and Iter references renamed when \p Replacement is a plain variable.
ExprPtr substituteVar(const ExprPtr &Root, const std::string &OldName,
                      const AffineExpr &Replacement);

/// Returns \p Root with every Read rebuilt whose access \p Rewrite maps to
/// a new one: \p Rewrite takes a `const ArrayAccess &` and returns a
/// `std::optional<ArrayAccess>`, std::nullopt to keep the Read. Subtrees
/// without a rewritten Read are shared with \p Root, so an untouched
/// expression comes back as the same pointer. A template, so that the
/// per-Read callback inlines: frontends retarget every Read of a program
/// once per array they expand.
template <typename RewriteFn>
ExprPtr rewriteReads(const ExprPtr &Root, const RewriteFn &Rewrite) {
  if (!Root)
    return Root;
  switch (Root->kind()) {
  case ExprKind::Read: {
    std::optional<ArrayAccess> Access = Rewrite(Root->access());
    if (!Access)
      return Root;
    return Expr::makeRead(Access->Array, std::move(Access->Indices));
  }
  case ExprKind::Unary:
  case ExprKind::Binary:
  case ExprKind::Select: {
    bool Changed = false;
    std::vector<ExprPtr> NewOperands;
    NewOperands.reserve(Root->operands().size());
    for (const ExprPtr &Operand : Root->operands()) {
      ExprPtr NewOperand = rewriteReads(Operand, Rewrite);
      Changed |= NewOperand != Operand;
      NewOperands.push_back(std::move(NewOperand));
    }
    if (!Changed)
      return Root;
    if (Root->kind() == ExprKind::Unary)
      return Expr::makeUnary(Root->unaryOp(), NewOperands[0]);
    if (Root->kind() == ExprKind::Binary)
      return Expr::makeBinary(Root->binaryOp(), NewOperands[0],
                              NewOperands[1]);
    return Expr::makeSelect(NewOperands[0], NewOperands[1], NewOperands[2]);
  }
  default:
    return Root;
  }
}

/// Returns a copy of \p Root with array \p OldArray renamed to \p NewArray
/// and, when \p ExtraIndices is non-empty, the new subscripts prepended.
ExprPtr retargetArray(const ExprPtr &Root, const std::string &OldArray,
                      const std::string &NewArray,
                      const std::vector<AffineExpr> &ExtraIndices);

/// Structural equality of two expression trees (exact names).
bool exprEquals(const ExprPtr &Lhs, const ExprPtr &Rhs);

// Convenience builders used heavily by frontends and tests.
ExprPtr operator+(const ExprPtr &Lhs, const ExprPtr &Rhs);
ExprPtr operator-(const ExprPtr &Lhs, const ExprPtr &Rhs);
ExprPtr operator*(const ExprPtr &Lhs, const ExprPtr &Rhs);
ExprPtr operator/(const ExprPtr &Lhs, const ExprPtr &Rhs);

/// Shorthand for Expr::makeConstant.
ExprPtr lit(double Value);
/// Shorthand for Expr::makeRead.
ExprPtr read(const std::string &Array, std::vector<AffineExpr> Indices = {});
/// Shorthand for a min.
ExprPtr emin(ExprPtr Lhs, ExprPtr Rhs);
/// Shorthand for a max.
ExprPtr emax(ExprPtr Lhs, ExprPtr Rhs);
/// Shorthand for exp.
ExprPtr eexp(ExprPtr Operand);
/// Shorthand for sqrt.
ExprPtr esqrt(ExprPtr Operand);

} // namespace daisy

#endif // DAISY_IR_EXPR_H
