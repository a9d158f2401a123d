//===- ir/Expr.cpp --------------------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Expr.h"

#include <cassert>

using namespace daisy;

std::string ArrayAccess::toString() const {
  std::string Result = Array;
  for (const AffineExpr &Index : Indices)
    Result += "[" + Index.toString() + "]";
  return Result;
}

double Expr::constantValue() const {
  assert(Kind == ExprKind::Constant && "not a constant");
  return Constant;
}

const ArrayAccess &Expr::access() const {
  assert(Kind == ExprKind::Read && "not a read");
  return Access;
}

const std::string &Expr::name() const {
  assert((Kind == ExprKind::Iter || Kind == ExprKind::Param) &&
         "not a named reference");
  return Name;
}

UnaryOpKind Expr::unaryOp() const {
  assert(Kind == ExprKind::Unary && "not a unary op");
  return UnaryOp;
}

BinaryOpKind Expr::binaryOp() const {
  assert(Kind == ExprKind::Binary && "not a binary op");
  return BinaryOp;
}

ExprPtr Expr::makeConstant(double Value) {
  auto Node = std::shared_ptr<Expr>(new Expr());
  Node->Kind = ExprKind::Constant;
  Node->Constant = Value;
  return Node;
}

ExprPtr Expr::makeRead(const std::string &Array,
                       std::vector<AffineExpr> Indices) {
  auto Node = std::shared_ptr<Expr>(new Expr());
  Node->Kind = ExprKind::Read;
  Node->Access.Array = Array;
  Node->Access.Indices = std::move(Indices);
  return Node;
}

ExprPtr Expr::makeIter(const std::string &Name) {
  auto Node = std::shared_ptr<Expr>(new Expr());
  Node->Kind = ExprKind::Iter;
  Node->Name = Name;
  return Node;
}

ExprPtr Expr::makeParam(const std::string &Name) {
  auto Node = std::shared_ptr<Expr>(new Expr());
  Node->Kind = ExprKind::Param;
  Node->Name = Name;
  return Node;
}

ExprPtr Expr::makeUnary(UnaryOpKind Op, ExprPtr Operand) {
  assert(Operand && "null operand");
  auto Node = std::shared_ptr<Expr>(new Expr());
  Node->Kind = ExprKind::Unary;
  Node->UnaryOp = Op;
  Node->Operands.push_back(std::move(Operand));
  return Node;
}

ExprPtr Expr::makeBinary(BinaryOpKind Op, ExprPtr Lhs, ExprPtr Rhs) {
  assert(Lhs && Rhs && "null operand");
  auto Node = std::shared_ptr<Expr>(new Expr());
  Node->Kind = ExprKind::Binary;
  Node->BinaryOp = Op;
  Node->Operands.push_back(std::move(Lhs));
  Node->Operands.push_back(std::move(Rhs));
  return Node;
}

ExprPtr Expr::makeSelect(ExprPtr Cond, ExprPtr TrueValue,
                         ExprPtr FalseValue) {
  assert(Cond && TrueValue && FalseValue && "null operand");
  auto Node = std::shared_ptr<Expr>(new Expr());
  Node->Kind = ExprKind::Select;
  Node->Operands.push_back(std::move(Cond));
  Node->Operands.push_back(std::move(TrueValue));
  Node->Operands.push_back(std::move(FalseValue));
  return Node;
}

static const char *unaryOpName(UnaryOpKind Op) {
  switch (Op) {
  case UnaryOpKind::Neg:
    return "-";
  case UnaryOpKind::Exp:
    return "exp";
  case UnaryOpKind::Log:
    return "log";
  case UnaryOpKind::Sqrt:
    return "sqrt";
  case UnaryOpKind::Abs:
    return "fabs";
  }
  return "?";
}

static const char *binaryOpName(BinaryOpKind Op) {
  switch (Op) {
  case BinaryOpKind::Add:
    return "+";
  case BinaryOpKind::Sub:
    return "-";
  case BinaryOpKind::Mul:
    return "*";
  case BinaryOpKind::Div:
    return "/";
  case BinaryOpKind::Min:
    return "min";
  case BinaryOpKind::Max:
    return "max";
  case BinaryOpKind::Pow:
    return "pow";
  case BinaryOpKind::Lt:
    return "<";
  case BinaryOpKind::Le:
    return "<=";
  case BinaryOpKind::Gt:
    return ">";
  case BinaryOpKind::Ge:
    return ">=";
  case BinaryOpKind::Eq:
    return "==";
  }
  return "?";
}

std::string Expr::toString() const {
  switch (Kind) {
  case ExprKind::Constant: {
    std::string Text = std::to_string(Constant);
    // Trim trailing zeros for readability.
    while (Text.size() > 1 && Text.back() == '0')
      Text.pop_back();
    if (!Text.empty() && Text.back() == '.')
      Text += "0";
    return Text;
  }
  case ExprKind::Read:
    return Access.toString();
  case ExprKind::Iter:
  case ExprKind::Param:
    return Name;
  case ExprKind::Unary:
    if (UnaryOp == UnaryOpKind::Neg)
      return "(-" + Operands[0]->toString() + ")";
    return std::string(unaryOpName(UnaryOp)) + "(" +
           Operands[0]->toString() + ")";
  case ExprKind::Binary: {
    const char *OpName = binaryOpName(BinaryOp);
    switch (BinaryOp) {
    case BinaryOpKind::Min:
    case BinaryOpKind::Max:
    case BinaryOpKind::Pow:
      return std::string(OpName) + "(" + Operands[0]->toString() + ", " +
             Operands[1]->toString() + ")";
    default:
      return "(" + Operands[0]->toString() + " " + OpName + " " +
             Operands[1]->toString() + ")";
    }
  }
  case ExprKind::Select:
    return "(" + Operands[0]->toString() + " ? " + Operands[1]->toString() +
           " : " + Operands[2]->toString() + ")";
  }
  return "?";
}

void daisy::visitExpr(const ExprPtr &Root,
                      const std::function<void(const Expr &)> &Visit) {
  if (!Root)
    return;
  Visit(*Root);
  for (const ExprPtr &Operand : Root->operands())
    visitExpr(Operand, Visit);
}

std::vector<ArrayAccess> daisy::collectReads(const ExprPtr &Root) {
  std::vector<ArrayAccess> Reads;
  visitExpr(Root, [&Reads](const Expr &Node) {
    if (Node.kind() == ExprKind::Read)
      Reads.push_back(Node.access());
  });
  return Reads;
}

int64_t daisy::countFlops(const ExprPtr &Root) {
  int64_t Flops = 0;
  visitExpr(Root, [&Flops](const Expr &Node) {
    switch (Node.kind()) {
    case ExprKind::Unary:
    case ExprKind::Binary:
    case ExprKind::Select:
      ++Flops;
      break;
    default:
      break;
    }
  });
  return Flops;
}

ExprPtr daisy::substituteVar(const ExprPtr &Root, const std::string &OldName,
                             const AffineExpr &Replacement) {
  if (!Root)
    return Root;
  switch (Root->kind()) {
  case ExprKind::Constant:
  case ExprKind::Param:
    return Root;
  case ExprKind::Iter: {
    if (Root->name() != OldName)
      return Root;
    // An iterator used as a value can only be renamed to another single
    // variable or turned into the matching affine combination of reads of
    // iterators; we support single-variable and var+const replacements.
    if (Replacement.terms().size() == 1 &&
        Replacement.constantTerm() == 0 &&
        Replacement.terms().begin()->second == 1)
      return Expr::makeIter(Replacement.terms().begin()->first);
    if (Replacement.isConstant())
      return Expr::makeConstant(
          static_cast<double>(Replacement.constantTerm()));
    // General case: build an arithmetic expression from the affine form.
    ExprPtr Result =
        Expr::makeConstant(static_cast<double>(Replacement.constantTerm()));
    for (const auto &[Name, Coefficient] : Replacement.terms()) {
      ExprPtr Term = Expr::makeIter(Name);
      if (Coefficient != 1)
        Term = Expr::makeBinary(
            BinaryOpKind::Mul,
            Expr::makeConstant(static_cast<double>(Coefficient)), Term);
      Result = Expr::makeBinary(BinaryOpKind::Add, Result, Term);
    }
    return Result;
  }
  case ExprKind::Read: {
    const ArrayAccess &Access = Root->access();
    bool Changed = false;
    std::vector<AffineExpr> NewIndices;
    NewIndices.reserve(Access.Indices.size());
    for (const AffineExpr &Index : Access.Indices) {
      AffineExpr NewIndex = Index.substituted(OldName, Replacement);
      Changed |= NewIndex != Index;
      NewIndices.push_back(std::move(NewIndex));
    }
    if (!Changed)
      return Root;
    return Expr::makeRead(Access.Array, std::move(NewIndices));
  }
  case ExprKind::Unary:
  case ExprKind::Binary:
  case ExprKind::Select: {
    bool Changed = false;
    std::vector<ExprPtr> NewOperands;
    NewOperands.reserve(Root->operands().size());
    for (const ExprPtr &Operand : Root->operands()) {
      ExprPtr NewOperand = substituteVar(Operand, OldName, Replacement);
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
  }
  return Root;
}

ExprPtr daisy::retargetArray(const ExprPtr &Root, const std::string &OldArray,
                             const std::string &NewArray,
                             const std::vector<AffineExpr> &ExtraIndices) {
  return rewriteReads(
      Root, [&](const ArrayAccess &Access) -> std::optional<ArrayAccess> {
        if (Access.Array != OldArray)
          return std::nullopt;
        ArrayAccess Retargeted{NewArray, ExtraIndices};
        Retargeted.Indices.insert(Retargeted.Indices.end(),
                                  Access.Indices.begin(),
                                  Access.Indices.end());
        return Retargeted;
      });
}

bool daisy::exprEquals(const ExprPtr &Lhs, const ExprPtr &Rhs) {
  if (Lhs == Rhs)
    return true;
  if (!Lhs || !Rhs)
    return false;
  if (Lhs->kind() != Rhs->kind())
    return false;
  switch (Lhs->kind()) {
  case ExprKind::Constant:
    return Lhs->constantValue() == Rhs->constantValue();
  case ExprKind::Read:
    return Lhs->access() == Rhs->access();
  case ExprKind::Iter:
  case ExprKind::Param:
    return Lhs->name() == Rhs->name();
  case ExprKind::Unary:
    if (Lhs->unaryOp() != Rhs->unaryOp())
      return false;
    break;
  case ExprKind::Binary:
    if (Lhs->binaryOp() != Rhs->binaryOp())
      return false;
    break;
  case ExprKind::Select:
    break;
  }
  const auto &LhsOps = Lhs->operands();
  const auto &RhsOps = Rhs->operands();
  if (LhsOps.size() != RhsOps.size())
    return false;
  for (size_t I = 0; I < LhsOps.size(); ++I)
    if (!exprEquals(LhsOps[I], RhsOps[I]))
      return false;
  return true;
}

ExprPtr daisy::operator+(const ExprPtr &Lhs, const ExprPtr &Rhs) {
  return Expr::makeBinary(BinaryOpKind::Add, Lhs, Rhs);
}

ExprPtr daisy::operator-(const ExprPtr &Lhs, const ExprPtr &Rhs) {
  return Expr::makeBinary(BinaryOpKind::Sub, Lhs, Rhs);
}

ExprPtr daisy::operator*(const ExprPtr &Lhs, const ExprPtr &Rhs) {
  return Expr::makeBinary(BinaryOpKind::Mul, Lhs, Rhs);
}

ExprPtr daisy::operator/(const ExprPtr &Lhs, const ExprPtr &Rhs) {
  return Expr::makeBinary(BinaryOpKind::Div, Lhs, Rhs);
}

ExprPtr daisy::lit(double Value) { return Expr::makeConstant(Value); }

ExprPtr daisy::read(const std::string &Array,
                    std::vector<AffineExpr> Indices) {
  return Expr::makeRead(Array, std::move(Indices));
}

ExprPtr daisy::emin(ExprPtr Lhs, ExprPtr Rhs) {
  return Expr::makeBinary(BinaryOpKind::Min, std::move(Lhs), std::move(Rhs));
}

ExprPtr daisy::emax(ExprPtr Lhs, ExprPtr Rhs) {
  return Expr::makeBinary(BinaryOpKind::Max, std::move(Lhs), std::move(Rhs));
}

ExprPtr daisy::eexp(ExprPtr Operand) {
  return Expr::makeUnary(UnaryOpKind::Exp, std::move(Operand));
}

ExprPtr daisy::esqrt(ExprPtr Operand) {
  return Expr::makeUnary(UnaryOpKind::Sqrt, std::move(Operand));
}
