//===- ir/Program.cpp -----------------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Program.h"

#include <cassert>

using namespace daisy;

int64_t ArrayDecl::elementCount() const {
  int64_t Count = 1;
  for (int64_t Extent : Shape)
    Count *= Extent;
  return Count;
}

int64_t ArrayDecl::dimStride(size_t Dim) const {
  assert(Dim < Shape.size() && "dimension out of range");
  int64_t Stride = 1;
  for (size_t I = Shape.size(); I-- > Dim + 1;)
    Stride *= Shape[I];
  return Stride;
}

void Program::addArray(const std::string &ArrayName,
                       std::vector<int64_t> Shape, bool Transient) {
  assert(!findArray(ArrayName) && "array already declared");
  Arrays.push_back(ArrayDecl{ArrayName, std::move(Shape), Transient});
}

void Program::reshapeArray(const std::string &ArrayName,
                           std::vector<int64_t> Shape) {
  for (ArrayDecl &Decl : Arrays)
    if (Decl.Name == ArrayName) {
      Decl.Shape = std::move(Shape);
      return;
    }
  assert(false && "array not declared");
}

const ArrayDecl &Program::array(const std::string &ArrayName) const {
  const ArrayDecl *Decl = findArray(ArrayName);
  assert(Decl && "array not declared");
  return *Decl;
}

const ArrayDecl *Program::findArray(const std::string &ArrayName) const {
  for (const ArrayDecl &Decl : Arrays)
    if (Decl.Name == ArrayName)
      return &Decl;
  return nullptr;
}

void Program::setParam(const std::string &ParamName, int64_t Value) {
  Params[ParamName] = Value;
}

int64_t Program::param(const std::string &ParamName) const {
  auto It = Params.find(ParamName);
  assert(It != Params.end() && "unbound parameter");
  return It->second;
}

Program Program::clone() const {
  Program Copy(Name);
  Copy.Arrays = Arrays;
  Copy.Params = Params;
  Copy.TopLevel = cloneBody(TopLevel);
  return Copy;
}

// Counts flops of a subtree. Bounds that depend on outer iterators
// (triangular nests) are approximated by binding each iterator to the
// midpoint of its range, which is exact for rectangular nests and a good
// estimate for triangular ones.
static int64_t nodeFlops(const NodePtr &Node, ValueEnv &Env) {
  if (const auto *C = dynCast<Computation>(Node))
    return C->flops();
  if (const auto *Call = dynCast<CallNode>(Node))
    return Call->flops();
  const auto *L = dynCast<Loop>(Node);
  assert(L && "unknown node kind");
  int64_t Trip = L->tripCount(Env);
  if (Trip == 0)
    return 0;
  int64_t Lo = L->lower().evaluate(Env);
  bool HadBinding = Env.count(L->iterator()) != 0;
  int64_t OldBinding = HadBinding ? Env[L->iterator()] : 0;
  Env[L->iterator()] = Lo + (Trip / 2) * L->step();
  int64_t BodyFlops = 0;
  for (const NodePtr &Child : L->body())
    BodyFlops += nodeFlops(Child, Env);
  if (HadBinding)
    Env[L->iterator()] = OldBinding;
  else
    Env.erase(L->iterator());
  return BodyFlops * Trip;
}

int64_t Program::totalFlops() const {
  int64_t Total = 0;
  ValueEnv Env = Params;
  for (const NodePtr &Node : TopLevel)
    Total += nodeFlops(Node, Env);
  return Total;
}

std::string Program::freshArrayName(const std::string &Base) const {
  if (!findArray(Base))
    return Base;
  for (int Suffix = 0;; ++Suffix) {
    std::string Candidate = Base + "_" + std::to_string(Suffix);
    if (!findArray(Candidate))
      return Candidate;
  }
}
