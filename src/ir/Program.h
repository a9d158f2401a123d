//===- ir/Program.h - Whole-program container --------------------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Program owns array declarations, parameters, and the ordered sequence
/// of top-level loop nests (the maximal SESE regions of the paper's §3.1).
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_IR_PROGRAM_H
#define DAISY_IR_PROGRAM_H

#include "ir/Node.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace daisy {

/// Declaration of a dense row-major array of doubles. Scalars are declared
/// with an empty shape.
struct ArrayDecl {
  std::string Name;
  std::vector<int64_t> Shape;
  /// Arrays marked transient were introduced by transformations (scalar
  /// expansion, temporaries) and are not part of the program's observable
  /// outputs.
  bool Transient = false;

  /// Total number of elements.
  int64_t elementCount() const;

  /// Row-major linear stride of dimension \p Dim in elements.
  int64_t dimStride(size_t Dim) const;
};

/// A complete program: arrays + parameters + top-level node sequence.
class Program {
public:
  Program() = default;
  explicit Program(std::string Name) : Name(std::move(Name)) {}

  const std::string &name() const { return Name; }
  void setName(std::string NewName) { Name = std::move(NewName); }

  /// Declares an array (or scalar, with empty \p Shape). Names are unique.
  void addArray(const std::string &ArrayName, std::vector<int64_t> Shape,
                bool Transient = false);

  /// Replaces the shape of the declared array \p ArrayName, keeping its
  /// name, slot and transient flag (transient contraction drops
  /// dimensions this way, so bindings and slot order stay valid).
  void reshapeArray(const std::string &ArrayName, std::vector<int64_t> Shape);

  /// Looks up an array declaration; asserts if missing.
  const ArrayDecl &array(const std::string &ArrayName) const;

  /// Returns nullptr if \p ArrayName is not declared.
  const ArrayDecl *findArray(const std::string &ArrayName) const;

  const std::vector<ArrayDecl> &arrays() const { return Arrays; }

  /// Binds a named parameter (problem size etc.) to a value.
  void setParam(const std::string &ParamName, int64_t Value);

  /// Parameter value; asserts if unbound.
  int64_t param(const std::string &ParamName) const;

  const ValueEnv &params() const { return Params; }

  std::vector<NodePtr> &topLevel() { return TopLevel; }
  const std::vector<NodePtr> &topLevel() const { return TopLevel; }

  /// Appends a top-level node.
  void append(NodePtr Node) { TopLevel.push_back(std::move(Node)); }

  /// Deep copy of the whole program.
  Program clone() const;

  /// Total floating-point operations of one program execution (loops fully
  /// counted, calls via their formulas).
  int64_t totalFlops() const;

  /// Generates an array name not yet declared, based on \p Base.
  std::string freshArrayName(const std::string &Base) const;

private:
  std::string Name;
  std::vector<ArrayDecl> Arrays;
  ValueEnv Params;
  std::vector<NodePtr> TopLevel;
};

} // namespace daisy

#endif // DAISY_IR_PROGRAM_H
