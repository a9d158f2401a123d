//===- exec/DataEnv.h - Array storage for execution --------------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concrete array storage used by the interpreter, plus deterministic
/// initialization and comparison helpers for the semantics tests.
///
/// Buffers are stored densely, indexed by a slot id that follows the order
/// of Program::arrays() at construction. The compiled execution plan
/// (exec/ExecPlan.h) resolves array names to slot ids once at compile time
/// and addresses buffers by slot at run time; the name-based API remains
/// for tests and ad-hoc inspection.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_EXEC_DATAENV_H
#define DAISY_EXEC_DATAENV_H

#include "ir/Program.h"

#include <map>
#include <string>
#include <vector>

namespace daisy {

/// Owns one buffer per declared array of a program.
class DataEnv {
public:
  /// Allocates zero-initialized storage for every array of \p Prog. Slot
  /// \c I holds the buffer of \c Prog.arrays()[I].
  explicit DataEnv(const Program &Prog);

  /// Mutable buffer of \p Array; asserts if unknown.
  std::vector<double> &buffer(const std::string &Array);
  const std::vector<double> &buffer(const std::string &Array) const;

  /// Mutable buffer of slot \p Slot; asserts if out of range.
  std::vector<double> &bufferAt(size_t Slot);
  const std::vector<double> &bufferAt(size_t Slot) const;

  /// Number of allocated buffers.
  size_t slotCount() const { return Buffers.size(); }

  /// Slot id of \p Array; asserts if unknown.
  size_t slotOf(const std::string &Array) const;

  /// True if \p Array has storage here.
  bool contains(const std::string &Array) const;

  /// Deterministically fills every non-transient array with a PolyBench-
  /// style pattern derived from \p Seed and the element index.
  void initDeterministic(uint64_t Seed = 1);

  /// Largest absolute difference over all non-transient arrays present in
  /// both environments; asserts on shape mismatch.
  static double maxAbsDifference(const DataEnv &A, const DataEnv &B,
                                 const Program &Prog);

private:
  std::vector<std::vector<double>> Buffers;
  std::vector<std::string> SlotNames;
  std::map<std::string, size_t> Slots;
  std::vector<size_t> NonTransient;
};

} // namespace daisy

#endif // DAISY_EXEC_DATAENV_H
