//===- serve/BoundArgs.h - Validate-once resolved argument set ---*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The prepared half of the zero-copy run path. Kernel::run(ArgBinding)
/// re-validates name-to-slot bindings with string compares on every run;
/// a BoundArgs is the result of paying that validation exactly once
/// (Kernel::bind): a full buffer-slot table plus the identity of the
/// kernel it was resolved against. Kernel::run(BoundArgs) — and the
/// serving runtime's hot loop (serve/Server.h), which is why this class
/// lives here — executes on the prepared table with no string compares
/// at all.
///
/// A BoundArgs may be reused across any number of runs, including
/// concurrent ones (runs never mutate it; each borrows its own pooled
/// context for transient scratch). It pins the kernel it was bound
/// against, and is rejected as stale by any other kernel: slot order is a
/// per-program contract, so a table resolved against one program must
/// never address another's buffers.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_SERVE_BOUNDARGS_H
#define DAISY_SERVE_BOUNDARGS_H

#include "api/Kernel.h"
#include "exec/ExecPlan.h"

#include <memory>
#include <string>
#include <vector>

namespace daisy {

class KernelImpl;

/// A validated, name-resolved argument set: one BufferRef per program
/// array slot (caller storage for observable arrays, null for
/// kernel-managed transient slots). Produced by Kernel::bind; cheap to
/// copy and move. Default-constructed or failed-validation handles are
/// non-ok and rejected by run.
class BoundArgs {
public:
  BoundArgs() = default;

  /// True when validation succeeded and the handle is runnable.
  bool ok() const { return Bound != nullptr; }
  explicit operator bool() const { return ok(); }

  /// The validation diagnostic of a non-ok handle ("unbound arguments"
  /// for a default-constructed one); empty when ok.
  const std::string &error() const { return Error; }

  /// Resolved per-slot buffer table (observability; slot order follows
  /// Program::arrays() of the bound kernel).
  const std::vector<BufferRef> &slots() const { return Slots; }

private:
  friend class Kernel; // Kernel::bind fills, Kernel::run(BoundArgs) checks.

  std::shared_ptr<const KernelImpl> Bound; ///< Kernel validated against.
  std::vector<BufferRef> Slots;            ///< Null entries = transient.
  std::string Error;                       ///< Non-ok diagnostic.
};

/// The one status every path reports for a non-ok BoundArgs (the bind
/// diagnostic when there is one): Kernel::run and the server's submit
/// fast-fail agree on the wording by construction.
inline RunStatus invalidBoundArgsStatus(const BoundArgs &Args) {
  return {Args.error().empty() ? "unbound arguments: BoundArgs was not "
                                 "produced by Kernel::bind"
                               : Args.error()};
}

} // namespace daisy

#endif // DAISY_SERVE_BOUNDARGS_H
