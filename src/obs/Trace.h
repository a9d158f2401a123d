//===- obs/Trace.h - Lock-free flight-recorder tracing ----------*- C++ -*-===//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime's flight recorder: a process-global, lock-free, fixed-size
/// ring of binary trace events — span begin/end, instants, and complete
/// (pre-measured) spans — that any layer emits into at nanosecond cost
/// and an operator exports as Chrome trace_event JSON, loadable in
/// Perfetto or chrome://tracing, after the fact.
///
/// Design, in the same discipline as tune/Profile.h's packed-cell rings:
///
/// - Disabled is the steady state and costs one relaxed atomic load per
///   instrumentation site — the serving hot path pays nothing until an
///   operator (or the DAISY_TRACE env hook) turns recording on.
/// - Recording is lock-free: a writer claims a cell with one relaxed
///   fetch_add on the monotonic head (cell = head & mask), then publishes
///   the event through a per-cell seqlock — the sequence word is
///   invalidated, the payload words are release-stored, and the claim
///   index + 1 is release-stored as the new sequence. A reader
///   acquire-loads the payload and validates the sequence around that
///   copy, so a cell being
///   overwritten mid-export is skipped, never torn: every event the
///   export contains really happened, whole.
/// - The ring holds the most recent Capacity events; older ones are
///   overwritten in place. A flight recorder answers "what just
///   happened", not "everything that ever happened" — bounded memory is
///   the contract that lets it stay on in production.
/// - Event names are interned to 16-bit ids (traceNameId) so an event is
///   four words, not a string; hot paths resolve their names once (the
///   serving runtime caches ids at Server construction, exactly like its
///   statsCounterCell pre-resolution) and coarse paths intern at emit.
///
/// Environment hook: starting the process with DAISY_TRACE=<path> set
/// enables the recorder before main() (capacity from DAISY_TRACE_EVENTS,
/// default 65536) and registers an atexit handler that writes the Chrome
/// JSON to <path> — any bench, test, or embedding binary becomes
/// flight-recordable without code changes.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_OBS_TRACE_H
#define DAISY_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace daisy {

/// Coarse event taxonomy, one Chrome "cat" per value: filtering a
/// Perfetto view down to one layer is one click.
enum class TraceCategory : uint8_t {
  Serve = 0,  ///< Request lifecycle: submit, stage spans, shedding.
  Engine = 1, ///< Compile, plan cache, checkpoint, quarantine.
  Tune = 2,   ///< Online tuner: cycles, probes, swaps, rollbacks.
  Bench = 3,  ///< Benchmark / example phases.
  App = 4,    ///< Embedding-application events.
};

enum class TracePhase : uint8_t {
  Begin = 0,    ///< Span opens on this thread (Chrome "B").
  End = 1,      ///< Span closes on this thread (Chrome "E").
  Instant = 2,  ///< Point event (Chrome "i").
  Complete = 3, ///< Pre-measured span: start + duration (Chrome "X").
};

/// One decoded event, as snapshot()/export see it.
struct TraceEvent {
  uint64_t StartNs = 0; ///< Monotonic ns since the recorder epoch.
  uint64_t DurNs = 0;   ///< Complete events only; 0 otherwise.
  uint64_t Arg = 0;     ///< One u64 argument (request seq, key, ...).
  uint64_t Order = 0;   ///< Claim index: global emission order.
  uint32_t Tid = 0;     ///< Small dense thread id (1-based).
  TracePhase Phase = TracePhase::Instant;
  TraceCategory Category = TraceCategory::App;
  uint16_t NameId = 0;  ///< Interned name (traceNameOf).
};

/// The process-global recorder. All emit paths are thread-safe and
/// lock-free; enable/disable/clear/export serialize on a config mutex
/// and are safe against concurrent emitters (the ring only ever grows,
/// and retired rings are kept alive for the process lifetime, so an
/// emitter racing a reconfiguration writes into a valid ring).
class TraceRecorder {
public:
  static constexpr size_t DefaultCapacity = 1 << 16;

  static TraceRecorder &instance();

  /// Turns recording on. \p Capacity is rounded up to a power of two
  /// (min 64); a recorder that is already enabled keeps recording and
  /// only grows its ring if the request is larger.
  void enable(size_t Capacity = DefaultCapacity);

  /// Turns recording off. Events already in the ring stay exportable.
  void disable() { Enabled.store(false, std::memory_order_release); }

  /// The one-load hot-path gate.
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Drops every recorded event (the enabled state is unchanged). Meant
  /// for quiesced phase boundaries — a concurrent emitter may land an
  /// event on either side of the clear.
  void clear();

  /// Monotonic nanoseconds since the recorder epoch (process start).
  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Epoch)
            .count());
  }
  /// Converts an already-taken steady_clock stamp onto the trace clock.
  uint64_t toNs(std::chrono::steady_clock::time_point T) const {
    return T <= Epoch ? 0
                      : static_cast<uint64_t>(
                            std::chrono::duration_cast<std::chrono::nanoseconds>(
                                T - Epoch)
                                .count());
  }

  /// Records a Begin/End/Instant event stamped "now". No-op (one relaxed
  /// load) while disabled.
  void emit(TracePhase Phase, TraceCategory Category, uint16_t NameId,
            uint64_t Arg = 0) {
    if (!enabled())
      return;
    emitAt(Phase, Category, NameId, nowNs(), 0, Arg);
  }

  /// Records a pre-measured Complete span (Chrome "X"): the serving
  /// runtime reconstructs a request's stage spans from its stored
  /// timestamps after completion, one event per stage, no cross-thread
  /// begin/end pairing needed.
  void emitComplete(TraceCategory Category, uint16_t NameId, uint64_t StartNs,
                    uint64_t DurNs, uint64_t Arg = 0) {
    if (!enabled())
      return;
    emitAt(TracePhase::Complete, Category, NameId, StartNs, DurNs, Arg);
  }

  /// Lifetime events claimed (recorded + overwritten); the ring holds
  /// min(emittedCount, capacity) of them.
  uint64_t emittedCount() const {
    return Head.load(std::memory_order_relaxed);
  }

  /// Current ring capacity in events (0 before the first enable).
  size_t capacity() const;

  /// Decodes every valid cell, sorted by (StartNs, claim order). Safe
  /// against concurrent emitters: cells being overwritten are skipped.
  std::vector<TraceEvent> snapshot() const;

  /// Writes the ring as Chrome trace_event JSON ({"traceEvents": [...]}).
  /// Timestamps are microseconds on the recorder's monotonic clock. End
  /// events whose Begin was overwritten by ring wrap are dropped per
  /// thread so the span nesting stays consistent; unfinished Begins are
  /// kept (Perfetto shows them as "did not end").
  void exportChromeTrace(std::ostream &OS) const;

  /// exportChromeTrace to \p Path; false (with the ring intact) when the
  /// file cannot be written.
  bool dumpTrace(const std::string &Path) const;

private:
  TraceRecorder() : Epoch(std::chrono::steady_clock::now()) {}

  /// One ring cell: a seqlock sequence word plus four payload words, all
  /// atomics so readers and writers race without UB and the sequence
  /// validation is what decides whether a read cell is whole.
  struct Cell {
    std::atomic<uint64_t> Seq{0}; ///< 0 = empty/in-flight, else claim + 1.
    std::atomic<uint64_t> W0{0};  ///< StartNs.
    std::atomic<uint64_t> W1{0};  ///< Tid(32) | Phase(8) | Cat(8) | Name(16).
    std::atomic<uint64_t> W2{0};  ///< DurNs (Complete) / 0.
    std::atomic<uint64_t> W3{0};  ///< Arg.
  };

  void emitAt(TracePhase Phase, TraceCategory Category, uint16_t NameId,
              uint64_t StartNs, uint64_t DurNs, uint64_t Arg);

  std::atomic<bool> Enabled{false};
  std::atomic<uint64_t> Head{0}; ///< Monotonic claim counter.

  /// Ring storage. Readers load Mask before RingPtr (both acquire) and
  /// writers publish RingPtr before Mask (both release): a reader can
  /// observe an old mask with a new (larger) ring — safe, the index
  /// stays in bounds — but never a new mask with an old ring. Replaced
  /// rings are retired, not freed, so a straggling emitter that loaded
  /// the old pointer still writes into live memory.
  std::atomic<uint64_t> Mask{0};
  std::atomic<Cell *> RingPtr{nullptr};
  std::vector<std::unique_ptr<Cell[]>> Rings; ///< Current + retired.

  const std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex ConfigMutex; ///< enable/clear/export bookkeeping.
};

/// Interns \p Name process-wide and returns its id; the same name always
/// maps to the same id. Id 0 is reserved for the overflow sentinel
/// "(trace-names-exhausted)" — the table holds 65535 distinct names,
/// far beyond any real instrumentation sweep.
uint16_t traceNameId(const std::string &Name);

/// The name behind \p Id ("(unknown)" for never-interned ids).
std::string traceNameOf(uint16_t Id);

/// The hot-path gate, as a free function: sites check this before doing
/// any per-event work (timestamping, argument marshalling, interning).
inline bool traceEnabled() { return TraceRecorder::instance().enabled(); }

/// Instant-event convenience for coarse paths: interns and emits only
/// when recording is on.
inline void traceInstant(TraceCategory Category, const char *Name,
                         uint64_t Arg = 0) {
  TraceRecorder &R = TraceRecorder::instance();
  if (!R.enabled())
    return;
  R.emit(TracePhase::Instant, Category, traceNameId(Name), Arg);
}

/// RAII span for coarse, same-thread regions (a compile, a checkpoint
/// write, a tuner cycle): Begin at construction, End at destruction,
/// nothing at all while recording is off. Per-request paths use raw
/// emitComplete with pre-resolved ids instead — this class interns at
/// construction, which is fine at compile rate and wrong at request rate.
class TraceSpan {
public:
  TraceSpan(TraceCategory Category, const char *Name, uint64_t Arg = 0)
      : Category(Category) {
    TraceRecorder &R = TraceRecorder::instance();
    if (!R.enabled())
      return;
    NameId = traceNameId(Name);
    Active = true;
    R.emit(TracePhase::Begin, Category, NameId, Arg);
  }
  ~TraceSpan() {
    if (Active)
      TraceRecorder::instance().emit(TracePhase::End, Category, NameId);
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  TraceCategory Category;
  uint16_t NameId = 0;
  bool Active = false;
};

} // namespace daisy

#endif // DAISY_OBS_TRACE_H
