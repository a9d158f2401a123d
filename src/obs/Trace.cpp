//===- obs/Trace.cpp ------------------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <unordered_map>

using namespace daisy;

namespace {

/// Dense 1-based thread ids for display: Chrome lanes read "tid 3", not
/// a 64-bit hash of std::thread::id.
uint32_t currentTraceTid() {
  static std::atomic<uint32_t> NextTid{0};
  static thread_local uint32_t Tid =
      NextTid.fetch_add(1, std::memory_order_relaxed) + 1;
  return Tid;
}

size_t roundUpPow2(size_t V) {
  size_t P = 64; // Floor: a ring smaller than this is all wrap, no trace.
  while (P < V && P < (size_t(1) << 30))
    P <<= 1;
  return P;
}

/// Interned-name table. Id 0 is the overflow sentinel; real ids are
/// 1..65535. Insertion takes the mutex (paid once per distinct name per
/// process); emitters carry resolved ids.
struct NameRegistry {
  std::mutex Mutex;
  std::unordered_map<std::string, uint16_t> Ids;
  std::vector<std::string> Names{"(trace-names-exhausted)"};
};

NameRegistry &nameRegistry() {
  // Leaked on purpose: the DAISY_TRACE atexit dump resolves names after
  // static destructors would have torn a plain static down.
  static NameRegistry *R = new NameRegistry();
  return *R;
}

const char *categoryName(TraceCategory C) {
  switch (C) {
  case TraceCategory::Serve:
    return "serve";
  case TraceCategory::Engine:
    return "engine";
  case TraceCategory::Tune:
    return "tune";
  case TraceCategory::Bench:
    return "bench";
  case TraceCategory::App:
    return "app";
  }
  return "app";
}

/// JSON string escape for interned names (our own dotted identifiers in
/// practice, but the exporter must emit valid JSON for any name).
void writeJsonString(std::ostream &OS, const std::string &S) {
  OS << '"';
  for (char Ch : S) {
    switch (Ch) {
    case '"':
      OS << "\\\"";
      break;
    case '\\':
      OS << "\\\\";
      break;
    case '\n':
      OS << "\\n";
      break;
    case '\t':
      OS << "\\t";
      break;
    case '\r':
      OS << "\\r";
      break;
    default:
      if (static_cast<unsigned char>(Ch) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", Ch);
        OS << Buf;
      } else {
        OS << Ch;
      }
    }
  }
  OS << '"';
}

} // namespace

uint16_t daisy::traceNameId(const std::string &Name) {
  NameRegistry &R = nameRegistry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  auto It = R.Ids.find(Name);
  if (It != R.Ids.end())
    return It->second;
  if (R.Names.size() > 0xFFFF)
    return 0;
  uint16_t Id = static_cast<uint16_t>(R.Names.size());
  R.Names.push_back(Name);
  R.Ids.emplace(Name, Id);
  return Id;
}

std::string daisy::traceNameOf(uint16_t Id) {
  NameRegistry &R = nameRegistry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  return Id < R.Names.size() ? R.Names[Id] : std::string("(unknown)");
}

TraceRecorder &TraceRecorder::instance() {
  static TraceRecorder R;
  return R;
}

void TraceRecorder::enable(size_t Capacity) {
  std::lock_guard<std::mutex> Lock(ConfigMutex);
  size_t Cap = roundUpPow2(Capacity ? Capacity : DefaultCapacity);
  size_t Current =
      RingPtr.load(std::memory_order_relaxed)
          ? static_cast<size_t>(Mask.load(std::memory_order_relaxed)) + 1
          : 0;
  if (Cap > Current) {
    // Grow-only: publish the ring pointer before the mask (see the
    // member comment), and retire — never free — the old ring so an
    // emitter that resolved it just before the swap still writes into
    // live memory. Events recorded before the grow stay in the retired
    // ring and drop out of exports; growth is a reconfiguration, not a
    // hot-path event.
    Rings.push_back(std::unique_ptr<Cell[]>(new Cell[Cap]()));
    RingPtr.store(Rings.back().get(), std::memory_order_release);
    Mask.store(static_cast<uint64_t>(Cap) - 1, std::memory_order_release);
  }
  Enabled.store(true, std::memory_order_release);
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> Lock(ConfigMutex);
  Cell *Ring = RingPtr.load(std::memory_order_acquire);
  if (!Ring)
    return;
  size_t Cap = static_cast<size_t>(Mask.load(std::memory_order_relaxed)) + 1;
  // Quiesced-phase operation: an emitter racing the clear may land its
  // event on either side (or re-publish a claimed cell after it) —
  // exactly the guarantee "drop everything recorded so far" needs, no
  // more.
  for (size_t I = 0; I < Cap; ++I)
    Ring[I].Seq.store(0, std::memory_order_relaxed);
  Head.store(0, std::memory_order_relaxed);
}

size_t TraceRecorder::capacity() const {
  if (!RingPtr.load(std::memory_order_relaxed))
    return 0;
  return static_cast<size_t>(Mask.load(std::memory_order_relaxed)) + 1;
}

void TraceRecorder::emitAt(TracePhase Phase, TraceCategory Category,
                           uint16_t NameId, uint64_t StartNs, uint64_t DurNs,
                           uint64_t Arg) {
  // The enabled() check already passed; these acquire loads pair with the
  // release stores in enable(), so the ring they name is visible.
  uint64_t M = Mask.load(std::memory_order_acquire);
  Cell *Ring = RingPtr.load(std::memory_order_acquire);
  if (!Ring)
    return;
  uint64_t H = Head.fetch_add(1, std::memory_order_relaxed);
  Cell &C = Ring[H & M];
  // Seqlock write: invalidate, payload (release stores), publish. A
  // reader that acquire-loads any payload word of this write synchronizes
  // with that store, so the invalidation before it is visible when the
  // reader re-reads Seq, and a torn event never validates. Release
  // stores instead of a standalone fence, because ThreadSanitizer models
  // the former and not the latter.
  C.Seq.store(0, std::memory_order_relaxed);
  C.W0.store(StartNs, std::memory_order_release);
  C.W1.store((static_cast<uint64_t>(currentTraceTid()) << 32) |
                 (static_cast<uint64_t>(Phase) << 24) |
                 (static_cast<uint64_t>(Category) << 16) |
                 static_cast<uint64_t>(NameId),
             std::memory_order_release);
  C.W2.store(DurNs, std::memory_order_release);
  C.W3.store(Arg, std::memory_order_release);
  C.Seq.store(H + 1, std::memory_order_release);
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<TraceEvent> Out;
  uint64_t M = Mask.load(std::memory_order_acquire);
  Cell *Ring = RingPtr.load(std::memory_order_acquire);
  if (!Ring)
    return Out;
  size_t Cap = static_cast<size_t>(M) + 1;
  Out.reserve(std::min<uint64_t>(Head.load(std::memory_order_relaxed), Cap));
  for (size_t I = 0; I < Cap; ++I) {
    const Cell &C = Ring[I];
    uint64_t S1 = C.Seq.load(std::memory_order_acquire);
    if (S1 == 0)
      continue; // Empty, or a write in flight right now.
    TraceEvent E;
    // Acquire payload loads order the Seq re-read after them (see
    // emitAt).
    E.StartNs = C.W0.load(std::memory_order_acquire);
    uint64_t W1 = C.W1.load(std::memory_order_acquire);
    E.DurNs = C.W2.load(std::memory_order_acquire);
    E.Arg = C.W3.load(std::memory_order_acquire);
    if (C.Seq.load(std::memory_order_relaxed) != S1)
      continue; // Overwritten mid-copy; the cell's new event is whole
                // elsewhere in a later snapshot.
    E.Order = S1 - 1;
    E.Tid = static_cast<uint32_t>(W1 >> 32);
    E.Phase = static_cast<TracePhase>((W1 >> 24) & 0xFF);
    E.Category = static_cast<TraceCategory>((W1 >> 16) & 0xFF);
    E.NameId = static_cast<uint16_t>(W1 & 0xFFFF);
    Out.push_back(E);
  }
  std::sort(Out.begin(), Out.end(), [](const TraceEvent &A,
                                       const TraceEvent &B) {
    return A.StartNs != B.StartNs ? A.StartNs < B.StartNs : A.Order < B.Order;
  });
  return Out;
}

void TraceRecorder::exportChromeTrace(std::ostream &OS) const {
  std::vector<TraceEvent> Events = snapshot();
  // Ring wrap can evict a span's Begin while its End survives; an
  // unmatched "E" would corrupt the whole thread lane in the viewer.
  // One pass over the time-sorted events tracks the open-span depth per
  // thread and drops Ends with no live Begin. Unfinished Begins stay —
  // Perfetto renders them as "did not end", which is the truth.
  std::unordered_map<uint32_t, size_t> Depth;
  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  char Num[64];
  for (const TraceEvent &E : Events) {
    if (E.Phase == TracePhase::Begin) {
      ++Depth[E.Tid];
    } else if (E.Phase == TracePhase::End) {
      size_t &D = Depth[E.Tid];
      if (D == 0)
        continue; // Orphaned by ring wrap.
      --D;
    }
    if (!First)
      OS << ',';
    First = false;
    OS << "{\"name\":";
    writeJsonString(OS, traceNameOf(E.NameId));
    OS << ",\"cat\":\"" << categoryName(E.Category) << "\",\"ph\":\"";
    switch (E.Phase) {
    case TracePhase::Begin:
      OS << 'B';
      break;
    case TracePhase::End:
      OS << 'E';
      break;
    case TracePhase::Instant:
      OS << 'i';
      break;
    case TracePhase::Complete:
      OS << 'X';
      break;
    }
    OS << '"';
    std::snprintf(Num, sizeof(Num), "%.3f",
                  static_cast<double>(E.StartNs) / 1000.0);
    OS << ",\"ts\":" << Num;
    if (E.Phase == TracePhase::Complete) {
      std::snprintf(Num, sizeof(Num), "%.3f",
                    static_cast<double>(E.DurNs) / 1000.0);
      OS << ",\"dur\":" << Num;
    }
    if (E.Phase == TracePhase::Instant)
      OS << ",\"s\":\"t\""; // Thread-scoped instant marker.
    OS << ",\"pid\":1,\"tid\":" << E.Tid;
    if (E.Arg)
      OS << ",\"args\":{\"arg\":" << E.Arg << '}';
    OS << '}';
  }
  OS << "]}";
}

bool TraceRecorder::dumpTrace(const std::string &Path) const {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  if (!OS)
    return false;
  exportChromeTrace(OS);
  OS.flush();
  return static_cast<bool>(OS);
}

//===----------------------------------------------------------------------===//
// DAISY_TRACE environment hook
//===----------------------------------------------------------------------===//
//
// A static initializer in this translation unit arms the recorder before
// main() when the environment asks for it, and an atexit handler writes
// the Chrome JSON on the way out. The hook lives here so any binary linking
// the obs layer — every bench, test, and example links the library — is
// flight-recordable with zero code changes:
//
//   DAISY_TRACE=/tmp/run.json ./build/micro_serve --no-gate out.json
//
// DAISY_TRACE_EVENTS overrides the ring capacity (default 65536).

namespace {

/// Leaked on purpose: atexit handlers must not race static destructors
/// for the path string.
std::string *TraceDumpPath = nullptr;

void dumpTraceAtExit() {
  if (!TraceDumpPath)
    return;
  TraceRecorder &R = TraceRecorder::instance();
  R.disable();
  if (!R.dumpTrace(*TraceDumpPath))
    std::fprintf(stderr, "daisy: DAISY_TRACE: cannot write trace to '%s'\n",
                 TraceDumpPath->c_str());
}

struct TraceEnvHook {
  TraceEnvHook() {
    const char *Path = std::getenv("DAISY_TRACE");
    if (!Path || !*Path)
      return;
    size_t Capacity = TraceRecorder::DefaultCapacity;
    if (const char *Cap = std::getenv("DAISY_TRACE_EVENTS")) {
      char *End = nullptr;
      unsigned long long V = std::strtoull(Cap, &End, 10);
      if (End && *End == '\0' && V > 0)
        Capacity = static_cast<size_t>(V);
    }
    TraceDumpPath = new std::string(Path);
    TraceRecorder::instance().enable(Capacity);
    std::atexit(dumpTraceAtExit);
  }
};

TraceEnvHook HookInstance;

} // namespace
