//===- tests/ObsTest.cpp - observability-layer tests -----------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The observability layer's contracts (this suite runs under
// ThreadSanitizer in CI, DAISY_THREADS=4):
//
// - support/Histogram.h: the extracted log2 / log-linear bucketings
//   cover every value, bounds bracket their bucket's members, quantile
//   and merge behave, and the latency layout is exact below 4µs;
// - snapshotStatsCounters: name-sorted, includes zero-valued registered
//   counters, values match the exact-name reads;
// - flight recorder: a wrapped ring keeps exactly the most recent
//   capacity events in claim order; a disabled recorder emits nothing;
//   concurrent emitters and snapshotters race data-race-free (the
//   seqlock discipline, exercised under TSan) and every surviving event
//   decodes whole;
// - exportChromeTrace: the output is valid JSON (parse-back with a
//   minimal in-test parser), and an End whose Begin was lost to ring
//   wrap is dropped instead of corrupting the lane;
// - Prometheus exposition: name mapping (dotted CamelCase to
//   daisy_snake_case), line grammar, cumulative ascending _bucket series
//   closed by le="+Inf", _sum/_count presence;
// - per-stage histograms: queue-wait + batch-wait + run sums match the
//   end-to-end sojourn sum within bucketing resolution, per-stage counts
//   equal the completion count;
// - one capture holds all three layers: serve request stages, engine
//   compile/cache events, and tuner cycles in the same trace.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "serve/Server.h"
#include "support/Histogram.h"
#include "support/Statistics.h"

#include "exec/Interpreter.h"
#include "ir/Builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace daisy;
using namespace daisy::serve;

namespace {

/// GEMM with a chosen loop order (the canonical many-variants program).
Program makeGemm(const std::string &O1, const std::string &O2,
                 const std::string &O3, int N) {
  Program Prog("gemm_" + O1 + O2 + O3);
  Prog.addArray("A", {N, N});
  Prog.addArray("B", {N, N});
  Prog.addArray("C", {N, N});
  Prog.append(forLoop(
      O1, 0, N,
      {forLoop(O2, 0, N,
               {forLoop(O3, 0, N,
                        {assign("S0", "C", {ax("i"), ax("j")},
                                read("C", {ax("i"), ax("j")}) +
                                    read("A", {ax("i"), ax("k")}) *
                                        read("B", {ax("k"), ax("j")}))})})}));
  return Prog;
}

/// Caller-owned argument storage for one request, deterministic fill.
struct OwnedArgs {
  std::vector<std::pair<std::string, std::vector<double>>> Buffers;

  explicit OwnedArgs(const Program &Prog, uint64_t Seed = 1) {
    DataEnv Env(Prog);
    Env.initDeterministic(Seed);
    for (const ArrayDecl &Decl : Prog.arrays())
      if (!Decl.Transient)
        Buffers.emplace_back(Decl.Name, Env.buffer(Decl.Name));
  }

  ArgBinding binding() {
    ArgBinding Args;
    for (auto &[Name, Storage] : Buffers)
      Args.bind(Name, Storage);
    return Args;
  }
};

//===----------------------------------------------------------------------===//
// Minimal JSON parser — the parse-back validator for exported traces and
// metricsJson. Accepts exactly the RFC 8259 value grammar; no
// dependencies, no tree built.
//===----------------------------------------------------------------------===//

class JsonValidator {
public:
  explicit JsonValidator(const std::string &Text)
      : P(Text.data()), End(Text.data() + Text.size()) {}

  /// Whole-document check: one value, nothing but whitespace after it.
  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return P == End;
  }

private:
  const char *P, *End;

  void skipWs() {
    while (P != End && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }
  bool literal(const char *Lit) {
    const char *Q = P;
    for (; *Lit; ++Lit, ++Q)
      if (Q == End || *Q != *Lit)
        return false;
    P = Q;
    return true;
  }
  bool string() {
    if (P == End || *P != '"')
      return false;
    ++P;
    while (P != End && *P != '"') {
      if (*P == '\\') {
        ++P;
        if (P == End)
          return false;
        if (*P == 'u') {
          for (int I = 0; I < 4; ++I) {
            ++P;
            if (P == End || !std::isxdigit(static_cast<unsigned char>(*P)))
              return false;
          }
        }
      }
      ++P;
    }
    if (P == End)
      return false;
    ++P; // Closing quote.
    return true;
  }
  bool number() {
    const char *Q = P;
    if (Q != End && *Q == '-')
      ++Q;
    const char *Digits = Q;
    while (Q != End && std::isdigit(static_cast<unsigned char>(*Q)))
      ++Q;
    if (Q == Digits)
      return false;
    if (Q != End && *Q == '.') {
      ++Q;
      const char *Frac = Q;
      while (Q != End && std::isdigit(static_cast<unsigned char>(*Q)))
        ++Q;
      if (Q == Frac)
        return false;
    }
    if (Q != End && (*Q == 'e' || *Q == 'E')) {
      ++Q;
      if (Q != End && (*Q == '+' || *Q == '-'))
        ++Q;
      const char *Exp = Q;
      while (Q != End && std::isdigit(static_cast<unsigned char>(*Q)))
        ++Q;
      if (Q == Exp)
        return false;
    }
    P = Q;
    return true;
  }
  bool value() {
    skipWs();
    if (P == End)
      return false;
    switch (*P) {
    case '{': {
      ++P;
      skipWs();
      if (P != End && *P == '}') {
        ++P;
        return true;
      }
      for (;;) {
        skipWs();
        if (!string())
          return false;
        skipWs();
        if (P == End || *P != ':')
          return false;
        ++P;
        if (!value())
          return false;
        skipWs();
        if (P != End && *P == ',') {
          ++P;
          continue;
        }
        if (P != End && *P == '}') {
          ++P;
          return true;
        }
        return false;
      }
    }
    case '[': {
      ++P;
      skipWs();
      if (P != End && *P == ']') {
        ++P;
        return true;
      }
      for (;;) {
        if (!value())
          return false;
        skipWs();
        if (P != End && *P == ',') {
          ++P;
          continue;
        }
        if (P != End && *P == ']') {
          ++P;
          return true;
        }
        return false;
      }
    }
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }
};

/// Names present in a snapshot, decoded through the interning table.
std::set<std::string> eventNames(const std::vector<TraceEvent> &Events) {
  std::set<std::string> Names;
  for (const TraceEvent &E : Events)
    Names.insert(traceNameOf(E.NameId));
  return Names;
}

} // namespace

//===----------------------------------------------------------------------===//
// support/Histogram.h
//===----------------------------------------------------------------------===//

TEST(HistogramTest, Log2BucketingCoversAndBrackets) {
  // The layout queueDepthHistogram always had: bucket B = [2^B, 2^(B+1)).
  EXPECT_EQ(Log2Bucketing::bucket(0, 16), 0u);
  EXPECT_EQ(Log2Bucketing::bucket(1, 16), 0u);
  EXPECT_EQ(Log2Bucketing::bucket(2, 16), 1u);
  EXPECT_EQ(Log2Bucketing::bucket(3, 16), 1u);
  EXPECT_EQ(Log2Bucketing::bucket(4, 16), 2u);
  EXPECT_EQ(Log2Bucketing::bucket(1u << 15, 16), 15u);
  EXPECT_EQ(Log2Bucketing::bucket(~0ull, 16), 15u); // Clamp.
  for (uint64_t V = 2; V < 70000; V = V * 2 - V / 3 + 1) {
    size_t B = Log2Bucketing::bucket(V, 16);
    if (B + 1 < 16) {
      EXPECT_LE(Log2Bucketing::lowerBound(B, 16), static_cast<double>(V));
      EXPECT_LT(static_cast<double>(V), Log2Bucketing::upperBound(B, 16));
    }
  }
}

TEST(HistogramTest, LogLinearExactBelowFourAndBracketsAbove) {
  for (uint64_t V = 0; V < 4; ++V) {
    EXPECT_EQ(LogLinearBucketing::bucket(V, 256), static_cast<size_t>(V));
    // Exact buckets estimate at the exact value, not a midpoint.
    EXPECT_EQ(LogLinearBucketing::midpoint(V, 256), static_cast<double>(V));
  }
  size_t Prev = 3;
  for (uint64_t V = 4; V < (1ull << 40); V += 1 + V / 3) {
    size_t B = LogLinearBucketing::bucket(V, 256);
    EXPECT_GE(B, Prev); // Monotone in the sample value.
    Prev = std::max(Prev, B);
    if (B + 1 < 256) {
      EXPECT_LE(LogLinearBucketing::lowerBound(B, 256),
                static_cast<double>(V));
      EXPECT_LT(static_cast<double>(V), LogLinearBucketing::upperBound(B, 256));
      // Four sub-buckets per octave: the relative width is at most 25%
      // of the lower bound (±12.5% around the midpoint).
      EXPECT_LE(LogLinearBucketing::upperBound(B, 256) -
                    LogLinearBucketing::lowerBound(B, 256),
                0.25 * LogLinearBucketing::lowerBound(B, 256) + 1e-9);
    }
  }
}

TEST(HistogramTest, QuantileCountMergeReset) {
  LatencyHistogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.quantile(0.5), 0.0);
  for (uint64_t V = 0; V < 100; ++V)
    H.record(V);
  EXPECT_EQ(H.count(), 100u);
  // Median of 0..99 sits in the bucket containing ~49; log-linear
  // resolution is ±12.5%.
  EXPECT_NEAR(H.quantile(0.5), 49.0, 49.0 * 0.15);
  EXPECT_GE(H.quantile(1.0), H.quantile(0.5));
  EXPECT_NEAR(H.approxSum(), 4950.0, 4950.0 * 0.15);

  LatencyHistogram Other;
  for (int I = 0; I < 50; ++I)
    Other.record(1000);
  H.merge(Other);
  EXPECT_EQ(H.count(), 150u);
  EXPECT_NEAR(H.quantile(0.99), 1000.0, 1000.0 * 0.15);

  H.reset();
  EXPECT_EQ(H.count(), 0u);
}

//===----------------------------------------------------------------------===//
// snapshotStatsCounters
//===----------------------------------------------------------------------===//

TEST(StatsSnapshotTest, SortedCompleteAndConsistent) {
  addStatsCounter("ObsTest.Alpha", 3);
  addStatsCounter("ObsTest.Beta", 7);
  (void)statsCounterCell("ObsTest.Zero"); // Registered, never bumped.

  auto Snap = snapshotStatsCounters();
  EXPECT_TRUE(std::is_sorted(
      Snap.begin(), Snap.end(),
      [](const auto &A, const auto &B) { return A.first < B.first; }));

  auto find = [&](const std::string &Name) -> const int64_t * {
    for (const auto &[N, V] : Snap)
      if (N == Name)
        return &V;
    return nullptr;
  };
  ASSERT_NE(find("ObsTest.Alpha"), nullptr);
  ASSERT_NE(find("ObsTest.Beta"), nullptr);
  ASSERT_NE(find("ObsTest.Zero"), nullptr);
  EXPECT_EQ(*find("ObsTest.Alpha"), statsCounter("ObsTest.Alpha"));
  EXPECT_EQ(*find("ObsTest.Beta"), statsCounter("ObsTest.Beta"));
  EXPECT_EQ(*find("ObsTest.Zero"), 0);
}

//===----------------------------------------------------------------------===//
// Flight recorder
//===----------------------------------------------------------------------===//

TEST(TraceRecorderTest, RingWrapKeepsMostRecentInClaimOrder) {
  TraceRecorder &R = TraceRecorder::instance();
  R.enable(64);
  R.clear();
  size_t Cap = R.capacity(); // Grow-only: a prior test may have grown it.
  ASSERT_GE(Cap, 64u);

  uint16_t Name = traceNameId("obstest.wrap");
  const uint64_t Total = static_cast<uint64_t>(Cap) * 3 + 8;
  for (uint64_t I = 0; I < Total; ++I)
    R.emit(TracePhase::Instant, TraceCategory::App, Name, /*Arg=*/I);
  R.disable();

  std::vector<TraceEvent> Events = R.snapshot();
  ASSERT_EQ(Events.size(), Cap);
  // Exactly the most recent Cap claims survive, and sorting by
  // (StartNs, Order) reproduces emission order.
  std::vector<uint64_t> Args;
  for (const TraceEvent &E : Events) {
    EXPECT_EQ(E.NameId, Name);
    EXPECT_EQ(E.Phase, TracePhase::Instant);
    Args.push_back(E.Arg);
  }
  EXPECT_TRUE(std::is_sorted(Args.begin(), Args.end()));
  EXPECT_EQ(Args.front(), Total - Cap);
  EXPECT_EQ(Args.back(), Total - 1);
}

TEST(TraceRecorderTest, DisabledRecorderEmitsNothing) {
  TraceRecorder &R = TraceRecorder::instance();
  R.enable(); // Ensure a ring exists, then turn recording off.
  R.clear();
  R.disable();
  ASSERT_FALSE(traceEnabled());

  uint64_t Before = R.emittedCount();
  uint16_t Name = traceNameId("obstest.disabled");
  for (int I = 0; I < 1000; ++I) {
    R.emit(TracePhase::Instant, TraceCategory::App, Name);
    R.emitComplete(TraceCategory::App, Name, 0, 1);
    traceInstant(TraceCategory::App, "obstest.disabled");
    TraceSpan Span(TraceCategory::App, "obstest.disabled");
  }
  EXPECT_EQ(R.emittedCount(), Before);
  EXPECT_TRUE(R.snapshot().empty());
}

TEST(TraceRecorderTest, ConcurrentEmittersAndSnapshotsStayWhole) {
  TraceRecorder &R = TraceRecorder::instance();
  R.enable(1024);
  R.clear();
  uint16_t Name = traceNameId("obstest.stress");

  constexpr int Threads = 8;
  constexpr uint64_t PerThread = 4000;
  std::atomic<bool> Stop{false};
  // Reader races the writers: under TSan this is the seqlock proof.
  std::thread Reader([&] {
    while (!Stop.load(std::memory_order_acquire)) {
      for (const TraceEvent &E : R.snapshot()) {
        // A torn cell would decode garbage; every validated event must
        // carry our name and a well-formed payload.
        ASSERT_EQ(E.NameId, Name);
        ASSERT_LT(E.Arg, static_cast<uint64_t>(Threads) * PerThread);
        ASSERT_NE(E.Tid, 0u);
      }
    }
  });
  std::vector<std::thread> Writers;
  for (int T = 0; T < Threads; ++T)
    Writers.emplace_back([&, T] {
      for (uint64_t I = 0; I < PerThread; ++I)
        R.emit(TracePhase::Instant, TraceCategory::App, Name,
               static_cast<uint64_t>(T) * PerThread + I);
    });
  for (auto &W : Writers)
    W.join();
  Stop.store(true, std::memory_order_release);
  Reader.join();
  R.disable();

  EXPECT_GE(R.emittedCount(), static_cast<uint64_t>(Threads) * PerThread);
  std::vector<TraceEvent> Events = R.snapshot();
  // The ring may be larger than this test's request (grow-only across
  // the suite): it holds min(emitted, capacity) events.
  EXPECT_EQ(Events.size(),
            std::min<uint64_t>(R.emittedCount(), R.capacity()));
  std::set<uint64_t> Seen;
  for (const TraceEvent &E : Events) {
    EXPECT_EQ(E.NameId, Name);
    // Claim uniqueness: no event is exported twice.
    EXPECT_TRUE(Seen.insert(E.Order).second);
  }
}

TEST(TraceRecorderTest, ChromeExportParsesBackAndDropsOrphanEnds) {
  TraceRecorder &R = TraceRecorder::instance();
  R.enable();
  R.clear();
  // An End with no Begin (its Begin "lost to ring wrap"), then a proper
  // span pair and an instant with an argument.
  R.emit(TracePhase::End, TraceCategory::App, traceNameId("obstest.orphan"));
  {
    TraceSpan Span(TraceCategory::App, "obstest.span", /*Arg=*/42);
    traceInstant(TraceCategory::App, "obstest.point", 7);
  }
  R.disable();

  std::ostringstream OS;
  R.exportChromeTrace(OS);
  std::string Json = OS.str();
  EXPECT_TRUE(JsonValidator(Json).valid()) << Json;
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"obstest.span\""), std::string::npos);
  EXPECT_NE(Json.find("\"obstest.point\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"B\""), std::string::npos);
  // One Begin emitted, so exactly one End may survive — the orphan is
  // dropped (it sorts before the Begin at the same thread).
  EXPECT_EQ(Json.find("\"ph\":\"E\""), Json.rfind("\"ph\":\"E\""));
  EXPECT_NE(Json.find("\"ph\":\"E\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Prometheus / JSON exposition
//===----------------------------------------------------------------------===//

TEST(MetricsTest, PrometheusNameMapping) {
  EXPECT_EQ(prometheusMetricName("Serve.QueueDepthMax"),
            "daisy_serve_queue_depth_max");
  EXPECT_EQ(prometheusMetricName("Engine.PlanCacheHits"),
            "daisy_engine_plan_cache_hits");
  EXPECT_EQ(prometheusMetricName("Serve.Tenant0.Submitted"),
            "daisy_serve_tenant0_submitted");
  // Acronym runs stay one word until a normal word resumes.
  EXPECT_EQ(prometheusMetricName("Serve.EDFPops"), "daisy_serve_edf_pops");
}

TEST(MetricsTest, PrometheusGrammarAndHistogramSeries) {
  addStatsCounter("ObsTest.PromGrammar", 11); // A counter we control.
  LatencyHistogram H;
  for (uint64_t V : {0ull, 1ull, 5ull, 5ull, 300ull})
    H.record(V);
  MetricsSnapshot Snap = snapshotMetrics();
  Snap.Histograms.push_back(snapshotHistogram("ObsTest.LatencyUs",
                                              "test latency histogram", H));
  std::string Text = metricsToPrometheus(Snap);

  // Line grammar: every non-comment, non-empty line is "name[{labels}]
  // value" with a parseable value.
  std::istringstream Lines(Text);
  std::string Line;
  bool SawCounter = false;
  std::vector<uint64_t> BucketCounts;
  bool SawInf = false, SawSum = false, SawCount = false;
  while (std::getline(Lines, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    std::string Name = Line.substr(0, Space);
    char *End = nullptr;
    (void)std::strtod(Line.c_str() + Space + 1, &End);
    EXPECT_EQ(*End, '\0') << Line; // The value parses completely.
    ASSERT_FALSE(Name.empty());
    EXPECT_TRUE(std::islower(static_cast<unsigned char>(Name[0]))) << Line;
    for (char C : Name.substr(0, Name.find('{')))
      EXPECT_TRUE(std::islower(static_cast<unsigned char>(C)) ||
                  std::isdigit(static_cast<unsigned char>(C)) || C == '_')
          << Line;
    if (Name.rfind("daisy_obs_test_latency_us_bucket", 0) == 0) {
      BucketCounts.push_back(std::strtoull(Line.c_str() + Space + 1,
                                           nullptr, 10));
      SawInf = SawInf || Name.find("+Inf") != std::string::npos;
    }
    SawSum = SawSum || Name == "daisy_obs_test_latency_us_sum";
    SawCount = SawCount || Name == "daisy_obs_test_latency_us_count";
    if (Name == "daisy_obs_test_prom_grammar") {
      SawCounter = true;
      EXPECT_GE(std::strtoll(Line.c_str() + Space + 1, nullptr, 10), 11);
    }
  }
  EXPECT_TRUE(SawCounter); // The registry rode along.
  EXPECT_TRUE(SawInf);
  EXPECT_TRUE(SawSum);
  EXPECT_TRUE(SawCount);
  // Cumulative and ascending, closing at the total.
  ASSERT_FALSE(BucketCounts.empty());
  EXPECT_TRUE(std::is_sorted(BucketCounts.begin(), BucketCounts.end()));
  EXPECT_EQ(BucketCounts.back(), 5u);
}

TEST(MetricsTest, JsonExpositionParsesBack) {
  LatencyHistogram H;
  H.record(17);
  MetricsSnapshot Snap = snapshotMetrics();
  Snap.Histograms.push_back(snapshotHistogram("ObsTest.JsonUs", "", H));
  std::string Json = metricsToJson(Snap);
  EXPECT_TRUE(JsonValidator(Json).valid()) << Json;
  EXPECT_NE(Json.find("\"ObsTest.JsonUs\""), std::string::npos);
  EXPECT_NE(Json.find("\"counters\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Per-stage histograms through the serving runtime
//===----------------------------------------------------------------------===//

TEST(ServeStagesTest, StageSumsMatchEndToEndSojourn) {
  ServerOptions Opts;
  Opts.Workers = 1; // One lane: a real queue forms, waits are non-trivial.
  Server S(Opts);
  Program Prog = makeGemm("i", "j", "k", 12);
  Kernel K = S.compile(Prog);
  OwnedArgs Args(Prog);
  BoundArgs Bound = K.bind(Args.binding());

  constexpr int N = 48;
  std::vector<std::future<RunStatus>> Futures;
  for (int I = 0; I < N; ++I)
    Futures.push_back(S.submit(K, Bound));
  for (auto &F : Futures)
    EXPECT_TRUE(F.get().ok());
  S.drain();

  // Every completion recorded one sample into each stage histogram.
  EXPECT_EQ(S.latencyCount(), static_cast<uint64_t>(N));
  EXPECT_EQ(S.stageCount(Server::Stage::QueueWait), static_cast<uint64_t>(N));
  EXPECT_EQ(S.stageCount(Server::Stage::BatchWait), static_cast<uint64_t>(N));
  EXPECT_EQ(S.stageCount(Server::Stage::Run), static_cast<uint64_t>(N));

  // The stages partition the sojourn: their sums re-add to the
  // end-to-end sum within bucketing resolution (±12.5% per histogram)
  // plus the per-sample microsecond truncation (up to 3µs per request).
  double StageSum = S.stageSumUs(Server::Stage::QueueWait) +
                    S.stageSumUs(Server::Stage::BatchWait) +
                    S.stageSumUs(Server::Stage::Run);
  double E2ESum = S.latencySumUs();
  EXPECT_GT(E2ESum, 0.0);
  EXPECT_NEAR(StageSum, E2ESum, 0.35 * E2ESum + 4.0 * N);

  // No stage exceeds the whole at the tail.
  double P99 = S.latencyQuantileUs(0.99);
  EXPECT_LE(S.stageQuantileUs(Server::Stage::Run, 0.99), P99 * 1.3 + 4.0);

  // The exposition carries all four latency histograms.
  std::string Text = S.metricsText();
  for (const char *Series :
       {"daisy_serve_latency_us_count", "daisy_serve_queue_wait_us_count",
        "daisy_serve_batch_wait_us_count", "daisy_serve_run_us_count",
        "daisy_serve_queue_depth_count"})
    EXPECT_NE(Text.find(Series), std::string::npos) << Series;
  EXPECT_TRUE(JsonValidator(S.metricsJson()).valid());
}

//===----------------------------------------------------------------------===//
// One capture, three layers
//===----------------------------------------------------------------------===//

TEST(TraceCaptureTest, ServeEngineAndTunerShareOneTrace) {
  TraceRecorder &R = TraceRecorder::instance();
  R.enable(1 << 14);
  R.clear();

  ServerOptions Opts;
  Opts.Workers = 2;
  // Deterministic tuner: no background lane, every run sampled, promote
  // on any measured delta — cycles and probes happen on our schedule.
  Opts.Engine.OnlineTuning.Enable = true;
  Opts.Engine.OnlineTuning.Interval = std::chrono::microseconds(0);
  Opts.Engine.OnlineTuning.SampleEvery = 1;
  Opts.Engine.OnlineTuning.MinSamples = 4;
  Opts.Engine.OnlineTuning.MinGainPct = -1e9;
  {
    Server S(Opts);
    Program Prog = makeGemm("i", "j", "k", 16);
    Kernel K = S.compile(Prog); // Engine span: compile (cache miss).
    (void)S.compile(Prog);      // Engine instant: plan-cache hit.
    // Per-request buffers: two worker lanes run concurrently, so shared
    // output storage would be a real data race.
    std::vector<std::unique_ptr<OwnedArgs>> Owned;
    std::vector<BoundArgs> Bound;
    std::vector<std::future<RunStatus>> Futures;
    for (int I = 0; I < 8; ++I) {
      Owned.push_back(std::make_unique<OwnedArgs>(Prog));
      Bound.push_back(K.bind(Owned.back()->binding()));
      ASSERT_TRUE(Bound.back().ok());
    }
    for (int I = 0; I < 8; ++I)
      Futures.push_back(S.submit(K, Bound[I])); // Serve stage spans.
    for (auto &F : Futures)
      EXPECT_TRUE(F.get().ok());
    S.drain();
    ASSERT_NE(S.engine().tuner(), nullptr);
    (void)S.engine().tuner()->runCycle(); // Tune cycle span.
    (void)S.engine().tuner()->runCycle();
  }
  R.disable();

  std::set<std::string> Names = eventNames(R.snapshot());
  // All three layers landed in the same capture.
  EXPECT_TRUE(Names.count("engine.compile"));
  EXPECT_TRUE(Names.count("engine.plan_cache_hit"));
  EXPECT_TRUE(Names.count("engine.plan_cache_miss"));
  EXPECT_TRUE(Names.count("serve.submit"));
  EXPECT_TRUE(Names.count("serve.request"));
  EXPECT_TRUE(Names.count("serve.queue_wait"));
  EXPECT_TRUE(Names.count("serve.batch_wait"));
  EXPECT_TRUE(Names.count("serve.run"));
  EXPECT_TRUE(Names.count("tune.cycle"));

  // And the export of that capture is loadable Chrome JSON.
  std::ostringstream OS;
  R.exportChromeTrace(OS);
  std::string Json = OS.str();
  EXPECT_TRUE(JsonValidator(Json).valid());
  for (const char *Name : {"serve.run", "engine.compile", "tune.cycle"})
    EXPECT_NE(Json.find(Name), std::string::npos) << Name;
}
