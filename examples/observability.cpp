//===- examples/observability.cpp - flight recorder + metrics tour --------==//
//
// Part of the daisy project. MIT license.
//
// How to see inside a running daisy service: the flight recorder
// (obs/Trace.h) captures span/instant events from every layer — serve
// request stages, engine compiles and plan-cache verdicts, tuner cycles
// — into a lock-free ring, and the metrics layer (obs/Metrics.h)
// exposes every counter and latency histogram as Prometheus text or
// JSON. Build and run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/observability
//
// Then load /tmp/daisy_observability_trace.json in https://ui.perfetto.dev
// or chrome://tracing. Any daisy binary can produce the same capture with
// no code changes:
//
//   DAISY_TRACE=/tmp/run.json ./build/serving
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "serve/Server.h"

#include "ir/Builder.h"
#include "support/Statistics.h"

#include <cstdio>
#include <future>
#include <vector>

using namespace daisy;
using namespace daisy::serve;

namespace {

Program makeGemm(int N) {
  Program Prog("gemm");
  Prog.addArray("A", {N, N});
  Prog.addArray("B", {N, N});
  Prog.addArray("C", {N, N});
  Prog.append(forLoop(
      "i", 0, N,
      {forLoop("j", 0, N,
               {forLoop("k", 0, N,
                        {assign("S0", "C", {ax("i"), ax("j")},
                                read("C", {ax("i"), ax("j")}) +
                                    read("A", {ax("i"), ax("k")}) *
                                        read("B", {ax("k"), ax("j")}))})})}));
  return Prog;
}

} // namespace

int main() {
  resetStatsCounters();

  // 1. Turn the flight recorder on. Until this call every trace site in
  //    the runtime costs one relaxed atomic load and nothing else; from
  //    here each event is a lock-free ring write (~4 words). The ring
  //    keeps the most recent 64k events — bounded memory is what lets a
  //    production service leave recording on during an incident.
  TraceRecorder &Recorder = TraceRecorder::instance();
  Recorder.enable(/*Capacity=*/1 << 16);

  // 2. A tuning-enabled server: three layers will emit into the same
  //    capture — serve (request stages), engine (compiles, cache,
  //    checkpoints), tune (cycles, probes, swaps).
  ServerOptions Options;
  Options.Workers = 2;
  Options.Engine.OnlineTuning.Enable = true;
  Options.Engine.OnlineTuning.Interval = std::chrono::microseconds(0);
  Options.Engine.OnlineTuning.SampleEvery = 1;
  Options.Engine.OnlineTuning.MinSamples = 4;
  Server S(Options);

  int N = 48;
  Kernel K = S.compile(makeGemm(N)); // engine.compile span (cache miss).
  (void)S.compile(makeGemm(N));      // engine.plan_cache_hit instant.

  // 3. Application code can trace itself with the same primitives the
  //    runtime uses: RAII spans for regions, instants for events.
  {
    TraceSpan Setup(TraceCategory::App, "app.prepare_clients");
    std::printf("tracing enabled, capacity %zu events\n",
                Recorder.capacity());
  }

  // 4. Serve traffic. Each completed request decomposes its sojourn into
  //    queue-wait / batch-wait (claim to dispatch start) / run stage
  //    spans (Chrome "X" events, reconstructed after completion — nothing
  //    is paid per stage while the request is in flight).
  struct Client {
    std::vector<double> A, B, C;
    BoundArgs Args;
    std::future<RunStatus> Done;
  };
  std::vector<std::unique_ptr<Client>> Clients;
  for (int I = 0; I < 24; ++I) {
    auto C = std::make_unique<Client>();
    C->A.assign(N * N, 0.001 * I);
    C->B.assign(N * N, 1.0);
    C->C.assign(N * N, 0.0);
    C->Args = K.bind(
        ArgBinding().bind("A", C->A).bind("B", C->B).bind("C", C->C));
    Clients.push_back(std::move(C));
  }
  for (auto &C : Clients)
    C->Done = S.submit(K, C->Args);
  for (auto &C : Clients)
    if (!C->Done.get().ok())
      return 1;
  S.drain();

  // 5. A tuner cycle on the sampled traffic (Interval 0 = no background
  //    lane; a real service lets the tuner's own lane do this).
  if (S.engine().tuner())
    (void)S.engine().tuner()->runCycle(); // tune.cycle span.

  // 6. The per-stage latency decomposition, from the server's log-linear
  //    histograms: where did a request's time actually go?
  std::printf("p50/p99 end-to-end: %.0f/%.0f us\n",
              S.latencyQuantileUs(0.5), S.latencyQuantileUs(0.99));
  std::printf("  queue-wait p99: %.0f us\n",
              S.stageQuantileUs(Server::Stage::QueueWait, 0.99));
  std::printf("  batch-wait p99: %.0f us\n",
              S.stageQuantileUs(Server::Stage::BatchWait, 0.99));
  std::printf("  run        p99: %.0f us\n",
              S.stageQuantileUs(Server::Stage::Run, 0.99));

  // 7. Metrics exposition: one scrape returns every counter any
  //    subsystem registered plus all four latency histograms — the
  //    string an HTTP handler would serve to Prometheus.
  std::string Prom = S.metricsText();
  std::printf("metricsText(): %zu bytes; first lines:\n", Prom.size());
  size_t Shown = 0, Pos = 0;
  while (Shown < 4 && Pos < Prom.size()) {
    size_t Eol = Prom.find('\n', Pos);
    std::printf("  %s\n", Prom.substr(Pos, Eol - Pos).c_str());
    Pos = Eol + 1;
    ++Shown;
  }
  std::printf("metricsJson(): %zu bytes\n", S.metricsJson().size());

  // 8. Export the capture as Chrome trace JSON. Every event recorded by
  //    any layer since enable() is in this one file, on a shared
  //    monotonic clock — open it in Perfetto and the serve lanes, the
  //    compile spans, and the tuner cycles line up on one timeline.
  const char *Path = "/tmp/daisy_observability_trace.json";
  Recorder.disable();
  if (Recorder.dumpTrace(Path))
    std::printf("%llu events recorded; trace written to %s\n",
                static_cast<unsigned long long>(Recorder.emittedCount()),
                Path);
  std::printf("load it in https://ui.perfetto.dev or chrome://tracing\n");
  return 0;
}
