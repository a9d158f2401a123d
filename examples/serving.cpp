//===- examples/serving.cpp - the serving runtime tour --------------------==//
//
// Part of the daisy project. MIT license.
//
// How a daisy-embedding service serves kernels to many concurrent
// clients: one serve::Server over one engine, validate-once BoundArgs,
// futures from submit, explicit backpressure, and a graceful drain.
// Build and run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/serving
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "ir/Builder.h"
#include "support/Statistics.h"

#include <cstdio>
#include <future>
#include <memory>
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

  // 1. One Server per process: one engine (plan cache and tuning
  //    database), a bounded request queue with an explicit overload
  //    policy, and a worker pool draining it.
  ServerOptions Options;
  Options.Workers = 2;
  Options.QueueCapacity = 256;
  Options.Policy = BackpressurePolicy::Block; // or Reject -> Overloaded
  Server S(Options);

  // 2. Compile through the server: its engine's plan cache is keyed by
  //    structural identity, so a recompile of the same kernel is a hit.
  int N = 48;
  Kernel K = S.compile(makeGemm(N));
  (void)S.compile(makeGemm(N)); // A plan-cache hit: no second compile.
  std::printf("compiled gemm twice through the server (%lld plan compile, "
              "%zu cached kernel)\n",
              static_cast<long long>(statsCounter("Engine.PlanCompiles")),
              S.engine().planCacheSize());

  // 3. Bind once, submit many. Kernel::bind pays the name-to-slot
  //    validation exactly once; every submit after that is
  //    string-compare-free. Each in-flight request owns its buffers.
  struct Client {
    std::vector<double> A, B, C;
    BoundArgs Args;
    std::future<RunStatus> Done;
  };
  std::vector<std::unique_ptr<Client>> Clients;
  for (int I = 0; I < 16; ++I) {
    auto C = std::make_unique<Client>();
    C->A.assign(N * N, 0.001 * I);
    C->B.assign(N * N, 1.0);
    C->C.assign(N * N, 0.0);
    C->Args = K.bind(ArgBinding()
                         .bind("A", C->A)
                         .bind("B", C->B)
                         .bind("C", C->C));
    if (!C->Args.ok()) {
      std::printf("bind failed: %s\n", C->Args.error().c_str());
      return 1;
    }
    Clients.push_back(std::move(C));
  }
  for (auto &C : Clients)
    C->Done = S.submit(K, C->Args);

  // 4. Futures complete as workers drain the queue, one request per
  //    dispatch on a context borrowed from the kernel's pool.
  for (size_t I = 0; I < Clients.size(); ++I) {
    RunStatus Status = Clients[I]->Done.get();
    if (!Status.ok()) {
      std::printf("request %zu failed: %s\n", I, Status.Error.c_str());
      return 1;
    }
  }
  std::printf("16 requests served; C[0] of client 3 = %.3f\n",
              Clients[3]->C[0]);

  // 5. Misuse is a diagnostic, not UB: arguments bound against another
  //    kernel are rejected as stale instead of addressing wrong slots.
  Kernel Other = Kernel::compile(makeGemm(N));
  RunStatus Stale = S.submit(Other, Clients[0]->Args).get();
  std::printf("stale BoundArgs on another kernel -> \"%s\"\n",
              Stale.Error.c_str());

  // 6. Observability: every serving event is counted, and the queue
  //    depth distribution shows how loaded the server ran.
  S.drain();
  std::printf("counters: submitted %lld, completed %lld, rejected %lld, "
              "queue-depth max %lld\n",
              static_cast<long long>(statsCounter("Serve.Submitted")),
              static_cast<long long>(statsCounter("Serve.Completed")),
              static_cast<long long>(statsCounter("Serve.Rejected")),
              static_cast<long long>(statsCounter("Serve.QueueDepthMax")));
  std::printf("queue-depth histogram (log2 buckets):");
  for (uint64_t Bucket : S.queueDepthHistogram())
    std::printf(" %llu", static_cast<unsigned long long>(Bucket));
  std::printf("\n");

  // 7. Destruction is a graceful shutdown: admission closes, workers
  //    drain, every future is completed or failed — never leaked.
  return 0;
}
