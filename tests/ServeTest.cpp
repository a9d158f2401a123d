//===- tests/ServeTest.cpp - serving-runtime tests -------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The serving runtime's contracts (this suite runs under ThreadSanitizer
// in CI, DAISY_THREADS=4):
//
// - submit-storm bit-identity: results of async submission are identical
//   to synchronous Kernel::run under FIFO and FairShare;
// - validate-once BoundArgs: one bind, many string-compare-free runs;
//   handles bound against a different kernel are rejected as stale, not
//   executed;
// - backpressure: a full queue rejects with RunStatus::Overloaded under
//   the Reject policy and absorbs the burst under Block;
// - graceful shutdown: destroying a server with queued and in-flight
//   requests completes every future;
// - counters: Serve.Submitted == Serve.Completed + Serve.Rejected +
//   Serve.Expired after drain; the queue-depth histogram samples every
//   admission;
// - context pool: a worker borrows a served kernel's pooled context per
//   request, so after drain() the context is back in the kernel's pool;
// - scheduling policies: FIFO, EDF, and FairShare pop in their
//   contractual orders (observed via Request::Seq, no timing races);
//   FairShare interleaves tenants by deficit-weighted round-robin and
//   keeps a minority tenant at its fair completion share under a flood;
// - tenant quotas: a tenant at quota sheds its own overflow while other
//   tenants keep their headroom, and the per-tenant counters hold
//   Submitted == Completed + Rejected + Expired after drain;
// - deadlines: expired work is shed at admission or pop, never runs, and
//   drain() still completes every future;
// - retries: transient Overloaded rejections are absorbed by
//   SubmitOptions{MaxRetries, Backoff} (equal-jittered).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "exec/Interpreter.h"
#include "ir/Builder.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <optional>
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

/// Two-nest program with a kernel-managed transient temporary.
Program makeTransientProgram(int N) {
  Program Prog("transient");
  Prog.addArray("In", {N});
  Prog.addArray("Out", {N});
  Prog.addArray("Tmp", {N}, /*Transient=*/true);
  Prog.append(forLoop("i", 0, N,
                      {assign("S0", "Tmp", {ax("i")},
                              read("In", {ax("i")}) * lit(2.0))}));
  Prog.append(forLoop("i", 0, N,
                      {assign("S1", "Out", {ax("i")},
                              read("Tmp", {ax("i")}) + lit(1.0))}));
  return Prog;
}

/// Caller-owned argument storage for one request, initialized like a
/// deterministic DataEnv so results are comparable across paths.
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

/// A kernel that keeps one worker busy for a few milliseconds — long
/// enough that a handful of microsecond-scale submits are guaranteed to
/// land while it is still running.
Kernel makePlugKernel() {
  static Program Prog = makeGemm("i", "j", "k", 160);
  return Kernel::compile(Prog);
}

/// Spin until the worker has picked up everything queued so far.
void waitUntilQueueEmpty(Server &S) {
  while (S.queueDepth() != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

} // namespace

//===----------------------------------------------------------------------===//
// BoundArgs: validate once, run many
//===----------------------------------------------------------------------===//

TEST(BoundArgsTest, BindValidatesOnceAndRunsMatchArgBinding) {
  Program Prog = makeGemm("i", "j", "k", 12);
  Kernel K = Kernel::compile(Prog);

  OwnedArgs Sync(Prog, 7);
  ASSERT_TRUE(K.run(Sync.binding()));

  OwnedArgs Prepared(Prog, 7);
  BoundArgs Bound = K.bind(Prepared.binding());
  ASSERT_TRUE(Bound.ok());
  EXPECT_EQ(Bound.slots().size(), Prog.arrays().size());
  ASSERT_TRUE(K.run(Bound));
  EXPECT_EQ(Prepared.Buffers, Sync.Buffers);

  // The handle is reusable: a second run through the same BoundArgs sees
  // the same semantics (C accumulates, so refill first).
  OwnedArgs Fresh(Prog, 7);
  Prepared.Buffers = Fresh.Buffers; // restore inputs; pointers unchanged?
  // Vector assignment may reallocate — rebind to be pointer-correct.
  Bound = K.bind(Prepared.binding());
  ASSERT_TRUE(K.run(Bound));
  EXPECT_EQ(Prepared.Buffers, Sync.Buffers);
}

TEST(BoundArgsTest, TransientProgramPreparedRunsAreExact) {
  Program Prog = makeTransientProgram(32);
  Kernel K = Kernel::compile(Prog);
  std::vector<double> In(32, 3.0), Out(32, 0.0);
  BoundArgs Bound = K.bind(ArgBinding().bind("In", In).bind("Out", Out));
  ASSERT_TRUE(Bound.ok());
  ASSERT_TRUE(K.run(Bound));
  std::vector<double> First = Out;
  // Re-run through the pooled (now dirty) context: transient scratch is
  // re-zeroed, results identical.
  ASSERT_TRUE(K.run(Bound));
  EXPECT_EQ(Out, First);
  EXPECT_EQ(Out[0], 3.0 * 2.0 + 1.0);
}

TEST(BoundArgsTest, FailedValidationYieldsNonOkHandle) {
  Kernel K = Kernel::compile(makeGemm("i", "j", "k", 8));
  std::vector<double> A(64), B(64);
  BoundArgs Bound = K.bind(ArgBinding().bind("A", A).bind("B", B));
  EXPECT_FALSE(Bound.ok());
  EXPECT_NE(Bound.error().find("not bound"), std::string::npos);

  RunStatus Status = K.run(Bound);
  EXPECT_FALSE(Status.ok());
  EXPECT_EQ(Status.Why, RunStatus::BindError);
  EXPECT_NE(Status.Error.find("not bound"), std::string::npos);
}

TEST(BoundArgsTest, StaleRebindAgainstOtherKernelIsRejected) {
  Program Prog = makeGemm("i", "j", "k", 8);
  // Two distinct compilations of the same program: structurally equal,
  // but slot tables must not transfer between kernel instances.
  Kernel KA = Kernel::compile(Prog);
  Kernel KB = Kernel::compile(Prog);
  OwnedArgs Args(Prog);
  BoundArgs Bound = KA.bind(Args.binding());
  ASSERT_TRUE(Bound.ok());

  RunStatus Stale = KB.run(Bound);
  EXPECT_FALSE(Stale.ok());
  EXPECT_EQ(Stale.Why, RunStatus::BindError);
  EXPECT_NE(Stale.Error.find("different kernel"), std::string::npos);

  // The owning kernel still accepts the handle.
  EXPECT_TRUE(KA.run(Bound));
}

TEST(BoundArgsTest, DefaultHandleIsRejected) {
  Kernel K = Kernel::compile(makeGemm("i", "j", "k", 8));
  RunStatus Status = K.run(BoundArgs());
  EXPECT_FALSE(Status.ok());
  EXPECT_NE(Status.Error.find("unbound"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Submit storm: bit-identity under FIFO and FairShare
//===----------------------------------------------------------------------===//

namespace {

void submitStorm(SchedulerPolicy Policy) {
  std::vector<Program> Programs;
  Programs.push_back(makeGemm("i", "j", "k", 12));
  Programs.push_back(makeGemm("j", "k", "i", 12));
  Programs.push_back(makeTransientProgram(64));

  ServerOptions Options;
  Options.Workers = 4;
  Options.QueueCapacity = 256;
  Options.Scheduling = Policy;
  Server S(Options);

  std::vector<Kernel> Kernels;
  for (const Program &Prog : Programs)
    Kernels.push_back(S.compile(Prog));

  // Synchronous references.
  std::vector<OwnedArgs> Expected;
  for (size_t P = 0; P < Programs.size(); ++P) {
    Expected.emplace_back(Programs[P], 5);
    ASSERT_TRUE(Kernels[P].run(Expected.back().binding()));
  }

  constexpr int Threads = 4;
  constexpr int Reps = 6;
  std::vector<int> Mismatches(Threads, 0);
  std::vector<std::thread> Submitters;
  for (int T = 0; T < Threads; ++T)
    Submitters.emplace_back([&, T] {
      // One tenant per submitter, so FairShare rotates between them.
      SubmitOptions SO;
      SO.Tenant = static_cast<uint32_t>(T);
      // Every request owns its buffers for the whole round trip.
      std::vector<std::unique_ptr<OwnedArgs>> Owned;
      std::vector<size_t> Kind;
      std::vector<std::future<RunStatus>> Futures;
      for (int R = 0; R < Reps; ++R)
        for (size_t P = 0; P < Programs.size(); ++P) {
          Owned.push_back(std::make_unique<OwnedArgs>(Programs[P], 5));
          Kind.push_back(P);
          BoundArgs Bound = Kernels[P].bind(Owned.back()->binding());
          if (!Bound.ok()) {
            ++Mismatches[T];
            continue;
          }
          Futures.push_back(S.submit(Kernels[P], std::move(Bound), SO));
        }
      for (size_t I = 0; I < Futures.size(); ++I) {
        RunStatus Status = Futures[I].get();
        if (!Status.ok() ||
            Owned[I]->Buffers != Expected[Kind[I]].Buffers)
          ++Mismatches[T];
      }
    });
  for (std::thread &W : Submitters)
    W.join();
  for (int T = 0; T < Threads; ++T)
    EXPECT_EQ(Mismatches[T], 0) << "submitter " << T;

  S.drain();
  EXPECT_EQ(S.queueDepth(), 0u);
}

} // namespace

TEST(ServeStormTest, Fifo) { submitStorm(SchedulerPolicy::Fifo); }
TEST(ServeStormTest, FairShare) { submitStorm(SchedulerPolicy::FairShare); }

//===----------------------------------------------------------------------===//
// Backpressure
//===----------------------------------------------------------------------===//

TEST(ServeBackpressureTest, RejectPolicyFailsFastWithOverloaded) {
  resetStatsCounters();
  ServerOptions Options;
  Options.Workers = 1;
  Options.QueueCapacity = 4;
  Options.Policy = BackpressurePolicy::Reject;
  Server S(Options);

  Kernel Plug = makePlugKernel();
  OwnedArgs PlugArgs(Plug.program());
  std::future<RunStatus> PlugDone =
      S.submit(Plug, Plug.bind(PlugArgs.binding()));
  // Wait until the single worker has taken the plug off the queue; it
  // now executes for milliseconds while we fill the queue in
  // microseconds.
  waitUntilQueueEmpty(S);

  Program Small = makeGemm("i", "j", "k", 8);
  Kernel K = S.compile(Small);
  std::vector<std::unique_ptr<OwnedArgs>> Owned;
  std::vector<std::future<RunStatus>> Accepted;
  for (size_t I = 0; I < Options.QueueCapacity; ++I) {
    Owned.push_back(std::make_unique<OwnedArgs>(Small));
    Accepted.push_back(S.submit(K, K.bind(Owned.back()->binding())));
  }
  // The queue is now full and the worker is still inside the plug: the
  // next submit must be rejected immediately.
  Owned.push_back(std::make_unique<OwnedArgs>(Small));
  std::future<RunStatus> Rejected =
      S.submit(K, K.bind(Owned.back()->binding()));
  ASSERT_EQ(Rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  RunStatus Status = Rejected.get();
  EXPECT_FALSE(Status.ok());
  EXPECT_EQ(Status.Why, RunStatus::Overloaded);

  S.drain();
  EXPECT_TRUE(PlugDone.get().ok());
  for (auto &F : Accepted)
    EXPECT_TRUE(F.get().ok());
  EXPECT_EQ(statsCounter("Serve.Rejected"), 1);
  EXPECT_EQ(statsCounter("Serve.Submitted"),
            statsCounter("Serve.Completed") + statsCounter("Serve.Rejected") +
                statsCounter("Serve.Expired"));
  EXPECT_GE(statsCounter("Serve.QueueDepthMax"),
            static_cast<int64_t>(Options.QueueCapacity));
}

TEST(ServeBackpressureTest, BlockPolicyAbsorbsTheBurst) {
  resetStatsCounters();
  ServerOptions Options;
  Options.Workers = 1;
  Options.QueueCapacity = 2;
  Options.Policy = BackpressurePolicy::Block;
  Server S(Options);

  Kernel Plug = makePlugKernel();
  OwnedArgs PlugArgs(Plug.program());
  std::future<RunStatus> PlugDone =
      S.submit(Plug, Plug.bind(PlugArgs.binding()));
  waitUntilQueueEmpty(S);

  Program Small = makeGemm("i", "j", "k", 8);
  Kernel K = S.compile(Small);
  constexpr size_t Burst = 6; // 3x the queue bound: submitters must block.
  std::vector<std::unique_ptr<OwnedArgs>> Owned;
  std::vector<std::future<RunStatus>> Futures;
  for (size_t I = 0; I < Burst; ++I)
    Owned.push_back(std::make_unique<OwnedArgs>(Small));
  std::thread Submitter([&] {
    for (size_t I = 0; I < Burst; ++I)
      Futures.push_back(S.submit(K, K.bind(Owned[I]->binding())));
  });
  Submitter.join();

  S.drain();
  EXPECT_TRUE(PlugDone.get().ok());
  for (auto &F : Futures)
    EXPECT_TRUE(F.get().ok());
  EXPECT_EQ(statsCounter("Serve.Rejected"), 0);
  EXPECT_EQ(statsCounter("Serve.Expired"), 0);
  // Depth after push never exceeds the bound — that is what blocking
  // buys.
  EXPECT_LE(statsCounter("Serve.QueueDepthMax"),
            static_cast<int64_t>(Options.QueueCapacity));
  EXPECT_EQ(statsCounter("Serve.Submitted"), statsCounter("Serve.Completed"));
}

//===----------------------------------------------------------------------===//
// Queue-depth histogram and context pool
//===----------------------------------------------------------------------===//

TEST(ServeQueueDepthTest, HistogramSamplesEveryAdmission) {
  ServerOptions Options;
  Options.Workers = 1;
  Options.QueueCapacity = 64;
  Server S(Options);

  Kernel Plug = makePlugKernel();
  OwnedArgs PlugArgs(Plug.program());
  std::future<RunStatus> PlugDone =
      S.submit(Plug, Plug.bind(PlugArgs.binding()));
  waitUntilQueueEmpty(S);

  // Queue 8 requests behind the plug: the depth after each push grows
  // while the worker is busy, and every push is one histogram sample.
  Program Small = makeGemm("i", "j", "k", 8);
  Kernel K = S.compile(Small);
  std::vector<std::unique_ptr<OwnedArgs>> Owned;
  std::vector<std::future<RunStatus>> Futures;
  for (int I = 0; I < 8; ++I) {
    Owned.push_back(std::make_unique<OwnedArgs>(Small));
    Futures.push_back(S.submit(K, K.bind(Owned.back()->binding())));
  }
  S.drain();
  EXPECT_TRUE(PlugDone.get().ok());
  for (auto &F : Futures)
    EXPECT_TRUE(F.get().ok());
  uint64_t Samples = 0;
  for (uint64_t Bucket : S.queueDepthHistogram())
    Samples += Bucket;
  EXPECT_EQ(Samples, 9u); // plug + 8 fillers
}

TEST(ServeContextTest, DrainReturnsTheContextToItsKernelPool) {
  ServerOptions Options;
  Options.Workers = 1;
  Server S(Options);
  Program Small = makeGemm("i", "j", "k", 8);
  Kernel K = S.compile(Small);
  OwnedArgs Args(Small);
  BoundArgs Bound = K.bind(Args.binding());
  std::vector<std::future<RunStatus>> Futures;
  for (int I = 0; I < 16; ++I)
    Futures.push_back(S.submit(K, Bound));
  for (auto &F : Futures)
    EXPECT_TRUE(F.get().ok());
  S.drain();
  // The one lane ran every request on a context borrowed from K's pool
  // and returned it after each run: the worker holds none between
  // requests.
  EXPECT_EQ(K.contextPoolSize(), 1u);
}

//===----------------------------------------------------------------------===//
// Shutdown
//===----------------------------------------------------------------------===//

TEST(ServeShutdownTest, DestructorCompletesInflightAndQueuedRequests) {
  Program Small = makeGemm("i", "j", "k", 10);
  std::vector<std::unique_ptr<OwnedArgs>> Owned;
  std::vector<std::future<RunStatus>> Futures;
  OwnedArgs Expected(Small, 1);
  {
    ServerOptions Options;
    Options.Workers = 2;
    Options.QueueCapacity = 64;
    Server S(Options);
    Kernel K = S.compile(Small);
    ASSERT_TRUE(K.run(Expected.binding()));
    for (int I = 0; I < 16; ++I) {
      Owned.push_back(std::make_unique<OwnedArgs>(Small, 1));
      Futures.push_back(S.submit(K, K.bind(Owned.back()->binding())));
    }
    // Destructor runs with most requests still queued.
  }
  for (size_t I = 0; I < Futures.size(); ++I) {
    ASSERT_EQ(Futures[I].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "request " << I << " leaked through shutdown";
    EXPECT_TRUE(Futures[I].get().ok());
    EXPECT_EQ(Owned[I]->Buffers, Expected.Buffers);
  }
}

//===----------------------------------------------------------------------===//
// Stale/misbound submissions through the server
//===----------------------------------------------------------------------===//

TEST(ServeSubmitTest, StaleAndUnboundArgsFailTheFuture) {
  ServerOptions Options;
  Options.Workers = 1;
  Server S(Options);
  Program Prog = makeGemm("i", "j", "k", 8);
  Kernel KA = Kernel::compile(Prog);
  Kernel KB = Kernel::compile(Prog);

  OwnedArgs Args(Prog);
  BoundArgs BoundToA = KA.bind(Args.binding());
  ASSERT_TRUE(BoundToA.ok());

  // Direct run: rejected as stale.
  RunStatus Direct = KB.run(BoundToA);
  EXPECT_FALSE(Direct.ok());
  EXPECT_NE(Direct.Error.find("different kernel"), std::string::npos);

  // Through the server: the future carries the same rejection.
  RunStatus Via = S.submit(KB, BoundToA).get();
  EXPECT_FALSE(Via.ok());
  EXPECT_NE(Via.Error.find("different kernel"), std::string::npos);

  // Unbound handle: fails fast without reaching a worker.
  RunStatus Unbound = S.submit(KA, BoundArgs()).get();
  EXPECT_FALSE(Unbound.ok());
  EXPECT_NE(Unbound.Error.find("unbound"), std::string::npos);

  // The ArgBinding convenience overload pays validation at submit.
  std::vector<double> OnlyA(64, 0.0);
  RunStatus Bad = S.submit(KA, ArgBinding().bind("A", OnlyA)).get();
  EXPECT_FALSE(Bad.ok());
  EXPECT_NE(Bad.Error.find("not bound"), std::string::npos);

  S.drain();
}

//===----------------------------------------------------------------------===//
// RunStatus::Kind coverage guard
//===----------------------------------------------------------------------===//

namespace {

/// Exhaustive by construction: no default case, so -Wswitch flags a new
/// Kind here, and the static_assert turns "forgot to update the
/// handlers" into a compile error instead of a silent fall-through.
const char *kindName(RunStatus::Kind K) {
  static_assert(RunStatus::NumKinds_ == 6,
                "new RunStatus::Kind: update kindName, the serving "
                "runtime's status switches, and the README taxonomy");
  switch (K) {
  case RunStatus::Ok:
    return "ok";
  case RunStatus::BindError:
    return "bind-error";
  case RunStatus::Overloaded:
    return "overloaded";
  case RunStatus::ShutDown:
    return "shut-down";
  case RunStatus::Expired:
    return "expired";
  case RunStatus::Faulted:
    return "faulted";
  case RunStatus::NumKinds_:
    break;
  }
  return "invalid";
}

} // namespace

TEST(RunStatusKindTest, EveryKindIsHandledAndFactoriesTagCorrectly) {
  for (uint8_t K = 0; K < RunStatus::NumKinds_; ++K)
    EXPECT_STRNE(kindName(static_cast<RunStatus::Kind>(K)), "invalid");
  EXPECT_EQ(RunStatus().Why, RunStatus::Ok);
  EXPECT_EQ(RunStatus("boom").Why, RunStatus::BindError);
  EXPECT_EQ(RunStatus::overloaded().Why, RunStatus::Overloaded);
  EXPECT_EQ(RunStatus::shutDown().Why, RunStatus::ShutDown);
  EXPECT_EQ(RunStatus::expired().Why, RunStatus::Expired);
  EXPECT_FALSE(RunStatus::expired().ok());
  EXPECT_EQ(RunStatus::faulted("kernel fault").Why, RunStatus::Faulted);
  EXPECT_FALSE(RunStatus::faulted("kernel fault").ok());
  EXPECT_NE(RunStatus::faulted("kernel fault").Error.find("kernel fault"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Scheduler policies: pop order, observed via admission Seq (no timing)
//===----------------------------------------------------------------------===//

namespace {

/// Drains \p Sched one request at a time and returns the admission
/// sequence numbers in pop order.
std::vector<uint64_t> popOrder(serve::Scheduler &Sched) {
  std::vector<uint64_t> Order;
  std::optional<Request> Next;
  std::vector<Request> Expired;
  while (Sched.depth() > 0) {
    if (!Sched.pop(Next, Expired))
      break;
    if (Next)
      Order.push_back(Next->Seq);
  }
  return Order;
}

serve::Scheduler::PushResult pushWith(serve::Scheduler &Sched,
                                      TimePoint Deadline) {
  Request R;
  R.Deadline = Deadline;
  return Sched.push(R);
}

serve::Scheduler::PushResult pushTenant(serve::Scheduler &Sched, uint32_t Tenant,
                                        uint32_t Weight = 1) {
  Request R;
  R.Tenant = Tenant;
  R.Weight = Weight;
  return Sched.push(R);
}

/// Jain fairness index of per-tenant counts: 1.0 = perfectly even,
/// 1/n = one tenant took everything.
double jainIndex(const std::vector<uint64_t> &Counts) {
  double Sum = 0.0, SumSq = 0.0;
  for (uint64_t C : Counts) {
    Sum += static_cast<double>(C);
    SumSq += static_cast<double>(C) * static_cast<double>(C);
  }
  if (SumSq == 0.0)
    return 1.0;
  return Sum * Sum / (static_cast<double>(Counts.size()) * SumSq);
}

} // namespace

TEST(SchedulerPolicyTest, FifoPopsInAdmissionOrder) {
  auto Sched = serve::Scheduler::create(SchedulerPolicy::Fifo, 16,
                                 BackpressurePolicy::Reject);
  TimePoint Far = serveNow() + std::chrono::hours(1);
  // Deadlines are present but must not reorder FIFO.
  ASSERT_EQ(pushWith(*Sched, Far), serve::Scheduler::PushResult::Ok);
  ASSERT_EQ(pushWith(*Sched, noDeadline()), serve::Scheduler::PushResult::Ok);
  ASSERT_EQ(pushWith(*Sched, Far + std::chrono::hours(1)),
            serve::Scheduler::PushResult::Ok);
  EXPECT_EQ(popOrder(*Sched), (std::vector<uint64_t>{0, 1, 2}));
}

TEST(SchedulerPolicyTest, EdfPopsEarliestDeadlineFirstNoDeadlineLast) {
  auto Sched = serve::Scheduler::create(SchedulerPolicy::EarliestDeadlineFirst, 16,
                                 BackpressurePolicy::Reject);
  TimePoint Now = serveNow();
  ASSERT_EQ(pushWith(*Sched, Now + std::chrono::hours(2)),
            serve::Scheduler::PushResult::Ok); // Seq 0
  ASSERT_EQ(pushWith(*Sched, noDeadline()),
            serve::Scheduler::PushResult::Ok); // Seq 1
  ASSERT_EQ(pushWith(*Sched, Now + std::chrono::hours(1)),
            serve::Scheduler::PushResult::Ok); // Seq 2
  ASSERT_EQ(pushWith(*Sched, noDeadline()),
            serve::Scheduler::PushResult::Ok); // Seq 3
  ASSERT_EQ(pushWith(*Sched, Now + std::chrono::hours(1)),
            serve::Scheduler::PushResult::Ok); // Seq 4: ties break by admission
  EXPECT_EQ(popOrder(*Sched), (std::vector<uint64_t>{2, 4, 0, 1, 3}));
}

TEST(SchedulerPolicyTest, FairShareInterleavesTenantsRoundRobin) {
  auto Sched = serve::Scheduler::create(SchedulerPolicy::FairShare, 16,
                                        BackpressurePolicy::Reject);
  // Tenant 0 floods four requests before tenant 1 submits two: FIFO
  // would serve all of tenant 0 first; FairShare alternates turns while
  // both are backlogged, then drains the survivor.
  for (int I = 0; I < 4; ++I)
    ASSERT_EQ(pushTenant(*Sched, 0), serve::Scheduler::PushResult::Ok);
  for (int I = 0; I < 2; ++I)
    ASSERT_EQ(pushTenant(*Sched, 1), serve::Scheduler::PushResult::Ok);
  EXPECT_EQ(popOrder(*Sched), (std::vector<uint64_t>{0, 4, 1, 5, 2, 3}));
}

TEST(SchedulerPolicyTest, FairShareWeightEarnsConsecutiveTurns) {
  auto Sched = serve::Scheduler::create(SchedulerPolicy::FairShare, 16,
                                        BackpressurePolicy::Reject);
  // Weight 2 buys tenant 0 two consecutive turns per rotation.
  for (int I = 0; I < 4; ++I)
    ASSERT_EQ(pushTenant(*Sched, 0, /*Weight=*/2),
              serve::Scheduler::PushResult::Ok);
  for (int I = 0; I < 2; ++I)
    ASSERT_EQ(pushTenant(*Sched, 1), serve::Scheduler::PushResult::Ok);
  EXPECT_EQ(popOrder(*Sched), (std::vector<uint64_t>{0, 1, 4, 2, 3, 5}));
}

TEST(SchedulerPolicyTest, FairShareKeepsMinorityTenantAtFairShare) {
  auto Sched = serve::Scheduler::create(SchedulerPolicy::FairShare, 128,
                                        BackpressurePolicy::Reject);
  // Heavy tenant floods 50 requests, the minority tenant submits 10.
  for (int I = 0; I < 50; ++I)
    ASSERT_EQ(pushTenant(*Sched, 0), serve::Scheduler::PushResult::Ok);
  for (int I = 0; I < 10; ++I)
    ASSERT_EQ(pushTenant(*Sched, 1), serve::Scheduler::PushResult::Ok);
  std::vector<uint64_t> Order = popOrder(*Sched);
  ASSERT_EQ(Order.size(), 60u);
  // While both tenants are backlogged (the first 20 pops), each holds a
  // fair half. The minority must get >= 0.8x its fair share and the
  // two-tenant Jain index must be near-perfect.
  uint64_t MinorityServed = 0;
  for (size_t I = 0; I < 20; ++I)
    if (Order[I] >= 50) // Seqs 50..59 are the minority tenant's.
      ++MinorityServed;
  EXPECT_GE(MinorityServed, static_cast<uint64_t>(0.8 * 10));
  EXPECT_GE(jainIndex({20 - MinorityServed, MinorityServed}), 0.95);
  // Under FIFO the same admission order starves the minority entirely in
  // the first 20 pops — the contrast FairShare exists to provide.
  auto Fifo = serve::Scheduler::create(SchedulerPolicy::Fifo, 128,
                                       BackpressurePolicy::Reject);
  for (int I = 0; I < 50; ++I)
    ASSERT_EQ(pushTenant(*Fifo, 0), serve::Scheduler::PushResult::Ok);
  for (int I = 0; I < 10; ++I)
    ASSERT_EQ(pushTenant(*Fifo, 1), serve::Scheduler::PushResult::Ok);
  std::vector<uint64_t> FifoOrder = popOrder(*Fifo);
  uint64_t FifoMinority = 0;
  for (size_t I = 0; I < 20; ++I)
    if (FifoOrder[I] >= 50)
      ++FifoMinority;
  EXPECT_EQ(FifoMinority, 0u);
}

TEST(SchedulerPolicyTest, TenantQuotaConfinesOverflowToItsOwner) {
  // Quota 8 of capacity 64: the flooding tenant keeps at most 8 queued
  // and sheds the rest as its own Overloaded; a light tenant still has
  // the whole remaining capacity.
  auto Sched = serve::Scheduler::create(SchedulerPolicy::FairShare, 64,
                                        BackpressurePolicy::Reject,
                                        /*TenantQuota=*/8);
  int HeavyOk = 0, HeavyOverloaded = 0;
  for (int I = 0; I < 20; ++I) {
    serve::Scheduler::PushResult P = pushTenant(*Sched, 7);
    if (P == serve::Scheduler::PushResult::Ok)
      ++HeavyOk;
    else if (P == serve::Scheduler::PushResult::Overloaded)
      ++HeavyOverloaded;
  }
  EXPECT_EQ(HeavyOk, 8);
  EXPECT_EQ(HeavyOverloaded, 12);
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(pushTenant(*Sched, 3), serve::Scheduler::PushResult::Ok);
  EXPECT_EQ(Sched->depth(), 12u);
  // Serving one of the heavy tenant's requests frees quota for it.
  std::optional<Request> Next;
  std::vector<Request> Expired;
  ASSERT_TRUE(Sched->pop(Next, Expired));
  ASSERT_TRUE(Next.has_value());
  EXPECT_EQ(Next->Tenant, 7u);
  EXPECT_EQ(pushTenant(*Sched, 7), serve::Scheduler::PushResult::Ok);
  EXPECT_EQ(pushTenant(*Sched, 7), serve::Scheduler::PushResult::Overloaded);
}

TEST(SchedulerPolicyTest, ExpiredWorkShedsAtAdmissionAndAtPop) {
  for (SchedulerPolicy Policy :
       {SchedulerPolicy::Fifo, SchedulerPolicy::EarliestDeadlineFirst,
        SchedulerPolicy::FairShare}) {
    auto Sched = serve::Scheduler::create(Policy, 16, BackpressurePolicy::Reject);
    // Already late at admission: handed back, never queued.
    EXPECT_EQ(pushWith(*Sched, serveNow() - std::chrono::milliseconds(1)),
              serve::Scheduler::PushResult::Expired);
    EXPECT_EQ(Sched->depth(), 0u);

    // Queued, then expires while waiting: shed at pop, not dispatched.
    ASSERT_EQ(pushWith(*Sched, serveNow() + std::chrono::milliseconds(2)),
              serve::Scheduler::PushResult::Ok);
    ASSERT_EQ(pushWith(*Sched, noDeadline()), serve::Scheduler::PushResult::Ok);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::optional<Request> Next;
    std::vector<Request> Expired;
    ASSERT_TRUE(Sched->pop(Next, Expired));
    EXPECT_EQ(Expired.size(), 1u);
    ASSERT_TRUE(Next.has_value());
    EXPECT_EQ(Next->Deadline, noDeadline());
  }
}

TEST(SchedulerPolicyTest, BlockedPushGivesUpWhenDeadlinePasses) {
  auto Sched =
      serve::Scheduler::create(SchedulerPolicy::Fifo, 1, BackpressurePolicy::Block);
  ASSERT_EQ(pushWith(*Sched, noDeadline()), serve::Scheduler::PushResult::Ok);
  // The queue is full and nobody pops: a dated Block push must return
  // Expired once its deadline passes instead of waiting forever.
  TimePoint Before = serveNow();
  EXPECT_EQ(pushWith(*Sched, Before + std::chrono::milliseconds(3)),
            serve::Scheduler::PushResult::Expired);
  EXPECT_GE(serveNow() - Before, std::chrono::milliseconds(3));
  EXPECT_EQ(Sched->depth(), 1u);
}

//===----------------------------------------------------------------------===//
// Deadlines through the server
//===----------------------------------------------------------------------===//

TEST(ServeDeadlineTest, DrainCompletesExpiredRequestsWithoutRunningThem) {
  resetStatsCounters();
  ServerOptions Options;
  Options.Workers = 1;
  Options.QueueCapacity = 64;
  Options.Policy = BackpressurePolicy::Block;
  Server S(Options);

  // Compile (a multi-millisecond scheduler search) happens before the
  // plug goes in, so the timing below is submit-only.
  Program Small = makeGemm("i", "j", "k", 8);
  Kernel K = S.compile(Small);
  OwnedArgs Untouched(Small, 5);

  // Two plugs, drained one pop at a time: the first absorbs worker-lane
  // start-up (its pop can land anywhere in its run), so when the second
  // leaves the queue the worker has only just *started* it — everything
  // submitted now sits behind a full multi-millisecond run, and a 1ms
  // budget is guaranteed to lapse in the queue.
  Kernel Plug = makePlugKernel();
  OwnedArgs PlugArgs(Plug.program());
  std::future<RunStatus> PlugDone =
      S.submit(Plug, Plug.bind(PlugArgs.binding()));
  waitUntilQueueEmpty(S);
  Kernel Plug2 = makePlugKernel();
  OwnedArgs Plug2Args(Plug2.program());
  std::future<RunStatus> Plug2Done =
      S.submit(Plug2, Plug2.bind(Plug2Args.binding()));
  waitUntilQueueEmpty(S);

  SubmitOptions Dated;
  Dated.Timeout = std::chrono::milliseconds(1);
  constexpr int N = 4;
  std::vector<std::unique_ptr<OwnedArgs>> Owned;
  std::vector<std::future<RunStatus>> Futures;
  for (int I = 0; I < N; ++I) {
    Owned.push_back(std::make_unique<OwnedArgs>(Small, 5));
    Futures.push_back(S.submit(K, K.bind(Owned.back()->binding()), Dated));
  }

  // drain() must terminate even though the queue holds only dead work.
  S.drain();
  EXPECT_TRUE(PlugDone.get().ok());
  EXPECT_TRUE(Plug2Done.get().ok());
  for (int I = 0; I < N; ++I) {
    ASSERT_EQ(Futures[I].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    RunStatus Status = Futures[I].get();
    EXPECT_FALSE(Status.ok());
    EXPECT_EQ(Status.Why, RunStatus::Expired) << "request " << I;
    // Never dispatched: the caller's buffers are bit-for-bit untouched.
    EXPECT_EQ(Owned[I]->Buffers, Untouched.Buffers) << "request " << I;
  }
  EXPECT_EQ(statsCounter("Serve.Expired"), N);
  EXPECT_EQ(statsCounter("Serve.Submitted"),
            statsCounter("Serve.Completed") + statsCounter("Serve.Rejected") +
                statsCounter("Serve.Expired"));
}

//===----------------------------------------------------------------------===//
// Retry with backoff
//===----------------------------------------------------------------------===//

TEST(ServeRetryTest, BackoffAbsorbsTransientOverload) {
  resetStatsCounters();
  ServerOptions Options;
  Options.Workers = 1;
  Options.QueueCapacity = 2;
  Options.Policy = BackpressurePolicy::Reject;
  Server S(Options);

  Program Small = makeGemm("i", "j", "k", 8);
  Kernel K = S.compile(Small); // before the plug: compile takes ms itself

  // Two plugs: the first absorbs worker-lane start-up, so once the
  // second leaves the queue the worker has only just started it and
  // stays busy for its full multi-millisecond run.
  Kernel Plug = makePlugKernel();
  OwnedArgs PlugArgs(Plug.program());
  std::future<RunStatus> PlugDone =
      S.submit(Plug, Plug.bind(PlugArgs.binding()));
  waitUntilQueueEmpty(S);
  Kernel Plug2 = makePlugKernel();
  OwnedArgs Plug2Args(Plug2.program());
  std::future<RunStatus> Plug2Done =
      S.submit(Plug2, Plug2.bind(Plug2Args.binding()));
  waitUntilQueueEmpty(S);

  // Fill the queue while the worker is inside the plug.
  std::vector<std::unique_ptr<OwnedArgs>> Owned;
  std::vector<std::future<RunStatus>> Fillers;
  for (size_t I = 0; I < Options.QueueCapacity; ++I) {
    Owned.push_back(std::make_unique<OwnedArgs>(Small));
    Fillers.push_back(S.submit(K, K.bind(Owned.back()->binding())));
  }

  // Overload is transient — it ends when the plug finishes in a few
  // milliseconds. A patient submit must ride it out and succeed.
  Owned.push_back(std::make_unique<OwnedArgs>(Small));
  SubmitOptions Patient;
  Patient.MaxRetries = 1000;
  Patient.Backoff = std::chrono::microseconds(200);
  RunStatus Status =
      S.submit(K, K.bind(Owned.back()->binding()), Patient).get();
  EXPECT_TRUE(Status.ok()) << Status.Error;
  EXPECT_GT(statsCounter("Serve.SubmitRetries"), 0);
  EXPECT_EQ(statsCounter("Serve.Rejected"), 0);

  S.drain();
  EXPECT_TRUE(PlugDone.get().ok());
  EXPECT_TRUE(Plug2Done.get().ok());
  for (auto &F : Fillers)
    EXPECT_TRUE(F.get().ok());
  EXPECT_EQ(statsCounter("Serve.Submitted"),
            statsCounter("Serve.Completed") + statsCounter("Serve.Rejected") +
                statsCounter("Serve.Expired"));
}

TEST(ServeRetryTest, ExhaustedRetriesStillRejectWithOverloaded) {
  resetStatsCounters();
  ServerOptions Options;
  Options.Workers = 1;
  Options.QueueCapacity = 2;
  Options.Policy = BackpressurePolicy::Reject;
  Server S(Options);

  Program Small = makeGemm("i", "j", "k", 8);
  Kernel K = S.compile(Small); // before the plug: compile takes ms itself

  // Two plugs: the first absorbs worker-lane start-up, so once the
  // second leaves the queue the worker has only just started it and
  // stays busy for its full multi-millisecond run.
  Kernel Plug = makePlugKernel();
  OwnedArgs PlugArgs(Plug.program());
  std::future<RunStatus> PlugDone =
      S.submit(Plug, Plug.bind(PlugArgs.binding()));
  waitUntilQueueEmpty(S);
  Kernel Plug2 = makePlugKernel();
  OwnedArgs Plug2Args(Plug2.program());
  std::future<RunStatus> Plug2Done =
      S.submit(Plug2, Plug2.bind(Plug2Args.binding()));
  waitUntilQueueEmpty(S);

  // Fill the queue while the worker is inside the plug.
  std::vector<std::unique_ptr<OwnedArgs>> Owned;
  std::vector<std::future<RunStatus>> Fillers;
  for (size_t I = 0; I < Options.QueueCapacity; ++I) {
    Owned.push_back(std::make_unique<OwnedArgs>(Small));
    Fillers.push_back(S.submit(K, K.bind(Owned.back()->binding())));
  }

  // One retry 50µs later finds the plug (milliseconds) still running and
  // the queue still full: the rejection stands, and it is counted once.
  Owned.push_back(std::make_unique<OwnedArgs>(Small));
  SubmitOptions Impatient;
  Impatient.MaxRetries = 1;
  Impatient.Backoff = std::chrono::microseconds(50);
  RunStatus Status =
      S.submit(K, K.bind(Owned.back()->binding()), Impatient).get();
  EXPECT_FALSE(Status.ok());
  EXPECT_EQ(Status.Why, RunStatus::Overloaded);
  EXPECT_EQ(statsCounter("Serve.SubmitRetries"), 1);
  EXPECT_EQ(statsCounter("Serve.Rejected"), 1);

  S.drain();
  EXPECT_TRUE(PlugDone.get().ok());
  EXPECT_TRUE(Plug2Done.get().ok());
  for (auto &F : Fillers)
    EXPECT_TRUE(F.get().ok());
  EXPECT_EQ(statsCounter("Serve.Submitted"),
            statsCounter("Serve.Completed") + statsCounter("Serve.Rejected") +
                statsCounter("Serve.Expired"));
}

//===----------------------------------------------------------------------===//
// Scheduling policies through the server: exactness at every policy
//===----------------------------------------------------------------------===//

TEST(ServeSchedulingTest, EveryPolicyServesBitIdenticalResults) {
  Program Small = makeGemm("i", "j", "k", 12);
  OwnedArgs Expected(Small, 5);
  ASSERT_TRUE(Kernel::compile(Small).run(Expected.binding()));
  for (SchedulerPolicy Policy :
       {SchedulerPolicy::Fifo, SchedulerPolicy::EarliestDeadlineFirst,
        SchedulerPolicy::FairShare}) {
    ServerOptions Options;
    Options.Workers = 2;
    Options.QueueCapacity = 64;
    Options.Scheduling = Policy;
    Server S(Options);
    Kernel K = S.compile(Small);
    std::vector<std::unique_ptr<OwnedArgs>> Owned;
    std::vector<std::future<RunStatus>> Futures;
    for (int I = 0; I < 12; ++I) {
      Owned.push_back(std::make_unique<OwnedArgs>(Small, 5));
      SubmitOptions SO;
      SO.Tenant = static_cast<uint32_t>(I % 2);
      if (I % 2 == 0)
        SO.Deadline = serveNow() + std::chrono::hours(1);
      Futures.push_back(S.submit(K, K.bind(Owned.back()->binding()), SO));
    }
    S.drain();
    for (int I = 0; I < 12; ++I) {
      EXPECT_TRUE(Futures[I].get().ok());
      EXPECT_EQ(Owned[I]->Buffers, Expected.Buffers);
    }
    EXPECT_GT(S.latencyCount(), 0u);
    EXPECT_GE(S.latencyQuantileUs(0.99), S.latencyQuantileUs(0.5));
  }
}

//===----------------------------------------------------------------------===//
// Multi-tenant governance through the server
//===----------------------------------------------------------------------===//

TEST(ServeTenantTest, PerTenantCountersHoldTheDrainInvariant) {
  resetStatsCounters();
  ServerOptions Options;
  Options.Workers = 2;
  Options.QueueCapacity = 64;
  Options.Scheduling = SchedulerPolicy::FairShare;
  Server S(Options);
  Program Small = makeGemm("i", "j", "k", 8);
  Kernel K = S.compile(Small);
  OwnedArgs Expected(Small, 5);
  ASSERT_TRUE(Kernel::compile(Small).run(Expected.binding()));

  std::vector<std::unique_ptr<OwnedArgs>> Owned;
  std::vector<std::future<RunStatus>> Futures;
  for (int I = 0; I < 24; ++I) {
    Owned.push_back(std::make_unique<OwnedArgs>(Small, 5));
    SubmitOptions SO;
    SO.Tenant = static_cast<uint32_t>(I % 3);
    Futures.push_back(S.submit(K, K.bind(Owned.back()->binding()), SO));
  }
  S.drain();
  for (int I = 0; I < 24; ++I) {
    EXPECT_TRUE(Futures[I].get().ok());
    EXPECT_EQ(Owned[I]->Buffers, Expected.Buffers);
  }
  for (uint32_t T = 0; T < 3; ++T) {
    std::string Base = "Serve.Tenant" + std::to_string(T) + ".";
    EXPECT_EQ(statsCounter(Base + "Submitted"), 8) << "tenant " << T;
    EXPECT_EQ(statsCounter(Base + "Submitted"),
              statsCounter(Base + "Completed") +
                  statsCounter(Base + "Rejected") +
                  statsCounter(Base + "Expired"))
        << "tenant " << T;
  }
}

TEST(ServeTenantTest, QuotaMakesTheFloodingTenantShedItsOwnOverflow) {
  resetStatsCounters();
  ServerOptions Options;
  Options.Workers = 1;
  Options.QueueCapacity = 64;
  Options.Policy = BackpressurePolicy::Reject;
  Options.Scheduling = SchedulerPolicy::FairShare;
  Options.TenantQuota = 8;
  Server S(Options);
  Program Small = makeGemm("i", "j", "k", 8);
  Kernel K = S.compile(Small);

  // Two plugs (tenant 0): the first absorbs worker start-up; once the
  // second leaves the queue the single worker is busy for milliseconds,
  // so the submits below are admission-only.
  Kernel Plug = makePlugKernel();
  OwnedArgs PlugArgs(Plug.program());
  std::future<RunStatus> PlugDone =
      S.submit(Plug, Plug.bind(PlugArgs.binding()));
  waitUntilQueueEmpty(S);
  Kernel Plug2 = makePlugKernel();
  OwnedArgs Plug2Args(Plug2.program());
  std::future<RunStatus> Plug2Done =
      S.submit(Plug2, Plug2.bind(Plug2Args.binding()));
  waitUntilQueueEmpty(S);

  // Tenant 1 floods 20 requests: quota 8 admits 8, sheds 12 — all of
  // them tenant 1's own rejections.
  std::vector<std::unique_ptr<OwnedArgs>> Owned;
  std::vector<std::future<RunStatus>> Heavy, Light;
  SubmitOptions HeavyOpts;
  HeavyOpts.Tenant = 1;
  for (int I = 0; I < 20; ++I) {
    Owned.push_back(std::make_unique<OwnedArgs>(Small));
    Heavy.push_back(S.submit(K, K.bind(Owned.back()->binding()), HeavyOpts));
  }
  // Tenant 2 submits after the flood and is untouched by it.
  SubmitOptions LightOpts;
  LightOpts.Tenant = 2;
  for (int I = 0; I < 4; ++I) {
    Owned.push_back(std::make_unique<OwnedArgs>(Small));
    Light.push_back(S.submit(K, K.bind(Owned.back()->binding()), LightOpts));
  }

  S.drain();
  EXPECT_TRUE(PlugDone.get().ok());
  EXPECT_TRUE(Plug2Done.get().ok());
  int HeavyOk = 0, HeavyOverloaded = 0;
  for (auto &F : Heavy) {
    RunStatus Status = F.get();
    if (Status.ok())
      ++HeavyOk;
    else if (Status.Why == RunStatus::Overloaded)
      ++HeavyOverloaded;
  }
  EXPECT_EQ(HeavyOk, 8);
  EXPECT_EQ(HeavyOverloaded, 12);
  for (auto &F : Light)
    EXPECT_TRUE(F.get().ok());
  EXPECT_EQ(statsCounter("Serve.Tenant1.Rejected"), 12);
  EXPECT_EQ(statsCounter("Serve.Tenant2.Rejected"), 0);
  for (uint32_t T = 0; T < 3; ++T) {
    std::string Base = "Serve.Tenant" + std::to_string(T) + ".";
    EXPECT_EQ(statsCounter(Base + "Submitted"),
              statsCounter(Base + "Completed") +
                  statsCounter(Base + "Rejected") +
                  statsCounter(Base + "Expired"))
        << "tenant " << T;
  }
}

//===----------------------------------------------------------------------===//
// Health snapshot: one structured read of the runtime's vitals
//===----------------------------------------------------------------------===//

TEST(ServeHealthTest, SnapshotReportsQueuesCountersEngineAndTenants) {
  resetStatsCounters();
  ServerOptions Options;
  Options.Workers = 2;
  Options.QueueCapacity = 32;
  Server S(Options);
  // health() is a read: every snapshot goes through a const view.
  const Server &View = S;

  // A fresh server is healthy and idle.
  HealthSnapshot Fresh = View.health();
  EXPECT_TRUE(Fresh.healthy());
  EXPECT_EQ(Fresh.QueueDepth, 0u);
  EXPECT_EQ(Fresh.QueueCapacity, 32u);
  EXPECT_EQ(Fresh.Submitted, 0);

  Program Small = makeGemm("i", "j", "k", 8);
  Kernel K = S.compile(Small);
  std::vector<std::unique_ptr<OwnedArgs>> Owned;
  std::vector<std::future<RunStatus>> Futures;
  for (int I = 0; I < 12; ++I) {
    Owned.push_back(std::make_unique<OwnedArgs>(Small));
    SubmitOptions SO;
    SO.Tenant = static_cast<uint32_t>(I % 3);
    Futures.push_back(S.submit(K, K.bind(Owned.back()->binding()), SO));
  }
  S.drain();
  for (auto &F : Futures)
    EXPECT_TRUE(F.get().ok());

  HealthSnapshot H = View.health();
  EXPECT_TRUE(H.healthy());
  EXPECT_EQ(H.Submitted, 12);
  EXPECT_EQ(H.Submitted, H.Completed + H.Rejected + H.Expired);
  EXPECT_EQ(H.Quarantined, 0u);
  EXPECT_GE(H.P99Us, H.P50Us);
  // The engine's checkpoint lineage: no DatabasePath here, so the
  // generation stays 0.
  EXPECT_EQ(H.CheckpointGeneration, 0u);
  // Tenant rows mirror the per-tenant counters, sorted by id.
  ASSERT_EQ(H.Tenants.size(), 3u);
  for (size_t T = 0; T < H.Tenants.size(); ++T) {
    EXPECT_EQ(H.Tenants[T].Tenant, T);
    EXPECT_EQ(H.Tenants[T].Submitted, 4);
    EXPECT_EQ(H.Tenants[T].Submitted, H.Tenants[T].Completed +
                                          H.Tenants[T].Rejected +
                                          H.Tenants[T].Expired);
  }
}
