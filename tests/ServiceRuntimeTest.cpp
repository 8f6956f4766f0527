//===- ServiceRuntimeTest.cpp - Multi-tenant session isolation -------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service::Runtime contracts (DESIGN.md Section 15): N concurrent
/// sessions on one shared pool produce exactly the N sequential results;
/// a session's quiescence never waits on a sibling's work; a doomed
/// session faults alone, tagged with its own session id, while its
/// neighbors finish untouched; explore-mode sessions either own the
/// Runtime's scheduling outright or are rejected deterministically; and
/// MaxActiveSessions really bounds concurrency with FIFO admission.
/// Finishing a session reaps its leftovers from its own registry of
/// parked tasks without touching a sibling's tasks; a task sits in that
/// registry only while parked; the session state the tasks borrow
/// outlives every retire; and a pool whose Task storage was recycled
/// through faulted, cancelled, and layered sessions runs the next
/// session exactly like a fresh one.
///
/// The ci.sh `service` stage reruns this binary under ThreadSanitizer -
/// the cross-session code paths (shared waiter buckets, per-session
/// inject queues, the finalizer thread) are exactly where a data race
/// would hide.
///
//===----------------------------------------------------------------------===//

#include "src/core/LVish.h"
#include "src/data/ISet.h"
#include "src/data/Stream.h"
#include "src/explore/SchedulePlan.h"
#include "src/service/Runtime.h"
#include "src/trans/Cancel.h"
#include "src/trans/Deadlock.h"
#include "src/trans/ParST.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace lvish;

namespace {

constexpr EffectSet D = Eff::Det;
constexpr EffectSet IOE = Eff::FullIO;

/// Fork-join sum of I*I over [Lo, Hi): a small task tree so concurrent
/// sessions genuinely interleave on the shared pool.
Par<uint64_t> sumSquares(ParCtx<D> Ctx, uint64_t Lo, uint64_t Hi) {
  if (Hi - Lo <= 8) {
    uint64_t S = 0;
    for (uint64_t I = Lo; I < Hi; ++I)
      S += I * I;
    co_return S;
  }
  uint64_t Mid = Lo + (Hi - Lo) / 2;
  auto Left = newIVar<uint64_t>(Ctx);
  auto LeftBody = [Left, Lo, Mid](ParCtx<D> C) -> Par<void> {
    uint64_t V = co_await sumSquares(C, Lo, Mid);
    put(C, *Left, V);
  };
  fork(Ctx, LeftBody);
  uint64_t Right = co_await sumSquares(Ctx, Mid, Hi);
  uint64_t LeftV = co_await get(Ctx, *Left);
  co_return LeftV + Right;
}

uint64_t sumSquaresSeq(uint64_t Lo, uint64_t Hi) {
  uint64_t S = 0;
  for (uint64_t I = Lo; I < Hi; ++I)
    S += I * I;
  return S;
}

TEST(ServiceRuntime, ConcurrentSessionsMatchSequential) {
  constexpr int N = 12;
  service::Runtime RT({.Sched = {.NumWorkers = 4}});
  std::vector<service::SessionFuture<uint64_t>> Futures;
  for (int I = 0; I < N; ++I) {
    uint64_t Hi = 100 + 17 * static_cast<uint64_t>(I);
    Futures.push_back(RT.submit<D>([Hi](ParCtx<D> Ctx) -> Par<uint64_t> {
      co_return co_await sumSquares(Ctx, 0, Hi);
    }));
  }
  std::set<uint64_t> Ids;
  for (int I = 0; I < N; ++I) {
    auto O = Futures[I].get();
    ASSERT_TRUE(O.ok()) << "session " << I << ": " << O.fault().Message;
    uint64_t Hi = 100 + 17 * static_cast<uint64_t>(I);
    EXPECT_EQ(O.value(), sumSquaresSeq(0, Hi)) << "session " << I;
    uint64_t Id = Futures[I].sessionId();
    EXPECT_NE(Id, 0u);
    Ids.insert(Id);
    EXPECT_GT(Futures[I].latencyNanos(), 0u);
  }
  EXPECT_EQ(Ids.size(), static_cast<size_t>(N)) << "session ids collide";
}

TEST(ServiceRuntime, QuiesceScopesAreSessionLocal) {
  // Session A keeps tasks pending until released from outside; session B
  // runs to completion meanwhile. If quiescence were pool-global (the old
  // borrowed-Scheduler world), B's blocking run() could not return while
  // A still has work in flight.
  service::Runtime RT({.Sched = {.NumWorkers = 2}});
  std::atomic<bool> Release{false};
  auto FA = RT.submitIO<IOE>([&Release](ParCtx<IOE> Ctx) -> Par<int> {
    while (!Release.load(std::memory_order_acquire))
      co_await yield(Ctx);
    co_return 42;
  });
  for (int I = 0; I < 20; ++I) {
    auto O = RT.run<D>([I](ParCtx<D> Ctx) -> Par<uint64_t> {
      co_return co_await sumSquares(Ctx, 0, 64 + static_cast<uint64_t>(I));
    });
    ASSERT_TRUE(O.ok()) << O.fault().Message;
    EXPECT_EQ(O.value(), sumSquaresSeq(0, 64 + static_cast<uint64_t>(I)));
  }
  // A is still parked in its spin loop: its outcome cannot exist yet.
  EXPECT_FALSE(FA.ready())
      << "a sibling's quiescence completed session A's scope";
  Release.store(true, std::memory_order_release);
  auto OA = FA.get();
  ASSERT_TRUE(OA.ok()) << OA.fault().Message;
  EXPECT_EQ(OA.value(), 42);
}

TEST(ServiceRuntime, DoomedSessionFaultsAloneOnSharedPool) {
  service::Runtime RT({.Sched = {.NumWorkers = 4}});
  // The doomed tenant: a deterministic ConflictingPut.
  auto Bad = RT.submit<D>([](ParCtx<D> Ctx) -> Par<int> {
    auto IV = newIVar<int>(Ctx, "doomed-ivar");
    put(Ctx, *IV, 1);
    put(Ctx, *IV, 2);
    co_return co_await get(Ctx, *IV);
  });
  // Healthy tenants sharing the pool while Bad is cancelled and drained.
  std::vector<service::SessionFuture<uint64_t>> Good;
  for (int I = 0; I < 6; ++I)
    Good.push_back(RT.submit<D>([I](ParCtx<D> Ctx) -> Par<uint64_t> {
      co_return co_await sumSquares(Ctx, 0, 200 + static_cast<uint64_t>(I));
    }));
  auto OBad = Bad.get();
  ASSERT_FALSE(OBad.ok()) << "the conflicting put must fault";
  EXPECT_EQ(OBad.fault().Code, FaultCode::ConflictingPut);
  EXPECT_EQ(OBad.fault().SessionId, Bad.sessionId())
      << "the fault must be tagged with the doomed session's own id";
  for (int I = 0; I < 6; ++I) {
    auto O = Good[I].get();
    ASSERT_TRUE(O.ok()) << "neighbor " << I
                        << " infected by the doomed session: "
                        << O.fault().Message;
    EXPECT_EQ(O.value(), sumSquaresSeq(0, 200 + static_cast<uint64_t>(I)));
  }
  // The pool itself survives: the next tenant is unaffected.
  auto After = RT.run<D>(
      [](ParCtx<D> Ctx) -> Par<uint64_t> { co_return co_await sumSquares(
                                               Ctx, 0, 100); });
  ASSERT_TRUE(After.ok()) << After.fault().Message;
  EXPECT_EQ(After.value(), sumSquaresSeq(0, 100));
}

TEST(ServiceRuntime, StreamingSessionsIsolateOnSharedPool) {
  // Two tenants each run a private BoundedStream pipeline on the shared
  // pool, while a third is doomed by a duplicate-index conflict on its
  // own stream. Session isolation must hold the streaming state apart:
  // both healthy pipelines produce their sequential sums, and the fault
  // carries only the doomed session's id.
  service::Runtime RT({.Sched = {.NumWorkers = 4}});
  auto Pipeline = [](int Scale) {
    return [Scale](ParCtx<IOE> Ctx) -> Par<int> {
      auto BS = newBoundedStream<int>(Ctx, 2);
      auto Producer = [BS, Scale](ParCtx<IOE> C) -> Par<void> {
        for (int I = 0; I < 24; ++I) {
          auto Pw = put(C, *BS, static_cast<uint64_t>(I), I * Scale);
          co_await Pw;
        }
      };
      fork(Ctx, Producer);
      int Sum = 0;
      for (int I = 0; I < 24; ++I) {
        auto Gw = get(Ctx, *BS, static_cast<uint64_t>(I) + 1);
        int V = co_await Gw;
        Sum += V;
        advance(Ctx, *BS, static_cast<uint64_t>(I) + 1);
      }
      co_return Sum;
    };
  };
  auto FA = RT.submitIO<IOE>(Pipeline(1));
  auto FB = RT.submitIO<IOE>(Pipeline(3));
  auto Bad = RT.submitIO<IOE>([](ParCtx<IOE> Ctx) -> Par<int> {
    auto S = newStream<int>(Ctx);
    put(Ctx, *S, 0, 1);
    put(Ctx, *S, 0, 2); // Cell-lattice top: this tenant faults alone.
    co_return 0;
  });
  auto OBad = Bad.get();
  ASSERT_FALSE(OBad.ok());
  EXPECT_EQ(OBad.fault().Code, FaultCode::ConflictingInsert);
  EXPECT_EQ(OBad.fault().SessionId, Bad.sessionId());
  auto OA = FA.get();
  auto OB = FB.get();
  ASSERT_TRUE(OA.ok()) << "tenant A infected: " << OA.fault().Message;
  ASSERT_TRUE(OB.ok()) << "tenant B infected: " << OB.fault().Message;
  EXPECT_EQ(OA.value(), 24 * 23 / 2);
  EXPECT_EQ(OB.value(), 3 * 24 * 23 / 2);
}

TEST(ServiceRuntime, ExploreSessionRejectedDeterministically) {
  // An explored session owns every scheduling decision of its Runtime, so
  // a session started on the Runtime while it runs is refused at once,
  // never queued behind it: deterministic, bit-identical across attempts.
  explore::Engine Eng = explore::Engine::random(5, 2);
  service::RuntimeConfig RC;
  RC.Sched.NumWorkers = 2;
  RC.Sched.Explore = &Eng;
  service::Runtime RT(RC);
  std::vector<Fault> Refusals;
  auto O = RT.runIO<IOE>([&RT, &Refusals](ParCtx<IOE> Ctx) -> Par<int> {
    for (int I = 0; I < 2; ++I) {
      auto Inner =
          RT.runIO<IOE>([](ParCtx<IOE> C) -> Par<int> { co_return 1; });
      if (!Inner.ok())
        Refusals.push_back(Inner.fault());
    }
    co_return 1;
  });
  ASSERT_TRUE(O.ok()) << O.fault().Message;
  ASSERT_EQ(Refusals.size(), 2u);
  EXPECT_EQ(Refusals[0].Code, FaultCode::SessionRejected);
  EXPECT_EQ(Refusals[1].Code, FaultCode::SessionRejected);
  EXPECT_EQ(Refusals[0].Message, Refusals[1].Message)
      << "rejection must be bit-identical run to run";
}

TEST(ServiceRuntime, ExploreSessionOwnsAMatchingRuntime) {
  explore::Engine Eng = explore::Engine::random(3, 2);
  service::RuntimeConfig RC;
  RC.Sched.NumWorkers = 2;
  RC.Sched.Explore = &Eng;
  service::Runtime RT(RC);
  auto O = RT.runIO<IOE>([](ParCtx<IOE> Ctx) -> Par<uint64_t> {
    co_return co_await sumSquares(Ctx, 0, 40);
  });
  ASSERT_TRUE(O.ok()) << O.fault().Message;
  EXPECT_EQ(O.value(), sumSquaresSeq(0, 40));
}

TEST(ServiceRuntime, MaxActiveSessionsBoundsConcurrency) {
  constexpr unsigned Bound = 2;
  service::Runtime RT(
      {.Sched = {.NumWorkers = 4}, .MaxActiveSessions = Bound});
  std::atomic<int> Cur{0};
  std::atomic<int> MaxSeen{0};
  std::vector<service::SessionFuture<int>> Futures;
  for (int I = 0; I < 10; ++I)
    Futures.push_back(RT.submitIO<IOE>([&](ParCtx<IOE> Ctx) -> Par<int> {
      int Now = 1 + Cur.fetch_add(1, std::memory_order_acq_rel);
      int Prev = MaxSeen.load(std::memory_order_relaxed);
      while (Now > Prev &&
             !MaxSeen.compare_exchange_weak(Prev, Now,
                                            std::memory_order_relaxed)) {
      }
      for (int Y = 0; Y < 50; ++Y)
        co_await yield(Ctx);
      Cur.fetch_sub(1, std::memory_order_acq_rel);
      co_return Now;
    }));
  RT.awaitIdle();
  for (auto &F : Futures) {
    ASSERT_TRUE(F.ready()) << "awaitIdle() returned with a session unfinished";
    auto O = F.get();
    ASSERT_TRUE(O.ok()) << O.fault().Message;
    EXPECT_LE(O.value(), static_cast<int>(Bound));
  }
  EXPECT_LE(MaxSeen.load(), static_cast<int>(Bound))
      << "admission let more than MaxActiveSessions run at once";
  EXPECT_GT(MaxSeen.load(), 0);
}

TEST(ServiceRuntime, SecondGetFaultsInsteadOfAsserting) {
  // Consuming a SessionFuture twice used to be an assert (vanishing in
  // NDEBUG builds into a moved-from read). Now the second get() resolves
  // deterministically: FaultCode::FutureConsumed, tagged with the
  // session's id, without blocking.
  service::Runtime RT({.Sched = {.NumWorkers = 2}});
  auto F = RT.submit<D>([](ParCtx<D> Ctx) -> Par<uint64_t> {
    co_return co_await sumSquares(Ctx, 0, 50);
  });
  auto First = F.get();
  ASSERT_TRUE(First.ok()) << First.fault().Message;
  EXPECT_EQ(First.value(), sumSquaresSeq(0, 50));
  EXPECT_TRUE(F.ready()) << "a consumed future still reports ready";
  auto Second = F.get();
  ASSERT_FALSE(Second.ok());
  EXPECT_EQ(Second.fault().Code, FaultCode::FutureConsumed);
  EXPECT_EQ(Second.fault().SessionId, F.sessionId());
  auto Third = F.get();
  ASSERT_FALSE(Third.ok());
  EXPECT_EQ(Third.fault().Message, Second.fault().Message)
      << "repeat consumption faults must be bit-identical";
}

TEST(ServiceRuntime, PerSessionStatsDeltasOnSharedPool) {
  service::Runtime RT({.Sched = {.NumWorkers = 2}});
  SchedulerStats A, B;
  service::SessionOptions OA;
  OA.StatsOut = &A;
  service::SessionOptions OB;
  OB.StatsOut = &B;
  // Non-overlapping sessions: the deltas are exact. Root + 3 forks each.
  auto Body = [](ParCtx<D> Ctx) -> Par<uint64_t> {
    auto Done = newISet<int>(Ctx);
    for (int I = 0; I < 3; ++I)
      fork(Ctx, [Done, I](ParCtx<D> C) -> Par<void> {
        insert(C, *Done, I);
        co_return;
      });
    co_await waitSize(Ctx, *Done, 3);
    co_return 3;
  };
  ASSERT_TRUE(RT.run<D>(Body, OA).ok());
  ASSERT_TRUE(RT.run<D>(Body, OB).ok());
  EXPECT_EQ(A.TasksCreated, 4u);
  EXPECT_EQ(B.TasksCreated, 4u);
  EXPECT_EQ(RT.scheduler().stats().TasksCreated, 8u)
      << "pool cumulative stats keep the whole history";
}

TEST(ServiceRuntime, FinishReapsOnlyTheSessionsOwnTasks) {
  // Session B keeps live tasks on the pool - spinning children and a root
  // parked on waitSize - while sessions A1 and A2 finish with parked
  // leftovers. Each finish walks only its own session's task registry:
  // A1's leak report counts exactly A1's tasks, and B's tasks run on
  // undisturbed afterwards.
  constexpr int Spinners = 5;
  constexpr int Blocked = 7;
  service::Runtime RT({.Sched = {.NumWorkers = 2}});
  std::atomic<bool> Release{false};
  std::atomic<int> Started{0};
  auto FB = RT.submitIO<IOE>(
      [&Release, &Started](ParCtx<IOE> Ctx) -> Par<uint64_t> {
        auto Done = newISet<int>(Ctx);
        for (int I = 0; I < Spinners; ++I)
          fork(Ctx, [&Release, &Started, Done, I](ParCtx<IOE> C) -> Par<void> {
            Started.fetch_add(1, std::memory_order_acq_rel);
            while (!Release.load(std::memory_order_acquire))
              co_await yield(C);
            insert(C, *Done, I);
          });
        co_await waitSize(Ctx, *Done, Spinners);
        co_return Done->sizeNow();
      });
  while (Started.load(std::memory_order_acquire) < Spinners)
    std::this_thread::yield();

  // A1: the root and Blocked children all park forever on one IVar.
  auto OA1 = RT.run<D>([](ParCtx<D> Ctx) -> Par<int> {
    auto Never = newIVar<int>(Ctx);
    for (int I = 0; I < Blocked; ++I)
      fork(Ctx, [Never](ParCtx<D> C) -> Par<void> {
        int V = co_await get(C, *Never);
        (void)V;
      });
    co_return co_await get(Ctx, *Never);
  });
  ASSERT_FALSE(OA1.ok());
  EXPECT_EQ(OA1.fault().Code, FaultCode::DeadlockLeakedTasks);
  EXPECT_NE(OA1.fault().Message.find(std::to_string(Blocked) +
                                     " other blocked task(s) leaked"),
            std::string::npos)
      << "the reap counted tasks outside the session: "
      << OA1.fault().Message;

  // A2: the root returns; its Blocked children are reaped silently.
  auto OA2 = RT.run<D>([](ParCtx<D> Ctx) -> Par<int> {
    auto Never = newIVar<int>(Ctx);
    for (int I = 0; I < Blocked; ++I)
      fork(Ctx, [Never](ParCtx<D> C) -> Par<void> {
        int V = co_await get(C, *Never);
        (void)V;
      });
    co_return 11;
  });
  ASSERT_TRUE(OA2.ok()) << OA2.fault().Message;
  EXPECT_EQ(OA2.value(), 11);

  EXPECT_FALSE(FB.ready()) << "a sibling's finish disturbed session B";
  Release.store(true, std::memory_order_release);
  auto OB = FB.get();
  ASSERT_TRUE(OB.ok()) << OB.fault().Message;
  EXPECT_EQ(OB.value(), static_cast<uint64_t>(Spinners));
}

/// Tasks in the registry of \p T's session: its parked tasks.
size_t registrySize(const Task *T) {
  SessionState &S = *T->Session;
  std::lock_guard<std::mutex> Lock(S.TasksMutex);
  size_t N = 0;
  for (const Task *P = S.TaskHead; P; P = P->RegNext)
    ++N;
  return N;
}

TEST(ServiceRuntime, RegistryHoldsParkedTasksOnly) {
  // Forked and joined children never stay in the registry: a join that
  // parks is unlinked by its wake, and a task that never parks is never
  // linked.
  constexpr uint64_t Children = 1000;
  service::Runtime RT({.Sched = {.NumWorkers = 2}});
  auto Joined = RT.run<D>([](ParCtx<D> Ctx) -> Par<uint64_t> {
    std::vector<std::shared_ptr<IVar<uint64_t>>> Outs;
    for (uint64_t I = 0; I < Children; ++I) {
      Outs.push_back(newIVar<uint64_t>(Ctx));
      fork(Ctx, [Out = Outs.back(), I](ParCtx<D> C) -> Par<void> {
        put(C, *Out, I);
        co_return;
      });
    }
    uint64_t Sum = 0;
    for (const auto &Out : Outs)
      Sum += co_await get(Ctx, *Out);
    co_return Sum + 1000000 * registrySize(Ctx.task());
  });
  ASSERT_TRUE(Joined.ok()) << Joined.fault().Message;
  EXPECT_EQ(Joined.value(), Children * (Children - 1) / 2)
      << "the registry was not empty after every child was joined";

  // K children park on an IVar nobody fills. At one worker the root's
  // yield runs after all of them have parked, so the registry holds
  // exactly K; then the root parks too, and the reap finds the K children
  // and the root: the deadlock fault is the one a leaked session always
  // reported.
  constexpr size_t K = 6;
  service::Runtime RT1({.Sched = {.NumWorkers = 1}});
  size_t Seen = 0;
  auto Stuck = RT1.run<D>([&Seen](ParCtx<D> Ctx) -> Par<int> {
    auto Never = newIVar<int>(Ctx);
    for (size_t I = 0; I < K; ++I)
      fork(Ctx, [Never](ParCtx<D> C) -> Par<void> {
        int V = co_await get(C, *Never);
        (void)V;
      });
    co_await yield(Ctx);
    Seen = registrySize(Ctx.task());
    co_return co_await get(Ctx, *Never);
  });
  EXPECT_EQ(Seen, K);
  ASSERT_FALSE(Stuck.ok());
  EXPECT_EQ(Stuck.fault().Code, FaultCode::DeadlockLeakedTasks);
  EXPECT_EQ(Stuck.fault().Message,
            "runPar: deterministic deadlock (the main computation blocked "
            "forever; " + std::to_string(K) +
                " other blocked task(s) leaked) [code=deadlock_leaked_tasks, "
                "session=" + std::to_string(Stuck.fault().SessionId) +
                ", pedigree=<root>]");
}

TEST(ServiceRuntime, SessionStateOutlivesEveryRetire) {
  // Tasks borrow their session's state; the Runtime frees it when the
  // session is finalized. In a one-fork session the last retire - the
  // child's or the root's, on any of four workers - races the finalizer
  // (async) or the blocked submitter (run) that frees the state. TSan and
  // ASan builds see a use after free here; the values check every
  // session finished exactly once.
  constexpr int Async = 20000;
  constexpr int Wave = 500;
  constexpr int BlockingPerWave = 50;
  service::Runtime RT({.Sched = {.NumWorkers = 4}});
  auto OneFork = [](ParCtx<D> Ctx) -> Par<int> {
    auto IV = newIVar<int>(Ctx);
    fork(Ctx, [IV](ParCtx<D> C) -> Par<void> {
      put(C, *IV, 41);
      co_return;
    });
    co_return co_await get(Ctx, *IV) + 1;
  };
  int Ok = 0;
  for (int Done = 0; Done < Async; Done += Wave) {
    std::vector<service::SessionFuture<int>> Futs;
    Futs.reserve(Wave);
    for (int I = 0; I < Wave; ++I)
      Futs.push_back(RT.submit<D>(OneFork));
    for (int I = 0; I < BlockingPerWave; ++I) {
      auto O = RT.run<D>(OneFork);
      Ok += O.ok() && O.value() == 42;
    }
    for (auto &F : Futs) {
      auto O = F.get();
      Ok += O.ok() && O.value() == 42;
    }
  }
  EXPECT_EQ(Ok, Async + Async / Wave * BlockingPerWave);
}

/// Fork tree of depth \p Depth; leaf \p Slot records its task's pedigree.
/// Left subtrees are forked and joined through an IVar, so at one worker
/// every join parks and is woken.
Par<uint64_t> pedigreeTree(ParCtx<D> Ctx, unsigned Depth, unsigned Slot,
                           std::shared_ptr<std::vector<std::string>> Peds) {
  if (Depth == 0) {
    (*Peds)[Slot] = Ctx.task()->pedigreeString();
    co_return Slot + 1;
  }
  auto Left = newIVar<uint64_t>(Ctx);
  auto LeftBody = [Left, Depth, Slot, Peds](ParCtx<D> C) -> Par<void> {
    uint64_t V = co_await pedigreeTree(C, Depth - 1, 2 * Slot, Peds);
    put(C, *Left, V);
  };
  fork(Ctx, LeftBody);
  uint64_t R = co_await pedigreeTree(Ctx, Depth - 1, 2 * Slot + 1, Peds);
  uint64_t L = co_await get(Ctx, *Left);
  co_return L + R;
}

struct PlainRun {
  uint64_t Value = 0;
  std::vector<std::string> Peds;
  SchedulerStats Stats;
};

/// A fork-join tree, then one get whose satisfier yields before its put:
/// the yield sends it to the inject queue, outside the worker's deque, so
/// that get parks and is woken while the tree's gets wait lazily.
PlainRun runPlainSession(service::Runtime &RT) {
  constexpr unsigned Depth = 4;
  auto Peds = std::make_shared<std::vector<std::string>>(1u << Depth);
  PlainRun Out;
  service::SessionOptions Opts;
  Opts.StatsOut = &Out.Stats;
  auto O = RT.run<D>(
      [Peds](ParCtx<D> Ctx) -> Par<uint64_t> {
        uint64_t Sum = co_await pedigreeTree(Ctx, Depth, 0, Peds);
        auto Late = newIVar<uint64_t>(Ctx);
        fork(Ctx, [Late](ParCtx<D> C) -> Par<void> {
          co_await yield(C);
          put(C, *Late, uint64_t{1000});
        });
        uint64_t L = co_await get(Ctx, *Late);
        co_return Sum + L;
      },
      Opts);
  EXPECT_TRUE(O.ok()) << O.fault().Message;
  Out.Value = O.ok() ? O.value() : 0;
  Out.Peds = *Peds;
  return Out;
}

TEST(ServiceRuntime, RecycledTasksLeaveNoTrace) {
  // Task storage is recycled through a per-thread cache. Dirty it with
  // every retire path - a faulted session, a budget-cancelled one with a
  // cancelled future, and one under a handler pool, a deadlock scope and
  // a ParST layer, all leaving parked tasks to reap - then check that a
  // plain session on that pool matches one on a fresh pool exactly.
  PlainRun Fresh;
  {
    service::Runtime RT({.Sched = {.NumWorkers = 1}});
    Fresh = runPlainSession(RT);
  }
  EXPECT_EQ(Fresh.Value, (16u * 17u) / 2u + 1000u);
  // At one worker the tree's gets all find their satisfier in the deque
  // and wait lazily; only the get of the yielded put parks and is woken.
  EXPECT_EQ(Fresh.Stats.Parks, 1u) << "the plain session must park once";
  EXPECT_EQ(Fresh.Stats.Wakes, 1u);

  service::Runtime RT({.Sched = {.NumWorkers = 1}});
  auto Faulted = RT.run<D>([](ParCtx<D> Ctx) -> Par<int> {
    auto Never = newIVar<int>(Ctx);
    for (int I = 0; I < 4; ++I)
      fork(Ctx, [Never](ParCtx<D> C) -> Par<void> {
        int V = co_await get(C, *Never);
        (void)V;
      });
    auto IV = newIVar<int>(Ctx);
    fork(Ctx, [IV](ParCtx<D> C) -> Par<void> {
      put(C, *IV, 1);
      co_return;
    });
    put(Ctx, *IV, 2);
    co_return co_await get(Ctx, *IV);
  });
  ASSERT_FALSE(Faulted.ok());
  EXPECT_EQ(Faulted.fault().Code, FaultCode::ConflictingPut);

  service::SessionOptions Kill;
  Kill.MaxSteps = 24;
  auto Cancelled = RT.runIO<IOE>(
      [](ParCtx<IOE> Ctx) -> Par<int> {
        auto Fut = forkCancelable(Ctx, [](ParCtx<Eff::ReadOnly> C) -> Par<int> {
          for (;;)
            co_await yield(C);
          co_return 0;
        });
        cancel(Ctx, Fut);
        for (int I = 0; I < 4; ++I)
          fork(Ctx, [](ParCtx<IOE> C) -> Par<void> {
            for (;;)
              co_await yield(C);
          });
        for (;;)
          co_await yield(Ctx);
        co_return -1;
      },
      Kill);
  ASSERT_FALSE(Cancelled.ok());
  EXPECT_EQ(Cancelled.fault().Code, FaultCode::BudgetExceeded);

  auto Layered = RT.run<D>([](ParCtx<D> Ctx) -> Par<uint64_t> {
    auto Body = [](ParCtx<D> C) -> Par<void> {
      auto S = newISet<uint64_t>(C);
      auto Pool = newPool(C);
      [[maybe_unused]] HandlerHandle H = addHandlerRef(
          C, Pool, *S,
          [](ParCtx<D> HC, ISet<uint64_t> &Set, const uint64_t &X)
              -> Par<void> {
            if (X + 1 < 16)
              insert(HC, Set, X + 1);
            co_return;
          });
      insert(C, *S, uint64_t{0});
      co_await quiesce(C, Pool);
      auto Never = newIVar<int>(C);
      fork(C, [Never](ParCtx<D> C2) -> Par<void> {
        int V = co_await get(C2, *Never);
        (void)V;
      });
    };
    DeadlockReport Rep = co_await forkWithDeadlockDetection(Ctx, Body);
    auto Split = [](ParCtx<Eff::DetST> C,
                    VecView<uint64_t> V) -> Par<uint64_t> {
      auto LeftB = [](ParCtx<Eff::DetST>, VecView<uint64_t> L) -> Par<void> {
        L[0] = 10;
        co_return;
      };
      auto RightB = [](ParCtx<Eff::DetST>, VecView<uint64_t> R) -> Par<void> {
        R[0] = 20;
        co_return;
      };
      co_await forkSTSplit(C, V, 4, LeftB, RightB);
      uint64_t Sum = 0;
      for (size_t I = 0; I < V.size(); ++I)
        Sum += V[I];
      co_return Sum;
    };
    uint64_t Sum = co_await runParVec(Ctx, 8, uint64_t{1}, Split);
    co_return Rep.BlockedTasks * 1000 + Sum;
  });
  ASSERT_TRUE(Layered.ok()) << Layered.fault().Message;
  EXPECT_EQ(Layered.value(), 1000u + 10u + 20u + 6u);

  PlainRun Reused = runPlainSession(RT);
  EXPECT_EQ(Reused.Value, Fresh.Value);
  EXPECT_EQ(Reused.Peds, Fresh.Peds);
  EXPECT_EQ(Reused.Stats.TasksCreated, Fresh.Stats.TasksCreated);
  EXPECT_EQ(Reused.Stats.TasksExecuted, Fresh.Stats.TasksExecuted);
  EXPECT_EQ(Reused.Stats.LocalPops, Fresh.Stats.LocalPops);
  EXPECT_EQ(Reused.Stats.StealAttempts, Fresh.Stats.StealAttempts);
  EXPECT_EQ(Reused.Stats.Steals, Fresh.Stats.Steals);
  EXPECT_EQ(Reused.Stats.Parks, Fresh.Stats.Parks);
  EXPECT_EQ(Reused.Stats.Wakes, Fresh.Stats.Wakes);
}

} // namespace
