//===- SchedulerTest.cpp - Scheduler, scopes, and cancellation plumbing ----===//

#include "src/core/LVish.h"
#include "src/sched/BlockCache.h"
#include "src/trans/Cancel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

using namespace lvish;

namespace {

constexpr EffectSet D = Eff::Det;

TEST(Scheduler, StartsAndStopsCleanly) {
  Scheduler Sched(SchedulerConfig{3});
  EXPECT_EQ(Sched.numWorkers(), 3u);
}

TEST(Scheduler, CountsSpawnedTasks) {
  service::Runtime RT({.Sched = {.NumWorkers = 2}});
  RT.run<D>([](ParCtx<D> Ctx) -> Par<void> {
      for (int I = 0; I < 10; ++I)
        fork(Ctx, [](ParCtx<D> C) -> Par<void> { co_return; });
      co_return;
    }).valueOrAbort();
  // Root + 10 children.
  EXPECT_GE(RT.scheduler().stats().TasksCreated, 11u);
}

TEST(Scheduler, ManyFireAndForgetTasksAllRunBeforeSessionEnds) {
  std::atomic<int> Ran{0};
  runPar<D>(
      [&](ParCtx<D> Ctx) -> Par<void> {
        for (int I = 0; I < 500; ++I)
          fork(Ctx, [&Ran](ParCtx<D> C) -> Par<void> {
            Ran.fetch_add(1, std::memory_order_relaxed);
            co_return;
          });
        co_return;
        // Note: the session (not the root) waits for the children.
      },
      SchedulerConfig{4});
  EXPECT_EQ(Ran.load(), 500);
}

TEST(Scheduler, OrphanedBlockedTaskIsReapedNotDeadlocked) {
  // A forked child blocks on an IVar nobody ever fills. LVish semantics:
  // the main computation's result stands; the orphan is collected.
  int R = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<int> {
        auto Never = newIVar<int>(Ctx);
        fork(Ctx, [Never](ParCtx<D> C) -> Par<void> {
          int V = co_await get(C, *Never); // Parks forever.
          (void)V;
        });
        co_return 17;
      },
      SchedulerConfig{2});
  EXPECT_EQ(R, 17);
}

TEST(Scheduler, TraceRecordsSpawnTreeAndWakeEdges) {
  service::RuntimeConfig Cfg;
  Cfg.Sched.NumWorkers = 2;
  Cfg.Sched.EnableTracing = true;
  service::Runtime RT(Cfg);
  RT.run<D>([](ParCtx<D> Ctx) -> Par<void> {
      auto IV = newIVar<int>(Ctx);
      fork(Ctx, [IV](ParCtx<D> C) -> Par<void> {
        put(C, *IV, 1);
        co_return;
      });
      int V = co_await get(Ctx, *IV);
      (void)V;
      co_return;
    }).valueOrAbort();
  TraceRecorder *T = RT.scheduler().trace();
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->numTasks(), 2u); // Root + one child.
  // The fork produced at least: root slice (cut at the fork), the child's
  // slice, and a spawn edge from the cut slice to the child's first slice.
  EXPECT_GE(T->slices().size(), 3u);
  EXPECT_GE(T->edges().size(), 2u);
  // Every edge well-formed and acyclic-by-id is checked in SimTest; here
  // just confirm ids are in range.
  for (const TraceEdge &E : T->edges()) {
    EXPECT_LT(E.Src, T->slices().size());
    EXPECT_LT(E.Dst, T->slices().size());
  }
}

TEST(TaskScope, LiveModeCountsParkedTasks) {
  // A Live-mode scope must NOT drain while a member task is merely parked.
  std::atomic<bool> HandlerSawDrainEarly{false};
  runPar<D>(
      [&](ParCtx<D> Ctx) -> Par<void> {
        auto Gate = newIVar<int>(Ctx);
        auto Pool = newPool(Ctx);
        auto Trigger = newPureLVar<MaxUint64Lattice>(Ctx);
        [[maybe_unused]] HandlerHandle H =
            addHandler(Ctx, Pool, *Trigger,
                       [Gate](ParCtx<D> C,
                              const unsigned long long &) -> Par<void> {
                         // Park inside the pool.
                         int V = co_await get(C, *Gate);
                         (void)V;
                       });
        putPureLVar(Ctx, *Trigger, 1ULL);
        // Give the handler a chance to park, then check the pool has not
        // drained (its task is parked, but alive).
        for (int I = 0; I < 10; ++I)
          co_await yield(Ctx);
        if (Pool->Scope.activeCount() == 0)
          HandlerSawDrainEarly.store(true);
        put(Ctx, *Gate, 1);
        co_await quiesce(Ctx, Pool);
        co_return;
      },
      SchedulerConfig{2});
  EXPECT_FALSE(HandlerSawDrainEarly.load());
}

//===----------------------------------------------------------------------===//
// Lazy waits: a get that misses while its worker has local work waits
// unpublished, and is published only when the worker runs out of it
//===----------------------------------------------------------------------===//

/// One-worker run options, eager (traced: every missed get parks) or lazy.
RunOptions oneWorker(bool Eager, SchedulerStats &Stats) {
  RunOptions O = RunOptions::CollectStats(Stats);
  O.Config.NumWorkers = 1;
  O.Config.EnableTracing = Eager;
  return O;
}

TEST(LazyWait, YieldedSatisfierParksAndWakesOnce) {
  SchedulerStats Stats;
  int V = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<int> {
        auto IV = newIVar<int>(Ctx);
        fork(Ctx, [IV](ParCtx<D> C) -> Par<void> {
          co_await yield(C); // To the inject queue: out of the deque.
          put(C, *IV, 7);
        });
        int Got = co_await get(Ctx, *IV);
        co_return Got;
      },
      oneWorker(false, Stats));
  EXPECT_EQ(V, 7);
  EXPECT_EQ(Stats.TasksCreated, 2u);
  EXPECT_EQ(Stats.Parks, 1u);
  EXPECT_EQ(Stats.Wakes, 1u);
}

/// Runs \p Body at one worker, lazy and eager, and checks both end in the
/// same Fault (code and message, which carries the leftover count) and
/// the same park count; returns the lazy run's fault.
template <typename F> Fault sameFaultLazyAndEager(F Body) {
  SchedulerStats LazyStats, EagerStats;
  auto Lazy = tryRunPar<D>(Body, oneWorker(false, LazyStats));
  auto Eager = tryRunPar<D>(Body, oneWorker(true, EagerStats));
  EXPECT_FALSE(Lazy.ok());
  EXPECT_FALSE(Eager.ok());
  if (Lazy.ok() || Eager.ok())
    return Fault{};
  EXPECT_EQ(Lazy.fault().Code, Eager.fault().Code);
  EXPECT_EQ(Lazy.fault().Message, Eager.fault().Message);
  EXPECT_EQ(LazyStats.Parks, EagerStats.Parks);
  EXPECT_EQ(LazyStats.TasksCreated, EagerStats.TasksCreated);
  return Lazy.fault();
}

TEST(LazyWait, RootBlockedForeverStillDeadlocks) {
  // The root's get misses while its child sits in the deque, so it waits
  // lazily; the worker publishes it once the child is done, and the
  // session then quiesces into the same deadlock Fault as an eager park.
  Fault Drained = sameFaultLazyAndEager([](ParCtx<D> Ctx) -> Par<int> {
    auto Never = newIVar<int>(Ctx);
    fork(Ctx, [](ParCtx<D>) -> Par<void> { co_return; });
    int V = co_await get(Ctx, *Never);
    co_return V;
  });
  EXPECT_EQ(Drained.Code, FaultCode::DeadlockDrained);
  EXPECT_NE(Drained.Message.find("scheduler drained"), std::string::npos)
      << Drained.Message;

  // The child blocks too, itself lazily behind a grandchild.
  Fault Leaked = sameFaultLazyAndEager([](ParCtx<D> Ctx) -> Par<int> {
    auto Never = newIVar<int>(Ctx);
    fork(Ctx, [Never](ParCtx<D> C) -> Par<void> {
      fork(C, [](ParCtx<D>) -> Par<void> { co_return; });
      int V = co_await get(C, *Never);
      (void)V;
    });
    int V = co_await get(Ctx, *Never);
    co_return V;
  });
  EXPECT_EQ(Leaked.Code, FaultCode::DeadlockLeakedTasks);
  EXPECT_NE(Leaked.Message.find("1 other blocked task(s) leaked"),
            std::string::npos)
      << Leaked.Message;
}

TEST(LazyWait, CancelledLazyWaitIsParkedNotRetired) {
  // A cancelable child waits lazily on a never-filled IVar (its own child
  // is still in the deque) and is cancelled before the worker publishes
  // it. Cancellation alone does not resume or retire it: it is published
  // and parked like an eager park, so the session reaps the same two
  // tasks (the root and the child) and reports the same Fault.
  Fault F = sameFaultLazyAndEager([](ParCtx<D> Ctx) -> Par<int> {
    auto Never = newIVar<int>(Ctx);
    auto Fut = std::make_shared<std::optional<CFuture<int>>>();
    // Forked first, so it runs after the cancelable child has blocked.
    fork(Ctx, [Fut](ParCtx<D> C) -> Par<void> {
      cancel(C, **Fut);
      co_return;
    });
    *Fut = forkCancelable(Ctx, [Never](ParCtx<Eff::ReadOnly> C) -> Par<int> {
      fork(C, [](ParCtx<Eff::ReadOnly>) -> Par<void> { co_return; });
      int V = co_await get(C, *Never);
      co_return V;
    });
    int V = co_await get(Ctx, *Never);
    co_return V;
  });
  EXPECT_EQ(F.Code, FaultCode::DeadlockLeakedTasks);
  EXPECT_NE(F.Message.find("1 other blocked task(s) leaked"),
            std::string::npos)
      << F.Message;
}

/// A fork-join tree of depth \p Depth summing its leaves' ids.
Par<uint64_t> forkJoinTree(ParCtx<D> Ctx, unsigned Depth, uint64_t Id) {
  if (Depth == 0)
    co_return Id;
  auto Left = newIVar<uint64_t>(Ctx);
  fork(Ctx, [Left, Depth, Id](ParCtx<D> C) -> Par<void> {
    uint64_t V = co_await forkJoinTree(C, Depth - 1, 2 * Id);
    put(C, *Left, V);
  });
  uint64_t R = co_await forkJoinTree(Ctx, Depth - 1, 2 * Id + 1);
  uint64_t L = co_await get(Ctx, *Left);
  co_return L + R;
}

TEST(LazyWait, StepBudgetIsUnchanged) {
  // A lazily resumed task is charged one step, like the pop of a woken
  // one, so the smallest budget that lets a fork-join session finish is
  // the same whether its gets wait lazily or park.
  auto Run = [](bool Eager, uint64_t Budget) {
    SchedulerStats Stats;
    RunOptions O = oneWorker(Eager, Stats);
    O.SessionBudget = Budget;
    return tryRunPar<D>(
        [](ParCtx<D> Ctx) -> Par<uint64_t> {
          uint64_t V = co_await forkJoinTree(Ctx, 4, 0);
          co_return V;
        },
        O);
  };
  auto MinBudget = [&Run](bool Eager) {
    for (uint64_t K = 1; K <= 1000; ++K)
      if (Run(Eager, K).ok())
        return K;
    return uint64_t{0};
  };
  const uint64_t K = MinBudget(false);
  ASSERT_GT(K, 1u);
  auto Fits = Run(false, K);
  ASSERT_TRUE(Fits.ok());
  EXPECT_EQ(Fits.value(), 120u); // Leaf ids 0..15, each summed once.
  auto Short = Run(false, K - 1);
  ASSERT_FALSE(Short.ok());
  EXPECT_EQ(Short.fault().Code, FaultCode::BudgetExceeded);
  EXPECT_EQ(MinBudget(true), K);
}

/// A chain of \p Depth fork-joins: every level forks the next and gets
/// its result, so \p Depth gets wait at once.
Par<uint64_t> forkJoinChain(ParCtx<D> Ctx, unsigned Depth) {
  if (Depth == 0)
    co_return 0;
  auto Next = newIVar<uint64_t>(Ctx);
  fork(Ctx, [Next, Depth](ParCtx<D> C) -> Par<void> {
    uint64_t V = co_await forkJoinChain(C, Depth - 1);
    put(C, *Next, V + 1);
  });
  uint64_t V = co_await get(Ctx, *Next);
  co_return V;
}

TEST(LazyWait, NestingPastTheCapParks) {
  // One worker holds at most 64 lazy waits (Scheduler::LazyWaitCap); the
  // gets beyond that park, and each is woken by its child's put.
  constexpr unsigned Depth = 200, Cap = 64;
  SchedulerStats Stats;
  uint64_t V = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<uint64_t> {
        uint64_t Got = co_await forkJoinChain(Ctx, Depth);
        co_return Got;
      },
      oneWorker(false, Stats));
  EXPECT_EQ(V, Depth);
  EXPECT_EQ(Stats.TasksCreated, Depth + 1u);
  EXPECT_EQ(Stats.Parks, Depth - Cap);
  EXPECT_EQ(Stats.Wakes, Depth - Cap);
}

TEST(CancelNode, TransitiveCancellation) {
  auto Root = std::make_shared<CancelNode>();
  auto Mid = std::make_shared<CancelNode>();
  auto Leaf = std::make_shared<CancelNode>();
  Root->addChild(Mid);
  Mid->addChild(Leaf);
  EXPECT_TRUE(Leaf->isLive());
  Root->cancel();
  EXPECT_FALSE(Root->isLive());
  EXPECT_FALSE(Mid->isLive());
  EXPECT_FALSE(Leaf->isLive());
}

TEST(CancelNode, AddChildToDeadParentCancelsChild) {
  auto Parent = std::make_shared<CancelNode>();
  Parent->cancel();
  auto Child = std::make_shared<CancelNode>();
  Parent->addChild(Child);
  EXPECT_FALSE(Child->isLive());
}

TEST(CancelNode, ReadAndCancelConflictDetected) {
  auto N = std::make_shared<CancelNode>();
  EXPECT_FALSE(N->noteRead());
  N->cancel();
  EXPECT_TRUE(N->noteRead());
  EXPECT_TRUE(N->noteCancelConflict());
}

// -- The per-thread block cache behind tasks and coroutine frames ---------
// Counts are read relative to what the calling thread already cached:
// earlier tests leave blocks in the main thread's cache.

TEST(BlockCache, ReusesABlockOfTheSameClass) {
  void *P = blockcache::allocate(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % blockcache::ClassBytes, 0u);
  const unsigned Before = blockcache::cachedHere(100);
  blockcache::release(P, 100);
  // 65..128 bytes share one class.
  EXPECT_EQ(blockcache::cachedHere(128), Before + 1);
  void *Q = blockcache::allocate(65);
  EXPECT_EQ(Q, P) << "the last block freed in a class is the next one used";
  blockcache::release(Q, 65);
  void *R = blockcache::allocate(129);
  EXPECT_NE(R, P) << "a block served a size of another class";
  EXPECT_EQ(blockcache::cachedHere(100), Before + 1);
  blockcache::release(R, 129);
}

TEST(BlockCache, KeepsAtMostCapBlocksPerClass) {
  constexpr size_t Bytes = 448;
  std::vector<void *> Blocks;
  for (unsigned I = 0; I < blockcache::Cap + 8; ++I)
    Blocks.push_back(blockcache::allocate(Bytes));
  EXPECT_EQ(blockcache::cachedHere(Bytes), 0u);
  for (void *P : Blocks)
    blockcache::release(P, Bytes);
  EXPECT_EQ(blockcache::cachedHere(Bytes), blockcache::Cap);
  // Past MaxBytes nothing is cached.
  constexpr size_t Big = blockcache::MaxBytes + 1;
  blockcache::release(blockcache::allocate(Big), Big);
  EXPECT_EQ(blockcache::cachedHere(Big), 0u);
}

TEST(BlockCache, AFreeOnAnotherThreadJoinsThatThreadsCache) {
  void *P = blockcache::allocate(200);
  const unsigned Here = blockcache::cachedHere(200);
  const uint64_t Drained = blockcache::drainedAtExit();
  unsigned There = 0;
  std::thread([P, &There] {
    blockcache::release(P, 200);
    There = blockcache::cachedHere(200);
  }).join();
  EXPECT_EQ(There, 1u);
  EXPECT_EQ(blockcache::cachedHere(200), Here);
  EXPECT_EQ(blockcache::drainedAtExit(), Drained + 1)
      << "the exiting thread kept the block it was handed";
}

TEST(BlockCache, AnExitingThreadReturnsItsBlocks) {
  const uint64_t Drained = blockcache::drainedAtExit();
  std::thread([] {
    std::vector<void *> Blocks;
    for (unsigned I = 0; I < 10; ++I)
      Blocks.push_back(blockcache::allocate(64 * (I % 3 + 1)));
    for (unsigned I = 0; I < 10; ++I)
      blockcache::release(Blocks[I], 64 * (I % 3 + 1));
  }).join();
  EXPECT_EQ(blockcache::drainedAtExit(), Drained + 10);

  // A Runtime's workers cache the tasks and frames they retire; stopping
  // the Runtime returns them.
  const uint64_t BeforeRuntime = blockcache::drainedAtExit();
  {
    service::Runtime RT({.Sched = {.NumWorkers = 2}});
    RT.run<D>([](ParCtx<D> Ctx) -> Par<void> {
        for (int I = 0; I < 100; ++I)
          fork(Ctx, [](ParCtx<D> C) -> Par<void> { co_return; });
        co_return;
      }).valueOrAbort();
  }
  EXPECT_GT(blockcache::drainedAtExit(), BeforeRuntime);
}

} // namespace
