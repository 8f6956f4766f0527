//===- StressTest.cpp - Scheduler and LVar soak tests ----------------------===//
//
// High-churn workloads hunting lifetime and counting bugs: thousands of
// tasks per session, repeated sessions on one scheduler, oversubscribed
// workers on this container's single CPU (maximum preemption-driven
// interleaving), deep sequential co_await chains, handler storms, and
// randomized fork trees with dataflow joins.
//
//===----------------------------------------------------------------------===//

#include "src/core/LVish.h"
#include "src/core/ParFor.h"
#include "src/data/Counter.h"
#include "src/data/ISet.h"
#include "src/support/SplitMix.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

using namespace lvish;

namespace {

constexpr EffectSet D = Eff::Det;
constexpr EffectSet DB{true, true, true, false, false, false};

TEST(Stress, ThousandsOfTasksPerSession) {
  std::atomic<long> Ran{0};
  runPar<D>(
      [&](ParCtx<D> Ctx) -> Par<void> {
        auto Body = [&Ran](ParCtx<D>, size_t) {
          Ran.fetch_add(1, std::memory_order_relaxed);
        };
        co_await parallelFor(Ctx, 0, 20000, 1, Body);
      },
      SchedulerConfig{8}); // Oversubscribed: 8 workers, 1 CPU.
  EXPECT_EQ(Ran.load(), 20000);
}

TEST(Stress, ManySessionsReuseOneScheduler) {
  service::Runtime RT({.Sched = {.NumWorkers = 4}});
  for (int Round = 0; Round < 200; ++Round) {
    long R = RT.run<D>([Round](ParCtx<D> Ctx) -> Par<long> {
      auto Leaf = [Round](size_t I) {
        return static_cast<long>(I) + Round;
      };
      auto Combine = [](long A, long B) { return A + B; };
      long S = co_await parallelReduce<long>(Ctx, 0, 64, 4, Leaf, Combine,
                                             0L);
      co_return S;
    }).valueOrAbort();
    EXPECT_EQ(R, 64L * 63 / 2 + 64L * Round);
  }
  EXPECT_GE(RT.scheduler().stats().TasksCreated, 200u);
}

TEST(Stress, DeepSequentialAwaitChain) {
  // 20000 nested co_awaits: coroutine frames are heap-allocated, so this
  // must not exhaust any stack.
  struct Rec {
    static Par<long> down(ParCtx<D> Ctx, long N) {
      if (N == 0)
        co_return 0;
      long Sub = co_await down(Ctx, N - 1);
      co_return Sub + 1;
    }
  };
  long R = runPar<D>([](ParCtx<D> Ctx) -> Par<long> {
    co_return co_await Rec::down(Ctx, 20000);
  });
  EXPECT_EQ(R, 20000);
}

TEST(Stress, HandlerStormExactlyOnce) {
  // 2000 elements through a handler that increments a counter: every
  // element delivered exactly once despite insertion from 16 tasks.
  uint64_t Count = runParIO<Eff::FullIO>(
      [](ParCtx<Eff::FullIO> Ctx) -> Par<uint64_t> {
        auto S = newISet<int>(Ctx);
        auto Ctr = newCounter(Ctx);
        auto Pool = newPool(Ctx);
        [[maybe_unused]] HandlerHandle H =
            addHandler(Ctx, Pool, *S,
                       [Ctr](ParCtx<Eff::FullIO> C, const int &) -> Par<void> {
                         incrCounter(C, *Ctr);
                         co_return;
                       });
        auto Producer = [S](ParCtx<Eff::FullIO> C, size_t T) -> Par<void> {
          // Overlapping ranges: plenty of duplicate inserts.
          for (int I = 0; I < 250; ++I)
            insert(C, *S, static_cast<int>((T * 125) % 1000) + I);
          co_return;
        };
        co_await parallelForPar(Ctx, 0, 16, 1, Producer);
        co_await quiesce(Ctx, Pool);
        co_return freezeCounter(Ctx, *Ctr);
      },
      SchedulerConfig{4});
  // Exactly the number of DISTINCT elements inserted.
  SplitMix64 Dummy(0); // (determinism of the expected set is structural)
  std::set<int> Expected;
  for (size_t T = 0; T < 16; ++T)
    for (int I = 0; I < 250; ++I)
      Expected.insert(static_cast<int>((T * 125) % 1000) + I);
  EXPECT_EQ(Count, Expected.size());
}

TEST(Stress, RandomForkTreesWithJoins) {
  // Randomized shapes, seeded: every leaf writes into a counter; the sum
  // must equal the leaf count regardless of tree shape or schedule.
  for (uint64_t Seed : {3ull, 17ull, 91ull}) {
    SplitMix64 Shape(Seed);
    // Precompute a deterministic tree shape: at each node, either split
    // (with a size in [2, 5]) or become a leaf.
    struct Rec {
      static Par<uint64_t> grow(ParCtx<D> Ctx, uint64_t State, int Depth) {
        SplitMix64 Rng(State);
        if (Depth == 0 || Rng.nextBounded(4) == 0)
          co_return 1; // Leaf.
        size_t Kids = 2 + Rng.nextBounded(3);
        std::vector<std::shared_ptr<IVar<uint64_t>>> Futures;
        for (size_t K = 0; K < Kids; ++K) {
          auto F = newIVar<uint64_t>(Ctx);
          Futures.push_back(F);
          uint64_t ChildState = mix64(State ^ (K + 1));
          auto Body = [F, ChildState, Depth](ParCtx<D> C) -> Par<void> {
            uint64_t N = co_await grow(C, ChildState, Depth - 1);
            put(C, *F, N);
          };
          fork(Ctx, Body);
        }
        uint64_t Total = 0;
        for (auto &F : Futures)
          Total += co_await get(Ctx, *F);
        co_return Total;
      }
    };
    auto Run = [Seed](unsigned Workers) {
      SchedulerConfig Cfg;
      Cfg.NumWorkers = Workers;
      Cfg.StealSeed = Seed * 31;
      return runPar<D>(
          [Seed](ParCtx<D> Ctx) -> Par<uint64_t> {
            co_return co_await Rec::grow(Ctx, Seed, 6);
          },
          Cfg);
    };
    uint64_t Ref = Run(1);
    EXPECT_GT(Ref, 0u);
    EXPECT_EQ(Run(4), Ref) << "seed " << Seed;
  }
}

TEST(Stress, OrphanRichSessionsShutDownCleanly) {
  // Sessions that leave many permanently blocked tasks behind: the reaper
  // must collect them all, repeatedly.
  service::Runtime RT({.Sched = {.NumWorkers = 3}});
  for (int Round = 0; Round < 50; ++Round) {
    int R = RT.run<D>([](ParCtx<D> Ctx) -> Par<int> {
      auto Never = newIVar<int>(Ctx);
      for (int I = 0; I < 20; ++I)
        fork(Ctx, [Never](ParCtx<D> C) -> Par<void> {
          int V = co_await get(C, *Never); // Blocks forever.
          (void)V;
        });
      co_return 5;
    }).valueOrAbort();
    EXPECT_EQ(R, 5);
  }
}

} // namespace
