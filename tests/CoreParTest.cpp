//===- CoreParTest.cpp - Par/IVar/PureLVar core semantics ------------------===//
//
// Tests the core LVish machinery: runPar, fork, IVar put/get, PureLVar
// threshold reads, handlers, quiescence, effect-level conversions, and the
// plain-call parallelFor leaf.
//
//===----------------------------------------------------------------------===//

#include "src/core/LVish.h"
#include "src/core/ParFor.h"
#include "src/data/Counter.h"
#include "src/data/ISet.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

using namespace lvish;

namespace {

constexpr EffectSet D = Eff::Det;

TEST(RunPar, ReturnsPureValue) {
  int R = runPar<D>([](ParCtx<D> Ctx) -> Par<int> { co_return 42; });
  EXPECT_EQ(R, 42);
}

TEST(RunPar, VoidBody) {
  std::atomic<int> Hit{0};
  runPar<D>([&](ParCtx<D> Ctx) -> Par<void> {
    Hit.fetch_add(1);
    co_return;
  });
  EXPECT_EQ(Hit.load(), 1);
}

TEST(RunPar, SequentialBindViaCoAwait) {
  auto Inner = [](ParCtx<D> Ctx, int X) -> Par<int> { co_return X * 2; };
  int R = runPar<D>([&](ParCtx<D> Ctx) -> Par<int> {
    int A = co_await Inner(Ctx, 10);
    int B = co_await Inner(Ctx, A);
    co_return B + 2;
  });
  EXPECT_EQ(R, 42);
}

TEST(IVar, PutThenGet) {
  int R = runPar<D>([](ParCtx<D> Ctx) -> Par<int> {
    auto IV = newIVar<int>(Ctx);
    put(Ctx, *IV, 7);
    int V = co_await get(Ctx, *IV);
    co_return V;
  });
  EXPECT_EQ(R, 7);
}

TEST(IVar, GetBlocksUntilForkedPut) {
  int R = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<int> {
        auto IV = newIVar<int>(Ctx);
        fork(Ctx, [IV](ParCtx<D> C) -> Par<void> {
          put(C, *IV, 99);
          co_return;
        });
        int V = co_await get(Ctx, *IV);
        co_return V;
      },
      SchedulerConfig{2});
  EXPECT_EQ(R, 99);
}

TEST(IVar, RepeatedEqualPutIsIdempotent) {
  int R = runPar<D>([](ParCtx<D> Ctx) -> Par<int> {
    auto IV = newIVar<int>(Ctx);
    put(Ctx, *IV, 5);
    put(Ctx, *IV, 5); // lub(full(5), full(5)) = full(5): allowed.
    co_return co_await get(Ctx, *IV);
  });
  EXPECT_EQ(R, 5);
}

TEST(IVar, ManyReadersOneWriter) {
  constexpr int NumReaders = 32;
  int Sum = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<int> {
        auto IV = newIVar<int>(Ctx);
        auto Acc = newIVar<int>(Ctx); // Unused; keeps shape realistic.
        (void)Acc;
        std::vector<std::shared_ptr<IVar<int>>> Outs;
        for (int I = 0; I < NumReaders; ++I)
          Outs.push_back(newIVar<int>(Ctx));
        for (int I = 0; I < NumReaders; ++I)
          fork(Ctx, [IV, Out = Outs[I]](ParCtx<D> C) -> Par<void> {
            int V = co_await get(C, *IV);
            put(C, *Out, V);
          });
        put(Ctx, *IV, 3);
        int S = 0;
        for (int I = 0; I < NumReaders; ++I)
          S += co_await get(Ctx, *Outs[I]);
        co_return S;
      },
      SchedulerConfig{4});
  EXPECT_EQ(Sum, 3 * NumReaders);
}

TEST(Spawn, FutureRoundTrip) {
  int R = runPar<D>([](ParCtx<D> Ctx) -> Par<int> {
    auto F1 = spawn(Ctx, [](ParCtx<D> C) -> Par<int> { co_return 20; });
    auto F2 = spawn(Ctx, [](ParCtx<D> C) -> Par<int> { co_return 22; });
    int A = co_await get(Ctx, *F1);
    int B = co_await get(Ctx, *F2);
    co_return A + B;
  });
  EXPECT_EQ(R, 42);
}

TEST(Fork, DeepRecursiveForkTree) {
  // A fork tree computing a parallel sum via futures: exercises stealing,
  // symmetric transfer, and task retirement.
  struct Rec {
    static Par<long> sum(ParCtx<D> Ctx, long Lo, long Hi) {
      if (Hi - Lo <= 8) {
        long S = 0;
        for (long I = Lo; I < Hi; ++I)
          S += I;
        co_return S;
      }
      long Mid = Lo + (Hi - Lo) / 2;
      auto F = spawn(Ctx, [Lo, Mid](ParCtx<D> C) -> Par<long> {
        co_return co_await sum(C, Lo, Mid);
      });
      long Right = co_await sum(Ctx, Mid, Hi);
      long Left = co_await get(Ctx, *F);
      co_return Left + Right;
    }
  };
  long R = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<long> { co_return co_await Rec::sum(Ctx, 0, 1000); },
      SchedulerConfig{4});
  EXPECT_EQ(R, 999L * 1000 / 2);
}

// -- PureLVar ---------------------------------------------------------------

TEST(PureLVar, MaxLatticeThreshold) {
  size_t Which = runPar<D>([](ParCtx<D> Ctx) -> Par<size_t> {
    auto LV = newPureLVar<MaxUint64Lattice>(Ctx);
    fork(Ctx, [LV](ParCtx<D> C) -> Par<void> {
      putPureLVar(C, *LV, 3ULL);
      putPureLVar(C, *LV, 10ULL);
      co_return;
    });
    // Unblocks once the state reaches 10; trigger index 0.
    // (Named variable: GCC 12 mis-handles braced init inside co_await.)
    ThresholdSets<unsigned long long> Th{{10ULL}};
    size_t Idx = co_await get(Ctx, *LV, Th);
    co_return Idx;
  });
  EXPECT_EQ(Which, 0u);
}

TEST(PureLVar, PutIsLubNotLastWriterWins) {
  auto LV = runParThenFreeze<D>([](ParCtx<D> Ctx) -> Par<
                                    std::shared_ptr<PureLVar<MaxUint64Lattice>>> {
    auto V = newPureLVar<MaxUint64Lattice>(Ctx);
    for (int I = 0; I < 8; ++I)
      fork(Ctx, [V, I](ParCtx<D> C) -> Par<void> {
        putPureLVar(C, *V, static_cast<unsigned long long>(I));
        co_return;
      });
    co_return V;
  });
  EXPECT_TRUE(LV->isFrozen());
  EXPECT_EQ(LV->peek(), 7ULL); // max over all writes, order-independent.
}

TEST(PureLVar, HandlerSeesEveryChangeAtLeastTheFinalState) {
  std::atomic<unsigned long long> MaxSeen{0};
  runParIO<Eff::FullIO>([&](ParCtx<Eff::FullIO> Ctx) -> Par<void> {
    auto LV = newPureLVar<MaxUint64Lattice>(Ctx);
    auto Pool = newPool(Ctx);
    [[maybe_unused]] HandlerHandle H =
        addHandler(Ctx, Pool, *LV,
                   [&MaxSeen](ParCtx<Eff::FullIO> C,
                              const unsigned long long &S) -> Par<void> {
                     unsigned long long Cur = MaxSeen.load();
                     while (Cur < S && !MaxSeen.compare_exchange_weak(Cur, S)) {
                     }
                     co_return;
                   });
    putPureLVar(Ctx, *LV, 5ULL);
    putPureLVar(Ctx, *LV, 9ULL);
    co_await quiesce(Ctx, Pool);
    co_return;
  });
  EXPECT_EQ(MaxSeen.load(), 9ULL);
}

TEST(Quiesce, DrainsTransitiveHandlerCascade) {
  // Handler on LVar A writes to LVar B; quiescing the pool must cover the
  // cascaded work.
  unsigned long long FinalB = runParIO<Eff::FullIO>(
      [](ParCtx<Eff::FullIO> Ctx) -> Par<unsigned long long> {
        auto A = newPureLVar<MaxUint64Lattice>(Ctx);
        auto B = newPureLVar<MaxUint64Lattice>(Ctx);
        auto Pool = newPool(Ctx);
        [[maybe_unused]] HandlerHandle H =
            addHandler(Ctx, Pool, *A,
                       [B](ParCtx<Eff::FullIO> C,
                           const unsigned long long &S) -> Par<void> {
                         putPureLVar(C, *B, S * 2);
                         co_return;
                       });
        putPureLVar(Ctx, *A, 21ULL);
        co_await quiesce(Ctx, Pool);
        co_return B->peek();
      });
  EXPECT_EQ(FinalB, 42ULL);
}

// -- Effect levels ------------------------------------------------------

TEST(Effects, SubsumptionIsImplicit) {
  // A Det context can be passed where ReadOnly is expected.
  auto ReadOnlyFn = [](ParCtx<Eff::ReadOnly> C) -> Par<int> { co_return 1; };
  int R = runPar<D>([&](ParCtx<D> Ctx) -> Par<int> {
    co_return co_await ReadOnlyFn(Ctx);
  });
  EXPECT_EQ(R, 1);
}

TEST(Effects, SetAlgebra) {
  static_assert(Eff::Det.subsumes(Eff::ReadOnly));
  static_assert(!Eff::ReadOnly.subsumes(Eff::Det));
  static_assert(Eff::FullIO.subsumes(Eff::DetBump));
  static_assert((Eff::ReadOnly | Eff::WriteOnly) == Eff::Det);
  static_assert(noFreeze(Eff::Det) && noIO(Eff::Det));
  static_assert(readOnly(Eff::ReadOnly));
  static_assert(!readOnly(Eff::Det));
  SUCCEED();
}

TEST(ParallelFor, OneLeafRunsAMillionBumpsInConstantStack) {
  // One leaf (grain = N) calls its plain body N times in one loop: no
  // coroutine frame and no resume frame per element, so a Debug build,
  // which emits no tail calls, must still finish with the exact count.
  constexpr size_t N = 1000000;
  constexpr EffectSet E{true, true, true, true, false, false};
  uint64_t Total = runParIO<E>(
      [](ParCtx<E> Ctx) -> Par<uint64_t> {
        auto Ctr = newCounter(Ctx);
        Counter *CP = Ctr.get();
        auto Body = [CP](ParCtx<E> C, size_t) { incrCounter(C, *CP); };
        co_await parallelFor(Ctx, 0, N, N, Body);
        co_return freezeCounter(Ctx, *Ctr);
      },
      SchedulerConfig{1});
  EXPECT_EQ(Total, N);
}

TEST(Quiesce, PlainHandlerChainRunsAMillionDeltasInConstantStack) {
  // Element X's plain handler inserts X + 1, so the chain runs a million
  // handler generations deep on one worker. The flush task calls the
  // callback in a loop - no task, coroutine frame or resume frame per
  // delta - so a Debug build, which emits no tail calls, must still
  // finish with the exact size and a drained pool.
  constexpr uint64_t N = 1000000;
  bool Drained = false;
  size_t Size = runPar<D>(
      [&Drained](ParCtx<D> Ctx) -> Par<size_t> {
        auto S = newISet<uint64_t>(Ctx);
        auto Pool = newPool(Ctx);
        [[maybe_unused]] HandlerHandle H = addHandlerRef(
            Ctx, Pool, *S,
            [](ParCtx<D> C, ISet<uint64_t> &Set, const uint64_t &X) {
              if (X + 1 < N)
                insert(C, Set, X + 1);
            });
        insert(Ctx, *S, uint64_t{0});
        co_await quiesce(Ctx, Pool);
        Drained = Pool->Scope.activeCount() == 0;
        co_return S->sizeNow();
      },
      SchedulerConfig{1});
  EXPECT_EQ(Size, N);
  EXPECT_TRUE(Drained);
}

TEST(Yield, CooperativeYieldRoundTrip) {
  int R = runPar<D>([](ParCtx<D> Ctx) -> Par<int> {
    co_await yield(Ctx);
    co_await yield(Ctx);
    co_return 5;
  });
  EXPECT_EQ(R, 5);
}

TEST(RunPar, ManySessionsOnOneScheduler) {
  service::Runtime RT({.Sched = {.NumWorkers = 2}});
  for (int I = 0; I < 20; ++I) {
    int R = RT.run<D>([I](ParCtx<D> Ctx) -> Par<int> {
      auto IV = newIVar<int>(Ctx);
      fork(Ctx, [IV, I](ParCtx<D> C) -> Par<void> {
        put(C, *IV, I);
        co_return;
      });
      co_return co_await get(Ctx, *IV);
    }).valueOrAbort();
    EXPECT_EQ(R, I);
  }
}

// Determinism sweep: the same program must produce the same value under
// many worker counts and steal seeds.
TEST(Determinism, SameResultAcrossSchedules) {
  auto Program = [](ParCtx<D> Ctx) -> Par<unsigned long long> {
    auto LV = newPureLVar<MaxUint64Lattice>(Ctx);
    for (int I = 0; I < 16; ++I)
      fork(Ctx, [LV, I](ParCtx<D> C) -> Par<void> {
        putPureLVar(C, *LV, static_cast<unsigned long long>((I * 7) % 13));
        co_return;
      });
    ThresholdSets<unsigned long long> Th{{12ULL}};
    co_return co_await get(Ctx, *LV, Th) + 12;
  };
  unsigned long long First = 0;
  bool Have = false;
  for (unsigned Workers : {1u, 2u, 3u, 4u}) {
    for (uint64_t Seed : {1ull, 99ull, 12345ull}) {
      SchedulerConfig Cfg;
      Cfg.NumWorkers = Workers;
      Cfg.StealSeed = Seed;
      unsigned long long R = runPar<D>(Program, Cfg);
      if (!Have) {
        First = R;
        Have = true;
      }
      EXPECT_EQ(R, First) << "workers=" << Workers << " seed=" << Seed;
    }
  }
}

} // namespace
