//===- DataStructuresTest.cpp - ISet/IMap/Counter/IStructure tests ---------===//

#include "src/core/LVish.h"
#include "src/core/ParFor.h"
#include "src/data/Counter.h"
#include "src/data/IMap.h"
#include "src/data/ISet.h"
#include "src/data/IStructure.h"
#include "src/data/MonotoneHashMap.h"
#include "src/data/UnionFind.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

using namespace lvish;

namespace {

constexpr EffectSet D = Eff::Det;
constexpr EffectSet DB = Eff::DetBump;

// -- MonotoneHashMap substrate -------------------------------------------

TEST(MonotoneHashMap, InsertFindBasics) {
  MonotoneHashMap<int, std::string> M;
  auto [P1, New1] = M.insert(1, "one");
  EXPECT_TRUE(New1);
  EXPECT_EQ(*P1, "one");
  auto [P2, New2] = M.insert(1, "uno");
  EXPECT_FALSE(New2);
  EXPECT_EQ(*P2, "one"); // First write wins; no overwrite ever.
  EXPECT_EQ(M.size(), 1u);
  EXPECT_TRUE(M.contains(1));
  EXPECT_FALSE(M.contains(2));
}

TEST(MonotoneHashMap, PointersAreStableAcrossGrowth) {
  MonotoneHashMap<int, int> M;
  auto [P, New] = M.insert(0, 42);
  (void)New;
  for (int I = 1; I < 5000; ++I)
    M.insert(I, I);
  EXPECT_EQ(*P, 42); // Node-based: stable despite 5000 inserts.
  EXPECT_EQ(M.size(), 5000u);
}

TEST(MonotoneHashMap, ConcurrentInsertExactCount) {
  MonotoneHashMap<int, int> M;
  constexpr int PerThread = 5000;
  constexpr int Threads = 4;
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&M, T] {
      for (int I = 0; I < PerThread; ++I)
        M.insert(I, T); // All threads race on the same keys.
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(M.size(), static_cast<size_t>(PerThread));
}

TEST(MonotoneHashMap, SnapshotSortedIsSorted) {
  MonotoneHashMap<int, int> M;
  for (int I : {5, 3, 9, 1, 7})
    M.insert(I, I * 10);
  auto Snap = M.snapshotSorted();
  ASSERT_EQ(Snap.size(), 5u);
  EXPECT_TRUE(std::is_sorted(Snap.begin(), Snap.end()));
  EXPECT_EQ(Snap.front().first, 1);
  EXPECT_EQ(Snap.back().first, 9);
}

// -- ISet ------------------------------------------------------------------

TEST(ISet, InsertThenWaitElem) {
  runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
    auto S = newISet<int>(Ctx);
    fork(Ctx, [S](ParCtx<D> C) -> Par<void> {
      insert(C, *S, 42);
      co_return;
    });
    co_await get(Ctx, *S, 42);
    EXPECT_TRUE(S->containsElem(42));
    co_return;
  });
}

TEST(ISet, WaitSizeUnblocksAtThreshold) {
  runPar<D>(
      [](ParCtx<D> Ctx) -> Par<void> {
        auto S = newISet<int>(Ctx);
        for (int I = 0; I < 10; ++I)
          fork(Ctx, [S, I](ParCtx<D> C) -> Par<void> {
            insert(C, *S, I);
            co_return;
          });
        co_await waitSize(Ctx, *S, 10);
        EXPECT_GE(S->sizeNow(), 10u);
        co_return;
      },
      SchedulerConfig{4});
}

TEST(ISet, DuplicateInsertIsIdempotent) {
  auto S = runParThenFreeze<D>([](ParCtx<D> Ctx) -> Par<
                                   std::shared_ptr<ISet<int>>> {
    auto Set = newISet<int>(Ctx);
    for (int R = 0; R < 4; ++R)
      fork(Ctx, [Set](ParCtx<D> C) -> Par<void> {
        for (int I = 0; I < 50; ++I)
          insert(C, *Set, I);
        co_return;
      });
    co_return Set;
  });
  EXPECT_EQ(S->sizeNow(), 50u);
  auto Sorted = S->toSortedVector();
  ASSERT_EQ(Sorted.size(), 50u);
  for (int I = 0; I < 50; ++I)
    EXPECT_EQ(Sorted[static_cast<size_t>(I)], I);
}

TEST(ISet, HandlerDeliversEachElementExactlyOnce) {
  std::atomic<int> Deliveries{0};
  std::atomic<long> Sum{0};
  runParIO<Eff::FullIO>([&](ParCtx<Eff::FullIO> Ctx) -> Par<void> {
    auto S = newISet<int>(Ctx);
    auto Pool = newPool(Ctx);
    // Insert some elements BEFORE registration (delivered via snapshot)...
    insert(Ctx, *S, 100);
    insert(Ctx, *S, 200);
    [[maybe_unused]] HandlerHandle H =
        addHandler(Ctx, Pool, *S,
                   [&](ParCtx<Eff::FullIO> C, const int &V) -> Par<void> {
                     Deliveries.fetch_add(1);
                     Sum.fetch_add(V);
                     co_return;
                   });
    // ...and some after (delivered by the put path).
    insert(Ctx, *S, 1);
    insert(Ctx, *S, 2);
    insert(Ctx, *S, 1); // Duplicate: no delivery.
    co_await quiesce(Ctx, Pool);
    co_return;
  });
  EXPECT_EQ(Deliveries.load(), 4);
  EXPECT_EQ(Sum.load(), 303);
}

TEST(ISet, CascadingHandlersComputeClosure) {
  // Classic LVar idiom: a handler re-inserting f(x) until a fixpoint -
  // computes the closure of {1} under x -> 2x (mod 100).
  auto S = runParThenFreeze<D>([](ParCtx<D> Ctx) -> Par<
                                   std::shared_ptr<ISet<int>>> {
    auto Set = newISet<int>(Ctx);
    auto Pool = newPool(Ctx);
    // Self-referential handler: capture a non-owning pointer, or the
    // closure stored inside the set would keep the set alive forever
    // (shared_ptr cycle; see the ownership note in HandlerPool.h).
    ISet<int> *SetP = Set.get();
    [[maybe_unused]] HandlerHandle H =
        addHandler(Ctx, Pool, *Set, [SetP](ParCtx<D> C, const int &V) -> Par<void> {
          insert(C, *SetP, (V * 2) % 100);
          co_return;
        });
    insert(Ctx, *Set, 1);
    co_await quiesce(Ctx, Pool);
    co_return Set;
  });
  // Orbit of 1 under doubling mod 100: 1,2,4,8,16,32,64,28,56,12,24,48,96,
  // 92,84,68,36,72,44,88,76,52,4(cycle)...
  EXPECT_TRUE(S->containsElem(1));
  EXPECT_TRUE(S->containsElem(64));
  EXPECT_TRUE(S->containsElem(96));
  EXPECT_FALSE(S->containsElem(3));
}

// -- IMap -------------------------------------------------------------------

TEST(IMap, ShoppingCartAppendixExample) {
  // The paper's appendix A example: deterministically prints 2.
  enum class Item { Book, Shoes };
  struct ItemHash {
    uint64_t operator()(Item I) const {
      return mix64(static_cast<uint64_t>(I));
    }
  };
  int R = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<int> {
        auto Cart = std::make_shared<IMap<Item, int, ItemHash>>(
            Ctx.sessionId());
        fork(Ctx, [Cart](ParCtx<D> C) -> Par<void> {
          Cart->insertKV(Item::Book, 2, C.task());
          co_return;
        });
        fork(Ctx, [Cart](ParCtx<D> C) -> Par<void> {
          Cart->insertKV(Item::Shoes, 1, C.task());
          co_return;
        });
        int N = co_await get(Ctx, *Cart, Item::Book);
        co_return N;
      },
      SchedulerConfig{2});
  EXPECT_EQ(R, 2);
}

TEST(IMap, EqualReinsertIsIdempotent) {
  runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
    auto M = newEmptyMap<int, int>(Ctx);
    insert(Ctx, *M, 1, 10);
    insert(Ctx, *M, 1, 10); // Same value: fine.
    int V = co_await get(Ctx, *M, 1);
    EXPECT_EQ(V, 10);
    co_return;
  });
}

TEST(IMap, WaitMapSizeAndFreeze) {
  auto Entries = runParIO<Eff::QuasiDet>(
      [](ParCtx<Eff::QuasiDet> Ctx) -> Par<std::vector<std::pair<int, int>>> {
        auto M = newEmptyMap<int, int>(Ctx);
        for (int I = 0; I < 5; ++I)
          fork(Ctx, [M, I](ParCtx<Eff::QuasiDet> C) -> Par<void> {
            insert(C, *M, I, I * I);
            co_return;
          });
        co_await waitSize(Ctx, *M, 5);
        co_return freezeMap(Ctx, *M);
      });
  ASSERT_EQ(Entries.size(), 5u);
  for (int I = 0; I < 5; ++I) {
    EXPECT_EQ(Entries[static_cast<size_t>(I)].first, I);
    EXPECT_EQ(Entries[static_cast<size_t>(I)].second, I * I);
  }
}

TEST(IMap, HandlersSeePreexistingAndNewBindings) {
  std::atomic<int> Seen{0};
  runParIO<Eff::FullIO>([&](ParCtx<Eff::FullIO> Ctx) -> Par<void> {
    auto M = newEmptyMap<int, int>(Ctx);
    auto Pool = newPool(Ctx);
    insert(Ctx, *M, 1, 1);
    [[maybe_unused]] HandlerHandle H =
        addHandler(Ctx, Pool, *M,
                   [&Seen](ParCtx<Eff::FullIO> C,
                           const std::pair<int, int> &KV) -> Par<void> {
                     Seen.fetch_add(KV.second);
                     co_return;
                   });
    insert(Ctx, *M, 2, 10);
    co_await quiesce(Ctx, Pool);
    co_return;
  });
  EXPECT_EQ(Seen.load(), 11);
}

// -- Counter ------------------------------------------------------------

TEST(Counter, ConcurrentBumpsAllLand) {
  // 8 tasks x 1000 bumps: exactly-once RMW means the total is exact, not
  // merely monotone (this is what lub-only LVars cannot express).
  uint64_t Total = runParIO<Eff::FullIO>(
      [](ParCtx<Eff::FullIO> Ctx) -> Par<uint64_t> {
        auto C = newCounter(Ctx);
        auto DoneCount = newCounter(Ctx);
        for (int T = 0; T < 8; ++T)
          fork(Ctx, [C, DoneCount](ParCtx<Eff::FullIO> Cc) -> Par<void> {
            for (int I = 0; I < 1000; ++I)
              incrCounter(Cc, *C);
            incrCounter(Cc, *DoneCount);
            co_return;
          });
        co_await get(Ctx, *DoneCount, 8);
        co_return freezeCounter(Ctx, *C);
      },
      SchedulerConfig{4});
  EXPECT_EQ(Total, 8000u);
}

TEST(Counter, ThresholdReadReturnsThresholdOnly) {
  uint64_t R = runPar<DB>(
      [](ParCtx<DB> Ctx) -> Par<uint64_t> {
        auto C = newCounter(Ctx);
        fork(Ctx, [C](ParCtx<DB> Cc) -> Par<void> {
          for (int I = 0; I < 100; ++I)
            incrCounter(Cc, *C, 2);
          co_return;
        });
        // Unblocks somewhere between 10 and 200; must return exactly 10.
        uint64_t V = co_await get(Ctx, *C, 10);
        co_return V;
      },
      SchedulerConfig{2});
  EXPECT_EQ(R, 10u);
}

// Compile-time property probe: must be a template so an unusable `put`
// yields false rather than a hard error.
template <typename LVarT>
constexpr bool SupportsPut =
    requires(ParCtx<Eff::FullIO> C, LVarT &LV, uint64_t V) {
      put(C, LV, V);
    };

TEST(Counter, HasNoPutInterface) {
  // Counter deliberately exposes no put; IVar does. (If the first ever
  // flips, the put/bump separation of Section 3 broke.)
  static_assert(!SupportsPut<Counter>);
  static_assert(SupportsPut<IVar<uint64_t>>);
  SUCCEED();
}

TEST(CounterVec, PerCellBumpsAndSnapshot) {
  auto Snap = runParIO<Eff::FullIO>(
      [](ParCtx<Eff::FullIO> Ctx) -> Par<std::vector<uint64_t>> {
        auto CV = newCounterVec(Ctx, 16);
        // Named body: GCC 12 co_await temporary discipline (see Par.h).
        auto Body = [CV](ParCtx<Eff::FullIO> C, size_t I) -> Par<void> {
          incrCounterAt(C, *CV, I % 16);
          co_return;
        };
        co_await parallelForPar(Ctx, 0, 64, 1, Body);
        co_return freezeCounterVec(Ctx, *CV);
      },
      SchedulerConfig{4});
  ASSERT_EQ(Snap.size(), 16u);
  for (uint64_t V : Snap)
    EXPECT_EQ(V, 4u);
}

// -- UnionFind --------------------------------------------------------------

TEST(UnionFind, UnionOrderDoesNotChangeLabels) {
  // The partition join is commutative and idempotent: any order of the
  // same unions, repeats included, freezes to the same labels - and each
  // label is its class's minimum vertex.
  using Edge = std::pair<uint32_t, uint32_t>;
  const std::vector<Edge> Edges = {{9, 4}, {4, 7}, {1, 8}, {8, 3}, {6, 6},
                                   {11, 2}, {2, 5}, {7, 11}, {3, 10}};
  const std::vector<uint32_t> Want = {0, 1, 2, 1, 2, 2, 6, 2, 1, 2, 1, 2};
  std::vector<std::vector<Edge>> Orders = {Edges, Edges, Edges};
  std::reverse(Orders[1].begin(), Orders[1].end());
  for (size_t I = 0; I < Edges.size(); ++I) // Swapped ends, each twice.
    for (int Rep = 0; Rep < 2; ++Rep)
      Orders[2].push_back({Edges[I].second, Edges[I].first});
  for (unsigned W : {1u, 4u})
    for (const std::vector<Edge> &Order : Orders) {
      auto Frozen = runParThenFreeze<D>(
          [&Order](ParCtx<D> Ctx) -> Par<std::shared_ptr<UnionFind>> {
            auto UF = newUnionFind(Ctx, 12);
            for (const Edge &E : Order)
              fork(Ctx, [UF, E](ParCtx<D> C) -> Par<void> {
                unite(C, *UF, E.first, E.second);
                co_return;
              });
            co_return UF;
          },
          SchedulerConfig{W});
      EXPECT_EQ(Frozen->labels(), Want) << "workers=" << W;
    }
}

TEST(UnionFind, OnlyMergingUnionAfterFreezeFaults) {
  for (unsigned W : {1u, 2u, 4u}) {
    // {0,1} and {2} frozen: re-uniting 1 with 0 changes nothing.
    auto Same = tryRunParIO<Eff::QuasiDet>(
        [](ParCtx<Eff::QuasiDet> Ctx) -> Par<std::vector<uint32_t>> {
          auto UF = newUnionFind(Ctx, 3);
          unite(Ctx, *UF, 0, 1);
          std::vector<uint32_t> Labels = freezeUnionFind(Ctx, *UF);
          unite(Ctx, *UF, 1, 0);
          co_return Labels;
        },
        SchedulerConfig{W});
    ASSERT_TRUE(Same.ok()) << "workers=" << W;
    EXPECT_EQ(Same.value(), (std::vector<uint32_t>{0, 0, 2}));
    // Merging {2} into {0,1} after the freeze is a deterministic Fault,
    // attributed to the forked writer whatever the schedule.
    auto Merge = tryRunParIO<Eff::QuasiDet>(
        [](ParCtx<Eff::QuasiDet> Ctx) -> Par<void> {
          auto UF = newUnionFind(Ctx, 3);
          auto Gate = newIVar<bool>(Ctx);
          unite(Ctx, *UF, 0, 1);
          fork(Ctx, [UF, Gate](ParCtx<Eff::QuasiDet> C) -> Par<void> {
            co_await get(C, *Gate); // After the freeze...
            unite(C, *UF, 2, 1);    // ...merge two frozen classes.
          });
          freezeUnionFind(Ctx, *UF);
          put(Ctx, *Gate, true);
          co_return;
        },
        SchedulerConfig{W});
    ASSERT_FALSE(Merge.ok()) << "workers=" << W;
    EXPECT_EQ(Merge.fault().Code, FaultCode::PutAfterFreeze);
    EXPECT_EQ(Merge.fault().Pedigree, "L");
  }
}

// -- IStructure -------------------------------------------------------------

TEST(IStructure, DataflowArray) {
  // Slot i+1 depends on slot i: a chain of blocking reads.
  int Last = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<int> {
        constexpr size_t N = 64;
        auto A = newIStructure<int>(Ctx, N);
        for (size_t I = 1; I < N; ++I)
          fork(Ctx, [A, I](ParCtx<D> C) -> Par<void> {
            int Prev = co_await get(C, *A, I - 1);
            putIdx(C, *A, I, Prev + 1);
          });
        putIdx(Ctx, *A, 0, 1);
        int V = co_await get(Ctx, *A, N - 1);
        co_return V;
      },
      SchedulerConfig{4});
  EXPECT_EQ(Last, 64);
}

} // namespace
