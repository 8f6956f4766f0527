//===- DataStructuresTest.cpp - ISet/IMap/Counter/IStructure tests ---------===//

#include "src/core/LVish.h"
#include "src/core/ParFor.h"
#include "src/data/AndLV.h"
#include "src/data/Counter.h"
#include "src/data/DenseSet.h"
#include "src/data/IMap.h"
#include "src/data/ISet.h"
#include "src/data/IStructure.h"
#include "src/data/InsertOnlyTable.h"
#include "src/data/MinMap.h"
#include "src/data/PureMap.h"
#include "src/data/Stream.h"
#include "src/data/UnionFind.h"
#include "src/obs/Telemetry.h"
#include "src/support/AsymmetricGate.h"
#include "src/trans/BulkRetry.h"
#include "src/trans/Cancel.h"
#include "src/trans/Deadlock.h"
#include "src/trans/Memo.h"
#include "src/trans/ParST.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <concepts>
#include <functional>
#include <numeric>
#include <string>
#include <thread>

using namespace lvish;

namespace {

constexpr EffectSet D = Eff::Det;
constexpr EffectSet DB = Eff::DetBump;

// -- InsertOnlyTable substrate -------------------------------------------

/// The table's put path outside any LVar, under a private gate: returns
/// {stored value, newly inserted}.
template <typename K, typename V>
std::pair<const V *, bool> tableInsert(InsertOnlyTable<K, V> &T,
                                       AsymmetricGate &G, const K &Key,
                                       V Val) {
  return T.insertUnder(
      G, Key, [&Val] { return std::move(Val); },
      [](const V &Stored, bool Inserted) {
        return std::pair<const V *, bool>(&Stored, Inserted);
      });
}

TEST(InsertOnlyTable, InsertFindBasics) {
  InsertOnlyTable<int, std::string> M;
  AsymmetricGate G;
  auto [P1, New1] = tableInsert(M, G, 1, std::string("one"));
  EXPECT_TRUE(New1);
  EXPECT_EQ(*P1, "one");
  auto [P2, New2] = tableInsert(M, G, 1, std::string("uno"));
  EXPECT_FALSE(New2);
  EXPECT_EQ(*P2, "one"); // First write wins; no overwrite ever.
  EXPECT_EQ(M.size(), 1u);
  EXPECT_TRUE(M.contains(1));
  EXPECT_FALSE(M.contains(2));
  EXPECT_EQ(M.find(2), nullptr);
}

TEST(InsertOnlyTable, ModifyKeyRefSurvivesTenGrowths) {
  // 10,000 keys take the table from 16 slots to 32,768: eleven doublings
  // after the reference was handed out. The retired arrays keep it valid.
  runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
    auto M = newEmptyMap<int, std::string>(Ctx);
    const std::string Long(64, 'v'); // Heap-allocated, so ASan sees reuse.
    const std::string &Ref =
        M->modifyKey(0, [&Long] { return Long; }, Ctx.task());
    for (int I = 1; I < 10000; ++I)
      insert(Ctx, *M, I, std::to_string(I));
    EXPECT_EQ(Ref, Long);
    EXPECT_EQ(M->sizeNow(), 10000u);
    co_return;
  });
}

TEST(InsertOnlyTable, ConcurrentInsertExactCount) {
  InsertOnlyTable<int, int> M;
  AsymmetricGate G;
  constexpr int PerThread = 5000;
  constexpr int Threads = 4;
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&M, &G, T] {
      for (int I = 0; I < PerThread; ++I)
        tableInsert(M, G, I, T); // All threads race on the same keys.
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(M.size(), static_cast<size_t>(PerThread));
}

TEST(InsertOnlyTable, SnapshotSortedIsSorted) {
  InsertOnlyTable<int, int> M;
  AsymmetricGate G;
  for (int I : {5, 3, 9, 1, 7})
    tableInsert(M, G, I, I * 10);
  auto Snap = M.sorted([](int K, int V) { return std::pair(K, V); });
  ASSERT_EQ(Snap.size(), 5u);
  EXPECT_TRUE(std::is_sorted(Snap.begin(), Snap.end()));
  EXPECT_EQ(Snap.front().first, 1);
  EXPECT_EQ(Snap.back().first, 9);
}

TEST(InsertOnlyTable, GrowthRacesLockFreeReaders) {
  // Four writers insert overlapping ranges covering 0..Keys (eleven
  // doublings from 16 slots) while two readers sweep the key space with
  // contains and find. A key once seen must stay visible, with its value.
  constexpr int Keys = 10000, Span = 4000, Step = 2000;
  InsertOnlyTable<int, int> M;
  AsymmetricGate G;
  std::atomic<int> WritersLeft{4};
  std::atomic<int> Bad{0};
  std::atomic<int> Ready{0};
  auto StartTogether = [&Ready] {
    Ready.fetch_add(1);
    while (Ready.load() < 6)
      std::this_thread::yield();
  };
  std::vector<std::thread> Ts;
  for (int T = 0; T < 4; ++T)
    Ts.emplace_back([&, T] {
      StartTogether();
      const int Lo = T == 3 ? Keys - Span : T * Step;
      for (int I = Lo; I < Lo + Span; ++I)
        tableInsert(M, G, I, I * 3);
      WritersLeft.fetch_sub(1);
    });
  for (int R = 0; R < 2; ++R)
    Ts.emplace_back([&, R] {
      StartTogether();
      std::vector<char> Seen(Keys, 0);
      bool LastPass = false;
      while (!LastPass) {
        LastPass = WritersLeft.load() == 0;
        for (int I = 0; I < Keys; ++I) {
          bool Found = false;
          if (R == 0) {
            Found = M.contains(I);
          } else if (const int *V = M.find(I)) {
            Found = true;
            if (*V != I * 3)
              Bad.fetch_add(1);
          }
          if (Seen[I] && !Found)
            Bad.fetch_add(1);
          Seen[I] |= Found;
        }
      }
      for (int I = 0; I < Keys; ++I)
        if (!Seen[I])
          Bad.fetch_add(1);
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Bad.load(), 0);
  EXPECT_EQ(M.size(), static_cast<size_t>(Keys));
  for (int I = 0; I < Keys; ++I) {
    const int *V = M.find(I);
    ASSERT_NE(V, nullptr) << I;
    EXPECT_EQ(*V, I * 3);
  }
}

/// A value that counts live objects and catches a second destruction.
struct Counted {
  static inline std::atomic<int> Live{0};
  static inline std::atomic<int> DoubleDestroys{0};
  static constexpr uint32_t Alive = 0xA11CE, Dead = 0xDEAD;
  uint32_t State = Alive;
  int Value;
  explicit Counted(int V) : Value(V) { Live.fetch_add(1); }
  Counted(const Counted &O) : Value(O.Value) { Live.fetch_add(1); }
  Counted(Counted &&O) noexcept : Value(O.Value) { Live.fetch_add(1); }
  Counted &operator=(const Counted &) = delete;
  ~Counted() {
    if (State != Alive)
      DoubleDestroys.fetch_add(1);
    State = Dead;
    Live.fetch_sub(1);
  }
};

TEST(InsertOnlyTable, StringKeysDestroyEachValueOnce) {
  // Growth copies every entry (the retired array keeps its own copy), so
  // each copy must be destroyed exactly once when the table goes.
  {
    InsertOnlyTable<std::string, Counted> M;
    AsymmetricGate G;
    for (int Round = 0; Round < 2; ++Round)
      for (int I = 0; I < 3000; ++I)
        tableInsert(M, G, "key-with-a-heap-buffer-" + std::to_string(I),
                    Counted(I));
    EXPECT_EQ(M.size(), 3000u);
    const Counted *C = M.find("key-with-a-heap-buffer-2999");
    ASSERT_NE(C, nullptr);
    EXPECT_EQ(C->Value, 2999);
    EXPECT_GT(Counted::Live.load(), 3000); // Retired copies are alive.
  }
  EXPECT_EQ(Counted::Live.load(), 0);
  EXPECT_EQ(Counted::DoubleDestroys.load(), 0);
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

// -- DenseSet --------------------------------------------------------------

TEST(DenseSet, InsertThenGet) {
  runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
    auto S = newDenseSet(Ctx, 100);
    fork(Ctx, [S](ParCtx<D> C) -> Par<void> {
      insert(C, *S, 42u);
      co_return;
    });
    co_await get(Ctx, *S, 42u);
    EXPECT_TRUE(S->containsElem(42));
    EXPECT_FALSE(S->containsElem(41));
    co_return;
  });
}

TEST(DenseSet, WaitSizeUnblocksAtThresholdWithParkedReader) {
  SchedulerStats Stats;
  RunOptions O = RunOptions::CollectStats(Stats);
  O.Config.NumWorkers = 1;
  bool ResumedEarly = true;
  runPar<D>(
      [&ResumedEarly](ParCtx<D> Ctx) -> Par<void> {
        auto S = newDenseSet(Ctx, 200);
        auto Resumed = std::make_shared<bool>(false);
        fork(Ctx, [S, Resumed, &ResumedEarly](ParCtx<D> C) -> Par<void> {
          co_await yield(C); // To the inject queue: the reader parks.
          for (uint32_t I = 0; I < 9; ++I)
            insert(C, *S, I * 20);
          co_await yield(C); // Nine elements: the reader must stay parked.
          ResumedEarly = *Resumed;
          insert(C, *S, 199u);
        });
        co_await waitSize(Ctx, *S, 10);
        *Resumed = true;
        EXPECT_EQ(S->sizeNow(), 10u);
        co_return;
      },
      O);
  EXPECT_FALSE(ResumedEarly);
  EXPECT_EQ(Stats.Parks, 1u);
}

TEST(DenseSet, DuplicateInsertCountsOneNoOpJoin) {
  obs::TelemetrySnapshot Before = obs::telemetrySnapshot();
  auto S = runParThenFreeze<D>(
      [](ParCtx<D> Ctx) -> Par<std::shared_ptr<DenseSet>> {
        auto Set = newDenseSet(Ctx, 10);
        insert(Ctx, *Set, 7u);
        insert(Ctx, *Set, 7u); // Found by the unlocked load.
        co_return Set;
      },
      SchedulerConfig{1});
  obs::TelemetrySnapshot After = obs::telemetrySnapshot();
  auto Delta = [&](obs::Event E) { return After.count(E) - Before.count(E); };
  EXPECT_EQ(Delta(obs::Event::Puts), 2u);
  EXPECT_EQ(Delta(obs::Event::NoOpJoins), 1u);
  EXPECT_EQ(S->toSortedVector(), std::vector<uint32_t>{7});
}

TEST(DenseSet, CascadingHandlersComputeClosure) {
  // The closure of {1} under x -> 2x (mod 100), through a plain handler
  // that re-inserts into the set it watches.
  auto S = runParThenFreeze<D>(
      [](ParCtx<D> Ctx) -> Par<std::shared_ptr<DenseSet>> {
        auto Set = newDenseSet(Ctx, 100);
        auto Pool = newPool(Ctx);
        [[maybe_unused]] HandlerHandle H = addHandlerRef(
            Ctx, Pool, *Set,
            [](ParCtx<D> C, DenseSet &Self, const uint32_t &V) {
              insert(C, Self, (V * 2) % 100);
            });
        insert(Ctx, *Set, 1u);
        co_await quiesce(Ctx, Pool);
        co_return Set;
      },
      SchedulerConfig{4});
  std::vector<uint32_t> Orbit;
  for (uint32_t V = 1; std::find(Orbit.begin(), Orbit.end(), V) == Orbit.end();
       V = (V * 2) % 100)
    Orbit.push_back(V);
  std::sort(Orbit.begin(), Orbit.end());
  EXPECT_EQ(S->toSortedVector(), Orbit);
}

TEST(DenseSet, PutAfterFreezeFaults) {
  for (unsigned W : {1u, 2u, 4u}) {
    // A repeat after the freeze changes nothing and is allowed.
    auto Same = tryRunParIO<Eff::QuasiDet>(
        [](ParCtx<Eff::QuasiDet> Ctx) -> Par<std::vector<uint32_t>> {
          auto S = newDenseSet(Ctx, 10);
          insert(Ctx, *S, 1u);
          std::vector<uint32_t> Frozen = freezeDenseSet(Ctx, *S);
          insert(Ctx, *S, 1u);
          co_return Frozen;
        },
        SchedulerConfig{W});
    ASSERT_TRUE(Same.ok()) << "workers=" << W;
    EXPECT_EQ(Same.value(), std::vector<uint32_t>{1});
    // A new element after the freeze is a deterministic Fault, attributed
    // to the forked writer whatever the schedule.
    auto New = tryRunParIO<Eff::QuasiDet>(
        [](ParCtx<Eff::QuasiDet> Ctx) -> Par<void> {
          auto S = newDenseSet(Ctx, 10);
          auto Gate = newIVar<bool>(Ctx);
          insert(Ctx, *S, 1u);
          fork(Ctx, [S, Gate](ParCtx<Eff::QuasiDet> C) -> Par<void> {
            co_await get(C, *Gate); // After the freeze...
            insert(C, *S, 2u);      // ...add an element.
          });
          freezeDenseSet(Ctx, *S);
          put(Ctx, *Gate, true);
          co_return;
        },
        SchedulerConfig{W});
    ASSERT_FALSE(New.ok()) << "workers=" << W;
    EXPECT_EQ(New.fault().Code, FaultCode::PutAfterFreeze);
    EXPECT_EQ(New.fault().Pedigree, "L");
  }
}

TEST(DenseSet, FreezeIsAscendingAcrossWordBoundaries) {
  for (uint32_t N : {128u, 200u}) {
    const std::vector<uint32_t> Want{0, 63, 64, N - 1};
    auto Got = runParIO<Eff::QuasiDet>(
        [N](ParCtx<Eff::QuasiDet> Ctx) -> Par<std::vector<uint32_t>> {
          auto S = newDenseSet(Ctx, N);
          for (uint32_t V : {N - 1, 64u, 0u, 63u})
            fork(Ctx, [S, V](ParCtx<Eff::QuasiDet> C) -> Par<void> {
              insert(C, *S, V);
              co_return;
            });
          co_await waitSize(Ctx, *S, 4);
          co_return freezeDenseSet(Ctx, *S);
        },
        SchedulerConfig{4});
    EXPECT_EQ(Got, Want) << "N=" << N;
  }
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

TEST(UnionFind, RootOfAfterJoinIsTheClassMinimum) {
  // Racing unites under a fork-join barrier, then rootOf for every vertex:
  // each read is its class's minimum vertex, the label freeze reports.
  // The path over 150..199, listed from 199 down, links roots into chains,
  // so some vertices sit several parents below their root.
  constexpr uint32_t N = 200;
  using Edge = std::pair<uint32_t, uint32_t>;
  std::vector<Edge> Edges;
  for (uint32_t I = 0; I < 120; ++I)
    Edges.push_back({(I * 37 + 11) % 150, (I * 91 + 5) % 150});
  for (uint32_t V = N - 1; V > 150; --V)
    Edges.push_back({V, V - 1});
  std::vector<uint32_t> Want(N);
  std::iota(Want.begin(), Want.end(), 0u);
  auto Find = [&Want](uint32_t V) {
    while (Want[V] != V)
      V = Want[V];
    return V;
  };
  for (const Edge &E : Edges) {
    uint32_t A = Find(E.first), B = Find(E.second);
    Want[std::max(A, B)] = std::min(A, B);
  }
  for (uint32_t V = 0; V < N; ++V)
    Want[V] = Find(V);
  using Reads = std::pair<std::vector<uint32_t>, std::vector<uint32_t>>;
  for (unsigned W : {1u, 4u}) {
    Reads Got = runParIO<Eff::QuasiDet>(
        [&Edges](ParCtx<Eff::QuasiDet> Ctx) -> Par<Reads> {
          auto UF = newUnionFind(Ctx, N);
          auto Unite = [UF, &Edges](ParCtx<Eff::QuasiDet> C, size_t I) {
            unite(C, *UF, Edges[I].first, Edges[I].second);
          };
          co_await parallelFor(Ctx, 0, Edges.size(), 4, Unite);
          std::vector<uint32_t> Roots(N);
          for (uint32_t V = 0; V < N; ++V)
            Roots[V] = UF->rootOf(V);
          co_return Reads{Roots, freezeUnionFind(Ctx, *UF)};
        },
        SchedulerConfig{W});
    EXPECT_EQ(Got.first, Want) << "workers=" << W;
    EXPECT_EQ(Got.second, Want) << "workers=" << W;
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

// -- Effect contracts --------------------------------------------------
//
// The static effect check is the compiler's: every public operation
// demands its effect bits with a `requires(has...(E))` clause, as the
// paper's `put` demands `HasPut e`. This table pins those clauses. Each
// probe is a variable template over the context's EffectSet, so an
// unsatisfied clause makes it false rather than a hard error. Every
// operation must be callable at the weakest Eff:: level that holds its
// bits, and not once any one of those bits is cleared from that level.

/// \p E with the effect bit \p Bit cleared.
constexpr EffectSet without(EffectSet E, bool EffectSet::*Bit) {
  E.*Bit = false;
  return E;
}
constexpr auto Put = &EffectSet::Put, Get = &EffectSet::Get,
               Bump = &EffectSet::Bump, Freeze = &EffectSet::Freeze,
               IO = &EffectSet::IO, ST = &EffectSet::ST;

// Well-formed bodies: operations with a deduced return type instantiate
// their body on the positive probe.
constexpr auto VoidBody = [](auto...) -> Par<void> { co_return; };
constexpr auto BoolBody = [](auto) -> Par<bool> { co_return true; };
constexpr auto IntBody = [](auto) -> Par<int> { co_return 0; };
constexpr auto SpecBody = [](auto, uint64_t, size_t, int &) { return true; };
constexpr auto PlainBody = [](auto, size_t) {};
constexpr auto Leaf = [](size_t I) { return static_cast<int>(I); };

using Lub = PureLVar<MaxUint64Lattice>;
using MemoPtr = std::shared_ptr<Memo<int, int>>;

// HasPut: least-upper-bound writes.
template <EffectSet E>
constexpr bool CanPut = requires(ParCtx<E> C, IVar<int> &V) { put(C, V, 1); };
template <EffectSet E>
constexpr bool CanPutIdx =
    requires(ParCtx<E> C, IStructure<int> &S) { putIdx(C, S, 0, 1); };
template <EffectSet E>
constexpr bool CanPutAndLeft =
    requires(ParCtx<E> C, AndLV &A) { putAndLeft(C, A, true); };
template <EffectSet E>
constexpr bool CanPutAndRight =
    requires(ParCtx<E> C, AndLV &A) { putAndRight(C, A, true); };
template <EffectSet E>
constexpr bool CanPutPureLVar =
    requires(ParCtx<E> C, Lub &L) { putPureLVar(C, L, 1); };
template <EffectSet E>
constexpr bool CanInsert =
    requires(ParCtx<E> C, ISet<int> &S) { insert(C, S, 1); };
template <EffectSet E>
constexpr bool CanInsertDense =
    requires(ParCtx<E> C, DenseSet &S) { insert(C, S, 1u); };
template <EffectSet E>
constexpr bool CanInsertPure =
    requires(ParCtx<E> C, PureMap<int, int> &M) { insertPure(C, M, 1, 1); };
template <EffectSet E>
constexpr bool CanCancel =
    requires(ParCtx<E> C, const CFuture<int> &F) { cancel(C, F); };
template <EffectSet E>
constexpr bool CanPutMin =
    requires(ParCtx<E> C, MinMap<int> &M) { putMin(C, M, 1, 1); };
template <EffectSet E>
constexpr bool CanPutMinAt =
    requires(ParCtx<E> C, MinVec &V) { putMinAt(C, V, 0, 1); };
template <EffectSet E>
constexpr bool CanAdvance =
    requires(ParCtx<E> C, BoundedStream<int> &S) { advance(C, S, 1); };
template <EffectSet E>
constexpr bool CanUnite =
    requires(ParCtx<E> C, UnionFind &U) { unite(C, U, 0, 1); };

constexpr EffectSet W = Eff::WriteOnly;
static_assert(CanPut<W> && !CanPut<without(W, Put)>);
static_assert(CanPutIdx<W> && !CanPutIdx<without(W, Put)>);
static_assert(CanPutAndLeft<W> && !CanPutAndLeft<without(W, Put)>);
static_assert(CanPutAndRight<W> && !CanPutAndRight<without(W, Put)>);
static_assert(CanPutPureLVar<W> && !CanPutPureLVar<without(W, Put)>);
static_assert(CanInsert<W> && !CanInsert<without(W, Put)>);
static_assert(CanInsertDense<W> && !CanInsertDense<without(W, Put)>);
static_assert(CanInsertPure<W> && !CanInsertPure<without(W, Put)>);
static_assert(CanCancel<W> && !CanCancel<without(W, Put)>);
static_assert(CanPutMin<W> && !CanPutMin<without(W, Put)>);
static_assert(CanPutMinAt<W> && !CanPutMinAt<without(W, Put)>);
static_assert(CanAdvance<W> && !CanAdvance<without(W, Put)>);
static_assert(CanUnite<W> && !CanUnite<without(W, Put)>);

// HasGet: blocking threshold reads.
template <EffectSet E>
constexpr bool CanGet = requires(ParCtx<E> C, IVar<int> &V) { get(C, V); };
template <EffectSet E>
constexpr bool CanGetDense =
    requires(ParCtx<E> C, DenseSet &S) { get(C, S, 1u); };
template <EffectSet E>
constexpr bool CanWaitSize =
    requires(ParCtx<E> C, ISet<int> &S) { waitSize(C, S, 1); };
template <EffectSet E>
constexpr bool CanQuiesce = requires(ParCtx<E> C,
                                     std::shared_ptr<HandlerPool> P) {
  quiesce(C, P);
};
template <EffectSet E>
constexpr bool CanReadCFuture =
    requires(ParCtx<E> C, CFuture<int> F) { readCFuture(C, F); };
template <EffectSet E>
constexpr bool CanGetAndLV =
    requires(ParCtx<E> C, std::shared_ptr<AndLV> A) { getAndLV(C, A); };
template <EffectSet E>
constexpr bool CanGetMemoRO =
    requires(ParCtx<E> C, MemoPtr M) { getMemoRO(C, M, 1); };

constexpr EffectSet R = Eff::ReadOnly;
static_assert(CanGet<R> && !CanGet<without(R, Get)>);
static_assert(CanGetDense<R> && !CanGetDense<without(R, Get)>);
static_assert(CanWaitSize<R> && !CanWaitSize<without(R, Get)>);
static_assert(CanQuiesce<R> && !CanQuiesce<without(R, Get)>);
static_assert(CanReadCFuture<R> && !CanReadCFuture<without(R, Get)>);
static_assert(CanGetAndLV<R> && !CanGetAndLV<without(R, Get)>);
static_assert(CanGetMemoRO<R> && !CanGetMemoRO<without(R, Get)>);

// HasBump: non-idempotent inflationary updates.
template <EffectSet E>
constexpr bool CanIncrCounter =
    requires(ParCtx<E> C, Counter &K) { incrCounter(C, K); };
template <EffectSet E>
constexpr bool CanIncrCounterAt =
    requires(ParCtx<E> C, CounterVec &K) { incrCounterAt(C, K, 0); };

static_assert(CanIncrCounter<DB> && !CanIncrCounter<without(DB, Bump)>);
static_assert(CanIncrCounterAt<DB> && !CanIncrCounterAt<without(DB, Bump)>);

// HasFreeze: exact (quasi-deterministic) reads.
template <EffectSet E>
constexpr bool CanFreezeCounter =
    requires(ParCtx<E> C, Counter &K) { freezeCounter(C, K); };
template <EffectSet E>
constexpr bool CanFreezeCounterVec =
    requires(ParCtx<E> C, CounterVec &K) { freezeCounterVec(C, K); };
template <EffectSet E>
constexpr bool CanFreezeMap =
    requires(ParCtx<E> C, IMap<int, int> &M) { freezeMap(C, M); };
template <EffectSet E>
constexpr bool CanFreezeSet =
    requires(ParCtx<E> C, ISet<int> &S) { freezeSet(C, S); };
template <EffectSet E>
constexpr bool CanFreezeDenseSet =
    requires(ParCtx<E> C, DenseSet &S) { freezeDenseSet(C, S); };
template <EffectSet E>
constexpr bool CanFreezePureMap =
    requires(ParCtx<E> C, PureMap<int, int> &M) { freezePureMap(C, M); };
template <EffectSet E>
constexpr bool CanFreezePureLVar =
    requires(ParCtx<E> C, Lub &L) { freezePureLVar(C, L); };
template <EffectSet E>
constexpr bool CanFreezeIVar =
    requires(ParCtx<E> C, IVar<int> &V) { freezeIVar(C, V); };
template <EffectSet E>
constexpr bool CanFreezeMinMap =
    requires(ParCtx<E> C, MinMap<int> &M) { freezeMinMap(C, M); };
template <EffectSet E>
constexpr bool CanFreezeMinVec =
    requires(ParCtx<E> C, MinVec &V) { freezeMinVec(C, V); };
template <EffectSet E>
constexpr bool CanFreezeStream =
    requires(ParCtx<E> C, Stream<int> &S) { freezeStream(C, S); };
template <EffectSet E>
constexpr bool CanFreezeUnionFind =
    requires(ParCtx<E> C, UnionFind &U) { freezeUnionFind(C, U); };

constexpr EffectSet Q = Eff::QuasiDet;
static_assert(CanFreezeCounter<Q> && !CanFreezeCounter<without(Q, Freeze)>);
static_assert(CanFreezeCounterVec<Q> &&
              !CanFreezeCounterVec<without(Q, Freeze)>);
static_assert(CanFreezeMap<Q> && !CanFreezeMap<without(Q, Freeze)>);
static_assert(CanFreezeSet<Q> && !CanFreezeSet<without(Q, Freeze)>);
static_assert(CanFreezeDenseSet<Q> &&
              !CanFreezeDenseSet<without(Q, Freeze)>);
static_assert(CanFreezePureMap<Q> && !CanFreezePureMap<without(Q, Freeze)>);
static_assert(CanFreezePureLVar<Q> && !CanFreezePureLVar<without(Q, Freeze)>);
static_assert(CanFreezeIVar<Q> && !CanFreezeIVar<without(Q, Freeze)>);
static_assert(CanFreezeMinMap<Q> && !CanFreezeMinMap<without(Q, Freeze)>);
static_assert(CanFreezeMinVec<Q> && !CanFreezeMinVec<without(Q, Freeze)>);
static_assert(CanFreezeStream<Q> && !CanFreezeStream<without(Q, Freeze)>);
static_assert(CanFreezeUnionFind<Q> && !CanFreezeUnionFind<without(Q, Freeze)>);

// HasIO: a cancelable child with arbitrary effects.
template <EffectSet E>
constexpr bool CanForkCancelableND =
    requires(ParCtx<E> C) { forkCancelableND(C, IntBody); };

constexpr EffectSet F = Eff::FullIO;
static_assert(CanForkCancelableND<F> && !CanForkCancelableND<without(F, IO)>);

// HasST: disjoint destructive state; the splits also fork and join.
template <EffectSet E>
constexpr bool CanForkSTSplit = requires(ParCtx<E> C, VecView<int> V) {
  forkSTSplit(C, V, 0, VoidBody, VoidBody);
};
template <EffectSet E>
constexpr bool CanForkSTSplit2 = requires(ParCtx<E> C, VecView<int> V) {
  forkSTSplit2(C, V, 0, V, 0, VoidBody, VoidBody);
};
template <EffectSet E>
constexpr bool CanZoomIn =
    requires(ParCtx<E> C, VecView<int> V) { zoomIn(C, V, 0, 0, VoidBody); };
template <EffectSet E>
constexpr bool CanWithTempBuffer = requires(ParCtx<E> C, VecView<int> V) {
  withTempBuffer(C, V, 0, VoidBody);
};

constexpr EffectSet S = Eff::DetST;
static_assert(CanForkSTSplit<S> && !CanForkSTSplit<without(S, ST)> &&
              !CanForkSTSplit<without(S, Put)> &&
              !CanForkSTSplit<without(S, Get)>);
static_assert(CanForkSTSplit2<S> && !CanForkSTSplit2<without(S, ST)> &&
              !CanForkSTSplit2<without(S, Put)> &&
              !CanForkSTSplit2<without(S, Get)>);
static_assert(CanZoomIn<S> && !CanZoomIn<without(S, ST)>);
static_assert(CanWithTempBuffer<S> && !CanWithTempBuffer<without(S, ST)>);

// Put and Get together: combinators that fork children and join on them.
template <EffectSet E>
constexpr bool CanAsyncAnd =
    requires(ParCtx<E> C) { asyncAnd(C, BoolBody, BoolBody); };
template <EffectSet E>
constexpr bool CanAsyncAndTree = requires(ParCtx<E> C) { asyncAndTree(C, {}); };
template <EffectSet E>
constexpr bool CanGetMemo =
    requires(ParCtx<E> C, MemoPtr M) { getMemo(C, M, 1); };
template <EffectSet E>
constexpr bool CanForkWithDeadlockDetection =
    requires(ParCtx<E> C) { forkWithDeadlockDetection(C, VoidBody); };
template <EffectSet E>
constexpr bool CanParallelFor =
    requires(ParCtx<E> C) { parallelFor(C, 0, 1, 1, PlainBody); };
template <EffectSet E>
constexpr bool CanParallelForPar =
    requires(ParCtx<E> C) { parallelForPar(C, 0, 1, 1, VoidBody); };
template <EffectSet E>
constexpr bool CanParallelReduce = requires(ParCtx<E> C) {
  parallelReduce(C, 0, 1, 1, Leaf, std::plus<int>(), 0);
};
template <EffectSet E>
constexpr bool CanForSpeculative =
    requires(ParCtx<E> C) { forSpeculative<int>(C, 0, 1, SpecBody, SpecBody); };

static_assert(CanAsyncAnd<D> && !CanAsyncAnd<without(D, Put)> &&
              !CanAsyncAnd<without(D, Get)>);
static_assert(CanAsyncAndTree<D> && !CanAsyncAndTree<without(D, Put)> &&
              !CanAsyncAndTree<without(D, Get)>);
static_assert(CanGetMemo<D> && !CanGetMemo<without(D, Put)> &&
              !CanGetMemo<without(D, Get)>);
static_assert(CanForkWithDeadlockDetection<D> &&
              !CanForkWithDeadlockDetection<without(D, Put)> &&
              !CanForkWithDeadlockDetection<without(D, Get)>);
static_assert(CanParallelFor<D> && !CanParallelFor<without(D, Put)> &&
              !CanParallelFor<without(D, Get)>);
static_assert(CanParallelForPar<D> && !CanParallelForPar<without(D, Put)> &&
              !CanParallelForPar<without(D, Get)>);
static_assert(CanParallelReduce<D> && !CanParallelReduce<without(D, Put)> &&
              !CanParallelReduce<without(D, Get)>);
// Retried iterations must be idempotent, so Bump is refused outright; ST
// bodies are fine.
static_assert(CanForSpeculative<D> && CanForSpeculative<S> &&
              !CanForSpeculative<without(D, Put)> &&
              !CanForSpeculative<without(D, Get)> && !CanForSpeculative<DB>);

// Streams. The unbounded put needs Put alone. A bounded put also waits
// on the consumer's release mark, a threshold read, so it needs Get too;
// without Get it must not fall back to the unbounded put by
// derived-to-base conversion, which would skip the capacity check.
template <EffectSet E>
constexpr bool CanPutStream =
    requires(ParCtx<E> C, Stream<int> &S) { put(C, S, 0, 1); };
template <EffectSet E>
constexpr bool CanWaitSizeStream =
    requires(ParCtx<E> C, Stream<int> &S) { waitSize(C, S, 1); };
template <EffectSet E>
constexpr bool CanPutBounded =
    requires(ParCtx<E> C, BoundedStream<int> &S) { put(C, S, 0, 1); };
template <EffectSet E>
constexpr bool PutBoundedParks = requires(ParCtx<E> C, BoundedStream<int> &S) {
  { put(C, S, 0, 1) } -> std::same_as<BoundedStream<int>::PutAwaiter>;
};

static_assert(CanPutStream<W> && !CanPutStream<without(W, Put)>);
static_assert(CanWaitSizeStream<R> && !CanWaitSizeStream<without(R, Get)>);
static_assert(PutBoundedParks<D> && !CanPutBounded<without(D, Put)> &&
              !CanPutBounded<without(D, Get)>);

// The seeded violations the retired effect linter matched by name.
static_assert(!CanPut<Eff::ReadOnly>);             // ReadOnly task writes.
static_assert(!CanFreezeMap<Eff::Det>);            // Det scope freezes.
static_assert(!CanPutStream<Eff::ReadOnly>);       // ReadOnly appender.
static_assert(!CanWaitSizeStream<Eff::WriteOnly>); // WriteOnly reader.
static_assert(!CanFreezeStream<Eff::Det>);         // Det stream freezer.

// Counter deliberately exposes no put; IVar does. (If the first ever
// flips, the put/bump separation of Section 3 broke.) A template, so an
// unusable `put` yields false rather than a hard error.
template <typename LVarT>
constexpr bool SupportsPut =
    requires(ParCtx<Eff::FullIO> C, LVarT &LV, uint64_t V) {
      put(C, LV, V);
    };

TEST(Counter, HasNoPutInterface) {
  static_assert(!SupportsPut<Counter>);
  static_assert(SupportsPut<IVar<uint64_t>>);
  SUCCEED();
}

// -- Footprint: the handler gate stays out of handler-free LVars ---------

// Every fork-join point allocates an IVar, so an LVar that can never hold
// a handler must not carry the footnote-6 gate (128 per-thread slots,
// about 8 KB); only HandledLVar does. A compile-time guard, so the gate
// cannot creep back into LVarBase. They must not be over-aligned either:
// an alignment above the default new alignment sends every make_shared
// through the aligned allocator, several times the cost of a plain one.
constexpr size_t LeanLVarBytes = 256;
static_assert(sizeof(IVar<uint64_t>) <= LeanLVarBytes);
static_assert(sizeof(Counter) <= LeanLVarBytes);
static_assert(sizeof(CounterVec) <= LeanLVarBytes);
static_assert(sizeof(MinVec) <= LeanLVarBytes);
static_assert(sizeof(UnionFind) <= LeanLVarBytes);
static_assert(alignof(IVar<uint64_t>) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
static_assert(alignof(Counter) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
static_assert(alignof(CounterVec) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
static_assert(alignof(MinVec) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
static_assert(alignof(UnionFind) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

TEST(LVarFootprint, OnlyHandledLVarsCarryTheGate) {
  EXPECT_LT(sizeof(IVar<uint64_t>), sizeof(AsymmetricGate));
  EXPECT_GT(sizeof(ISet<uint64_t>), sizeof(AsymmetricGate));
  EXPECT_GT((sizeof(IMap<uint64_t, uint64_t>)), sizeof(AsymmetricGate));
  EXPECT_GT(sizeof(MinMap<uint64_t>), sizeof(AsymmetricGate));
}

} // namespace
