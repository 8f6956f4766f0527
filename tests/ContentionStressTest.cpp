//===- ContentionStressTest.cpp - Sharded waiter-table stress ---------------===//
//
// Stresses the sharded threshold-waiter hot path (DESIGN.md Section 13):
// many parked per-key getters, disjoint-key putter shards, and a handler
// cascade echoing every delta - the same shape as bench_micro_lvar's
// contended scenario, but asserting the invariants instead of timing it.
// A threaded variant exercises the real lost-wakeup window (publish-then-
// recheck under 8 OS workers); an explored variant pins the same program
// under ScheduleCtl and checks the schedule replays bit-for-bit, so the
// bucket fan-out never leaks nondeterminism into wake order.
//
//===----------------------------------------------------------------------===//

#include "src/core/HandlerPool.h"
#include "src/core/LVish.h"
#include "src/data/Counter.h"
#include "src/data/IMap.h"
#include "src/data/ISet.h"
#include "src/explore/Explorer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace lvish;

namespace {

constexpr EffectSet IOE = Eff::FullIO;

/// The contended put/wake program. \p Keys getters park (one per key, so
/// they spread across every key bucket and the size heap stays busy via
/// the root's waitSize); \p Putters shards insert disjoint keys; a
/// plain put-only handler echoes each delta into Echo. Returns
/// sum(value read by getter K) = sum(2K) = Keys*(Keys-1), so a single
/// lost wakeup, dropped delta, or misrouted bucket scan changes the
/// result (or deadlocks the session, which runPar reports).
template <typename RunFn>
auto contendedProgram(uint64_t Keys, int Putters, RunFn Run) {
  return Run([Keys, Putters](ParCtx<IOE> Ctx) -> Par<uint64_t> {
    const int KeysI = static_cast<int>(Keys);
    auto Map = newEmptyMap<int, int>(Ctx);
    auto Echo = newISet<int>(Ctx);
    auto Ready = newCounter(Ctx);
    auto Sum = newCounter(Ctx);
    auto Done = newCounter(Ctx);
    auto Pool = newPool(Ctx);
    ParCtx<Eff::WriteOnly> WCtx = Ctx;
    auto Handler = [Echo](ParCtx<Eff::WriteOnly> C,
                          const std::pair<int, int> &D) {
      insert(C, *Echo, D.first);
    };
    [[maybe_unused]] HandlerHandle H = addHandler(WCtx, Pool, *Map, Handler);
    // Owning captures: forked tasks may outlive the root frame.
    for (int K = 0; K < KeysI; ++K) {
      auto Getter = [Map, Sum, Done, Ready, K](ParCtx<IOE> C) -> Par<void> {
        incrCounter(C, *Ready);
        int V = co_await get(C, *Map, K);
        incrCounter(C, *Sum, static_cast<uint64_t>(V));
        incrCounter(C, *Done);
      };
      fork(Ctx, Getter);
    }
    // Putters release only once every getter has announced itself, so the
    // waiter table really is full when the put storm begins.
    for (int P = 0; P < Putters; ++P) {
      auto Putter = [Map, Ready, P, Putters, KeysI](ParCtx<IOE> C)
          -> Par<void> {
        co_await get(C, *Ready, static_cast<uint64_t>(KeysI));
        for (int K = P; K < KeysI; K += Putters)
          insert(C, *Map, K, K * 2);
      };
      fork(Ctx, Putter);
    }
    co_await waitSize(Ctx, *Echo, Keys);
    co_await get(Ctx, *Done, Keys);
    co_await quiesce(Ctx, Pool);
    std::vector<int> EchoElems = freezeSet(Ctx, *Echo);
    uint64_t Total = freezeCounter(Ctx, *Sum);
    EXPECT_EQ(EchoElems.size(), Keys) << "handler cascade lost a delta";
    co_return Total;
  });
}

TEST(ContentionStress, ThreadedEightWorkersAllWakesDelivered) {
  // Real OS workers: this is the configuration where a publish/probe
  // ordering bug in the sharded table shows up as a lost wakeup
  // (deterministic deadlock) or a wrong sum.
  const uint64_t Keys = 96;
  service::Runtime RT({.Sched = {.NumWorkers = 8}});
  for (int Round = 0; Round < 5; ++Round) {
    uint64_t Total = contendedProgram(Keys, 8, [&](auto Body) {
      return RT.runIO<IOE>(Body).valueOrAbort();
    });
    EXPECT_EQ(Total, Keys * (Keys - 1)) << "round " << Round;
  }
}

TEST(ContentionStress, ExploredSchedulesAgreeAcrossSeeds) {
  // Under ScheduleCtl every wake order is a controlled decision; the
  // program is write-commutative, so EVERY schedule must produce the same
  // sum. Disagreement means the sharded buckets let a schedule observe a
  // non-lattice state.
  const uint64_t Keys = 6;
  for (uint64_t Seed = 0; Seed < 24; ++Seed) {
    explore::Engine Eng = explore::Engine::random(Seed, 3);
    auto O = contendedProgram(Keys, 2, [&](auto Body) {
      return tryRunParIO<IOE>(Body, explore::sessionOptions(Eng));
    });
    ASSERT_TRUE(O.ok()) << "seed " << Seed << ": "
                        << explore::failureSig(O.fault());
    EXPECT_EQ(O.value(), Keys *(Keys - 1)) << "seed " << Seed;
  }
}

TEST(ContentionStress, ExploredScheduleReplaysBitForBit) {
  // Record one randomly driven schedule of the contended program, then
  // replay its decision log: the pedigree hash must match exactly. This
  // is the determinism contract the batching/sharding must preserve -
  // batch flush points and bucket wake order stay ScheduleCtl decisions.
  const uint64_t Keys = 6;
  explore::Engine Rec = explore::Engine::random(7, 3);
  auto O1 = contendedProgram(Keys, 2, [&](auto Body) {
    return tryRunParIO<IOE>(Body, explore::sessionOptions(Rec));
  });
  ASSERT_TRUE(O1.ok()) << explore::failureSig(O1.fault());

  explore::Engine Rep = explore::Engine::replay(Rec.chosen(), 3);
  auto O2 = contendedProgram(Keys, 2, [&](auto Body) {
    return tryRunParIO<IOE>(Body, explore::sessionOptions(Rep));
  });
  ASSERT_TRUE(O2.ok()) << explore::failureSig(O2.fault());
  EXPECT_EQ(O1.value(), O2.value());
  EXPECT_EQ(Rec.pedigreeHash(), Rep.pedigreeHash())
      << "replay diverged: wake order or batch flush is not a pure "
         "function of the decision log";
}

} // namespace
