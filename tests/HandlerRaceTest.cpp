//===- HandlerRaceTest.cpp - Handler registration racing live puts --------===//
//
// For every handler-bearing LVar (ISet, IMap, MinMap, PureLVar, Stream):
// K writer tasks put while another task of the same session registers two
// handlers, at 1/2/4 workers under several steal seeds. The handler list
// is guarded by the footnote-6 gate alone (HandledLVar in
// src/core/LVarBase.h), so every delta must reach each late handler
// exactly once - through the registration replay if it landed before the
// registration, through its own put otherwise. The other suites register
// only before or after the puts, inside one task. One ISet case also
// races the registrations against the table's growth, which takes the
// same gate's slow side. tools/ci.sh's tsan stage re-runs this binary on
// its own.
//
//===----------------------------------------------------------------------===//

#include "src/core/LVish.h"
#include "src/data/Counter.h"
#include "src/data/IMap.h"
#include "src/data/ISet.h"
#include "src/data/MinMap.h"
#include "src/data/Stream.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

using namespace lvish;

namespace {

constexpr EffectSet DB = Eff::DetBump;
constexpr int Writers = 4;
constexpr int PerWriter = 256;
constexpr int Items = Writers * PerWriter;
constexpr int Handlers = 2;

const unsigned WorkerCounts[] = {1, 2, 4};
const uint64_t StealSeeds[] = {1, 2, 3, 5, 8};

SchedulerConfig cfg(unsigned Workers, uint64_t StealSeed) {
  SchedulerConfig C;
  C.NumWorkers = Workers;
  C.StealSeed = StealSeed;
  return C;
}

/// Delivery counts per slot, one row per late handler.
using Tallies = std::vector<std::vector<int>>;

/// Runs one session on a fresh LVar from \p Make: writer w calls
/// Put(C, LV, w * PerWriter + j) for every j. A registrar task waits until
/// every writer is halfway, attaches the first counting handler (which
/// must get the first halves by replay), releases the writers, and
/// attaches the second handler once one of them is putting again - so it
/// lands among second-half puts, which at one worker means between two
/// writers and with more workers may mean mid-put. Each handler counts
/// delta d in slot SlotOf(d). Returns the counts once the session has
/// quiesced.
template <typename MakeT, typename PutT, typename SlotOfT>
Tallies race(SchedulerConfig Cfg, size_t Slots, MakeT Make, PutT Put,
             SlotOfT SlotOf) {
  auto Counts = std::make_shared<std::vector<std::vector<std::atomic<int>>>>();
  for (int H = 0; H < Handlers; ++H)
    Counts->emplace_back(Slots);
  ParOutcome<int> O = tryRunPar<DB>(
      [Counts, Make, Put, SlotOf](ParCtx<DB> Ctx) -> Par<int> {
        auto LV = Make(Ctx);
        auto Halfway = newCounter(Ctx);
        auto Resumed = newCounter(Ctx);
        auto Go = newIVar<int>(Ctx);
        for (int W = 0; W < Writers; ++W) {
          auto Writer = [LV, Put, Halfway, Resumed, Go,
                         W](ParCtx<DB> C) -> Par<void> {
            for (int J = 0; J < PerWriter; ++J) {
              if (J == PerWriter / 2) {
                incrCounter(C, *Halfway);
                co_await get(C, *Go);
                incrCounter(C, *Resumed);
              }
              Put(C, *LV, W * PerWriter + J);
            }
          };
          fork(Ctx, Writer);
        }
        auto Registrar = [LV, Counts, SlotOf, Halfway, Resumed,
                          Go](ParCtx<DB> C) -> Par<void> {
          co_await get(C, *Halfway, static_cast<uint64_t>(Writers));
          for (int H = 0; H < Handlers; ++H) {
            if (H == 1) {
              put(C, *Go, 1);
              co_await get(C, *Resumed, 1);
            }
            std::vector<std::atomic<int>> *Row = &(*Counts)[H];
            LV->addHandlerRaw(
                [Row, SlotOf](const auto &Delta) {
                  (*Row)[SlotOf(Delta)].fetch_add(1,
                                                 std::memory_order_relaxed);
                },
                C.task());
          }
        };
        fork(Ctx, Registrar);
        co_return 0;
      },
      Cfg);
  EXPECT_TRUE(O.ok()) << (O.ok() ? "" : O.fault().Message);
  Tallies Out(Handlers, std::vector<int>(Slots));
  for (int H = 0; H < Handlers; ++H)
    for (size_t I = 0; I < Slots; ++I)
      Out[H][I] = (*Counts)[H][I].load();
  return Out;
}

/// Every slot delivered exactly once to every handler.
void expectExactlyOnce(const Tallies &Got, unsigned W, uint64_t S) {
  for (size_t H = 0; H < Got.size(); ++H)
    for (size_t I = 0; I < Got[H].size(); ++I)
      ASSERT_EQ(Got[H][I], 1) << "handler " << H << " slot " << I
                              << " workers=" << W << " seed=" << S;
}

/// No slot delivered twice, and each slot in \p Final exactly once.
void expectFinalOnce(const Tallies &Got, const std::vector<size_t> &Final,
                     unsigned W, uint64_t S) {
  for (size_t H = 0; H < Got.size(); ++H) {
    for (size_t I = 0; I < Got[H].size(); ++I)
      ASSERT_LE(Got[H][I], 1) << "handler " << H << " slot " << I
                              << " workers=" << W << " seed=" << S;
    for (size_t F : Final)
      ASSERT_EQ(Got[H][F], 1) << "handler " << H << " final slot " << F
                              << " workers=" << W << " seed=" << S;
  }
}

TEST(HandlerRegistrationRace, ISet) {
  for (unsigned W : WorkerCounts)
    for (uint64_t S : StealSeeds)
      expectExactlyOnce(
          race(
              cfg(W, S), Items,
              [](ParCtx<DB> C) { return newISet<int>(C); },
              [](ParCtx<DB> C, ISet<int> &Set, int I) { insert(C, Set, I); },
              [](int Elem) { return static_cast<size_t>(Elem); }),
          W, S);
}

TEST(HandlerRegistrationRace, ISetRegistrationWhileTableGrows) {
  // Four writers take the set's table from 16 slots to 32,768 (eleven
  // doublings, each on the gate's slow side, as a registration is) while
  // a registrar attaches a handler at each quarter of the fill. Every
  // handler must see every element exactly once, by replay or by put.
  constexpr int PerBigWriter = 4096;
  constexpr int Big = Writers * PerBigWriter;
  constexpr int Late = 3;
  for (unsigned W : WorkerCounts)
    for (uint64_t S : StealSeeds) {
      auto Counts =
          std::make_shared<std::vector<std::vector<std::atomic<int>>>>();
      for (int H = 0; H < Late; ++H)
        Counts->emplace_back(Big);
      ParOutcome<int> O = tryRunPar<DB>(
          [Counts](ParCtx<DB> Ctx) -> Par<int> {
            auto Set = newISet<int>(Ctx);
            for (int Wr = 0; Wr < Writers; ++Wr)
              fork(Ctx, [Set, Wr](ParCtx<DB> C) -> Par<void> {
                for (int J = 0; J < PerBigWriter; ++J)
                  insert(C, *Set, Wr * PerBigWriter + J);
                co_return;
              });
            fork(Ctx, [Set, Counts](ParCtx<DB> C) -> Par<void> {
              for (int H = 0; H < Late; ++H) {
                co_await waitSize(C, *Set,
                                  static_cast<uint64_t>((H + 1) * Big / 4));
                std::vector<std::atomic<int>> *Row = &(*Counts)[H];
                Set->addHandlerRaw(
                    [Row](const int &Elem) {
                      (*Row)[static_cast<size_t>(Elem)].fetch_add(
                          1, std::memory_order_relaxed);
                    },
                    C.task());
              }
            });
            co_return 0;
          },
          cfg(W, S));
      ASSERT_TRUE(O.ok()) << O.fault().Message;
      Tallies Got(Late, std::vector<int>(Big));
      for (int H = 0; H < Late; ++H)
        for (int I = 0; I < Big; ++I)
          Got[H][I] = (*Counts)[H][I].load();
      expectExactlyOnce(Got, W, S);
    }
}

TEST(HandlerRegistrationRace, IMap) {
  for (unsigned W : WorkerCounts)
    for (uint64_t S : StealSeeds)
      expectExactlyOnce(
          race(
              cfg(W, S), Items,
              [](ParCtx<DB> C) { return newEmptyMap<int, int>(C); },
              [](ParCtx<DB> C, IMap<int, int> &Map, int I) {
                insert(C, Map, I, 3 * I);
              },
              [](const std::pair<int, int> &KV) {
                // A wrong value lands in an out-of-range slot and fails.
                return KV.second == 3 * KV.first
                           ? static_cast<size_t>(KV.first)
                           : size_t{0};
              }),
          W, S);
}

TEST(HandlerRegistrationRace, Stream) {
  for (unsigned W : WorkerCounts)
    for (uint64_t S : StealSeeds)
      expectExactlyOnce(
          race(
              cfg(W, S), Items,
              [](ParCtx<DB> C) { return newStream<int>(C); },
              [](ParCtx<DB> C, Stream<int> &Str, int I) {
                put(C, Str, static_cast<uint64_t>(I), I);
              },
              [](const StreamDelta<int> &Cell) {
                return static_cast<size_t>(Cell.Index);
              }),
          W, S);
}

TEST(HandlerRegistrationRace, MinMapDeliversEachFinalLabel) {
  // Every writer lowers the labels of the same 16 keys in the same
  // descending order, racing on each cell; slot = key * Labels + label. A
  // late handler may or may not see intermediate labels, but never one
  // label twice, and always each key's final label.
  constexpr int Keys = 16;
  constexpr int Labels = PerWriter;
  auto KeyOf = [](int I) { return I % Keys; };
  auto LabelOf = [](int I) {
    return static_cast<uint64_t>(Labels - 1 - I % Labels);
  };
  std::vector<uint64_t> Least(Keys, Labels);
  for (int I = 0; I < Items; ++I)
    Least[KeyOf(I)] = std::min(Least[KeyOf(I)], LabelOf(I));
  std::vector<size_t> Final;
  for (int K = 0; K < Keys; ++K)
    Final.push_back(static_cast<size_t>(K * Labels) + Least[K]);
  for (unsigned W : WorkerCounts)
    for (uint64_t S : StealSeeds)
      expectFinalOnce(
          race(
              cfg(W, S), Keys * Labels,
              [](ParCtx<DB> C) { return newMinMap<int>(C); },
              [KeyOf, LabelOf](ParCtx<DB> C, MinMap<int> &Map, int I) {
                putMin(C, Map, KeyOf(I), LabelOf(I));
              },
              [](const std::pair<int, uint64_t> &KL) {
                return static_cast<size_t>(KL.first * Labels) + KL.second;
              }),
          Final, W, S);
}

TEST(HandlerRegistrationRace, PureLVarDeliversFinalState) {
  // Max lattice over the written values 1..Items: each delivered state
  // is a strict increase, so none repeats, and the final one is Items.
  using MaxLV = PureLVar<MaxUint64Lattice>;
  for (unsigned W : WorkerCounts)
    for (uint64_t S : StealSeeds)
      expectFinalOnce(
          race(
              cfg(W, S), Items + 1,
              [](ParCtx<DB> C) { return newPureLVar<MaxUint64Lattice>(C); },
              [](ParCtx<DB> C, MaxLV &LV, int I) {
                putPureLVar(C, LV, static_cast<unsigned long long>(I + 1));
              },
              [](unsigned long long State) {
                return static_cast<size_t>(State);
              }),
          {static_cast<size_t>(Items)}, W, S);
}

} // namespace
