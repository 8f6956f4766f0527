//===- DeterminismStressTest.cpp - Schedule-independence sweeps ------------===//
//
// The headline property of the whole system, hammered two ways: complete
// programs mixing the effect zoo (handlers + quiescence, bump counters,
// memo tables, bulk retry, deterministic RNG) must produce bit-identical
// observable results
//
//  * across real threaded schedulers (worker counts x steal seeds), and
//  * across explorer-controlled virtual schedules (seeded adversarial
//    interleavings, src/explore/) - when a sweep fails here it prints the
//    replay string that reproduces the offending schedule bit-for-bit.
//
//===----------------------------------------------------------------------===//

#include "src/core/LVish.h"
#include "src/core/ParFor.h"
#include "src/data/Counter.h"
#include "src/data/IMap.h"
#include "src/data/ISet.h"
#include "src/explore/Explorer.h"
#include "src/trans/Transformers.h"

#include <gtest/gtest.h>

#include <numeric>

using namespace lvish;

namespace {

constexpr EffectSet D = Eff::Det;
constexpr EffectSet DB{true, true, true, false, false, false};

// -- The programs, parameterized by RunOptions so one definition runs on
// -- real threaded schedulers AND under the explorer's virtual one.

std::vector<int> runHandlerClosure(const RunOptions &Opts) {
  auto Set = runParThenFreeze<D>(
      [](ParCtx<D> Ctx) -> Par<std::shared_ptr<ISet<int>>> {
        auto S = newISet<int>(Ctx);
        auto Pool = newPool(Ctx);
        ISet<int> *Raw = S.get();
        [[maybe_unused]] HandlerHandle H =
            addHandler(Ctx, Pool, *S,
                       [Raw](ParCtx<D> C, const int &V) -> Par<void> {
                         // Collatz-flavored closure, bounded to [0, 3000).
                         if (V % 2 == 0)
                           insert(C, *Raw, V / 2);
                     else if (3 * V + 1 < 3000)
                       insert(C, *Raw, 3 * V + 1);
                     co_return;
                   });
        for (int Seed : {27, 97, 871})
          insert(Ctx, *S, Seed);
        co_await quiesce(Ctx, Pool);
        co_return S;
      },
      Opts);
  return Set->toSortedVector();
}

std::vector<uint64_t> runCounterGrid(const RunOptions &Opts) {
  return runParIO<DB>(
      [](ParCtx<DB> Ctx) -> Par<std::vector<uint64_t>> {
        auto CV = newCounterVec(Ctx, 32);
        auto Body = [CV](ParCtx<DB> C, size_t I) -> Par<void> {
          incrCounterAt(C, *CV, (I * I) % 32, (I % 3) + 1);
          co_return;
        };
        co_await parallelForPar(Ctx, 0, 4096, 64, Body);
        CV->markFrozen();
        co_return CV->snapshot();
      },
      Opts);
}

uint64_t runMemoFib(const RunOptions &Opts) {
  return runParIO<Eff::FullIO>(
      [](ParCtx<Eff::FullIO> Ctx) -> Par<uint64_t> {
        // Memoized fib: recursive requests go through the memo table
        // itself. The recursive capture must be NON-owning (raw pointer
        // to the box) or the table would own its own handler - the
        // shared_ptr-cycle note in HandlerPool.h.
        auto Box = std::make_shared<
            std::shared_ptr<Memo<int, uint64_t, Eff::Det>>>();
        auto *BoxRaw = Box.get();
        *Box = makeMemo<int, Eff::Det>(
            Ctx, [BoxRaw](ParCtx<Eff::Det> C, int K) -> Par<uint64_t> {
              if (K < 2)
                co_return static_cast<uint64_t>(K);
              uint64_t A = co_await getMemo(C, *BoxRaw, K - 1);
              uint64_t B = co_await getMemo(C, *BoxRaw, K - 2);
              co_return A + B;
            });
        uint64_t R = co_await getMemo(Ctx, *Box, 30);
        co_return R;
      },
      Opts);
}

/// The wavefront's cell values and its forSpeculative round count.
using Wavefront = std::pair<size_t, std::vector<int>>;

Wavefront runWavefront(const RunOptions &Opts) {
  return runPar<D>(
      [](ParCtx<D> Ctx) -> Par<Wavefront> {
        // A 2D wavefront: cell i commits once both neighbors (i-1, i-8)
        // committed in earlier rounds; values accumulate deterministically,
        // and cell (r, c) commits in round r + c, 15 rounds in all.
        constexpr size_t N = 64;
        auto Done = newEmptyMap<size_t, int>(Ctx);
        // Reserve reads only earlier rounds' commits and leaves 0 while a
        // neighbor is missing; commit publishes a ready cell.
        auto Reserve = [Done](ParCtx<D>, uint64_t, size_t I, int &Value) {
          Value = 0;
          int Left = 0, Up = 0;
          if (I % 8 != 0) {
            const int *P = Done->lookupNow(I - 1);
            if (!P)
              return true;
            Left = *P;
          }
          if (I >= 8) {
            const int *P = Done->lookupNow(I - 8);
            if (!P)
              return true;
            Up = *P;
          }
          Value = Left + Up + 1;
          return true;
        };
        auto Commit = [Done](ParCtx<D> C, uint64_t, size_t I, int &Value) {
          if (Value == 0)
            return false;
          insert(C, *Done, I, Value);
          return true;
        };
        SpecResult Res =
            co_await forSpeculative<int>(Ctx, 0, N, Reserve, Commit);
        std::vector<int> Out;
        for (size_t I = 0; I < N; ++I)
          Out.push_back(*Done->lookupNow(I));
        co_return Wavefront{Res.Rounds, std::move(Out)};
      },
      Opts);
}

uint64_t runRngMixed(const RunOptions &Opts) {
  return runPar<D>(
      [](ParCtx<D> Ctx) -> Par<uint64_t> {
        co_return co_await withRng(
            Ctx, 2014, [](ParCtx<D> C) -> Par<uint64_t> {
              // Fork a tree; each leaf contributes rand() xor'd into a
              // max-lattice LVar (order-independent combine).
              auto Acc = newPureLVar<MaxUint64Lattice>(C);
              auto Leaf = [Acc](ParCtx<D> C2, size_t) -> Par<void> {
                putPureLVar(C2, *Acc, rand(C2) >> 16);
                co_return;
              };
              co_await parallelForPar(C, 0, 64, 1, Leaf);
              co_return Acc->peek();
            });
      },
      Opts);
}

// Reference results computed once with a 1-worker scheduler.
template <typename F> auto reference(F Fn) {
  RunOptions Opts;
  Opts.Config.NumWorkers = 1;
  return Fn(Opts);
}

// -- Threaded sweep: worker counts x steal seeds ---------------------------

struct SchedParam {
  unsigned Workers;
  uint64_t Seed;
};

class DeterminismSweep : public ::testing::TestWithParam<SchedParam> {
protected:
  RunOptions config() const {
    RunOptions Opts;
    Opts.Config.NumWorkers = GetParam().Workers;
    Opts.Config.StealSeed = GetParam().Seed;
    return Opts;
  }
};

TEST_P(DeterminismSweep, HandlerClosureFixpoint) {
  EXPECT_EQ(runHandlerClosure(config()), reference(runHandlerClosure));
}

TEST_P(DeterminismSweep, CounterGridMatchesExactSum) {
  auto Result = runCounterGrid(config());
  EXPECT_EQ(Result, reference(runCounterGrid));
  // Exactness: total equals the closed-form sum of all bump amounts.
  uint64_t Total = std::accumulate(Result.begin(), Result.end(),
                                   uint64_t(0));
  uint64_t Expected = 0;
  for (size_t I = 0; I < 4096; ++I)
    Expected += (I % 3) + 1;
  EXPECT_EQ(Total, Expected);
}

TEST_P(DeterminismSweep, MemoizedFibonacci) {
  EXPECT_EQ(runMemoFib(config()), 832040u);
}

TEST_P(DeterminismSweep, BulkRetryWavefront) {
  auto [Rounds, R] = runWavefront(config());
  EXPECT_EQ(Wavefront(Rounds, R), reference(runWavefront));
  EXPECT_EQ(Rounds, 15u);
  EXPECT_EQ(R[0], 1);
  EXPECT_EQ(R[9], R[8] + R[1] + 1);
}

TEST_P(DeterminismSweep, RngUnderMixedEffects) {
  EXPECT_EQ(runRngMixed(config()), reference(runRngMixed));
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, DeterminismSweep,
    ::testing::Values(SchedParam{1, 1}, SchedParam{2, 7}, SchedParam{2, 99},
                      SchedParam{3, 5}, SchedParam{4, 13},
                      SchedParam{4, 31337}, SchedParam{8, 2014}));

// -- Explored sweep: seeded adversarial virtual schedules ------------------
//
// Where the threaded sweep samples whatever interleavings the OS happens
// to produce, these runs force explorer-chosen ones - including
// pathological wake orders and steal patterns a real machine rarely hits.
// A mismatch prints the replay string; paste it into
// explore::decodeReplay + replaySession to re-run that exact schedule.

template <typename F>
void exploreSweep(const char *Name, F Program,
                  std::initializer_list<uint64_t> Seeds) {
  const auto Ref = reference(Program);
  for (unsigned Workers : {2u, 3u}) {
    for (uint64_t Seed : Seeds) {
      explore::Engine Eng = explore::Engine::random(Seed, Workers);
      auto Got = Program(explore::sessionOptions(Eng));
      EXPECT_EQ(Got, Ref) << Name << ": seed=" << Seed
                          << " workers=" << Workers
                          << "\n  replay: " << Eng.replayString();
    }
  }
}

constexpr std::initializer_list<uint64_t> SeedList{1, 7, 42, 99, 31337,
                                                   2014, 777, 123456789};

TEST(DeterminismExplored, HandlerClosureFixpoint) {
  exploreSweep("handler-closure", runHandlerClosure, SeedList);
}

TEST(DeterminismExplored, CounterGrid) {
  // Fewer seeds: 4096 grid bumps make each virtual schedule long.
  exploreSweep("counter-grid", runCounterGrid, {1, 42, 31337});
}

TEST(DeterminismExplored, MemoizedFibonacci) {
  exploreSweep("memo-fib", runMemoFib, {1, 7, 42, 99});
}

TEST(DeterminismExplored, BulkRetryWavefront) {
  exploreSweep("wavefront", runWavefront, {1, 7, 42, 99, 31337});
}

TEST(DeterminismExplored, RngUnderMixedEffects) {
  exploreSweep("rng-mixed", runRngMixed, SeedList);
}

} // namespace
