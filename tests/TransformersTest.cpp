//===- TransformersTest.cpp - The parallel effect zoo ----------------------===//
//
// Tests for Section 4-6 machinery: splittable state layers, pedigrees,
// deterministic RNG, cancellation, ParST disjoint update, deadlock scopes,
// bulk retry, and memo tables.
//
//===----------------------------------------------------------------------===//

#include "src/core/LVish.h"
#include "src/core/ParFor.h"
#include "src/data/Counter.h"
#include "src/trans/Transformers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>

using namespace lvish;

namespace {

constexpr EffectSet D = Eff::Det;

// -- StateLayer ---------------------------------------------------------

struct SplitCounter {
  int Depth = 0;
  SplitCounter splitForChild() {
    ++Depth; // Parent notes the fork...
    return SplitCounter{Depth}; // ...child starts from the new depth.
  }
};

TEST(StateLayer, ForkSplitsState) {
  int ChildDepth = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<int> {
        co_return co_await withState(Ctx, SplitCounter{}, [](ParCtx<D> C)
                                                              -> Par<int> {
          auto Out = newIVar<int>(C);
          fork(C, [Out](ParCtx<D> C2) -> Par<void> {
            put(C2, *Out, stateRef<SplitCounter>(C2).Depth);
            co_return;
          });
          int V = co_await get(C, *Out);
          co_return V;
        });
      },
      SchedulerConfig{2});
  EXPECT_EQ(ChildDepth, 1);
}

TEST(StateLayer, TwoStackedLayersAreIndependent) {
  struct TagA {};
  struct TagB {};
  runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
    co_await withState<Duplicated<int>, TagA>(
        Ctx, Duplicated<int>{1}, [](ParCtx<D> C) -> Par<void> {
          co_await withState<Duplicated<int>, TagB>(
              C, Duplicated<int>{2}, [](ParCtx<D> C2) -> Par<void> {
                EXPECT_EQ((stateRef<Duplicated<int>, TagA>(C2).Value), 1);
                EXPECT_EQ((stateRef<Duplicated<int>, TagB>(C2).Value), 2);
                co_return;
              });
          co_return;
        });
    co_return;
  });
}

TEST(StateLayer, MissingLayerIsDetectable) {
  runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
    EXPECT_FALSE((hasStateLayer<Duplicated<int>>(Ctx)));
    co_return;
  });
}

// -- Pedigree ---------------------------------------------------------------

TEST(Pedigree, RootIsEmptyAndForksExtend) {
  auto Paths = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<std::vector<std::string>> {
        co_return co_await withPedigree(
            Ctx, [](ParCtx<D> C) -> Par<std::vector<std::string>> {
              std::vector<std::string> Out(3);
              Out[0] = pedigree(C); // Root: "".
              auto IV = newIVar<std::string>(C);
              fork(C, [IV](ParCtx<D> C2) -> Par<void> {
                put(C2, *IV, pedigree(C2)); // First child: "L".
                co_return;
              });
              Out[1] = co_await get(C, *IV);
              Out[2] = pedigree(C); // Parent after one fork: "R".
              co_return Out;
            });
      },
      SchedulerConfig{2});
  EXPECT_EQ(Paths[0], "");
  EXPECT_EQ(Paths[1], "L");
  EXPECT_EQ(Paths[2], "R");
}

// Task::Ped records Pedigree::Capacity branches; a longer fork loop must
// still give every task its own path, and a child must still read as
// concurrent with its parent's continuation.
TEST(Pedigree, ExactPastRecordedCapacity) {
  constexpr size_t N = 300;
  static_assert(N > Pedigree::Capacity);
  auto Paths = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<std::vector<std::string>> {
        co_return co_await withPedigree(
            Ctx, [](ParCtx<D> C) -> Par<std::vector<std::string>> {
              std::vector<std::shared_ptr<IVar<std::string>>> Kids;
              for (size_t I = 0; I < N; ++I) {
                auto IV = newIVar<std::string>(C);
                Kids.push_back(IV);
                fork(C, [IV](ParCtx<D> C2) -> Par<void> {
                  put(C2, *IV, pedigree(C2));
                  co_return;
                });
              }
              std::vector<std::string> Out;
              for (auto &IV : Kids)
                Out.push_back(co_await get(C, *IV));
              Out.push_back(pedigree(C));
              co_return Out;
            });
      },
      SchedulerConfig{2});
  ASSERT_EQ(Paths.size(), N + 1);
  const std::string &Last = Paths[N - 1], &Parent = Paths[N];
  EXPECT_EQ(Last, std::string(N - 1, 'R') + 'L');
  EXPECT_EQ(Parent, std::string(N, 'R'));
  EXPECT_TRUE(pedigreesConcurrent(Last, Parent));
  EXPECT_EQ(std::set<std::string>(Paths.begin(), Paths.end()).size(), N + 1);
}

TEST(Pedigree, ConcurrencyOracle) {
  EXPECT_TRUE(pedigreesConcurrent("L", "R"));
  EXPECT_TRUE(pedigreesConcurrent("LR", "LL"));
  EXPECT_FALSE(pedigreesConcurrent("L", "LR"));  // Ancestor.
  EXPECT_FALSE(pedigreesConcurrent("LR", "LR")); // Same task.
}

TEST(Pedigree, TickAdvancesSequentialCounter) {
  std::string Full = runPar<D>([](ParCtx<D> Ctx) -> Par<std::string> {
    co_return co_await withPedigree(Ctx, [](ParCtx<D> C) -> Par<std::string> {
      pedigreeTick(C);
      pedigreeTick(C);
      co_return pedigreeFull(C);
    });
  });
  EXPECT_EQ(Full, "#2");
}

// -- RngT ------------------------------------------------------------------

TEST(ParRng, DeterministicAcrossSchedulesAndWorkers) {
  auto Draw = [](unsigned Workers, uint64_t StealSeed) {
    SchedulerConfig Cfg;
    Cfg.NumWorkers = Workers;
    Cfg.StealSeed = StealSeed;
    return runPar<D>(
        [](ParCtx<D> Ctx) -> Par<std::vector<uint64_t>> {
          co_return co_await withRng(
              Ctx, 42, [](ParCtx<D> C) -> Par<std::vector<uint64_t>> {
                constexpr int N = 16;
                std::vector<std::shared_ptr<IVar<uint64_t>>> Outs;
                for (int I = 0; I < N; ++I)
                  Outs.push_back(newIVar<uint64_t>(C));
                for (int I = 0; I < N; ++I)
                  fork(C, [Out = Outs[static_cast<size_t>(I)]](
                              ParCtx<D> C2) -> Par<void> {
                    put(C2, *Out, rand(C2));
                    co_return;
                  });
                std::vector<uint64_t> Vals;
                for (auto &O : Outs)
                  Vals.push_back(co_await get(C, *O));
                co_return Vals;
              });
        },
        Cfg);
  };
  auto Ref = Draw(1, 7);
  EXPECT_EQ(Draw(2, 99), Ref);
  EXPECT_EQ(Draw(4, 1234), Ref);
  // And the streams are pairwise distinct (split independence).
  std::set<uint64_t> Uniq(Ref.begin(), Ref.end());
  EXPECT_EQ(Uniq.size(), Ref.size());
}

// -- CancelT ------------------------------------------------------------

TEST(Cancel, CancelledComputationStopsDoingWork) {
  // A cancellable read-only spinner bumps a plain atomic (observable to
  // the test only). After cancel, its progress must stop.
  std::atomic<long> Progress{0};
  runParIO<Eff::FullIO>(
      [&](ParCtx<Eff::FullIO> Ctx) -> Par<void> {
        auto Fut = forkCancelable(
            Ctx, [&Progress](ParCtx<Eff::ReadOnly> C) -> Par<int> {
              for (;;) {
                Progress.fetch_add(1, std::memory_order_relaxed);
                co_await yield(C); // Poll point.
              }
            });
        for (int I = 0; I < 50; ++I)
          co_await yield(Ctx);
        cancel(Ctx, Fut);
        // Let the cancellation take effect, then watch for quiescence.
        long A = -1, B = -2;
        for (int Tries = 0; Tries < 1000 && A != B; ++Tries) {
          A = Progress.load();
          for (int I = 0; I < 10; ++I)
            co_await yield(Ctx);
          B = Progress.load();
        }
        EXPECT_EQ(A, B) << "cancelled task kept running";
        co_return;
      },
      SchedulerConfig{2});
}

TEST(Cancel, ResultReadableWhenNotCancelled) {
  int R = runParIO<Eff::FullIO>(
      [](ParCtx<Eff::FullIO> Ctx) -> Par<int> {
        auto Fut = forkCancelable(Ctx, [](ParCtx<Eff::ReadOnly> C) -> Par<int> {
          co_return 21;
        });
        int V = co_await readCFuture(Ctx, Fut);
        co_return V * 2;
      },
      SchedulerConfig{2});
  EXPECT_EQ(R, 42);
}

TEST(Cancel, TransitiveCancellationReachesGrandchildren) {
  std::atomic<long> GrandchildProgress{0};
  runParIO<Eff::FullIO>(
      [&](ParCtx<Eff::FullIO> Ctx) -> Par<void> {
        auto Fut = forkCancelable(
            Ctx, [&](ParCtx<Eff::ReadOnly> C) -> Par<int> {
              // Regular fork shares the cancellable node: cancelling the
              // future must reach it.
              fork(C, [&](ParCtx<Eff::ReadOnly> C2) -> Par<void> {
                for (;;) {
                  GrandchildProgress.fetch_add(1, std::memory_order_relaxed);
                  co_await yield(C2);
                }
              });
              for (;;)
                co_await yield(C);
            });
        for (int I = 0; I < 50; ++I)
          co_await yield(Ctx);
        cancel(Ctx, Fut);
        long A = -1, B = -2;
        for (int Tries = 0; Tries < 1000 && A != B; ++Tries) {
          A = GrandchildProgress.load();
          for (int I = 0; I < 10; ++I)
            co_await yield(Ctx);
          B = GrandchildProgress.load();
        }
        EXPECT_EQ(A, B) << "grandchild survived transitive cancel";
        co_return;
      },
      SchedulerConfig{2});
}

TEST(Cancel, CancelIsIdempotent) {
  runParIO<Eff::FullIO>([](ParCtx<Eff::FullIO> Ctx) -> Par<void> {
    auto Fut = forkCancelable(Ctx, [](ParCtx<Eff::ReadOnly> C) -> Par<int> {
      for (;;)
        co_await yield(C);
    });
    cancel(Ctx, Fut);
    cancel(Ctx, Fut);
    co_return;
  });
}

// -- ParST -------------------------------------------------------------

TEST(ParST, RunParVecFillAndReadBack) {
  int Sum = runPar<D>([](ParCtx<D> Ctx) -> Par<int> {
    co_return co_await runParVec(
        Ctx, 10, 0, [](ParCtx<Eff::DetST> C, VecView<int> V) -> Par<int> {
          V.fill(7);
          int S = 0;
          for (size_t I = 0; I < V.size(); ++I)
            S += V[I];
          co_return S;
        });
  });
  EXPECT_EQ(Sum, 70);
}

TEST(ParST, ForkSTSplitWritesAreDisjointAndGlobal) {
  // The paper's example: child index 0 of the right half is global index
  // Mid ("writing "c" to index 0 in the second child ... is really
  // writing to index 5 of the global vector").
  auto Result = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<std::vector<int>> {
        co_return co_await runParVec(
            Ctx, 10, 0,
            [](ParCtx<Eff::DetST> C, VecView<int> V) -> Par<std::vector<int>> {
              V.fill(1);
              co_await forkSTSplit(
                  C, V, 5,
                  [](ParCtx<Eff::DetST> C2, VecView<int> L) -> Par<void> {
                    L[0] = 100;
                    co_return;
                  },
                  [](ParCtx<Eff::DetST> C2, VecView<int> R) -> Par<void> {
                    R[0] = 200;
                    co_return;
                  });
              std::vector<int> Out;
              for (size_t I = 0; I < V.size(); ++I)
                Out.push_back(V[I]);
              co_return Out;
            });
      },
      SchedulerConfig{2});
  EXPECT_EQ(Result[0], 100);
  EXPECT_EQ(Result[5], 200);
  EXPECT_EQ(Result[1], 1);
  EXPECT_EQ(Result[9], 1);
}

TEST(ParST, ParentViewPoisonedDuringSplit) {
  runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
    co_await runParVec(
        Ctx, 8, 0, [](ParCtx<Eff::DetST> C, VecView<int> V) -> Par<void> {
          // Named: the right branch captures a VecView (non-trivial).
          auto LeftB = [](ParCtx<Eff::DetST> C2, VecView<int> L) -> Par<void> {
            co_return;
          };
          auto RightB = [V](ParCtx<Eff::DetST> C2,
                            VecView<int> R) -> Par<void> {
            // The captured parent view must be dead inside the split.
            EXPECT_FALSE(V.live());
            co_return;
          };
          co_await forkSTSplit(C, V, 4, LeftB, RightB);
          // And live again after the join.
          EXPECT_TRUE(V.live());
          co_return;
        });
    co_return;
  });
}

TEST(ParST, ChildViewsDieAtJoin) {
  runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
    co_await runParVec(
        Ctx, 8, 0, [](ParCtx<Eff::DetST> C, VecView<int> V) -> Par<void> {
          VecView<int> Escapee;
          auto LeftB = [&Escapee](ParCtx<Eff::DetST> C2,
                                  VecView<int> L) -> Par<void> {
            Escapee = L; // Deliberately leak the child view.
            co_return;
          };
          auto RightB = [](ParCtx<Eff::DetST> C2,
                           VecView<int> R) -> Par<void> { co_return; };
          co_await forkSTSplit(C, V, 4, LeftB, RightB);
          EXPECT_FALSE(Escapee.live()); // Poisoned at the join.
          co_return;
        });
    co_return;
  });
}

TEST(ParST, ZoomInGivesExclusiveSubrange) {
  int Mid = runPar<D>([](ParCtx<D> Ctx) -> Par<int> {
    co_return co_await runParVec(
        Ctx, 10, 3, [](ParCtx<Eff::DetST> C, VecView<int> V) -> Par<int> {
          co_await zoomIn(C, V, 2, 8,
                          [](ParCtx<Eff::DetST> C2,
                             VecView<int> Sub) -> Par<void> {
                            EXPECT_EQ(Sub.size(), 6u);
                            Sub.fill(9);
                            co_return;
                          });
          co_return V[0] * 100 + V[2]; // [0]=3 untouched, [2]=9.
        });
  });
  EXPECT_EQ(Mid, 309);
}

TEST(ParST, NestedSplitsSortSmallArrayInPlace) {
  // Recursion over forkSTSplit: in-place parallel "sort" of a reversed
  // array via even-odd halving down to singletons, then merging with
  // withTempBuffer. (The full merge sort lives in src/kernels.)
  auto Sorted = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<std::vector<int>> {
        co_return co_await runParVec(
            Ctx, 64, 0,
            [](ParCtx<Eff::DetST> C, VecView<int> V) -> Par<std::vector<int>> {
              for (size_t I = 0; I < V.size(); ++I)
                V[I] = static_cast<int>(V.size() - I);
              struct Rec {
                static Par<void> sort(ParCtx<Eff::DetST> C2,
                                      VecView<int> View) {
                  if (View.size() <= 8) {
                    std::sort(View.raw(), View.raw() + View.size());
                    co_return;
                  }
                  size_t Mid = View.size() / 2;
                  co_await forkSTSplit(
                      C2, View, Mid,
                      [](ParCtx<Eff::DetST> C3, VecView<int> L) -> Par<void> {
                        co_await sort(C3, L);
                      },
                      [](ParCtx<Eff::DetST> C3, VecView<int> R) -> Par<void> {
                        co_await sort(C3, R);
                      });
                  // Sequential merge through a temp buffer.
                  auto Merge = [Mid](ParCtx<Eff::DetST> C3, VecView<int> A,
                                     VecView<int> Tmp) -> Par<void> {
                    std::merge(A.raw(), A.raw() + Mid, A.raw() + Mid,
                               A.raw() + A.size(), Tmp.raw());
                    std::copy(Tmp.raw(), Tmp.raw() + Tmp.size(), A.raw());
                    co_return;
                  };
                  co_await withTempBuffer(C2, View, View.size(), Merge);
                }
              };
              co_await Rec::sort(C, V);
              std::vector<int> Out;
              for (size_t I = 0; I < V.size(); ++I)
                Out.push_back(V[I]);
              co_return Out;
            });
      },
      SchedulerConfig{4});
  EXPECT_TRUE(std::is_sorted(Sorted.begin(), Sorted.end()));
  EXPECT_EQ(Sorted.front(), 1);
  EXPECT_EQ(Sorted.back(), 64);
}

// -- DeadlockT ----------------------------------------------------------

TEST(Deadlock, CleanSubtreeReportsNoDeadlock) {
  DeadlockReport R = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<DeadlockReport> {
        co_return co_await forkWithDeadlockDetection(
            Ctx, [](ParCtx<D> C) -> Par<void> {
              auto IV = newIVar<int>(C);
              fork(C, [IV](ParCtx<D> C2) -> Par<void> {
                put(C2, *IV, 1);
                co_return;
              });
              int V = co_await get(C, *IV);
              (void)V;
              co_return;
            });
      },
      SchedulerConfig{2});
  EXPECT_FALSE(R.deadlocked());
  EXPECT_EQ(R.BlockedTasks, 0);
}

TEST(Deadlock, CycleIsDetectedAndReported) {
  // Two tasks blocked on each other's IVars: a genuine dependency cycle.
  DeadlockReport R = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<DeadlockReport> {
        co_return co_await forkWithDeadlockDetection(
            Ctx, [](ParCtx<D> C) -> Par<void> {
              auto A = newIVar<int>(C);
              auto B = newIVar<int>(C);
              fork(C, [A, B](ParCtx<D> C2) -> Par<void> {
                int V = co_await get(C2, *A);
                put(C2, *B, V);
              });
              int V = co_await get(C, *B); // Completes the cycle.
              put(C, *A, V);
            });
      },
      SchedulerConfig{2});
  EXPECT_TRUE(R.deadlocked());
  EXPECT_EQ(R.BlockedTasks, 2);
}

// -- BulkRetryT ---------------------------------------------------------

TEST(BulkRetry, AllIterationsEventuallyCommit) {
  // A chain: iteration i reserves only once iteration i-1 has committed
  // in an earlier round, so each round commits exactly one link.
  static constexpr size_t N = 20;
  SpecResult Res = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<SpecResult> {
        auto Done = newISet<size_t>(Ctx);
        // Named bodies: GCC 12 co_await temporary discipline (see Par.h).
        auto Reserve = [Done](ParCtx<D>, uint64_t, size_t I, bool &Ready) {
          Ready = I == 0 || Done->containsElem(I - 1);
          return true;
        };
        auto Commit = [Done](ParCtx<D> C, uint64_t, size_t I, bool &Ready) {
          if (Ready)
            insert(C, *Done, I);
          return Ready;
        };
        SpecResult R = co_await forSpeculative<bool>(Ctx, 0, N, Reserve,
                                                     Commit);
        EXPECT_EQ(Done->sizeNow(), N);
        co_return R;
      },
      SchedulerConfig{2});
  EXPECT_EQ(Res.Rounds, N);
  EXPECT_EQ(Res.Committed, std::vector<uint8_t>(N, 1));
}

TEST(BulkRetry, SingleRoundWhenNothingFails) {
  // Odd iterations drop at reserve; even ones commit at once.
  SpecResult Res = runPar<D>([](ParCtx<D> Ctx) -> Par<SpecResult> {
    auto Reserve = [](ParCtx<D>, uint64_t, size_t I, int &) {
      return I % 2 == 0;
    };
    auto Commit = [](ParCtx<D>, uint64_t, size_t, int &) { return true; };
    co_return co_await forSpeculative<int>(Ctx, 0, 100, Reserve, Commit);
  });
  EXPECT_EQ(Res.Rounds, 1u);
  ASSERT_EQ(Res.Committed.size(), 100u);
  for (size_t I = 0; I < 100; ++I)
    EXPECT_EQ(Res.Committed[I], I % 2 == 0 ? 1 : 0) << "i=" << I;
}

// -- Memo ------------------------------------------------------------------

TEST(Memo, MemoizedFunctionComputesOncePerKey) {
  std::atomic<int> Evaluations{0};
  runParIO<Eff::FullIO>(
      [&](ParCtx<Eff::FullIO> Ctx) -> Par<void> {
        auto M = makeMemo<int>(Ctx, [&Evaluations](ParCtx<Eff::ReadOnly> C,
                                                   int K) -> Par<int> {
          Evaluations.fetch_add(1);
          co_return K * K;
        });
        int A = co_await getMemo(Ctx, M, 7);
        int B = co_await getMemo(Ctx, M, 7);
        int C2 = co_await getMemo(Ctx, M, 3);
        EXPECT_EQ(A, 49);
        EXPECT_EQ(B, 49);
        EXPECT_EQ(C2, 9);
        co_return;
      },
      SchedulerConfig{2});
  EXPECT_EQ(Evaluations.load(), 2); // Once for 7, once for 3.
}

TEST(Memo, EffectfulMemoizedFunctionCanUseLVars) {
  // makeMemo over a Par function that itself reads an LVar.
  int R = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<int> {
        auto Base = newIVar<int>(Ctx);
        put(Ctx, *Base, 10);
        auto M = makeMemo<int, Eff::Det>(
            Ctx, [Base](ParCtx<Eff::Det> C, int K) -> Par<int> {
              int B = co_await get(C, *Base);
              co_return B + K;
            });
        co_return co_await getMemo(Ctx, M, 32);
      },
      SchedulerConfig{2});
  EXPECT_EQ(R, 42);
}

TEST(Memo, GetMemoROWorksInsideCancellableComputation) {
  // The Section 6.2 punchline: a cancelled ReadOnly branch deposits memo
  // entries that survive - learning from a computation that never
  // "happened".
  std::atomic<int> Evaluations{0};
  int Final = runParIO<Eff::FullIO>(
      [&](ParCtx<Eff::FullIO> Ctx) -> Par<int> {
        auto M = makeMemo<int>(Ctx, [&Evaluations](ParCtx<Eff::ReadOnly> C,
                                                   int K) -> Par<int> {
          Evaluations.fetch_add(1);
          co_return K + 1;
        });
        auto Fut = forkCancelable(
            Ctx, [M](ParCtx<Eff::ReadOnly> C) -> Par<int> {
              // Memo request from a ReadOnly computation: only legal via
              // the blessed getMemoRO, not getMemo (which needs HasPut).
              int V = co_await getMemoRO(C, M, 5);
              co_return V;
            });
        // The branch's request populates the shared memo table; this call
        // either reuses it or races to the same single evaluation.
        int V = co_await getMemo(Ctx, M, 5);
        cancel(Ctx, Fut);
        co_return V;
      },
      SchedulerConfig{2});
  EXPECT_EQ(Final, 6);
  EXPECT_EQ(Evaluations.load(), 1); // Shared between branch and main.
}

} // namespace
