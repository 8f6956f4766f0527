//===- ComplexityTest.cpp - Cost bounds that a green suite must not hide ---===//
//
// Two kinds of cost bound, both exact so a quadratic cannot creep back in
// behind passing golden tests:
//
//  * Scope lists stay bounded. A handler task is forked from the putting
//    task, so in a handler chain every generation inherits its parent's
//    scopes; each scope must still be listed (and counted) once, however
//    deep the chain runs, under both HandlerPool dispatch paths and under
//    an enclosing deadlock scope.
//  * Event counts are linear in the input. Connected components makes one
//    put per undirected edge and exactly N - #components useful ones;
//    bfsReach makes one handler invocation per reached vertex, and its
//    tasks, like componentsLabelProp's, stay within a constant per worker,
//    since both handlers are batched plain calls. Checked at N and 2N, at
//    1/2/4 workers and under explored schedules. The
//    pbbs_rounds kernels (histogram, removeDuplicates, bfsLevels, spanning
//    forest) are pinned at one worker: puts, no-op joins and tasks created
//    each equal a closed form over the input. The forest's reservation
//    attempts stay within two per edge on adversarial inputs too.
//  * Fork-join at one worker costs a task per fork and nothing more: a
//    sumSquares tree and a parallelFor make their closed-form task
//    counts, and no get parks or is woken.
//
//===----------------------------------------------------------------------===//

#include "src/core/LVish.h"
#include "src/core/ParFor.h"
#include "src/data/ISet.h"
#include "src/explore/Explorer.h"
#include "src/obs/Telemetry.h"
#include "src/pbbs/Pbbs.h"
#include "src/obs/SchedulerStats.h"
#include "src/sched/Scheduler.h"
#include "src/sched/Task.h"
#include "src/trans/Deadlock.h"
#include "tests/ForestInputs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <vector>

using namespace lvish;
using namespace lvish::pbbs;

namespace {

constexpr EffectSet D = Eff::Det;
constexpr unsigned WorkerCounts[] = {1, 2, 4};

//===----------------------------------------------------------------------===//
// Scope lists
//===----------------------------------------------------------------------===//

constexpr uint64_t ChainLen = 2000;

/// The largest scope list any handler of a chain ran with.
struct ScopeHighWater {
  std::atomic<size_t> Scopes{0};
  std::atomic<uint64_t> Calls{0};

  void note() {
    const Task *T = Scheduler::currentTask();
    raise(Scopes, T->Scopes.size());
    Calls.fetch_add(1, std::memory_order_relaxed);
  }

private:
  static void raise(std::atomic<size_t> &Max, size_t V) {
    size_t Cur = Max.load(std::memory_order_relaxed);
    while (V > Cur && !Max.compare_exchange_weak(Cur, V))
      ;
  }
};

/// A ChainLen-deep handler chain: element X's handler inserts X + 1, so
/// each dispatch runs one handler generation deeper. A plain callback when
/// \p Plain (batched, run in a flush loop), else a Par (one task per
/// delta). True when quiesce returned only after every insert and left
/// the pool's scope drained.
template <bool Plain>
Par<bool> handlerChain(ParCtx<D> Ctx, ScopeHighWater *HW) {
  auto S = newISet<uint64_t>(Ctx);
  auto Pool = newPool(Ctx);
  auto Step = [HW](ParCtx<D> C, ISet<uint64_t> &Set, const uint64_t &X) {
    HW->note();
    if (X + 1 < ChainLen)
      insert(C, Set, X + 1);
  };
  if constexpr (Plain) {
    [[maybe_unused]] HandlerHandle H = addHandlerRef(Ctx, Pool, *S, Step);
  } else {
    [[maybe_unused]] HandlerHandle H = addHandlerRef(
        Ctx, Pool, *S,
        [Step](ParCtx<D> C, ISet<uint64_t> &Set,
               const uint64_t &X) -> Par<void> {
          Step(C, Set, X);
          co_return;
        });
  }
  insert(Ctx, *S, uint64_t{0});
  co_await quiesce(Ctx, Pool);
  co_return S->sizeNow() == ChainLen &&
      HW->Calls.load() == ChainLen && Pool->Scope.activeCount() == 0;
}

template <bool Plain> void expectBoundedChain(const char *Path) {
  for (unsigned W : WorkerCounts) {
    SCOPED_TRACE(::testing::Message() << Path << " workers=" << W);
    {
      // A bare pool: the one distinct scope.
      ScopeHighWater HW;
      bool Ok = runPar<D>(
          [&HW](ParCtx<D> Ctx) -> Par<bool> {
            bool R = co_await handlerChain<Plain>(Ctx, &HW);
            co_return R;
          },
          SchedulerConfig{W});
      EXPECT_TRUE(Ok);
      EXPECT_LE(HW.Scopes.load(), 1u);
    }
    {
      // The pool inside a deadlock scope: its Runnable and Live scopes
      // plus the pool make three distinct scopes.
      ScopeHighWater HW;
      std::atomic<bool> Ok{false};
      uint64_t Blocked = runPar<D>(
          [&HW, &Ok](ParCtx<D> Ctx) -> Par<uint64_t> {
            auto Body = [&HW, &Ok](ParCtx<D> C) -> Par<void> {
              bool R = co_await handlerChain<Plain>(C, &HW);
              Ok.store(R);
            };
            DeadlockReport Rep = co_await forkWithDeadlockDetection(Ctx, Body);
            co_return Rep.BlockedTasks;
          },
          SchedulerConfig{W});
      EXPECT_TRUE(Ok.load());
      EXPECT_EQ(Blocked, 0u);
      EXPECT_LE(HW.Scopes.load(), 3u);
    }
  }
}

TEST(ScopeListTest, TaskPerDeltaHandlerChainStaysBounded) {
  expectBoundedChain</*Plain=*/false>("task-per-delta");
}

TEST(ScopeListTest, BatchedHandlerChainStaysBounded) {
  expectBoundedChain</*Plain=*/true>("batched");
}

//===----------------------------------------------------------------------===//
// Exact event counts
//===----------------------------------------------------------------------===//

struct Counts {
  uint64_t Puts = 0;
  uint64_t NoOpJoins = 0;
  uint64_t HandlerInvocations = 0;
};

/// The telemetry delta across \p Run.
Counts countDuring(const std::function<void()> &Run) {
  obs::TelemetrySnapshot Before = obs::telemetrySnapshot();
  Run();
  obs::TelemetrySnapshot After = obs::telemetrySnapshot();
  auto Delta = [&](obs::Event E) { return After.count(E) - Before.count(E); };
  return Counts{Delta(obs::Event::Puts), Delta(obs::Event::NoOpJoins),
                Delta(obs::Event::HandlerInvocations)};
}

/// The schedules every count is checked under: threaded runs at 1/2/4
/// workers, then seeded random and PCT explored schedules.
void forEachSchedule(const std::function<void(const RunOptions &)> &Run) {
  for (unsigned W : WorkerCounts) {
    SCOPED_TRACE(::testing::Message() << "workers=" << W);
    RunOptions O;
    O.Config.NumWorkers = W;
    Run(O);
  }
  for (uint64_t Seed : {3u, 2014u}) {
    SCOPED_TRACE(::testing::Message() << "explored seed=" << Seed);
    explore::Engine Random = explore::Engine::random(Seed, 3);
    Run(explore::sessionOptions(Random));
    explore::Engine Pct = explore::Engine::pct(Seed, 2, 3);
    Run(explore::sessionOptions(Pct));
  }
}

/// |{(v, w) : w in adj(v), w > v}|: the undirected edges, each once.
uint64_t forwardEdges(const Graph &G) {
  uint64_t E = 0;
  for (uint32_t V = 0; V < G.NumVertices; ++V)
    E += static_cast<uint64_t>(
        std::count_if(G.neighborsBegin(V), G.neighborsEnd(V),
                      [V](uint32_t W) { return W > V; }));
  return E;
}

uint64_t componentCount(const Graph &G) {
  std::vector<uint32_t> Labels = componentsSeq(G);
  std::sort(Labels.begin(), Labels.end());
  return static_cast<uint64_t>(
      std::unique(Labels.begin(), Labels.end()) - Labels.begin());
}

Graph edgeless(uint32_t N) {
  Graph G;
  G.NumVertices = N;
  G.Offsets.assign(N + 1, 0);
  return G;
}

TEST(ComplexityTest, ComponentsPutsAreExactlyTheEdges) {
  for (uint32_t N : {150u, 300u})
    for (bool PowerLaw : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << (PowerLaw ? "powerlaw" : "uniform") << " n=" << N);
      const Graph G = PowerLaw ? makePowerLawGraph(N, 6, 17)
                               : makeUniformGraph(N, 6, 17);
      const uint64_t Edges = forwardEdges(G);
      const uint64_t Links = N - componentCount(G);
      // An edgeless graph of N vertices counts only the parallelFor
      // barrier's IVar puts: a fork tree fixed by N and the grain, the
      // same on every schedule.
      Counts Barrier = countDuring([N] { componentsLVar(edgeless(N)); });
      EXPECT_EQ(Barrier.NoOpJoins, 0u);
      forEachSchedule([&](const RunOptions &O) {
        Counts C = countDuring([&] { componentsLVar(G, O); });
        EXPECT_EQ(C.Puts - Barrier.Puts, Edges);
        EXPECT_EQ(C.Puts - Barrier.Puts - C.NoOpJoins, Links);
        EXPECT_EQ(C.HandlerInvocations, 0u);
      });
    }
}

TEST(ComplexityTest, BfsReachInvokesOneHandlerPerReachedVertex) {
  for (uint32_t N : {150u, 300u})
    for (bool PowerLaw : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << (PowerLaw ? "powerlaw" : "uniform") << " n=" << N);
      const Graph G = PowerLaw ? makePowerLawGraph(N, 6, 23)
                               : makeUniformGraph(N, 6, 23);
      const std::vector<uint32_t> Reached = bfsReachSeq(G, 0);
      // The source insert, then each reached vertex's handler inserts
      // every neighbour once.
      uint64_t Inserts = 1;
      for (uint32_t V : Reached)
        Inserts += G.degree(V);
      forEachSchedule([&](const RunOptions &O) {
        Counts C = countDuring([&] { bfsReach(G, 0, O); });
        EXPECT_EQ(C.HandlerInvocations, Reached.size());
        EXPECT_EQ(C.Puts, Inserts);
        EXPECT_EQ(C.Puts - C.NoOpJoins, Reached.size());
      });
    }
}

/// Tasks created by \p Run under \p O.
uint64_t tasksDuring(RunOptions O,
                     const std::function<void(const RunOptions &)> &Run) {
  SchedulerStats Stats;
  O.StatsOut = &Stats;
  Run(O);
  return Stats.TasksCreated;
}

TEST(ComplexityTest, HandlerFixpointsCreateTasksPerWorkerNotPerVertex) {
  // Both fixpoints' handlers are plain calls, batched per worker: tasks
  // come from the root, flushes and the seeding loop's forks (about eight
  // leaves at these sizes), not from reached vertices or label decreases,
  // so the bound is the same at n and 2n. Observed: bfsReach 2-6,
  // componentsLabelProp 17-28, at every worker count.
  constexpr uint64_t TasksPerWorker = 32;
  for (uint32_t N : {150u, 300u})
    for (bool PowerLaw : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << (PowerLaw ? "powerlaw" : "uniform") << " n=" << N);
      const Graph G = PowerLaw ? makePowerLawGraph(N, 6, 23)
                               : makeUniformGraph(N, 6, 23);
      forEachSchedule([&](const RunOptions &O) {
        const uint64_t Bound = TasksPerWorker * O.Config.NumWorkers;
        EXPECT_LE(tasksDuring(O, [&](const RunOptions &R) {
                    bfsReach(G, 0, R);
                  }),
                  Bound)
            << "bfsReach";
        EXPECT_LE(tasksDuring(O, [&](const RunOptions &R) {
                    componentsLabelProp(G, R);
                  }),
                  Bound)
            << "componentsLabelProp";
      });
    }
}

//===----------------------------------------------------------------------===//
// Exact counts of the pbbs_rounds kernels at one worker
//===----------------------------------------------------------------------===//

/// The [begin, end) ranges of the leaves of a halving loop (parallelFor,
/// which also runs each forSpeculative pass of the spanning forest) at
/// grain \p G, left to right.
void splitLeaves(size_t Begin, size_t End, size_t G,
                 std::vector<std::pair<size_t, size_t>> &Out) {
  if (End - Begin <= G) {
    Out.push_back({Begin, End});
    return;
  }
  size_t Mid = Begin + (End - Begin) / 2;
  splitLeaves(Begin, Mid, G, Out);
  splitLeaves(Mid, End, G, Out);
}

/// Forks made by that loop over \p N items: one per inner node of the
/// tree. Each fork is one task created and one barrier IVar put.
uint64_t splitForks(size_t N, size_t G) {
  std::vector<std::pair<size_t, size_t>> Leaves;
  splitLeaves(0, N, G, Leaves);
  return Leaves.size() - 1;
}

struct KernelCounts {
  uint64_t Puts = 0;
  uint64_t NoOpJoins = 0;
  uint64_t Tasks = 0;
};

/// Puts, no-op joins and tasks created by \p Run on one worker.
KernelCounts oneWorker(const std::function<void(const RunOptions &)> &Run) {
  SchedulerStats Stats;
  RunOptions O = RunOptions::CollectStats(Stats);
  O.Config.NumWorkers = 1;
  Counts C = countDuring([&] { Run(O); });
  return {C.Puts, C.NoOpJoins, Stats.TasksCreated};
}

/// Checks \p Got against the closed form, and that every count stays
/// within a constant times \p InputSize.
void expectCounts(const KernelCounts &Got, const KernelCounts &Want,
                  uint64_t InputSize) {
  EXPECT_EQ(Got.Puts, Want.Puts);
  EXPECT_EQ(Got.NoOpJoins, Want.NoOpJoins);
  EXPECT_EQ(Got.Tasks, Want.Tasks);
  EXPECT_LE(Got.Puts, 4 * InputSize);
  EXPECT_LE(Got.Tasks, InputSize);
}

TEST(ComplexityTest, HistogramBumpsEachNonzeroBucketOncePerBlock) {
  constexpr uint64_t Buckets = 16;
  for (size_t N : {3000u, 6000u}) {
    SCOPED_TRACE(::testing::Message() << "n=" << N);
    const std::vector<uint64_t> Keys = makeSkewedKeys(N, 1024, 29);
    // Blocks of at least 8 x Buckets keys (fewer on tiny inputs, which
    // still split into about 8), each bumping its nonzero buckets once.
    const size_t Blocks = std::max<size_t>(1, N / pickGrain(8 * Buckets, N));
    uint64_t Bumps = 0;
    for (size_t B = 0; B < Blocks; ++B) {
      std::set<uint64_t> Hit;
      for (size_t I = N * B / Blocks; I < N * (B + 1) / Blocks; ++I)
        Hit.insert(Keys[I] % Buckets);
      Bumps += Hit.size();
    }
    const uint64_t Forks = splitForks(Blocks, 1);
    KernelCounts Got = oneWorker(
        [&](const RunOptions &O) { histogramLVar(Keys, Buckets, O); });
    expectCounts(Got, {Bumps + Forks, 0, 1 + Forks}, N);
  }
}

TEST(ComplexityTest, RemoveDuplicatesPutsEveryKeyOnce) {
  for (size_t N : {3000u, 6000u}) {
    SCOPED_TRACE(::testing::Message() << "n=" << N);
    const std::vector<uint64_t> Keys = makeSkewedKeys(N, 1024, 31);
    const uint64_t Distinct = removeDuplicatesSeq(Keys).size();
    const uint64_t Forks = splitForks(N, pickGrain(256, N));
    KernelCounts Got = oneWorker(
        [&](const RunOptions &O) { removeDuplicatesLVar(Keys, O); });
    // N inserts, Distinct of them useful.
    expectCounts(Got, {N + Forks, N - Distinct, 1 + Forks}, N);
  }
}

TEST(ComplexityTest, BfsLevelsInsertsEachUnreachedNeighbourOncePerRound) {
  for (uint32_t N : {400u, 800u})
    for (bool PowerLaw : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << (PowerLaw ? "powerlaw" : "uniform") << " n=" << N);
      const Graph G = PowerLaw ? makePowerLawGraph(N, 6, 37)
                               : makeUniformGraph(N, 6, 37);
      const std::vector<uint32_t> Level = bfsSeq(G, 0);
      // Round R reads the level-(R-1) frontier and inserts every neighbour
      // not yet reached when the round starts, i.e. of level >= R; the
      // level-R vertices are the useful inserts.
      uint64_t Inserts = 0, Useful = 0, Forks = 0;
      for (uint32_t R = 1;; ++R) {
        size_t Frontier = 0;
        for (uint32_t V = 0; V < N; ++V) {
          if (Level[V] == R)
            ++Useful;
          if (Level[V] != R - 1)
            continue;
          ++Frontier;
          for (const uint32_t *W = G.neighborsBegin(V),
                              *End = G.neighborsEnd(V);
               W != End; ++W)
            Inserts += Level[*W] >= R;
        }
        if (Frontier == 0)
          break;
        Forks += splitForks(Frontier, pickGrain(64, Frontier));
      }
      KernelCounts Got =
          oneWorker([&](const RunOptions &O) { bfsLevels(G, 0, O); });
      expectCounts(Got, {Inserts + Forks, Inserts - Useful, 1 + Forks},
                   N + G.numDirectedEdges());
    }
}

/// spanningForestLVar at one worker, replayed: its counts, and the edges
/// that reached putMinAt (each reserves two cells).
struct ForestReplay {
  KernelCounts Counts;
  uint64_t Attempts = 0;
};

/// forSpeculative rounds take the (at most 4,096) lowest undecided edges
/// in index order. Each reserve and commit pass is a parallelFor tree at
/// grain 512. At one worker a split runs its right half before its forked
/// left half, so leaves reserve from the highest indices down, ascending
/// within a leaf; a round's keys are below every earlier round's, so each
/// leaf's first reservation of a root lowers its cell and the leaf's later
/// ones are no-op joins. An edge commits (one unite) when it is the
/// lowest of the round to reserve either of its roots.
ForestReplay replayForest(const EdgeList &EL) {
  std::vector<uint32_t> Parent(EL.NumVertices);
  std::iota(Parent.begin(), Parent.end(), 0u);
  auto Find = [&Parent](uint32_t V) {
    while (Parent[V] != V)
      V = Parent[V];
    return V;
  };
  const size_t M = EL.Edges.size();
  std::vector<uint32_t> Prefix;
  size_t Next = 0;
  uint64_t Attempts = 0, Lowered = 0, Commits = 0, Forks = 0;
  while (!Prefix.empty() || Next < M) {
    while (Prefix.size() < 4096 && Next < M)
      Prefix.push_back(static_cast<uint32_t>(Next++));
    std::vector<std::pair<size_t, size_t>> Leaves;
    splitLeaves(0, Prefix.size(), pickGrain(512, Prefix.size()), Leaves);
    Forks += 2 * (Leaves.size() - 1);
    std::vector<std::pair<uint32_t, uint32_t>> Roots(Prefix.size());
    std::map<uint32_t, uint32_t> Holder; // Root -> its lowest reserver.
    for (auto [B, E] : Leaves) {
      std::set<uint32_t> Touched;
      for (size_t I = B; I < E; ++I) {
        Roots[I] = {Find(EL.Edges[Prefix[I]].first),
                    Find(EL.Edges[Prefix[I]].second)};
        if (Roots[I].first == Roots[I].second)
          continue;
        ++Attempts;
        for (uint32_t C : {Roots[I].first, Roots[I].second}) {
          Touched.insert(C);
          Holder.try_emplace(C, Prefix[I]);
        }
      }
      Lowered += Touched.size();
    }
    std::vector<uint32_t> Pending;
    for (size_t I = 0; I < Prefix.size(); ++I) {
      auto [U, V] = Roots[I];
      if (U == V)
        continue;
      if (Holder[U] != Prefix[I] && Holder[V] != Prefix[I]) {
        Pending.push_back(Prefix[I]);
        continue;
      }
      uint32_t RU = Find(U), RV = Find(V);
      Parent[std::max(RU, RV)] = std::min(RU, RV);
      ++Commits;
    }
    Prefix = std::move(Pending);
  }
  return {{2 * Attempts + Commits + Forks, 2 * Attempts - Lowered,
           1 + Forks},
          Attempts};
}

/// Reservation attempts of one spanningForestLVar run: the puts left
/// after one barrier put per fork (tasks - 1) and one unite per forest
/// edge, two per attempt. Exact on any schedule.
uint64_t forestAttempts(const EdgeList &EL, unsigned Workers) {
  SchedulerStats Stats;
  RunOptions O = RunOptions::CollectStats(Stats);
  O.Config.NumWorkers = Workers;
  size_t ForestEdges = 0;
  Counts C = countDuring(
      [&] { ForestEdges = spanningForestLVar(EL, O).size(); });
  return (C.Puts - (Stats.TasksCreated - 1) - ForestEdges) / 2;
}

TEST(ComplexityTest, SpanningForestReservesLinearlyInEdges) {
  for (uint32_t N : {400u, 800u}) {
    SCOPED_TRACE(::testing::Message() << "n=" << N);
    const EdgeList EL = toEdgeList(makeUniformGraph(N, 6, 41));
    ForestReplay Want = replayForest(EL);
    KernelCounts Got =
        oneWorker([&](const RunOptions &O) { spanningForestLVar(EL, O); });
    expectCounts(Got, Want.Counts, N + EL.Edges.size());
  }
  // Inputs that pile a round's reservations onto few roots. Every edge is
  // decided after at most two reservations in all, the same count on
  // every schedule; a rule that commits only edges holding both
  // reservations decides one star or path edge per round instead.
  for (const NamedEdgeList &In : adversarialForests(3000)) {
    SCOPED_TRACE(In.Name);
    ForestReplay Want = replayForest(In.EL);
    KernelCounts Got = oneWorker(
        [&](const RunOptions &O) { spanningForestLVar(In.EL, O); });
    expectCounts(Got, Want.Counts, In.EL.NumVertices + In.EL.Edges.size());
    for (unsigned W : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message() << "workers=" << W);
      const uint64_t Attempts = forestAttempts(In.EL, W);
      EXPECT_EQ(Attempts, Want.Attempts);
      EXPECT_LE(Attempts, 2 * In.EL.Edges.size());
    }
  }
}

//===----------------------------------------------------------------------===//
// Fork-join at one worker: a task per fork, no park and no wake
//===----------------------------------------------------------------------===//

/// lvperf service_mix's sumSquares: leaves of 16, the parent computes its
/// right half and then gets its forked left half.
Par<uint64_t> sumSquares(ParCtx<D> Ctx, uint64_t Lo, uint64_t Hi) {
  if (Hi - Lo <= 16) {
    uint64_t S = 0;
    for (uint64_t I = Lo; I < Hi; ++I)
      S += I * I;
    co_return S;
  }
  uint64_t Mid = Lo + (Hi - Lo) / 2;
  auto Left = newIVar<uint64_t>(Ctx);
  fork(Ctx, [Left, Lo, Mid](ParCtx<D> C) -> Par<void> {
    uint64_t V = co_await sumSquares(C, Lo, Mid);
    put(C, *Left, V);
  });
  uint64_t Right = co_await sumSquares(Ctx, Mid, Hi);
  uint64_t LeftV = co_await get(Ctx, *Left);
  co_return LeftV + Right;
}

TEST(ComplexityTest, OneWorkerForkJoinNeverParks) {
  // Every join's satisfier is still in the worker's own deque when the
  // parent gets, so each get waits lazily and resumes after the
  // satisfier's slice: one task per fork, and no park or wake at all.
  for (uint64_t N : {4096u, 8192u}) {
    SCOPED_TRACE(::testing::Message() << "n=" << N);
    SchedulerStats Stats;
    RunOptions O = RunOptions::CollectStats(Stats);
    O.Config.NumWorkers = 1;
    uint64_t Sum = runPar<D>(
        [N](ParCtx<D> Ctx) -> Par<uint64_t> {
          uint64_t V = co_await sumSquares(Ctx, 0, N);
          co_return V;
        },
        O);
    EXPECT_EQ(Sum, (N - 1) * N * (2 * N - 1) / 6);
    EXPECT_EQ(Stats.TasksCreated, 1 + splitForks(N, 16));
    EXPECT_EQ(Stats.Parks, 0u);
    EXPECT_EQ(Stats.Wakes, 0u);
  }
  for (size_t N : {3000u, 6000u}) {
    SCOPED_TRACE(::testing::Message() << "parallelFor n=" << N);
    SchedulerStats Stats;
    RunOptions O = RunOptions::CollectStats(Stats);
    O.Config.NumWorkers = 1;
    std::vector<std::atomic<uint64_t>> Out(N);
    runPar<D>(
        [N, &Out](ParCtx<D> Ctx) -> Par<void> {
          co_await parallelFor(Ctx, 0, N, 32, [&Out](ParCtx<D>, size_t I) {
            Out[I].store(I * I, std::memory_order_relaxed);
          });
        },
        O);
    for (size_t I = 0; I < N; ++I)
      ASSERT_EQ(Out[I].load(std::memory_order_relaxed), I * I);
    EXPECT_EQ(Stats.TasksCreated, 1 + splitForks(N, 32));
    EXPECT_EQ(Stats.Parks, 0u);
    EXPECT_EQ(Stats.Wakes, 0u);
  }
}

} // namespace
