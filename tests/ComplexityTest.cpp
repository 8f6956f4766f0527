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
//    bfsReach makes one handler invocation per reached vertex. Checked at
//    N and 2N, at 1/2/4 workers and under explored schedules.
//
//===----------------------------------------------------------------------===//

#include "src/core/LVish.h"
#include "src/data/ISet.h"
#include "src/explore/Explorer.h"
#include "src/obs/Telemetry.h"
#include "src/pbbs/Pbbs.h"
#include "src/sched/Scheduler.h"
#include "src/sched/Task.h"
#include "src/trans/Deadlock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
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

/// A ChainLen-deep handler chain at handler effect level \p HE: element
/// X's handler inserts X + 1, so each dispatch runs one handler generation
/// deeper. True when quiesce returned only after every insert and left
/// the pool's scope drained.
template <EffectSet HE>
Par<bool> handlerChain(ParCtx<D> Ctx, ScopeHighWater *HW) {
  auto S = newISet<uint64_t>(Ctx);
  auto Pool = newPool(Ctx);
  [[maybe_unused]] HandlerHandle H = addHandlerRef(
      ParCtx<HE>(Ctx), Pool, *S,
      [HW](ParCtx<HE> C, ISet<uint64_t> &Set, const uint64_t &X) -> Par<void> {
        HW->note();
        if (X + 1 < ChainLen)
          insert(C, Set, X + 1);
        co_return;
      });
  insert(Ctx, *S, uint64_t{0});
  co_await quiesce(Ctx, Pool);
  co_return S->sizeNow() == ChainLen &&
      HW->Calls.load() == ChainLen && Pool->Scope.activeCount() == 0;
}

template <EffectSet HE> void expectBoundedChain(const char *Path) {
  for (unsigned W : WorkerCounts) {
    SCOPED_TRACE(::testing::Message() << Path << " workers=" << W);
    {
      // A bare pool: the one distinct scope.
      ScopeHighWater HW;
      bool Ok = runPar<D>(
          [&HW](ParCtx<D> Ctx) -> Par<bool> {
            bool R = co_await handlerChain<HE>(Ctx, &HW);
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
              bool R = co_await handlerChain<HE>(C, &HW);
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
  expectBoundedChain<Eff::Det>("task-per-delta");
}

TEST(ScopeListTest, BatchedHandlerChainStaysBounded) {
  expectBoundedChain<Eff::WriteOnly>("batched");
}

//===----------------------------------------------------------------------===//
// Exact event counts
//===----------------------------------------------------------------------===//

struct Counts {
  uint64_t Puts = 0;
  uint64_t NoOpJoins = 0;
  uint64_t HandlerInvocations = 0;
};

/// The telemetry delta across \p Run. The telemetry-off snapshot has no
/// count(), and a discarded `if constexpr` branch outside a template is
/// still checked, so this needs the preprocessor; the tests below skip
/// before calling it when telemetry is off.
Counts countDuring(const std::function<void()> &Run) {
#if LVISH_TELEMETRY
  obs::TelemetrySnapshot Before = obs::telemetrySnapshot();
  Run();
  obs::TelemetrySnapshot After = obs::telemetrySnapshot();
  auto Delta = [&](obs::Event E) { return After.count(E) - Before.count(E); };
  return Counts{Delta(obs::Event::Puts), Delta(obs::Event::NoOpJoins),
                Delta(obs::Event::HandlerInvocations)};
#else
  Run();
  return Counts{};
#endif
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
  if constexpr (!obs::TelemetryEnabled)
    GTEST_SKIP() << "telemetry compiled out";
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
  if constexpr (!obs::TelemetryEnabled)
    GTEST_SKIP() << "telemetry compiled out";
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

} // namespace
