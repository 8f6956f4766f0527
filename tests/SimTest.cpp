//===- SimTest.cpp - Parallelism simulator conservation laws ---------------===//
//
// Validates the replay simulator against scheduling theory: P=1 makespan
// equals total work; makespan is bounded below by both span and work/P
// (Brent); more workers never hurt; the bandwidth model caps memory-bound
// speedups at the aggregate factor.
//
//===----------------------------------------------------------------------===//

#include "src/sim/Simulator.h"

#include "src/core/LVish.h"
#include "src/core/ParFor.h"

#include <gtest/gtest.h>

using namespace lvish;
using namespace lvish::sim;

namespace {

constexpr EffectSet D = Eff::Det;

/// Builds a trace by actually running a Par program with tracing on.
template <typename F> TaskGraph record(F Body) {
  service::RuntimeConfig Cfg;
  Cfg.Sched.NumWorkers = 1;
  Cfg.Sched.EnableTracing = true;
  service::Runtime RT(Cfg);
  RT.run<D>(Body).valueOrAbort();
  return TaskGraph::fromTrace(*RT.scheduler().trace());
}

/// CPU-burning helper so slices have measurable durations.
volatile uint64_t BurnSink = 0;
void burn(uint64_t Iters) {
  uint64_t X = 88172645463325252ULL;
  for (uint64_t I = 0; I < Iters; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
  }
  BurnSink = X;
}

/// Sanitizer instrumentation slows every traced sync operation by ~10x,
/// which distorts the recorded work/span ratios the scaling tests assert
/// on. Conservation laws (Brent, monotonicity) still hold and stay enabled.
constexpr bool SanitizerSkewsTiming =
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
    true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

TaskGraph fanOutGraph(int Tasks, uint64_t Iters) {
  return record([Tasks, Iters](ParCtx<D> Ctx) -> Par<void> {
    auto Body = [Iters](ParCtx<D>, size_t) { burn(Iters); };
    co_await parallelFor(Ctx, 0, static_cast<size_t>(Tasks), 1, Body);
  });
}

TEST(Sim, SingleWorkerMakespanEqualsTotalWork) {
  TaskGraph G = fanOutGraph(16, 20000);
  SimResult R = simulate(G, 1);
  double Work = static_cast<double>(G.totalWorkNanos()) * 1e-9;
  EXPECT_NEAR(R.MakespanSeconds, Work, Work * 1e-6);
  EXPECT_NEAR(R.BusySeconds, Work, Work * 1e-6);
}

TEST(Sim, BrentBoundsHold) {
  TaskGraph G = fanOutGraph(32, 15000);
  double Work = static_cast<double>(G.totalWorkNanos()) * 1e-9;
  double Span = static_cast<double>(G.criticalPathNanos()) * 1e-9;
  for (unsigned P : {1u, 2u, 4u, 8u, 16u}) {
    double T = simulate(G, P).MakespanSeconds;
    EXPECT_GE(T * 1.0000001, Span) << "P=" << P;
    EXPECT_GE(T * 1.0000001, Work / P) << "P=" << P;
    EXPECT_LE(T, Work + 1e-9) << "P=" << P;
  }
}

TEST(Sim, MoreWorkersNeverSlower) {
  TaskGraph G = fanOutGraph(24, 10000);
  double Prev = simulate(G, 1).MakespanSeconds;
  for (unsigned P : {2u, 3u, 4u, 8u}) {
    double T = simulate(G, P).MakespanSeconds;
    EXPECT_LE(T, Prev * 1.0000001) << "P=" << P;
    Prev = T;
  }
}

TEST(Sim, EmbarrassinglyParallelScalesNearLinearly) {
  if (SanitizerSkewsTiming)
    GTEST_SKIP() << "sanitizer overhead distorts recorded work/span ratios";
  TaskGraph G = fanOutGraph(64, 30000);
  auto S = speedupSeries(G, {1, 2, 4, 8});
  EXPECT_NEAR(S[0], 1.0, 1e-9);
  EXPECT_GT(S[1], 1.7);
  EXPECT_GT(S[2], 3.0);
  EXPECT_GT(S[3], 4.5);
}

TEST(Sim, SequentialChainDoesNotScale) {
  if (SanitizerSkewsTiming)
    GTEST_SKIP() << "sanitizer overhead distorts recorded work/span ratios";
  // A dependency chain via IVars: span == work, speedup pinned at 1.
  TaskGraph G = record([](ParCtx<D> Ctx) -> Par<void> {
    auto Prev = newIVar<int>(Ctx);
    put(Ctx, *Prev, 0);
    for (int I = 0; I < 10; ++I) {
      auto Next = newIVar<int>(Ctx);
      auto Body = [Prev, Next](ParCtx<D> C) -> Par<void> {
        int V = co_await get(C, *Prev);
        burn(20000);
        put(C, *Next, V + 1);
      };
      fork(Ctx, Body);
      Prev = Next;
    }
    int Last = co_await get(Ctx, *Prev);
    (void)Last;
  });
  double Work = static_cast<double>(G.totalWorkNanos()) * 1e-9;
  double Span = static_cast<double>(G.criticalPathNanos()) * 1e-9;
  EXPECT_GT(Span, Work * 0.9); // The chain dominates.
  auto S = speedupSeries(G, {1, 8});
  EXPECT_LT(S[1], 1.15);
}

TEST(Sim, BandwidthModelCapsMemoryBoundSpeedup) {
  // Synthetic trace: 32 independent fully-memory-bound slices.
  TraceRecorder Rec;
  for (int I = 0; I < 32; ++I) {
    uint32_t T = Rec.onTaskCreated(TraceRecorder::None);
    uint32_t S = Rec.onSliceStart(T);
    // 10 ms measured, and enough bytes that all 10 ms are memory time.
    Rec.onSliceEnd(S, 10'000'000, 100'000'000); // 100 MB at 8 GB/s ~ 12ms.
  }
  TaskGraph G = TaskGraph::fromTrace(Rec);
  MachineModel M;
  M.StreamBandwidth = 1e10; // 10 ms worth of bytes = exactly the duration.
  M.AggregateFactor = 3.0;
  auto S = speedupSeries(G, {1, 2, 4, 8, 16}, M);
  // Speedup must saturate near the aggregate bandwidth factor (3x).
  EXPECT_GT(S[1], 1.8);
  EXPECT_LE(S[3], 3.2);
  EXPECT_LE(S[4], 3.2);
  EXPECT_NEAR(S[4], 3.0, 0.5);
}

TEST(Sim, ComputeBoundIgnoresBandwidthModel) {
  TraceRecorder Rec;
  for (int I = 0; I < 16; ++I) {
    uint32_t T = Rec.onTaskCreated(TraceRecorder::None);
    uint32_t S = Rec.onSliceStart(T);
    Rec.onSliceEnd(S, 10'000'000, 0); // No memory traffic.
  }
  TaskGraph G = TaskGraph::fromTrace(Rec);
  MachineModel M;
  M.AggregateFactor = 1.0; // Even a pessimistic cap must not matter.
  auto S = speedupSeries(G, {1, 8, 16}, M);
  EXPECT_NEAR(S[1], 8.0, 0.01);
  EXPECT_NEAR(S[2], 16.0, 0.01);
}

TEST(Sim, MixedWorkloadLandsBetweenBounds) {
  // Half-memory, half-compute slices: speedup between the bandwidth cap
  // and linear.
  TraceRecorder Rec;
  for (int I = 0; I < 16; ++I) {
    uint32_t T = Rec.onTaskCreated(TraceRecorder::None);
    uint32_t S = Rec.onSliceStart(T);
    Rec.onSliceEnd(S, 10'000'000, 50'000'000); // 5 ms memory at 1e10 B/s.
  }
  TaskGraph G = TaskGraph::fromTrace(Rec);
  MachineModel M;
  M.StreamBandwidth = 1e10;
  M.AggregateFactor = 2.0;
  double S8 = speedupSeries(G, {1, 8}, M)[1];
  // With the overlap model, memory time dominates once stretched, so the
  // mixed workload saturates AT the bandwidth cap (and clearly below
  // linear).
  EXPECT_GE(S8, 2.0 - 1e-9);
  EXPECT_LT(S8, 8.0);
}

TEST(Sim, DeterministicReplay) {
  TaskGraph G = fanOutGraph(20, 5000);
  for (unsigned P : {1u, 3u, 7u}) {
    double A = simulate(G, P).MakespanSeconds;
    double B = simulate(G, P).MakespanSeconds;
    EXPECT_EQ(A, B);
  }
}

TEST(Sim, ForkJoinDagIsAcyclicAndConnected) {
  TaskGraph G = fanOutGraph(8, 1000);
  // criticalPathNanos fatals on cycles; reaching here means acyclic.
  EXPECT_GT(G.criticalPathNanos(), 0u);
  EXPECT_GT(G.numSlices(), 8u);
}

} // namespace
