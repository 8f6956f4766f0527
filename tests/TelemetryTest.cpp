//===- TelemetryTest.cpp - Telemetry, stats, and JSON tests ----------------===//
//
// Covers the src/obs/ subsystem: SchedulerStats exactness on a single
// worker (where counts are deterministic), per-session stats deltas on a
// shared Runtime, the LVar/session telemetry counters (when compiled in),
// the JSON writer/parser round trip, and the BenchHarness document schema.
// The compiled-out telemetry configuration (LVISH_TELEMETRY=0, exercised
// by the tsan CI stage) asserts the zero-size/no-op contract.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchHarness.h"
#include "src/core/LVish.h"
#include "src/data/Counter.h"
#include "src/data/ISet.h"
#include "src/obs/ChromeTrace.h"
#include "src/obs/Json.h"
#include "src/obs/SchedulerStats.h"
#include "src/obs/Telemetry.h"
#include "src/trans/Memo.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

using namespace lvish;

namespace {

constexpr EffectSet D = Eff::Det;

//===----------------------------------------------------------------------===//
// SchedulerStats
//===----------------------------------------------------------------------===//

TEST(SchedulerStatsTest, SingleWorkerCountsAreExact) {
  constexpr int Forks = 10;
  // The root gets an IVar that one of its forks fills; with \p YieldFirst
  // it then gets a second IVar from a child that yields before its put.
  auto Session = [](bool YieldFirst) {
    SchedulerStats Stats;
    RunOptions Opts = RunOptions::CollectStats(Stats);
    Opts.Config = SchedulerConfig{1};
    int Sum = runPar<D>(
        [YieldFirst](ParCtx<D> Ctx) -> Par<int> {
          auto IV = newIVar<int>(Ctx);
          for (int I = 0; I < Forks; ++I)
            fork(Ctx, [IV, I](ParCtx<D> C) -> Par<void> {
              if (I == 0)
                put(C, *IV, 42);
              co_return;
            });
          int V = co_await get(Ctx, *IV);
          if (YieldFirst) {
            auto Late = newIVar<int>(Ctx);
            fork(Ctx, [Late](ParCtx<D> C) -> Par<void> {
              co_await yield(C);
              put(C, *Late, 1);
            });
            int L = co_await get(Ctx, *Late);
            V += L;
          }
          co_return V;
        },
        Opts);
    EXPECT_EQ(Sum, YieldFirst ? 43 : 42);
    // Root + forks, all executed, none stolen (one worker has no victims
    // to probe).
    EXPECT_EQ(Stats.TasksCreated,
              static_cast<uint64_t>(Forks) + (YieldFirst ? 2 : 1));
    EXPECT_EQ(Stats.TasksExecuted, Stats.TasksCreated);
    EXPECT_EQ(Stats.StealAttempts, 0u);
    EXPECT_EQ(Stats.Steals, 0u);
    EXPECT_EQ(Stats.NumWorkers, 1u);
    EXPECT_GE(Stats.MaxDequeDepth, 1u);
    return Stats;
  };
  // The forks sit in the root's own deque when it gets, so the get waits
  // lazily and the worker resumes it after the filling fork's slice: no
  // park, no wake.
  SchedulerStats ForkJoin = Session(false);
  EXPECT_EQ(ForkJoin.Parks, 0u);
  EXPECT_EQ(ForkJoin.Wakes, 0u);
  // A yielded child goes to the inject queue, outside the deque: the
  // worker publishes the root's wait before it takes the child, so the
  // root parks once and the child's put wakes it once.
  SchedulerStats Yielded = Session(true);
  EXPECT_EQ(Yielded.Parks, 1u);
  EXPECT_EQ(Yielded.Wakes, 1u);
}

TEST(SchedulerStatsTest, PerSessionDeltasOnASharedRuntime) {
  // StatsOut is a per-session DELTA: back-to-back sessions on one shared
  // Runtime each report exactly their own task counts, while the pool's
  // own counters stay cumulative and monotonic.
  service::Runtime RT({.Sched = {.NumWorkers = 2}});
  auto Session = [&](SchedulerStats &Out) {
    service::SessionOptions Opts;
    Opts.StatsOut = &Out;
    RT.run<D>([](ParCtx<D> Ctx) -> Par<void> {
        for (int I = 0; I < 8; ++I)
          fork(Ctx, [](ParCtx<D>) -> Par<void> { co_return; });
        co_return;
      },
      Opts).valueOrAbort();
  };
  SchedulerStats A, B;
  Session(A);
  Session(B);
  // Exact per-session isolation: each delta sees its own root + 8 forks,
  // not the pool history.
  EXPECT_EQ(A.TasksCreated, 9u);
  EXPECT_EQ(B.TasksCreated, 9u);
  EXPECT_EQ(A.TasksExecuted, 9u);
  EXPECT_EQ(B.TasksExecuted, 9u);
  // The pool itself keeps the cumulative view.
  SchedulerStats Pool = RT.scheduler().stats();
  EXPECT_EQ(Pool.TasksCreated, 18u);
  EXPECT_GE(Pool.TasksExecuted, 18u);
}

TEST(SchedulerStatsTest, AccumulateMergesAndMaxes) {
  SchedulerStats A, B;
  A.TasksCreated = 3;
  A.MaxDequeDepth = 7;
  A.NumWorkers = 1;
  B.TasksCreated = 4;
  B.MaxDequeDepth = 2;
  B.NumWorkers = 4;
  A += B;
  EXPECT_EQ(A.TasksCreated, 7u);
  EXPECT_EQ(A.MaxDequeDepth, 7u);
  EXPECT_EQ(A.NumWorkers, 4u);
}

TEST(RunOptionsTest, CollectStatsReportsSessionDelta) {
  SchedulerStats Stats;
  RunOptions Opts = RunOptions::CollectStats(Stats);
  Opts.Config = SchedulerConfig{1};
  int R = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<int> {
        (void)Ctx;
        co_return 7;
      },
      Opts);
  EXPECT_EQ(R, 7);
  EXPECT_EQ(Stats.TasksCreated, 1u);
  EXPECT_EQ(Stats.TasksExecuted, 1u);
}

TEST(RunOptionsTest, RuntimeRunThenFreezeFreezesResult) {
  service::Runtime RT({.Sched = {.NumWorkers = 2}});
  auto Set = RT.runThenFreeze([](ParCtx<D> Ctx) -> Par<
                                  std::shared_ptr<ISet<int>>> {
                 auto S = newISet<int>(Ctx);
                 for (int I = 0; I < 5; ++I)
                   fork(Ctx, [S, I](ParCtx<D> C) -> Par<void> {
                     insert(C, *S, I);
                     co_return;
                   });
                 co_return S;
               })
                 .valueOrAbort();
  EXPECT_TRUE(Set->isFrozen());
  EXPECT_EQ(Set->toSortedVector().size(), 5u);
}

//===----------------------------------------------------------------------===//
// LVar/session telemetry counters
//===----------------------------------------------------------------------===//

#if LVISH_TELEMETRY
TEST(TelemetryTest, PutAndNoOpJoinCountsAreExactSingleWorker) {
  obs::resetTelemetry();
  runPar<D>(
      [](ParCtx<D> Ctx) -> Par<void> {
        auto S = newISet<int>(Ctx);
        for (int I = 0; I < 10; ++I)
          insert(Ctx, *S, I); // 10 fresh puts.
        for (int I = 0; I < 4; ++I)
          insert(Ctx, *S, 3); // 4 no-op re-puts.
        auto IV = newIVar<int>(Ctx);
        put(Ctx, *IV, 1); // 1 fresh put.
        put(Ctx, *IV, 1); // 1 equal re-put: no-op join.
        co_return;
      },
      SchedulerConfig{1});
  obs::TelemetrySnapshot T = obs::telemetrySnapshot();
  EXPECT_EQ(T.count(obs::Event::Puts), 16u);
  EXPECT_EQ(T.count(obs::Event::NoOpJoins), 5u);
}

TEST(TelemetryTest, HandlerAndThresholdWakeupCounts) {
  obs::resetTelemetry();
  runParIO<Eff::FullIO>(
      [](ParCtx<Eff::FullIO> Ctx) -> Par<void> {
        auto S = newISet<int>(Ctx);
        auto Pool = newPool(Ctx);
        auto Ctr = newCounter(Ctx);
        [[maybe_unused]] HandlerHandle H =
            addHandler(Ctx, Pool, *S,
                       [Ctr](ParCtx<Eff::FullIO> C, const int &) -> Par<void> {
                         incrCounter(C, *Ctr);
                         co_return;
                       });
        for (int I = 0; I < 6; ++I)
          insert(Ctx, *S, I);
        co_await quiesce(Ctx, Pool);
        EXPECT_EQ(freezeCounter(Ctx, *Ctr), 6u);
        co_return;
      },
      SchedulerConfig{2});
  obs::TelemetrySnapshot T = obs::telemetrySnapshot();
  // One handler invocation per distinct element.
  EXPECT_EQ(T.count(obs::Event::HandlerInvocations), 6u);
  // Quiescence may or may not have had to wait, but if it waited the
  // latency accumulator must have registered.
  if (T.count(obs::Event::QuiesceWaits) > 0) {
    EXPECT_GT(T.QuiesceWaitNanos, 0u);
  }
}

TEST(TelemetryTest, MemoHitAndMissCounts) {
  obs::resetTelemetry();
  runParIO<Eff::FullIO>(
      [](ParCtx<Eff::FullIO> Ctx) -> Par<void> {
        auto M = makeMemo<int>(
            Ctx, [](ParCtx<Eff::ReadOnly>, int K) -> Par<int> {
              co_return K + 1;
            });
        // Sequential single-worker calls: first of each key misses, the
        // rest hit.
        for (int I = 0; I < 9; ++I) {
          int V = co_await getMemo(Ctx, M, I % 3);
          EXPECT_EQ(V, I % 3 + 1);
        }
        co_return;
      },
      SchedulerConfig{1});
  obs::TelemetrySnapshot T = obs::telemetrySnapshot();
  EXPECT_EQ(T.count(obs::Event::MemoMisses), 3u);
  EXPECT_EQ(T.count(obs::Event::MemoHits), 6u);
}

TEST(TelemetryTest, SessionCountersAndLatencyAccumulate) {
  obs::resetTelemetry();
  {
    service::Runtime RT({.Sched = {.NumWorkers = 2}});
    auto F1 = RT.submit([](ParCtx<D> Ctx) -> Par<int> {
      (void)Ctx;
      co_return 1;
    });
    auto F2 = RT.submit([](ParCtx<D> Ctx) -> Par<int> {
      (void)Ctx;
      co_return 2;
    });
    EXPECT_EQ(F1.get().value() + F2.get().value(), 3);
  }
  obs::TelemetrySnapshot T = obs::telemetrySnapshot();
  EXPECT_EQ(T.count(obs::Event::SessionsSubmitted), 2u);
  EXPECT_EQ(T.count(obs::Event::SessionsCompleted), 2u);
  EXPECT_EQ(T.count(obs::Event::SessionsRejected), 0u);
  // Submit-to-outcome latency summed over both sessions.
  EXPECT_GT(T.SessionLatencyNanos, 0u);
}

/// Constructed before a thread's first count, so destroyed after the
/// thread has handed its counter block back: its count is a late one.
struct CountOnThreadExit {
  ~CountOnThreadExit() { obs::count(obs::Event::MemoMisses); }
};

TEST(TelemetryTest, PerThreadBlocksAreReusedAndExitedCountsStay) {
  // 64 short-lived threads in 4 waves: each later wave claims the blocks
  // the previous one released, and continues from their counts.
  constexpr int Waves = 4, PerWave = 16;
  constexpr uint64_t K = 5000;
  obs::resetTelemetry();
  for (int W = 1; W <= Waves; ++W) {
    std::vector<std::thread> Threads;
    for (int T = 0; T < PerWave; ++T)
      Threads.emplace_back([] {
        thread_local CountOnThreadExit Late;
        for (uint64_t I = 0; I < K; ++I) {
          obs::count(obs::Event::Cancellations);
          obs::count(obs::Event::MemoHits, 2);
        }
      });
    for (std::thread &T : Threads)
      T.join();
    obs::TelemetrySnapshot S = obs::telemetrySnapshot();
    const uint64_t Exited = static_cast<uint64_t>(W) * PerWave;
    EXPECT_EQ(S.count(obs::Event::Cancellations), Exited * K) << "wave " << W;
    EXPECT_EQ(S.count(obs::Event::MemoHits), Exited * 2 * K) << "wave " << W;
    EXPECT_EQ(S.count(obs::Event::MemoMisses), Exited) << "wave " << W;
  }
  obs::resetTelemetry();
  obs::TelemetrySnapshot Z = obs::telemetrySnapshot();
  for (unsigned E = 0; E < obs::NumEvents; ++E)
    EXPECT_EQ(Z.Counts[E], 0u) << obs::eventName(static_cast<obs::Event>(E));
}

#else
// Compiled-out contract: the snapshot is an empty struct, so telemetry
// cannot perturb layout or timing.
static_assert(std::is_empty_v<lvish::obs::TelemetrySnapshot>,
              "disabled telemetry snapshot must be zero-size");

TEST(TelemetryTest, DisabledOpsAreNoOps) {
  obs::count(obs::Event::Puts);
  obs::addQuiesceWaitNanos(5);
  obs::resetTelemetry();
  SUCCEED();
}
#endif

//===----------------------------------------------------------------------===//
// Chrome trace export
//===----------------------------------------------------------------------===//

TEST(ChromeTraceTest, ExportsEverySliceOfATracedRun) {
  service::RuntimeConfig Cfg;
  Cfg.Sched.NumWorkers = 2;
  Cfg.Sched.EnableTracing = true;
  service::Runtime RT(Cfg);
  int Sum = RT.run<D>([](ParCtx<D> Ctx) -> Par<int> {
                constexpr int N = 8;
                std::vector<std::shared_ptr<IVar<int>>> Parts;
                for (int I = 0; I < N; ++I) {
                  auto IV = newIVar<int>(Ctx);
                  Parts.push_back(IV);
                  fork(Ctx, [IV, I](ParCtx<D> C) -> Par<void> {
                    put(C, *IV, I);
                    co_return;
                  });
                }
                int S = 0;
                for (auto &IV : Parts)
                  S += co_await get(Ctx, *IV);
                co_return S;
              })
                .valueOrAbort();
  EXPECT_EQ(Sum, 28);

  const TraceRecorder *Rec = RT.scheduler().trace();
  ASSERT_NE(Rec, nullptr);
  const std::vector<TraceSlice> &Slices = Rec->slices();
  ASSERT_GE(Slices.size(), 9u); // At least one slice per task.
  obs::JsonValue Doc;
  ASSERT_TRUE(obs::JsonValue::parse(obs::chromeTraceJson(Rec), Doc));
  const obs::JsonValue *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  // One complete event per recorded slice, on the slice's task lane.
  ASSERT_EQ(Events->Arr.size(), Slices.size());
  for (size_t I = 0; I < Slices.size(); ++I) {
    const obs::JsonValue &E = Events->Arr[I];
    ASSERT_NE(E.find("ph"), nullptr);
    EXPECT_EQ(E.find("ph")->Str, "X");
    ASSERT_NE(E.find("tid"), nullptr);
    EXPECT_EQ(E.find("tid")->Num, static_cast<double>(Slices[I].Task));
    ASSERT_NE(E.find("ts"), nullptr);
    EXPECT_GE(E.find("ts")->Num, 0.0);
  }
  // The root's first slice runs before any other task exists, so the
  // timeline starts with it, at 0.
  EXPECT_EQ(Events->Arr[0].find("ts")->Num, 0.0);
}

//===----------------------------------------------------------------------===//
// JSON round trip
//===----------------------------------------------------------------------===//

TEST(JsonTest, WriterEscapesAndParserRoundTrips) {
  obs::JsonWriter W;
  W.beginObject();
  W.key("text");
  W.value("a\"b\\c\nd\te\x01f");
  W.key("nums");
  W.beginArray();
  W.value(uint64_t{18446744073709551615ull});
  W.value(0.125);
  W.value(-3.5);
  W.endArray();
  W.key("flag");
  W.value(true);
  W.key("nothing");
  W.null();
  W.endObject();
  std::string Doc = W.take();

  obs::JsonValue V;
  std::string Err;
  ASSERT_TRUE(obs::JsonValue::parse(Doc, V, &Err)) << Err;
  const obs::JsonValue *Text = V.find("text");
  ASSERT_NE(Text, nullptr);
  EXPECT_EQ(Text->Str, "a\"b\\c\nd\te\x01f");
  const obs::JsonValue *Nums = V.find("nums");
  ASSERT_NE(Nums, nullptr);
  ASSERT_EQ(Nums->Arr.size(), 3u);
  EXPECT_DOUBLE_EQ(Nums->Arr[1].Num, 0.125);
  EXPECT_DOUBLE_EQ(Nums->Arr[2].Num, -3.5);
  EXPECT_TRUE(V.find("flag")->BoolV);
  EXPECT_TRUE(V.find("nothing")->isNull());

  // write() -> parse() is a fixpoint.
  std::string Again = V.write();
  obs::JsonValue V2;
  ASSERT_TRUE(obs::JsonValue::parse(Again, V2, &Err)) << Err;
  EXPECT_EQ(V2.write(), Again);
}

TEST(JsonTest, ParserHandlesUnicodeEscapes) {
  obs::JsonValue V;
  // BMP escape and a surrogate pair (U+1F600).
  ASSERT_TRUE(obs::JsonValue::parse(
      R"({"s":"é 😀"})", V));
  const obs::JsonValue *S = V.find("s");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Str, "\xc3\xa9 \xf0\x9f\x98\x80");
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  obs::JsonValue V;
  std::string Err;
  EXPECT_FALSE(obs::JsonValue::parse("{", V, &Err));
  EXPECT_FALSE(obs::JsonValue::parse("{\"a\":}", V, &Err));
  EXPECT_FALSE(obs::JsonValue::parse("[1,]", V, &Err));
  EXPECT_FALSE(obs::JsonValue::parse("tru", V, &Err));
  EXPECT_FALSE(obs::JsonValue::parse("\"unterminated", V, &Err));
}

//===----------------------------------------------------------------------===//
// BenchHarness document
//===----------------------------------------------------------------------===//

TEST(BenchHarnessTest, EmitsSchemaValidDocument) {
  bench::BenchConfig Cfg;
  Cfg.Reps = 3;
  Cfg.Warmup = 0;
  bench::BenchHarness H("unit_test", Cfg);
  H.noteConfig("n", uint64_t{7});
  int Calls = 0;
  H.measure("noop", [&] { ++Calls; }).metric("calls", Calls);
  EXPECT_EQ(Calls, 3);

  service::Runtime RT({.Sched = {.NumWorkers = 1}});
  RT.run<D>([](ParCtx<D> Ctx) -> Par<void> {
      (void)Ctx;
      co_return;
    }).valueOrAbort();
  H.recordStats(RT.scheduler().stats());

  obs::JsonValue Doc;
  std::string Err;
  ASSERT_TRUE(obs::JsonValue::parse(H.toJson(), Doc, &Err)) << Err;
  EXPECT_EQ(Doc.find("schema")->Str, "lvish-bench-v1");
  EXPECT_EQ(Doc.find("name")->Str, "unit_test");
  EXPECT_FALSE(Doc.find("git_rev")->Str.empty());
  const obs::JsonValue *Series = Doc.find("series");
  ASSERT_NE(Series, nullptr);
  ASSERT_EQ(Series->Arr.size(), 1u);
  EXPECT_EQ(Series->Arr[0].find("times_sec")->Arr.size(), 3u);
  EXPECT_EQ(Doc.find("scheduler_stats")->find("tasks_created")->Num, 1.0);
  EXPECT_TRUE(Doc.find("telemetry")->isObject());
}

} // namespace
