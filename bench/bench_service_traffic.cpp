//===- bench_service_traffic.cpp - Open-loop multi-tenant traffic ----------===//
//
// The ROADMAP's "service handling traffic" shape, measured end to end: one
// long-lived service::Runtime absorbing an open-loop stream of session
// submissions. Arrivals follow a seeded exponential (Poisson) process -
// they do NOT wait for completions, so queueing delay under admission
// control shows up in the latency tail exactly as it would in a real
// service. Session bodies are a seeded mix of shapes (fork-join compute,
// IVar chatter, ISet fan-out) so concurrent tenants stress the shared
// waiter table, the per-session inject queues, and the workers that
// finalize async sessions at once.
//
// Reported per rep: wall time and completed-sessions-per-second; across
// all reps: the per-session submit-to-outcome latency distribution
// (median_sec of the `session_latency` series IS p50; p99/max attached as
// metrics). `--json` + tools/bench-report diff this against
// bench/baselines/service_traffic.json.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchHarness.h"
#include "src/core/LVish.h"
#include "src/data/ISet.h"
#include "src/service/Runtime.h"
#include "src/support/SplitMix.h"
#include "src/support/Timer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

using namespace lvish;

namespace {

constexpr EffectSet D = Eff::Det;

volatile uint64_t Sink; // Defeats dead-code elimination of results.

/// Fork-join sum of I*I over [0, N): the compute-shaped tenant.
Par<uint64_t> sumSquares(ParCtx<D> Ctx, uint64_t Lo, uint64_t Hi) {
  if (Hi - Lo <= 16) {
    uint64_t S = 0;
    for (uint64_t I = Lo; I < Hi; ++I)
      S += I * I;
    co_return S;
  }
  uint64_t Mid = Lo + (Hi - Lo) / 2;
  auto Left = newIVar<uint64_t>(Ctx);
  auto LeftBody = [Left, Lo, Mid](ParCtx<D> C) -> Par<void> {
    uint64_t V = co_await sumSquares(C, Lo, Mid);
    put(C, *Left, V);
  };
  fork(Ctx, LeftBody);
  uint64_t Right = co_await sumSquares(Ctx, Mid, Hi);
  uint64_t LeftV = co_await get(Ctx, *Left);
  co_return LeftV + Right;
}

/// IVar chain: K sequential put/get round trips (latency-shaped tenant).
Par<uint64_t> ivarChain(ParCtx<D> Ctx, uint64_t K) {
  uint64_t Acc = 0;
  for (uint64_t I = 0; I < K; ++I) {
    auto IV = newIVar<uint64_t>(Ctx);
    put(Ctx, *IV, I);
    Acc += co_await get(Ctx, *IV);
  }
  co_return Acc;
}

/// ISet fan-out: forked writers + a size threshold (wake-shaped tenant).
Par<uint64_t> isetFanOut(ParCtx<D> Ctx, uint64_t Elems) {
  auto S = newISet<uint64_t>(Ctx);
  const uint64_t Writers = 4;
  for (uint64_t W = 0; W < Writers; ++W) {
    auto Writer = [S, W, Elems](ParCtx<D> C) -> Par<void> {
      for (uint64_t I = W; I < Elems; I += Writers)
        insert(C, *S, I);
      co_return;
    };
    fork(Ctx, Writer);
  }
  co_await waitSize(Ctx, *S, Elems);
  co_return Elems;
}

/// Nanosecond p-quantile of an (unsorted) latency sample, in seconds.
double quantileSec(std::vector<uint64_t> Nanos, double P) {
  if (Nanos.empty())
    return 0;
  std::sort(Nanos.begin(), Nanos.end());
  size_t At = static_cast<size_t>(
      std::min<double>(static_cast<double>(Nanos.size() - 1),
                       P * static_cast<double>(Nanos.size())));
  return static_cast<double>(Nanos[At]) * 1e-9;
}

} // namespace

int main(int argc, char **argv) {
  bench::BenchHarness H("service_traffic",
                        bench::BenchConfig::fromArgs(argc, argv));
  const uint64_t Sessions = H.config().pick<uint64_t>(400, 48);
  const unsigned Workers = 4;
  const unsigned MaxActive = 8;
  // Mean interarrival gap. Deliberately shorter than the mean service
  // time so the runtime sees sustained multi-tenant pressure: the
  // admission window (MaxActive concurrent sessions) stays full and the
  // FIFO queue is regularly nonempty.
  const uint64_t MeanGapNanos = H.config().pick<uint64_t>(60'000, 20'000);
  const uint64_t Seed = 20140609;
  H.noteConfig("sessions_per_rep", Sessions);
  H.noteConfig("workers", uint64_t{Workers});
  H.noteConfig("max_active_sessions", uint64_t{MaxActive});
  H.noteConfig("mean_interarrival_nanos", MeanGapNanos);
  H.noteConfig("arrival_seed", Seed);

  service::Runtime RT(
      {.Sched = {.NumWorkers = Workers}, .MaxActiveSessions = MaxActive});

  std::vector<double> WallSec;
  std::vector<uint64_t> LatNanos;
  double ThroughputSum = 0;
  const int Rounds = H.config().Warmup + H.config().Reps;
  for (int Round = 0; Round < Rounds; ++Round) {
    const bool Recorded = Round >= H.config().Warmup;
    // The arrival schedule is a pure function of (seed, rep): exponential
    // gaps via inverse-CDF over the SplitMix64 stream.
    SplitMix64 Rng(Seed + static_cast<uint64_t>(Round) * 0x9e37ULL);
    std::vector<service::SessionFuture<uint64_t>> Futures;
    Futures.reserve(Sessions);
    WallTimer T;
    uint64_t NextArrival = 0;
    for (uint64_t N = 0; N < Sessions; ++N) {
      double U = Rng.nextDouble();
      NextArrival += static_cast<uint64_t>(
          -std::log(1.0 - U) * static_cast<double>(MeanGapNanos));
      // Open loop: pace by the schedule, never by completions.
      while (T.elapsedNanos() < NextArrival)
        std::this_thread::sleep_for(std::chrono::microseconds(5));
      switch (Rng.nextBounded(3)) {
      case 0:
        Futures.push_back(
            RT.submit<D>([](ParCtx<D> Ctx) -> Par<uint64_t> {
              co_return co_await sumSquares(Ctx, 0, 4096);
            }));
        break;
      case 1:
        Futures.push_back(RT.submit<D>(
            [](ParCtx<D> Ctx) -> Par<uint64_t> {
              co_return co_await ivarChain(Ctx, 64);
            }));
        break;
      default:
        Futures.push_back(RT.submit<D>(
            [](ParCtx<D> Ctx) -> Par<uint64_t> {
              co_return co_await isetFanOut(Ctx, 256);
            }));
        break;
      }
    }
    RT.awaitIdle();
    double Elapsed = T.elapsedSeconds();
    uint64_t Ok = 0;
    for (auto &F : Futures) {
      uint64_t L = F.latencyNanos();
      auto O = F.get();
      if (O.ok()) {
        ++Ok;
        Sink = O.value();
      }
      if (Recorded)
        LatNanos.push_back(L);
    }
    if (Ok != Sessions)
      std::fprintf(stderr, "ERROR: %llu of %llu sessions failed\n",
                   static_cast<unsigned long long>(Sessions - Ok),
                   static_cast<unsigned long long>(Sessions));
    if (Recorded) {
      WallSec.push_back(Elapsed);
      ThroughputSum += static_cast<double>(Sessions) / Elapsed;
    }
  }

  bench::Series &SW = H.addSeries("traffic_wall", WallSec);
  SW.config("sessions", Sessions);
  SW.config("workers", uint64_t{Workers});
  SW.metric("throughput_sessions_per_sec",
            ThroughputSum / static_cast<double>(H.config().Reps));

  // One entry per completed session across every recorded rep; the
  // series' median_sec is the p50 the service-latency SLO would quote.
  std::vector<double> LatSec;
  LatSec.reserve(LatNanos.size());
  for (uint64_t L : LatNanos)
    LatSec.push_back(static_cast<double>(L) * 1e-9);
  bench::Series &SL = H.addSeries("session_latency", LatSec);
  SL.config("samples", static_cast<uint64_t>(LatSec.size()));
  SL.metric("p50_sec", quantileSec(LatNanos, 0.50));
  SL.metric("p99_sec", quantileSec(LatNanos, 0.99));
  SL.metric("max_sec", quantileSec(LatNanos, 1.0));

  // --- Overload phase ------------------------------------------------------
  // A deliberately undersized admission pipeline (small MaxActive, bounded
  // queue, tight deadline) hit with a full-speed burst: what the
  // robustness layer (DESIGN.md Section 16) is FOR. Reported: how fast
  // the runtime disposes of the burst, how the refusals split between
  // Shed and DeadlineExceeded, and the latency of the sessions that did
  // complete. Refusal counts are load-dependent (they measure real wall
  // time), so bench-report treats their drift as informational.
  const uint64_t Burst = H.config().pick<uint64_t>(600, 64);
  const unsigned OvActive = 4;
  const unsigned OvQueued = 16;
  const uint64_t OvDeadlineNanos = 2'000'000; // 2 ms
  H.noteConfig("overload_burst", Burst);
  H.noteConfig("overload_max_active", uint64_t{OvActive});
  H.noteConfig("overload_max_queued", uint64_t{OvQueued});
  H.noteConfig("overload_deadline_nanos", OvDeadlineNanos);

  service::RuntimeConfig ORC;
  ORC.Sched.NumWorkers = Workers;
  ORC.MaxActiveSessions = OvActive;
  ORC.MaxQueuedSessions = OvQueued;
  ORC.SubmitDeadlineNanos = OvDeadlineNanos;
  service::Runtime ORT(ORC);

  std::vector<double> OvWall;
  std::vector<uint64_t> OvLatNanos;
  uint64_t OvOk = 0, OvShed = 0, OvDeadline = 0;
  for (int Round = 0; Round < Rounds; ++Round) {
    const bool Recorded = Round >= H.config().Warmup;
    std::vector<service::SessionFuture<uint64_t>> Futures;
    Futures.reserve(Burst);
    WallTimer T;
    // No pacing: the burst arrives as fast as submit() returns.
    for (uint64_t N = 0; N < Burst; ++N)
      Futures.push_back(ORT.submit<D>([](ParCtx<D> Ctx) -> Par<uint64_t> {
        co_return co_await sumSquares(Ctx, 0, 2048);
      }));
    ORT.awaitIdle();
    double Elapsed = T.elapsedSeconds();
    for (auto &F : Futures) {
      uint64_t L = F.latencyNanos();
      auto O = F.get();
      if (!Recorded)
        continue;
      if (O.ok()) {
        ++OvOk;
        Sink = O.value();
        OvLatNanos.push_back(L);
      } else if (O.fault().Code == FaultCode::Shed) {
        ++OvShed;
      } else if (O.fault().Code == FaultCode::DeadlineExceeded) {
        ++OvDeadline;
      }
    }
    if (Recorded)
      OvWall.push_back(Elapsed);
  }

  const double RecordedReps = static_cast<double>(H.config().Reps);
  bench::Series &SO = H.addSeries("overload_wall", OvWall);
  SO.config("burst", Burst);
  SO.config("max_active", uint64_t{OvActive});
  SO.config("max_queued", uint64_t{OvQueued});
  SO.metric("completed_per_rep", static_cast<double>(OvOk) / RecordedReps);
  SO.metric("shed_per_rep", static_cast<double>(OvShed) / RecordedReps);
  SO.metric("deadline_per_rep",
            static_cast<double>(OvDeadline) / RecordedReps);

  std::vector<double> OvLatSec;
  OvLatSec.reserve(OvLatNanos.size());
  for (uint64_t L : OvLatNanos)
    OvLatSec.push_back(static_cast<double>(L) * 1e-9);
  bench::Series &SOL = H.addSeries("overload_latency", OvLatSec);
  SOL.config("samples", static_cast<uint64_t>(OvLatSec.size()));
  SOL.metric("p50_sec", quantileSec(OvLatNanos, 0.50));
  SOL.metric("p99_sec", quantileSec(OvLatNanos, 0.99));

  H.recordStats(RT.scheduler().stats());
  return H.finish();
}
