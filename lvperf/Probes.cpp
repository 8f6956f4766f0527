//===- Probes.cpp - Unit-cost probes of the traced run --------------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each probe times one layer through its public functions, at one worker
/// unless it measures pool start-up itself. A probe's operation is
/// repeated inside one timed batch so that no timed interval is a single
/// microsecond-scale call (the exception is session_idle_us, whose point
/// is a session after an idle gap; it reports the median of many single
/// sessions). Every probe takes the median of ProbeReps batches.
///
//===----------------------------------------------------------------------===//

#include "lvperf/Common.h"

#include "src/core/HandlerPool.h"
#include "src/core/LVish.h"
#include "src/data/Counter.h"
#include "src/data/ISet.h"
#include "src/data/MinMap.h"
#include "src/service/Runtime.h"

#include <chrono>
#include <memory>
#include <thread>

using namespace lvperf;
using namespace lvish;

namespace {

constexpr int ProbeReps = 5;
constexpr EffectSet D = Eff::Det;
constexpr EffectSet Q = Eff::QuasiDet;

/// Runs \p Batch ProbeReps times under a span and returns the median of
/// its per-operation results (each call returns seconds per operation).
template <typename F>
double probe(Tracer &Tr, const char *Layer, const char *Name, F Batch) {
  std::vector<double> V;
  for (int I = 0; I < ProbeReps; ++I) {
    Span S(Tr, Layer, Name);
    V.push_back(Batch());
  }
  return median(V);
}

/// Runs one session on \p RT whose body times \p Ops operations itself and
/// returns nanoseconds per operation. A body that faults or finds a wrong
/// answer yields 0, which runProbes counts as a failed probe.
template <EffectSet E, typename Body>
double timedSession(service::Runtime &RT, uint64_t Ops, Body B) {
  auto Out = RT.runIO<E>([B, Ops](ParCtx<E> Ctx) -> Par<uint64_t> {
    co_return co_await B(Ctx, Ops);
  });
  if (!Out.ok())
    return 0;
  return static_cast<double>(Out.value()) / static_cast<double>(Ops);
}

std::unique_ptr<service::Runtime> oneWorker() {
  service::RuntimeConfig C;
  C.Sched.NumWorkers = 1;
  return std::make_unique<service::Runtime>(C);
}

auto emptySession = [](ParCtx<D>) -> Par<void> { co_return; };

} // namespace

void lvperf::runProbes(Result &Res, Tracer &Tr) {
  auto RT = oneWorker();
  // Every probe measures a positive time; 0 marks a faulted probe session.
  struct {
    Result &R;
    void layer(const std::string &Name, double V, const char *Unit) {
      R.Gate.check(V > 0, "probe " + Name + " failed");
      R.layer(Name, V, Unit);
    }
  } R{Res};

  // --- service -------------------------------------------------------------
  R.layer("service.runtime_start_us",
          1e6 * probe(Tr, "service", "runtime_start", [] {
            constexpr int N = 100;
            service::RuntimeConfig C;
            C.Sched.NumWorkers = hardwareWorkers();
            WallTimer W;
            for (int I = 0; I < N; ++I) {
              service::Runtime Fresh(C);
              (void)Fresh.run<D>(emptySession);
            }
            return W.elapsedSeconds() / N;
          }),
          "us");
  R.layer("service.session_warm_us",
          1e6 * probe(Tr, "service", "session_warm", [&] {
            constexpr int N = 2000;
            WallTimer W;
            for (int I = 0; I < N; ++I)
              (void)RT->run<D>(emptySession);
            return W.elapsedSeconds() / N;
          }),
          "us");
  R.layer("service.session_idle_us",
          1e6 * probe(Tr, "service", "session_idle", [&] {
            constexpr int N = 40;
            std::vector<double> T;
            for (int I = 0; I < N; ++I) {
              // Longer than the workers' idle sleep, so each session
              // starts on a pool that has gone to sleep.
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
              WallTimer W;
              (void)RT->run<D>(emptySession);
              T.push_back(W.elapsedSeconds());
            }
            return median(T);
          }),
          "us");
  R.layer("service.submit_us", 1e6 * probe(Tr, "service", "submit", [&] {
            constexpr int N = 2000;
            std::vector<service::SessionFuture<void>> F;
            F.reserve(N);
            WallTimer W;
            for (int I = 0; I < N; ++I)
              F.push_back(RT->submit<D>(emptySession));
            double T = W.elapsedSeconds() / N;
            RT->awaitIdle();
            for (auto &Fut : F)
              if (!Fut.get().ok())
                return 0.0;
            return T;
          }),
          "us");

  // --- sched ---------------------------------------------------------------
  R.layer("sched.fork_join_ns", probe(Tr, "sched", "fork_join", [&] {
            return timedSession<D>(
                *RT, 20000, [](ParCtx<D> Ctx, uint64_t N) -> Par<uint64_t> {
                  uint64_t Start = nowNanos();
                  for (uint64_t I = 0; I < N; ++I) {
                    auto IV = newIVar<uint64_t>(Ctx);
                    fork(Ctx, [IV, I](ParCtx<D> C) -> Par<void> {
                      put(C, *IV, I);
                      co_return;
                    });
                    uint64_t V = co_await get(Ctx, *IV);
                    if (V != I)
                      co_return 0;
                  }
                  co_return nowNanos() - Start;
                });
          }),
          "ns");

  // --- core ----------------------------------------------------------------
  R.layer("core.ivar_roundtrip_ns", probe(Tr, "core", "ivar_roundtrip", [&] {
            return timedSession<D>(
                *RT, 100000, [](ParCtx<D> Ctx, uint64_t N) -> Par<uint64_t> {
                  uint64_t Start = nowNanos();
                  for (uint64_t I = 0; I < N; ++I) {
                    auto IV = newIVar<uint64_t>(Ctx);
                    put(Ctx, *IV, I);
                    uint64_t V = co_await get(Ctx, *IV);
                    if (V != I)
                      co_return 0;
                  }
                  co_return nowNanos() - Start;
                });
          }),
          "ns");
  // A handler chain: each delta's handler inserts the next element, so
  // every dispatch happens one handler generation deeper (the shape of
  // bfsReach's reachability fixpoint).
  R.layer("core.handler_dispatch_ns", probe(Tr, "core", "handler_dispatch", [&] {
            return timedSession<Q>(
                *RT, 2000, [](ParCtx<Q> Ctx, uint64_t N) -> Par<uint64_t> {
                  uint64_t Start = nowNanos();
                  auto S = newISet<uint64_t>(Ctx);
                  auto Pool = newPool(Ctx);
                  [[maybe_unused]] HandlerHandle H = addHandlerRef(
                      ParCtx<D>(Ctx), Pool, *S,
                      [N](ParCtx<D> C, ISet<uint64_t> &Set,
                          const uint64_t &X) -> Par<void> {
                        if (X + 1 < N)
                          insert(C, Set, X + 1);
                        co_return;
                      });
                  insert(Ctx, *S, uint64_t{0});
                  co_await quiesce(Ctx, Pool);
                  uint64_t T = nowNanos() - Start;
                  co_return freezeSet(Ctx, *S).size() == N ? T : 0;
                });
          }),
          "ns");

  // --- data ----------------------------------------------------------------
  R.layer("data.iset_insert_ns", probe(Tr, "data", "iset_insert", [&] {
            return timedSession<D>(
                *RT, 100000, [](ParCtx<D> Ctx, uint64_t N) -> Par<uint64_t> {
                  auto S = newISet<uint64_t>(Ctx);
                  uint64_t Start = nowNanos();
                  for (uint64_t I = 0; I < N; ++I)
                    insert(Ctx, *S, I);
                  co_return nowNanos() - Start;
                });
          }),
          "ns");
  R.layer("data.iset_insert_dup_ns", probe(Tr, "data", "iset_insert_dup", [&] {
            return timedSession<D>(
                *RT, 100000, [](ParCtx<D> Ctx, uint64_t N) -> Par<uint64_t> {
                  auto S = newISet<uint64_t>(Ctx);
                  for (uint64_t I = 0; I < 1024; ++I)
                    insert(Ctx, *S, I);
                  uint64_t Start = nowNanos();
                  for (uint64_t I = 0; I < N; ++I)
                    insert(Ctx, *S, I % 1024);
                  co_return nowNanos() - Start;
                });
          }),
          "ns");
  // Half fresh keys, half winning decreases of an existing key.
  R.layer("data.minmap_putmin_ns", probe(Tr, "data", "minmap_putmin", [&] {
            return timedSession<D>(
                *RT, 100000, [](ParCtx<D> Ctx, uint64_t N) -> Par<uint64_t> {
                  auto M = newMinMap<uint32_t>(Ctx);
                  uint64_t Start = nowNanos();
                  for (uint64_t I = 0; I < N / 2; ++I)
                    putMin(Ctx, *M, static_cast<uint32_t>(I), N + I);
                  for (uint64_t I = 0; I < N / 2; ++I)
                    putMin(Ctx, *M, static_cast<uint32_t>(I), I);
                  co_return nowNanos() - Start;
                });
          }),
          "ns");
  R.layer("data.counter_bump_ns", probe(Tr, "data", "counter_bump", [&] {
            constexpr EffectSet B = Eff::DetBump;
            return timedSession<B>(
                *RT, 100000, [](ParCtx<B> Ctx, uint64_t N) -> Par<uint64_t> {
                  auto C = newCounterVec(Ctx, 1024);
                  uint64_t Start = nowNanos();
                  for (uint64_t I = 0; I < N; ++I)
                    incrCounterAt(Ctx, *C, I % 1024);
                  co_return nowNanos() - Start;
                });
          }),
          "ns");
  R.layer("data.freeze_set_ns_per_elem", probe(Tr, "data", "freeze_set", [&] {
            return timedSession<Q>(
                *RT, 100000, [](ParCtx<Q> Ctx, uint64_t N) -> Par<uint64_t> {
                  auto S = newISet<uint64_t>(Ctx);
                  for (uint64_t I = 0; I < N; ++I)
                    insert(Ctx, *S, I);
                  uint64_t Start = nowNanos();
                  size_t Size = freezeSet(Ctx, *S).size();
                  uint64_t T = nowNanos() - Start;
                  co_return Size == N ? T : 0;
                });
          }),
          "ns");
}
