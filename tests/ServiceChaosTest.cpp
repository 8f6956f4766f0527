//===- ServiceChaosTest.cpp - Seeded chaos against the service runtime -----===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service chaos harness (src/fault/ServiceChaos.h) pointed at a live
/// Runtime: seeded mid-flight session dooms, admission delay injection,
/// and the worker stall shim - all at once. The timing of each attack is
/// deliberately non-deterministic, so every assertion here is
/// schedule-INDEPENDENT:
///
///   * a session the plan did not doom completes with EXACTLY its
///     sequential value - faulted and shed tenants never corrupt a
///     neighbor;
///   * a doomed session's outcome is well-formed either way the race
///     lands: its exact value (it finished before the doom arrived - the
///     documented benign race) or an InjectedFailure tagged with its OWN
///     session id;
///   * under admission pressure every future resolves with ok / Shed /
///     DeadlineExceeded and nothing else, and drain() racing a doomed
///     sweep still finishes every active session.
///
/// The ci.sh `chaos` stage reruns this binary under ThreadSanitizer: the
/// doom-delivery thread vs. finalizing worker vs. admission interleavings
/// are exactly where a race would hide.
///
//===----------------------------------------------------------------------===//

#include "src/core/LVish.h"
#include "src/fault/ServiceChaos.h"
#include "src/service/Runtime.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

using namespace lvish;

namespace {

constexpr EffectSet D = Eff::Det;

uint64_t sumSquaresSeq(uint64_t Lo, uint64_t Hi) {
  uint64_t S = 0;
  for (uint64_t I = Lo; I < Hi; ++I)
    S += I * I;
  return S;
}

Par<uint64_t> sumSquares(ParCtx<D> Ctx, uint64_t Lo, uint64_t Hi) {
  if (Hi - Lo <= 8) {
    co_return sumSquaresSeq(Lo, Hi);
  }
  uint64_t Mid = Lo + (Hi - Lo) / 2;
  auto Left = newIVar<uint64_t>(Ctx);
  fork(Ctx, [Left, Lo, Mid](ParCtx<D> C) -> Par<void> {
    uint64_t V = co_await sumSquares(C, Lo, Mid);
    put(C, *Left, V);
  });
  uint64_t Right = co_await sumSquares(Ctx, Mid, Hi);
  co_return co_await get(Ctx, *Left) + Right;
}

/// Session workload size for submission \p I: big enough that dooms have
/// a real window to land mid-flight, small enough to keep the sweep fast.
uint64_t workOf(uint64_t I) { return 300 + 7 * I; }

TEST(ServiceChaos, DoomedTenantsNeverPerturbNeighbors) {
  constexpr uint64_t N = 32;
  for (uint64_t Seed : {7u, 20140609u}) {
    service::Runtime RT({.Sched = {.NumWorkers = 4}});
    fault::ServiceChaosPlan Plan;
    Plan.Seed = Seed;
    Plan.DoomPeriod = 4;          // ~1 in 4 sessions doomed.
    Plan.AdmitDelayPeriod = 5;    // ~1 in 5 submissions jittered.
    Plan.StallDelayPeriod = 13;   // Worker stutter.
    fault::ServiceChaos Chaos(RT.scheduler(), Plan);
    // The stall shim perturbs interleavings, never outcomes.
    fault::PlanScope Stalls(Chaos.stallPlan());

    std::vector<service::SessionFuture<uint64_t>> Futures;
    uint64_t DoomedCount = 0;
    for (uint64_t I = 0; I < N; ++I) {
      Chaos.maybeDelayAdmission(I);
      Futures.push_back(RT.submit<D>([I](ParCtx<D> Ctx) -> Par<uint64_t> {
        co_return co_await sumSquares(Ctx, 0, workOf(I));
      }));
      if (Chaos.doomed(I)) {
        ++DoomedCount;
        Chaos.armDoom(Futures.back().sessionId(), I);
      }
    }
    ASSERT_GT(DoomedCount, 0u) << "seed " << Seed
                               << " must doom someone or the test is vacuous";
    ASSERT_LT(DoomedCount, N) << "and must spare someone";
    Chaos.drainDooms();
    EXPECT_EQ(Chaos.doomsDelivered(), DoomedCount);

    for (uint64_t I = 0; I < N; ++I) {
      auto O = Futures[I].get();
      if (!Chaos.doomed(I)) {
        // The core isolation claim: neighbors are bit-exact, always.
        ASSERT_TRUE(O.ok()) << "seed " << Seed << ": undoomed session " << I
                            << " infected by chaos: " << O.fault().Message;
        EXPECT_EQ(O.value(), sumSquaresSeq(0, workOf(I)));
      } else if (O.ok()) {
        // Benign race: the session finished before its doom arrived. Its
        // value must still be exact - a late fault never corrupts it.
        EXPECT_EQ(O.value(), sumSquaresSeq(0, workOf(I)))
            << "seed " << Seed << ": doomed session " << I
            << " survived with a WRONG value";
      } else {
        EXPECT_EQ(O.fault().Code, FaultCode::InjectedFailure)
            << "seed " << Seed << ": " << O.fault().Message;
        EXPECT_EQ(O.fault().SessionId, Futures[I].sessionId())
            << "a doom must land on its own session";
      }
    }
    // The pool survives the whole campaign.
    auto After = RT.run<D>([](ParCtx<D> Ctx) -> Par<uint64_t> {
      co_return co_await sumSquares(Ctx, 0, 100);
    });
    ASSERT_TRUE(After.ok()) << After.fault().Message;
    EXPECT_EQ(After.value(), sumSquaresSeq(0, 100));
  }
}

TEST(ServiceChaos, AdmissionPressureResolvesEveryFutureWellFormed) {
  // Chaos jitter against a deliberately undersized admission pipeline:
  // outcomes may be ok, Shed, or DeadlineExceeded - never anything else,
  // never a hang, and every ok value is exact.
  constexpr uint64_t N = 40;
  service::RuntimeConfig RC;
  RC.Sched.NumWorkers = 4;
  RC.MaxActiveSessions = 2;
  RC.MaxQueuedSessions = 3;
  RC.SubmitDeadlineNanos = 3'000'000; // 3 ms
  service::Runtime RT(RC);
  fault::ServiceChaosPlan Plan;
  Plan.Seed = 99;
  Plan.AdmitDelayPeriod = 3;
  Plan.AdmitDelayNanos = 100'000;
  fault::ServiceChaos Chaos(RT.scheduler(), Plan);

  std::vector<service::SessionFuture<uint64_t>> Futures;
  for (uint64_t I = 0; I < N; ++I) {
    Chaos.maybeDelayAdmission(I);
    Futures.push_back(RT.submit<D>([I](ParCtx<D> Ctx) -> Par<uint64_t> {
      co_return co_await sumSquares(Ctx, 0, 64 + I);
    }));
  }
  uint64_t Completed = 0, Refused = 0;
  for (uint64_t I = 0; I < N; ++I) {
    auto O = Futures[I].get();
    if (O.ok()) {
      ++Completed;
      EXPECT_EQ(O.value(), sumSquaresSeq(0, 64 + I)) << "session " << I;
    } else {
      ++Refused;
      EXPECT_TRUE(O.fault().Code == FaultCode::Shed ||
                  O.fault().Code == FaultCode::DeadlineExceeded)
          << "session " << I << ": " << O.fault().Message;
    }
  }
  EXPECT_EQ(Completed + Refused, N);
  EXPECT_GT(Completed, 0u) << "the pipeline must admit someone";
}

TEST(ServiceChaos, DrainRacesDoomedSweepToAWellFormedStop) {
  service::Runtime RT({.Sched = {.NumWorkers = 4}});
  fault::ServiceChaosPlan Plan;
  Plan.Seed = 5;
  Plan.DoomPeriod = 3;
  Plan.DoomDelayMaxNanos = 500'000;
  fault::ServiceChaos Chaos(RT.scheduler(), Plan);

  constexpr uint64_t N = 16;
  std::vector<service::SessionFuture<uint64_t>> Futures;
  for (uint64_t I = 0; I < N; ++I) {
    Futures.push_back(RT.submit<D>([I](ParCtx<D> Ctx) -> Par<uint64_t> {
      co_return co_await sumSquares(Ctx, 0, workOf(I));
    }));
    if (Chaos.doomed(I))
      Chaos.armDoom(Futures.back().sessionId(), I);
  }
  // Drain while dooms are still in flight: active sessions must all be
  // finalized (value or injected fault), nothing may hang.
  RT.drain();
  for (uint64_t I = 0; I < N; ++I) {
    ASSERT_TRUE(Futures[I].ready())
        << "drain() returned with session " << I << " unresolved";
    auto O = Futures[I].get();
    if (O.ok())
      EXPECT_EQ(O.value(), sumSquaresSeq(0, workOf(I))) << "session " << I;
    else
      EXPECT_EQ(O.fault().Code, FaultCode::InjectedFailure)
          << "session " << I << ": " << O.fault().Message;
  }
  Chaos.drainDooms();
}

TEST(ServiceChaos, DecisionsArePureFunctionsOfSeedAndIndex) {
  Scheduler Sched({.NumWorkers = 1});
  fault::ServiceChaosPlan Plan;
  Plan.Seed = 1234;
  Plan.DoomPeriod = 4;
  Plan.AdmitDelayPeriod = 5;
  fault::ServiceChaos A(Sched, Plan);
  fault::ServiceChaos B(Sched, Plan);
  std::set<uint64_t> Doomed;
  for (uint64_t I = 0; I < 64; ++I) {
    EXPECT_EQ(A.doomed(I), B.doomed(I)) << I;
    EXPECT_EQ(A.admitDelayNanos(I), B.admitDelayNanos(I)) << I;
    if (A.doomed(I))
      Doomed.insert(I);
  }
  EXPECT_GT(Doomed.size(), 0u);
  EXPECT_LT(Doomed.size(), 64u);
  // A different seed picks a different doom set (overwhelmingly likely
  // for a 64-draw sample of a 1-in-4 hash).
  Plan.Seed = 4321;
  fault::ServiceChaos C(Sched, Plan);
  std::set<uint64_t> Doomed2;
  for (uint64_t I = 0; I < 64; ++I)
    if (C.doomed(I))
      Doomed2.insert(I);
  EXPECT_NE(Doomed, Doomed2);
}

} // namespace
