//===- ServiceRobustnessTest.cpp - Budgets, deadlines, shed, drain ---------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service robustness layer (DESIGN.md Section 16), checked the way
/// FaultOutcomeTest checks the core fault codes: every refusal and kill
/// resolves with EXACTLY its own FaultCode - at 1 worker and at 4 -
/// and the codes stay distinguishable from each other:
///
///   * BudgetExceeded    - deterministic per-session step budget, counted
///                         in scheduler decisions, enforced in the hot
///                         loop, tagged with the session's own id.
///   * DeadlineExceeded  - a blocking run() that outwaits
///                         SubmitDeadlineNanos, and a queued submission
///                         that expires before a slot frees.
///   * Shed              - a submission past MaxQueuedSessions, refused
///                         at admission before any work runs.
///   * RuntimeStopping   - drain() rejects the queue and all later
///                         submissions; in-flight sessions still finish.
///
/// Plus the caller-side RetryPolicy: seeded-jitter backoff is a pure
/// function of (Seed, attempt), and submitWithRetry retries exactly the
/// transient admission refusals.
///
//===----------------------------------------------------------------------===//

#include "src/core/LVish.h"
#include "src/obs/Telemetry.h"
#include "src/service/RetryPolicy.h"
#include "src/service/Runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

using namespace lvish;

namespace {

constexpr EffectSet D = Eff::Det;
constexpr EffectSet IOE = Eff::FullIO;

/// Worker counts every scenario is exercised at, FaultOutcomeTest-style:
/// 1 pins the sequential semantics, 4 shakes out races in the same path.
constexpr unsigned WorkerCounts[] = {1, 4};

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

/// A session that never finishes on its own: it must be stopped by its
/// step budget (or it would spin forever re-queuing itself).
Par<int> yieldForever(ParCtx<IOE> Ctx) {
  for (uint64_t I = 0; I < ~uint64_t(0); ++I)
    co_await yield(Ctx);
  co_return -1;
}

//===----------------------------------------------------------------------===//
// BudgetExceeded
//===----------------------------------------------------------------------===//

TEST(ServiceRobustness, StepBudgetKillsRunawaySession) {
  for (unsigned W : WorkerCounts) {
    service::Runtime RT({.Sched = {.NumWorkers = W}});
    service::SessionOptions Opts;
    Opts.MaxSteps = 64;
    auto O = RT.runIO<IOE>(yieldForever, Opts);
    ASSERT_FALSE(O.ok()) << "workers=" << W;
    EXPECT_EQ(O.fault().Code, FaultCode::BudgetExceeded) << "workers=" << W;
    EXPECT_NE(O.fault().Message.find("budget_exceeded"), std::string::npos)
        << O.fault().Message;
    EXPECT_NE(O.fault().Message.find(std::to_string(Opts.MaxSteps)),
              std::string::npos)
        << "the message must name the budget: " << O.fault().Message;
  }
}

TEST(ServiceRobustness, BudgetFaultTaggedWithOwnSessionOnSharedPool) {
  for (unsigned W : WorkerCounts) {
    service::Runtime RT({.Sched = {.NumWorkers = W}});
    service::SessionOptions Opts;
    Opts.MaxSteps = 64;
    auto Doomed = RT.submitIO<IOE>(yieldForever, Opts);
    // Unbudgeted neighbors on the same pool must be untouched.
    std::vector<service::SessionFuture<uint64_t>> Good;
    for (int I = 0; I < 4; ++I)
      Good.push_back(RT.submit<D>([I](ParCtx<D> Ctx) -> Par<uint64_t> {
        co_return co_await sumSquares(Ctx, 0, 100 + uint64_t(I));
      }));
    auto O = Doomed.get();
    ASSERT_FALSE(O.ok()) << "workers=" << W;
    EXPECT_EQ(O.fault().Code, FaultCode::BudgetExceeded);
    EXPECT_EQ(O.fault().SessionId, Doomed.sessionId())
        << "the budget kill must carry the doomed session's own id";
    for (int I = 0; I < 4; ++I) {
      auto G = Good[I].get();
      ASSERT_TRUE(G.ok()) << "workers=" << W << " neighbor " << I << ": "
                          << G.fault().Message;
      EXPECT_EQ(G.value(), sumSquaresSeq(0, 100 + uint64_t(I)));
    }
  }
}

TEST(ServiceRobustness, GenerousBudgetDoesNotPerturbResults) {
  for (unsigned W : WorkerCounts) {
    service::Runtime RT({.Sched = {.NumWorkers = W}});
    service::SessionOptions Opts;
    Opts.MaxSteps = 1'000'000; // Far above what the tree needs.
    auto O = RT.run<D>(
        [](ParCtx<D> Ctx) -> Par<uint64_t> {
          co_return co_await sumSquares(Ctx, 0, 300);
        },
        Opts);
    ASSERT_TRUE(O.ok()) << "workers=" << W << ": " << O.fault().Message;
    EXPECT_EQ(O.value(), sumSquaresSeq(0, 300));
  }
}

TEST(ServiceRobustness, DefaultSessionBudgetAppliesWhenUnset) {
  service::RuntimeConfig RC;
  RC.Sched.NumWorkers = 2;
  RC.DefaultSessionBudget = 64;
  service::Runtime RT(RC);
  // No per-session MaxSteps: the config default governs.
  auto O = RT.runIO<IOE>(yieldForever);
  ASSERT_FALSE(O.ok());
  EXPECT_EQ(O.fault().Code, FaultCode::BudgetExceeded);
  // An explicit per-session budget overrides the default upward.
  service::SessionOptions Opts;
  Opts.MaxSteps = 1'000'000;
  auto O2 = RT.run<D>(
      [](ParCtx<D> Ctx) -> Par<uint64_t> {
        co_return co_await sumSquares(Ctx, 0, 300);
      },
      Opts);
  ASSERT_TRUE(O2.ok()) << O2.fault().Message;
  EXPECT_EQ(O2.value(), sumSquaresSeq(0, 300));
}

//===----------------------------------------------------------------------===//
// DeadlineExceeded
//===----------------------------------------------------------------------===//

TEST(ServiceRobustness, BlockingRunHonorsSubmitDeadline) {
  for (unsigned W : WorkerCounts) {
    service::RuntimeConfig RC;
    RC.Sched.NumWorkers = W;
    RC.MaxActiveSessions = 1;
    RC.SubmitDeadlineNanos = 2'000'000; // 2 ms
    service::Runtime RT(RC);
    std::atomic<bool> Release{false};
    auto Occupant = RT.submitIO<IOE>([&](ParCtx<IOE> Ctx) -> Par<int> {
      while (!Release.load(std::memory_order_acquire))
        co_await yield(Ctx);
      co_return 7;
    });
    // The single slot is held: a blocking run() must give up after the
    // deadline instead of waiting forever.
    auto O = RT.run<D>(
        [](ParCtx<D> Ctx) -> Par<uint64_t> { co_return 1; });
    ASSERT_FALSE(O.ok()) << "workers=" << W;
    EXPECT_EQ(O.fault().Code, FaultCode::DeadlineExceeded) << "workers=" << W;
    EXPECT_NE(O.fault().Message.find("deadline_exceeded"), std::string::npos)
        << O.fault().Message;
    Release.store(true, std::memory_order_release);
    auto OO = Occupant.get();
    ASSERT_TRUE(OO.ok()) << OO.fault().Message;
    EXPECT_EQ(OO.value(), 7);
  }
}

TEST(ServiceRobustness, QueuedSubmissionExpiresPastDeadline) {
  for (unsigned W : WorkerCounts) {
    service::RuntimeConfig RC;
    RC.Sched.NumWorkers = W;
    RC.MaxActiveSessions = 1;
    RC.MaxQueuedSessions = 8;
    RC.SubmitDeadlineNanos = 1'000'000; // 1 ms
    service::Runtime RT(RC);
    std::atomic<bool> Release{false};
    auto Occupant = RT.submitIO<IOE>([&](ParCtx<IOE> Ctx) -> Par<int> {
      while (!Release.load(std::memory_order_acquire))
        co_await yield(Ctx);
      co_return 7;
    });
    auto Queued = RT.submit<D>(
        [](ParCtx<D> Ctx) -> Par<uint64_t> { co_return 2; });
    // Outwait the deadline while the slot stays held, then free it: the
    // queued session must expire instead of launching.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Release.store(true, std::memory_order_release);
    auto OQ = Queued.get();
    ASSERT_FALSE(OQ.ok()) << "workers=" << W;
    EXPECT_EQ(OQ.fault().Code, FaultCode::DeadlineExceeded) << "workers=" << W;
    auto OO = Occupant.get();
    ASSERT_TRUE(OO.ok()) << OO.fault().Message;
    EXPECT_EQ(OO.value(), 7);
  }
}

//===----------------------------------------------------------------------===//
// Shed
//===----------------------------------------------------------------------===//

TEST(ServiceRobustness, OverloadShedsBeyondQueueBound) {
  for (unsigned W : WorkerCounts) {
    service::RuntimeConfig RC;
    RC.Sched.NumWorkers = W;
    RC.MaxActiveSessions = 1;
    RC.MaxQueuedSessions = 1;
    service::Runtime RT(RC);
    std::atomic<bool> Release{false};
    auto Occupant = RT.submitIO<IOE>([&](ParCtx<IOE> Ctx) -> Par<int> {
      while (!Release.load(std::memory_order_acquire))
        co_await yield(Ctx);
      co_return 1;
    });
    auto Queued = RT.submit<D>(
        [](ParCtx<D> Ctx) -> Par<uint64_t> { co_return 2; });
    auto Shedded = RT.submit<D>(
        [](ParCtx<D> Ctx) -> Par<uint64_t> { co_return 3; });
    // Shed resolves at admission, before the slot ever frees.
    EXPECT_TRUE(Shedded.ready())
        << "a shed refusal must resolve immediately, not wait for a slot";
    auto OS = Shedded.get();
    ASSERT_FALSE(OS.ok()) << "workers=" << W;
    EXPECT_EQ(OS.fault().Code, FaultCode::Shed) << "workers=" << W;
    EXPECT_NE(OS.fault().Message.find("shed"), std::string::npos)
        << OS.fault().Message;
    Release.store(true, std::memory_order_release);
    auto OO = Occupant.get();
    ASSERT_TRUE(OO.ok()) << OO.fault().Message;
    auto OQ = Queued.get();
    ASSERT_TRUE(OQ.ok()) << "the queued (non-shed) session must still run: "
                         << OQ.fault().Message;
    EXPECT_EQ(OQ.value(), 2u);
  }
}

//===----------------------------------------------------------------------===//
// RuntimeStopping / drain
//===----------------------------------------------------------------------===//

TEST(ServiceRobustness, DrainFinishesActiveRejectsQueuedStopsAdmission) {
  for (unsigned W : WorkerCounts) {
    service::RuntimeConfig RC;
    RC.Sched.NumWorkers = W;
    RC.MaxActiveSessions = 1;
    RC.MaxQueuedSessions = 8;
    service::Runtime RT(RC);
    std::atomic<bool> Release{false};
    auto Active = RT.submitIO<IOE>([&](ParCtx<IOE> Ctx) -> Par<int> {
      while (!Release.load(std::memory_order_acquire))
        co_await yield(Ctx);
      co_return 11;
    });
    auto Queued = RT.submit<D>(
        [](ParCtx<D> Ctx) -> Par<uint64_t> { co_return 22; });
    // Free the active session only after drain() has begun waiting.
    std::thread Releaser([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      Release.store(true, std::memory_order_release);
    });
    RT.drain();
    Releaser.join();
    // The active session finished normally; the queued one was rejected.
    ASSERT_TRUE(Active.ready()) << "drain() returned with a session running";
    auto OA = Active.get();
    ASSERT_TRUE(OA.ok()) << OA.fault().Message;
    EXPECT_EQ(OA.value(), 11);
    auto OQ = Queued.get();
    ASSERT_FALSE(OQ.ok()) << "workers=" << W;
    EXPECT_EQ(OQ.fault().Code, FaultCode::RuntimeStopping) << "workers=" << W;
    // Admission stays closed after drain, for both submission styles.
    auto Late = RT.submit<D>(
        [](ParCtx<D> Ctx) -> Par<uint64_t> { co_return 33; });
    EXPECT_TRUE(Late.ready());
    auto OL = Late.get();
    ASSERT_FALSE(OL.ok());
    EXPECT_EQ(OL.fault().Code, FaultCode::RuntimeStopping);
    auto OR = RT.run<D>(
        [](ParCtx<D> Ctx) -> Par<uint64_t> { co_return 44; });
    ASSERT_FALSE(OR.ok());
    EXPECT_EQ(OR.fault().Code, FaultCode::RuntimeStopping);
    RT.drain(); // Idempotent: a second drain returns immediately.
  }
}

TEST(ServiceRobustness, DrainRacesSubmitWithoutLosingASession) {
  // Hammer drain() against a burst of submitters: every future must
  // resolve - either with its real value or with a RuntimeStopping/Shed
  // refusal - and none may hang or crash.
  service::RuntimeConfig RC;
  RC.Sched.NumWorkers = 4;
  RC.MaxActiveSessions = 2;
  RC.MaxQueuedSessions = 4;
  service::Runtime RT(RC);
  constexpr int N = 24;
  std::vector<service::SessionFuture<uint64_t>> Futures(N);
  std::atomic<int> Submitted{0};
  std::thread Submitter([&] {
    for (int I = 0; I < N; ++I) {
      Futures[I] = RT.submit<D>([I](ParCtx<D> Ctx) -> Par<uint64_t> {
        co_return co_await sumSquares(Ctx, 0, 64 + uint64_t(I));
      });
      Submitted.store(I + 1, std::memory_order_release);
    }
  });
  while (Submitted.load(std::memory_order_acquire) < N / 2)
    std::this_thread::yield();
  RT.drain();
  Submitter.join();
  int Completed = 0, Refused = 0;
  for (int I = 0; I < N; ++I) {
    auto O = Futures[I].get();
    if (O.ok()) {
      ++Completed;
      EXPECT_EQ(O.value(), sumSquaresSeq(0, 64 + uint64_t(I)))
          << "session " << I << " completed with a wrong value";
    } else {
      ++Refused;
      EXPECT_TRUE(O.fault().Code == FaultCode::RuntimeStopping ||
                  O.fault().Code == FaultCode::Shed)
          << "session " << I << ": " << O.fault().Message;
    }
  }
  EXPECT_EQ(Completed + Refused, N);
}

//===----------------------------------------------------------------------===//
// RetryPolicy
//===----------------------------------------------------------------------===//

TEST(ServiceRobustness, RetryDelaysArePureFunctionsOfSeedAndAttempt) {
  service::RetryPolicy A{.Seed = 42};
  service::RetryPolicy B{.Seed = 42};
  service::RetryPolicy C{.Seed = 43};
  bool AnyDiffer = false;
  for (unsigned Attempt = 0; Attempt < 8; ++Attempt) {
    EXPECT_EQ(A.delayNanos(Attempt), B.delayNanos(Attempt))
        << "same seed, same attempt, different delay";
    uint64_t Window = A.BaseDelayNanos << Attempt;
    if (Window > A.MaxDelayNanos)
      Window = A.MaxDelayNanos;
    EXPECT_LE(A.delayNanos(Attempt), Window)
        << "delay escaped its backoff window at attempt " << Attempt;
    AnyDiffer |= A.delayNanos(Attempt) != C.delayNanos(Attempt);
  }
  EXPECT_TRUE(AnyDiffer) << "distinct seeds should decorrelate";
  // Degenerate policy: zero base delay never sleeps.
  service::RetryPolicy Z{.BaseDelayNanos = 0, .MaxDelayNanos = 0};
  EXPECT_EQ(Z.delayNanos(0), 0u);
  EXPECT_EQ(Z.delayNanos(5), 0u);
}

TEST(ServiceRobustness, RetryableCoversExactlyTransientAdmissionFaults) {
  Fault F;
  F.Code = FaultCode::Shed;
  EXPECT_TRUE(service::RetryPolicy::retryable(F));
  F.Code = FaultCode::DeadlineExceeded;
  EXPECT_TRUE(service::RetryPolicy::retryable(F));
  for (FaultCode NotRetryable :
       {FaultCode::BudgetExceeded, FaultCode::RuntimeStopping,
        FaultCode::SessionRejected, FaultCode::ConflictingPut,
        FaultCode::FutureConsumed, FaultCode::InjectedFailure}) {
    F.Code = NotRetryable;
    EXPECT_FALSE(service::RetryPolicy::retryable(F))
        << faultCodeName(NotRetryable);
  }
}

TEST(ServiceRobustness, SubmitWithRetryRetriesShedsThenSucceeds) {
  service::RetryPolicy P;
  P.MaxAttempts = 5;
  P.BaseDelayNanos = 1'000; // Keep the test fast.
  P.MaxDelayNanos = 10'000;
  int Calls = 0;
  auto Out = service::submitWithRetry(P, [&] {
    if (++Calls < 3)
      return ParOutcome<int>::failure(
          service::detail::makeAdmissionFault(FaultCode::Shed, "test shed"));
    return ParOutcome<int>::success(99);
  });
  EXPECT_EQ(Calls, 3);
  ASSERT_TRUE(Out.ok()) << Out.fault().Message;
  EXPECT_EQ(Out.value(), 99);
}

TEST(ServiceRobustness, SubmitWithRetryStopsOnNonRetryableAndExhaustion) {
  service::RetryPolicy P;
  P.MaxAttempts = 4;
  P.BaseDelayNanos = 1'000;
  P.MaxDelayNanos = 10'000;
  // Non-retryable: one call, no retries.
  int Calls = 0;
  auto Out = service::submitWithRetry(P, [&] {
    ++Calls;
    return ParOutcome<int>::failure(service::detail::makeAdmissionFault(
        FaultCode::RuntimeStopping, "draining"));
  });
  EXPECT_EQ(Calls, 1);
  ASSERT_FALSE(Out.ok());
  EXPECT_EQ(Out.fault().Code, FaultCode::RuntimeStopping);
  // Permanent overload: exactly MaxAttempts tries, last fault returned.
  Calls = 0;
  auto Out2 = service::submitWithRetry(P, [&] {
    ++Calls;
    return ParOutcome<int>::failure(
        service::detail::makeAdmissionFault(FaultCode::Shed, "still full"));
  });
  EXPECT_EQ(Calls, static_cast<int>(P.MaxAttempts));
  ASSERT_FALSE(Out2.ok());
  EXPECT_EQ(Out2.fault().Code, FaultCode::Shed);
}

TEST(ServiceRobustness, RetryAgainstRealRuntimeEventuallyAdmits) {
  service::RuntimeConfig RC;
  RC.Sched.NumWorkers = 2;
  RC.MaxActiveSessions = 1;
  RC.MaxQueuedSessions = 1;
  service::Runtime RT(RC);
  std::atomic<bool> Release{false};
  auto Occupant = RT.submitIO<IOE>([&](ParCtx<IOE> Ctx) -> Par<int> {
    while (!Release.load(std::memory_order_acquire))
      co_await yield(Ctx);
    co_return 1;
  });
  auto Queued = RT.submit<D>(
      [](ParCtx<D> Ctx) -> Par<uint64_t> { co_return 2; });
  std::thread Releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Release.store(true, std::memory_order_release);
  });
  // The queue is full until the occupant finishes, so the first tries
  // shed; the policy keeps retrying until admission opens up.
  service::RetryPolicy P;
  P.MaxAttempts = 200;
  P.BaseDelayNanos = 500'000; // 0.5 ms
  P.MaxDelayNanos = 2'000'000;
  auto Out = service::submitWithRetry(P, [&] {
    auto F = RT.submit<D>(
        [](ParCtx<D> Ctx) -> Par<uint64_t> { co_return 3; });
    return F.get();
  });
  Releaser.join();
  ASSERT_TRUE(Out.ok()) << Out.fault().Message;
  EXPECT_EQ(Out.value(), 3u);
  EXPECT_TRUE(Occupant.get().ok());
  EXPECT_TRUE(Queued.get().ok());
}

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

TEST(ServiceRobustness, RobustnessCountersTickOnEachPath) {
  auto Before = obs::telemetrySnapshot();
  {
    service::RuntimeConfig RC;
    RC.Sched.NumWorkers = 2;
    RC.MaxActiveSessions = 1;
    RC.MaxQueuedSessions = 1;
    service::Runtime RT(RC);
    std::atomic<bool> Release{false};
    auto Occupant = RT.submitIO<IOE>([&](ParCtx<IOE> Ctx) -> Par<int> {
      while (!Release.load(std::memory_order_acquire))
        co_await yield(Ctx);
      co_return 1;
    });
    auto Queued = RT.submit<D>(
        [](ParCtx<D> Ctx) -> Par<uint64_t> { co_return 2; });
    auto Shedded = RT.submit<D>(
        [](ParCtx<D> Ctx) -> Par<uint64_t> { co_return 3; });
    EXPECT_EQ(Shedded.get().fault().Code, FaultCode::Shed);
    std::thread Releaser([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      Release.store(true, std::memory_order_release);
    });
    RT.drain(); // Active occupant forces a real DrainWaits tick.
    Releaser.join();
    EXPECT_TRUE(Occupant.get().ok());
    auto OQ = Queued.get();
    EXPECT_TRUE(!OQ.ok() || OQ.value() == 2u);
  }
  {
    service::Runtime RT({.Sched = {.NumWorkers = 2}});
    service::SessionOptions Opts;
    Opts.MaxSteps = 64;
    EXPECT_EQ(RT.runIO<IOE>(yieldForever, Opts).fault().Code,
              FaultCode::BudgetExceeded);
  }
  auto After = obs::telemetrySnapshot();
  EXPECT_GE(After.count(obs::Event::SessionsShed),
            Before.count(obs::Event::SessionsShed) + 1);
  EXPECT_GE(After.count(obs::Event::BudgetFaults),
            Before.count(obs::Event::BudgetFaults) + 1);
  EXPECT_GE(After.count(obs::Event::DrainWaits),
            Before.count(obs::Event::DrainWaits) + 1);
  // Every specialized refusal also ticks the umbrella counter.
  EXPECT_GE(After.count(obs::Event::SessionsRejected),
            Before.count(obs::Event::SessionsRejected) + 1);
}

} // namespace
