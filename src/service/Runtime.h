//===- Runtime.h - Multi-tenant service runtime -----------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service runtime: one long-lived worker pool (a Scheduler) that
/// multiplexes many concurrent deterministic sessions - the ROADMAP's
/// "service handling traffic" shape. The paper's determinism guarantee is
/// per-session (the `s` type parameter); the Runtime preserves it per
/// tenant while sharing workers:
///
///   * each session gets its own SessionState: its own quiesce scope (a
///     session quiescing never waits on a sibling's work), its own fault
///     containment (a fault cancels and drains only its session), and its
///     own stats delta;
///   * admission control bounds concurrently active sessions
///     (RuntimeConfig::MaxActiveSessions); excess submissions queue FIFO;
///   * fairness: session roots and yields land in per-session inject
///     queues drained round-robin, and workers periodically service those
///     queues ahead of their own deques (every 61st dispatch).
///
/// Submission API:
///
///   Runtime RT({.Sched = {.NumWorkers = 8}});
///   SessionFuture<int> F = RT.submit([](ParCtx<Eff::Det> Ctx) -> Par<int>
///     { ... });                        // async
///   ParOutcome<int> O = F.get();       // value or contained Fault
///   ParOutcome<int> P = RT.run(Body);  // blocking, same outcome type
///
/// runPar / tryRunPar* (src/core/RunPar.h) are one-shot wrappers that spin
/// up a private Runtime (the pre-Runtime borrowed-scheduler surface was
/// removed in their favor).
///
/// Completion pipeline: a session's last pending-count decrement can
/// happen under a park-site lock, so the quiescence observer only enqueues
/// the session onto the Runtime's completion queue; a lazily started
/// finalizer thread performs finishSession / fault take / exit freeze /
/// future fulfillment, then admits the next queued session.
///
/// A Runtime constructed with a schedule controller (controlled
/// scheduling, DESIGN.md Section 12) explores every session it runs. An
/// explored session must own every scheduling decision, so such a Runtime
/// runs one session at a time and rejects a session started while it is
/// busy deterministically, with a FaultCode::SessionRejected outcome,
/// rather than silently sharing the pool.
///
/// Robustness layer (DESIGN.md Section 16): per-session step budgets
/// (SessionOptions::MaxSteps, counted in scheduler decisions so budget
/// kills replay bit-for-bit), wall-clock admission deadlines and overload
/// shedding (RuntimeConfig::SubmitDeadlineNanos / MaxQueuedSessions,
/// resolving futures with deterministic DeadlineExceeded / Shed faults
/// instead of running), graceful stop (Runtime::drain, racing submits get
/// RuntimeStopping), and a seeded-jitter RetryPolicy helper
/// (src/service/RetryPolicy.h) for callers that want to resubmit.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_SERVICE_RUNTIME_H
#define LVISH_SERVICE_RUNTIME_H

#include "src/core/Par.h"
#include "src/obs/SchedulerStats.h"
#include "src/obs/Telemetry.h"
#include "src/sched/Scheduler.h"
#include "src/sched/SessionState.h"
#include "src/support/Fault.h"
#include "src/support/Timer.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace lvish {
namespace service {

/// Runtime construction parameters.
struct RuntimeConfig {
  /// The shared worker pool's configuration (worker count, fairness
  /// stride, tracing, explore controller).
  SchedulerConfig Sched{};
  /// Admission bound: at most this many sessions active (launched, not
  /// yet finalized) at once; further submissions queue FIFO and launch as
  /// slots free up. 0 = unlimited.
  unsigned MaxActiveSessions = 0;
  /// Overload shedding: with every slot busy, at most this many async
  /// submissions wait in the FIFO admission queue; one more resolves its
  /// future immediately with FaultCode::Shed instead of queueing.
  /// 0 = unbounded queue (no shedding). Only meaningful together with
  /// MaxActiveSessions.
  unsigned MaxQueuedSessions = 0;
  /// Wall-clock admission deadline in nanoseconds. An async submission
  /// still queued when a slot finally frees resolves with
  /// FaultCode::DeadlineExceeded if it waited longer than this; a
  /// blocking run() gives up waiting for a slot after this long. The
  /// deadline governs ADMISSION only - once a session launches it runs to
  /// completion (bound execution with DefaultSessionBudget instead; wall
  /// clock inside the deterministic core would break replay).
  /// 0 = no deadline.
  uint64_t SubmitDeadlineNanos = 0;
  /// Step budget applied to every session whose SessionOptions::MaxSteps
  /// is 0: the per-tenant guard against sessions that never quiesce.
  /// 0 = unlimited.
  uint64_t DefaultSessionBudget = 0;
};

/// Per-session options, the session-scoped successor of RunOptions.
struct SessionOptions {
  /// After quiescence, markFrozen() the returned LVar handle - the
  /// always-deterministic freeze-on-the-way-out of runParThenFreeze.
  /// Requires the body to return a (shared_ptr to an) LVar structure.
  bool FreezeOnExit = false;
  /// When non-null, receives this session's scheduler-stats DELTA (the
  /// snapshot at session start subtracted; see Scheduler::sessionStats).
  /// Exact for sessions that do not overlap others on the pool. Must stay
  /// alive until the session's outcome is available.
  SchedulerStats *StatsOut = nullptr;
  /// Deterministic step budget: the session is killed with
  /// FaultCode::BudgetExceeded after this many scheduler decisions
  /// (task resumes). Counted in steps rather than wall clock so the kill
  /// point - code, pedigree, session id - is bit-for-bit reproducible
  /// under RunOptions::Explore and lvx1: replay. 0 = use the Runtime's
  /// RuntimeConfig::DefaultSessionBudget (which defaults to unlimited).
  uint64_t MaxSteps = 0;
};

namespace detail {

template <typename P> struct ParValue;
template <typename T> struct ParValue<Par<T>> {
  using type = T;
};

/// Where the session root deposits its result before finalization.
template <typename R> struct ResultSlot {
  std::optional<R> Value;
  bool produced() const { return Value.has_value(); }
};
template <> struct ResultSlot<void> {
  bool Done = false;
  bool produced() const { return Done; }
};

/// Shared state between a SessionFuture and the Runtime's finalizer: the
/// result slot the root writes, the outcome, and the latency timestamps.
/// Heap-shared so the root coroutine's out-pointer stays valid however
/// long the session outlives the submitting frame.
template <typename R> struct SessionChannel {
  std::mutex Mutex;
  std::condition_variable CV;
  std::optional<ParOutcome<R>> Outcome;
  /// Set by the first SessionFuture::get(): a second get() returns a
  /// deterministic FutureConsumed fault instead of blocking forever on an
  /// Outcome that will never re-appear.
  bool Consumed = false;
  ResultSlot<R> Slot;
  uint64_t SessionId = 0;
  uint64_t SubmitNanos = 0;
  uint64_t DoneNanos = 0;
};

/// Root coroutine: materializes the session context and funnels the
/// result out to the channel (which outlives the session).
template <EffectSet E, typename F, typename R>
Par<void> rootBody(F Body, std::optional<R> *Out) {
  ParCtx<E> Ctx = lvish::detail::CtxAccess::make<E>(Scheduler::currentTask());
  *Out = co_await Body(Ctx);
}

template <EffectSet E, typename F>
Par<void> rootBodyVoid(F Body, bool *Done) {
  ParCtx<E> Ctx = lvish::detail::CtxAccess::make<E>(Scheduler::currentTask());
  co_await Body(Ctx);
  *Done = true;
}

/// Builds the deadlock Fault for a session whose root never produced a
/// value and never recorded a fault. \p Leftover counts every task reaped
/// at quiescence, *including* the blocked root, so Leftover <= 1 means the
/// scheduler fully drained (only the root was stuck) and Leftover > 1
/// means other blocked tasks leaked alongside it - two different bugs in
/// user code, hence two Fault codes.
inline Fault makeDeadlockFault(size_t Leftover, uint64_t SessionId) {
  Fault F;
  F.Code = Leftover <= 1 ? FaultCode::DeadlockDrained
                         : FaultCode::DeadlockLeakedTasks;
  F.SessionId = SessionId;
  F.Worker = -1;       // Detected on the session thread, not a worker.
  F.Pedigree.clear();  // The root's pedigree is the empty path.
  std::string Msg = "runPar: deterministic deadlock (the main computation "
                    "blocked forever; ";
  if (Leftover <= 1)
    Msg += "scheduler drained: no other task remained";
  else
    Msg += std::to_string(Leftover - 1) + " other blocked task(s) leaked";
  Msg += ") [code=";
  Msg += faultCodeName(F.Code);
  Msg += ", session=" + std::to_string(SessionId) + ", pedigree=<root>]";
  F.Message = std::move(Msg);
  return F;
}

/// The deterministic admission-refusal Fault family (session_rejected,
/// shed, deadline_exceeded, runtime_stopping). Message depends only on
/// \p Code and \p Reason, so repeated refusals of the same shape are
/// bit-identical.
inline Fault makeAdmissionFault(FaultCode Code, const char *Reason) {
  Fault F;
  F.Code = Code;
  F.Worker = -1;
  F.Pedigree.clear();
  F.Message = std::string("Runtime: session rejected (") + Reason +
              ") [code=" + faultCodeName(Code) + ", pedigree=<root>]";
  return F;
}

/// The deterministic double-consume Fault for SessionFuture::get(); fires
/// in NDEBUG builds too (the old assert vanished there and a second get()
/// blocked forever).
inline Fault makeConsumedFault(uint64_t SessionId) {
  Fault F;
  F.Code = FaultCode::FutureConsumed;
  F.SessionId = SessionId;
  F.Worker = -1;
  F.Pedigree.clear();
  F.Message = "SessionFuture: get() called twice (the outcome was already "
              "consumed) [code=future_consumed, session=" +
              std::to_string(SessionId) + ", pedigree=<root>]";
  return F;
}

/// Bumps the refusal counters for \p Code: every refusal counts as
/// SessionsRejected, and the shed / deadline flavors also count their own
/// dedicated event.
inline void countRejection(FaultCode Code) {
  obs::count(obs::Event::SessionsRejected);
  if (Code == FaultCode::Shed)
    obs::count(obs::Event::SessionsShed);
  else if (Code == FaultCode::DeadlineExceeded)
    obs::count(obs::Event::DeadlineFaults);
}

/// Publishes \p Out on the channel and wakes future waiters.
template <typename R>
void completeChannel(SessionChannel<R> &Ch, ParOutcome<R> Out) {
  std::lock_guard<std::mutex> Lock(Ch.Mutex);
  Ch.DoneNanos = nowNanos();
  Ch.Outcome.emplace(std::move(Out));
  Ch.CV.notify_all();
}

/// Opens a session on \p Sched and schedules its root. \p MakeObserver is
/// invoked with the fresh SessionState and returns the quiescence
/// observer to install (or an empty function for blocking drivers that
/// wait on the session CV instead). Ordering matters: beginSession
/// snapshots the stats baseline BEFORE the root task is created, so the
/// root's own creation lands inside the session's delta, and the observer
/// is installed before the root is scheduled.
template <EffectSet E, typename R, typename F, typename MakeObs>
std::shared_ptr<SessionState> launchSession(Scheduler &Sched, F Body,
                                            SessionChannel<R> &Ch,
                                            MakeObs MakeObserver,
                                            uint64_t StepBudget = 0) {
  std::shared_ptr<SessionState> S =
      Sched.beginSession(std::make_shared<CancelNode>());
  // Written before the root is scheduled: workers see the budget via the
  // schedule() handoff, never a torn value.
  S->StepBudget = StepBudget;
  {
    std::lock_guard<std::mutex> Lock(Ch.Mutex);
    Ch.SessionId = S->Id;
  }
  Par<void> RootPar = [&]() -> Par<void> {
    if constexpr (std::is_void_v<R>)
      return rootBodyVoid<E>(std::move(Body), &Ch.Slot.Done);
    else
      return rootBody<E, F, R>(std::move(Body), &Ch.Slot.Value);
  }();
  if (std::function<void()> Obs = MakeObserver(S))
    Sched.setSessionObserver(*S, std::move(Obs));
  obs::count(obs::Event::SessionsSubmitted);
  lvish::detail::launchTask(Sched, std::move(RootPar), /*Parent=*/nullptr,
                            check::effectMask(E), /*Scopes=*/{},
                            /*FreshCancel=*/nullptr, S.get());
  return S;
}

/// Finalizes a quiescent session: reaps leftovers, resolves the fault (a
/// recorded fault wins even if the root produced a value before a sibling
/// faulted; otherwise a valueless root is a deterministic deadlock),
/// applies the exit freeze, delivers the stats delta, and publishes the
/// outcome. Runs on the submitter (blocking runs) or the Runtime's
/// finalizer thread (async submissions) - never under a park-site lock.
template <typename R>
void finalizeSession(Scheduler &Sched, SessionState &S, SessionChannel<R> &Ch,
                     const SessionOptions &Opts) {
  size_t Leftover = Sched.finishSession(S);
  std::optional<Fault> Flt = Sched.takeSessionFault(S);
  if (!Flt && !Ch.Slot.produced()) {
    Flt = makeDeadlockFault(Leftover, S.Id);
    obs::count(obs::Event::FaultsRaised); // Not routed via raiseFault.
  }
  if (Flt)
    obs::count(obs::Event::FaultsContained);
  if (Opts.StatsOut)
    *Opts.StatsOut = Sched.sessionStats(S);
  ParOutcome<R> Out = [&]() -> ParOutcome<R> {
    if constexpr (std::is_void_v<R>) {
      assert(!Opts.FreezeOnExit &&
             "FreezeOnExit requires the body to return an LVar handle");
      if (Flt)
        return ParOutcome<void>::failure(std::move(*Flt));
      return ParOutcome<void>::success();
    } else {
      if (Flt)
        return ParOutcome<R>::failure(std::move(*Flt));
      if constexpr (requires { (*Ch.Slot.Value)->markFrozen(); }) {
        // The session is fully quiescent: freezing here cannot race a put.
        if (Opts.FreezeOnExit)
          (*Ch.Slot.Value)->markFrozen();
      } else {
        assert(!Opts.FreezeOnExit &&
               "FreezeOnExit requires the body to return an LVar handle");
      }
      return ParOutcome<R>::success(std::move(*Ch.Slot.Value));
    }
  }();
  completeChannel(Ch, std::move(Out));
  obs::count(obs::Event::SessionsCompleted);
  if (Ch.SubmitNanos)
    obs::addSessionLatencyNanos(Ch.DoneNanos - Ch.SubmitNanos);
}

/// Publishes a deterministic refusal outcome without opening a session.
/// \p Code selects the refusal flavor (SessionRejected, Shed,
/// DeadlineExceeded, RuntimeStopping) and its counters.
template <typename R>
void rejectChannel(SessionChannel<R> &Ch, FaultCode Code,
                   const char *Reason) {
  countRejection(Code);
  completeChannel(Ch, ParOutcome<R>::failure(makeAdmissionFault(Code, Reason)));
}

/// Blocking session driver on an arbitrary scheduler: launch, wait on the
/// session's own quiesce scope, finalize inline. Runtime::run wraps it
/// with admission.
template <EffectSet E, typename F>
auto runSessionOn(Scheduler &Sched, F Body, const SessionOptions &Opts) {
  using RetPar = std::invoke_result_t<F, ParCtx<E>>;
  using R = typename ParValue<RetPar>::type;
  auto Ch = std::make_shared<SessionChannel<R>>();
  Ch->SubmitNanos = nowNanos();
  std::shared_ptr<SessionState> S = launchSession<E, R>(
      Sched, std::move(Body), *Ch,
      [](const std::shared_ptr<SessionState> &) {
        return std::function<void()>();
      },
      Opts.MaxSteps);
  Sched.waitSessionQuiescent(*S);
  finalizeSession<R>(Sched, *S, *Ch, Opts);
  return std::move(*Ch->Outcome);
}

} // namespace detail

/// Handle to an asynchronously submitted session's eventual outcome.
/// Copyable (all copies share one channel); get() consumes the outcome,
/// so exactly one consumer should call it.
template <typename R> class SessionFuture {
public:
  SessionFuture() = default;

  /// False only for default-constructed futures.
  bool valid() const { return Ch != nullptr; }

  /// True once the outcome is available (get() will not block). Stays
  /// true after the outcome has been consumed.
  bool ready() const {
    std::lock_guard<std::mutex> Lock(Ch->Mutex);
    return Ch->Outcome.has_value() || Ch->Consumed;
  }

  /// Blocks until the outcome is available.
  void wait() const {
    std::unique_lock<std::mutex> Lock(Ch->Mutex);
    Ch->CV.wait(Lock,
                [this] { return Ch->Outcome.has_value() || Ch->Consumed; });
  }

  /// Blocks until the session completes and moves its outcome out (call
  /// once; composes with ParOutcome exactly like tryRunPar's return). A
  /// second call does not block: it returns a deterministic
  /// FaultCode::FutureConsumed outcome - in NDEBUG builds too.
  ParOutcome<R> get() {
    std::unique_lock<std::mutex> Lock(Ch->Mutex);
    Ch->CV.wait(Lock,
                [this] { return Ch->Outcome.has_value() || Ch->Consumed; });
    if (!Ch->Outcome.has_value())
      return ParOutcome<R>::failure(detail::makeConsumedFault(Ch->SessionId));
    Ch->Consumed = true;
    ParOutcome<R> Out = std::move(*Ch->Outcome);
    Ch->Outcome.reset();
    return Out;
  }

  /// The session's id (0 for sessions rejected before admission).
  uint64_t sessionId() const {
    std::lock_guard<std::mutex> Lock(Ch->Mutex);
    return Ch->SessionId;
  }

  /// Submit-to-outcome latency; 0 until the outcome is published.
  uint64_t latencyNanos() const {
    std::lock_guard<std::mutex> Lock(Ch->Mutex);
    return Ch->DoneNanos ? Ch->DoneNanos - Ch->SubmitNanos : 0;
  }

private:
  friend class Runtime;
  explicit SessionFuture(std::shared_ptr<detail::SessionChannel<R>> C)
      : Ch(std::move(C)) {}
  std::shared_ptr<detail::SessionChannel<R>> Ch;
};

/// The multi-tenant service runtime; see file comment.
class Runtime {
public:
  explicit Runtime(RuntimeConfig Config = RuntimeConfig());
  ~Runtime();

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  /// The shared worker pool (for stats(), trace(), callerBatchIndex()).
  Scheduler &scheduler() { return Sched; }
  unsigned numWorkers() const { return Sched.numWorkers(); }

  // --- Blocking submission -----------------------------------------------

  /// Runs \p Body as one session on the shared pool, blocking the calling
  /// thread until its outcome (value or contained Fault) is available.
  /// Pure sessions only - the runPar discipline.
  template <EffectSet E = Eff::Det, typename F>
  [[nodiscard]] auto run(F Body, const SessionOptions &Opts = {}) {
    static_assert(noFreeze(E) && noIO(E),
                  "Runtime::run requires NoFreeze and NoIO; use runIO or "
                  "runThenFreeze");
    return runSession<E>(std::move(Body), Opts);
  }

  /// Blocking run without the purity restriction (quasi-deterministic
  /// freezes and IO-bit operations allowed).
  template <EffectSet E = Eff::FullIO, typename F>
  [[nodiscard]] auto runIO(F Body, const SessionOptions &Opts = {}) {
    return runSession<E>(std::move(Body), Opts);
  }

  /// Blocking run that freezes the returned LVar handle on the way out
  /// (the always-deterministic runParThenFreeze pattern).
  template <EffectSet E = Eff::Det, typename F>
  [[nodiscard]] auto runThenFreeze(F Body, SessionOptions Opts = {}) {
    static_assert(noFreeze(E) && noIO(E),
                  "the computation under runThenFreeze must not freeze "
                  "explicitly");
    Opts.FreezeOnExit = true;
    return runSession<E>(std::move(Body), Opts);
  }

  // --- Asynchronous submission -------------------------------------------

  /// Submits \p Body as one session and returns immediately; the session
  /// runs concurrently with the caller and with other sessions on the
  /// pool. The future's get() yields the same ParOutcome run() would.
  template <EffectSet E = Eff::Det, typename F>
  [[nodiscard]] auto submit(F Body, const SessionOptions &Opts = {}) {
    static_assert(noFreeze(E) && noIO(E),
                  "Runtime::submit requires NoFreeze and NoIO; use "
                  "submitIO");
    return submitSession<E>(std::move(Body), Opts);
  }

  /// Async submission without the purity restriction.
  template <EffectSet E = Eff::FullIO, typename F>
  [[nodiscard]] auto submitIO(F Body, const SessionOptions &Opts = {}) {
    return submitSession<E>(std::move(Body), Opts);
  }

  /// Graceful stop: closes admission (racing and future submit/run calls
  /// resolve deterministically with FaultCode::RuntimeStopping), rejects
  /// everything still waiting in the admission queue with the same code,
  /// and blocks until every already-active session has been finalized.
  /// Idempotent, and safe to race with submit from other threads. The
  /// destructor drains; a Runtime stays stopped once drained.
  void drain();

  /// Blocks until every submitted session has been finalized and the
  /// admission queue is empty, WITHOUT closing admission - the
  /// wait-for-idle half of the old drain(). Callers that keep submitting
  /// afterwards (round-based benches, tests) want this, not drain().
  void awaitIdle();

  // --- Unchecked front doors ---------------------------------------------
  // The effect level is the caller's responsibility here; the checked
  // wrappers above and the one-shot runPar* wrappers (src/core/RunPar.h)
  // funnel into these.

  template <EffectSet E, typename F>
  auto runSession(F Body, const SessionOptions &Opts) {
    using RetPar = std::invoke_result_t<F, ParCtx<E>>;
    using R = typename detail::ParValue<RetPar>::type;
    if (AdmitVeto V = acquireSlotOrVeto(); V.Reason) {
      detail::countRejection(V.Code);
      return ParOutcome<R>::failure(detail::makeAdmissionFault(V.Code,
                                                              V.Reason));
    }
    SessionOptions Eff = Opts;
    if (!Eff.MaxSteps)
      Eff.MaxSteps = DefaultBudget;
    auto Out = detail::runSessionOn<E>(Sched, std::move(Body), Eff);
    releaseSlot();
    return Out;
  }

  template <EffectSet E, typename F>
  auto submitSession(F Body, const SessionOptions &Opts) {
    using RetPar = std::invoke_result_t<F, ParCtx<E>>;
    using R = typename detail::ParValue<RetPar>::type;
    auto Ch = std::make_shared<detail::SessionChannel<R>>();
    Ch->SubmitNanos = nowNanos();
    SessionFuture<R> Fut(Ch);
    SessionOptions SOpts = Opts;
    if (!SOpts.MaxSteps)
      SOpts.MaxSteps = DefaultBudget;
    if (Sched.exploreCtl()) {
      // Explore-mode pools have no worker threads: the session executes
      // inline on the submitting thread, exclusively (acquireSlotOrVeto
      // rejects rather than blocks when the pool is busy).
      if (AdmitVeto V = acquireSlotOrVeto(); V.Reason) {
        detail::rejectChannel(*Ch, V.Code, V.Reason);
        return Fut;
      }
      auto NoObserver = [](const std::shared_ptr<SessionState> &) {
        return std::function<void()>();
      };
      std::shared_ptr<SessionState> S = detail::launchSession<E, R>(
          Sched, std::move(Body), *Ch, NoObserver, SOpts.MaxSteps);
      Sched.waitSessionQuiescent(*S);
      detail::finalizeSession<R>(Sched, *S, *Ch, SOpts);
      releaseSlot();
      return Fut;
    }
    // Deferred launch closure: runs now if a slot is free, or later from
    // the finalizer thread when one frees up. The quiescence observer
    // only enqueues the typed finalize closure (it can fire under a
    // park-site lock); the finalizer thread does the heavy lifting. The
    // paired Reject closure resolves the future deterministically when
    // admission refuses the session instead (shed, deadline, stopping).
    QueuedLaunch Q;
    Q.Launch = [this, Ch, SOpts, Body = std::move(Body)]() mutable {
      detail::launchSession<E, R>(
          Sched, std::move(Body), *Ch,
          [this, Ch, SOpts](const std::shared_ptr<SessionState> &S) {
            auto Fin = [this, Ch, SOpts, S] {
              detail::finalizeSession<R>(Sched, *S, *Ch, SOpts);
            };
            return std::function<void()>(
                [this, Fin] { enqueueCompletion(Fin); });
          },
          SOpts.MaxSteps);
    };
    Q.Reject = [Ch](FaultCode Code, const char *Reason) {
      detail::rejectChannel(*Ch, Code, Reason);
    };
    routeSubmission(std::move(Q));
    return Fut;
  }

private:
  /// One queued async submission: the deferred launch closure plus the
  /// typed rejection closure that resolves its future when admission
  /// refuses it (shed / deadline / stopping) instead of launching.
  struct QueuedLaunch {
    std::function<void()> Launch;
    std::function<void(FaultCode, const char *)> Reject;
    /// nowNanos() at enqueue, for the lazy SubmitDeadlineNanos check.
    uint64_t EnqueueNanos = 0;
  };

  /// Admission verdict: Reason == nullptr means admitted (the caller owns
  /// one slot and must releaseSlot()); otherwise Code/Reason describe the
  /// deterministic refusal.
  struct AdmitVeto {
    FaultCode Code = FaultCode::SessionRejected;
    const char *Reason = nullptr;
  };

  /// Admission front door for blocking runs. On a threaded pool: waits
  /// until a session slot is free (honoring MaxActiveSessions, giving up
  /// after SubmitDeadlineNanos with DeadlineExceeded, and aborting with
  /// RuntimeStopping if drain() closes admission meanwhile). On an
  /// explore-mode pool: claims exclusive use if the pool is idle, else
  /// refuses deterministically (controlled sessions must own every
  /// scheduling decision; blocking behind other tenants would hand
  /// decisions to OS timing).
  AdmitVeto acquireSlotOrVeto();
  /// Frees one slot; launches the next in-deadline queued submission.
  void releaseSlot();
  /// Launches now (slot free), queues FIFO, or refuses (stopping / shed).
  void routeSubmission(QueuedLaunch Q);
  /// Caller must hold Mu. Pops admission-queue entries while a slot is
  /// free: expired ones (past SubmitDeadlineNanos) are moved to
  /// \p Expired for the caller to reject OUTSIDE Mu; the first in-deadline
  /// entry claims the slot and its launch closure is returned.
  std::function<void()> admitNextLocked(std::vector<QueuedLaunch> &Expired);
  /// Called by session observers: queue a finalize closure for the
  /// finalizer thread. Safe under park-site locks (enqueue only).
  void enqueueCompletion(std::function<void()> Fin);
  void finalizerLoop();
  /// Caller must hold Mu.
  void ensureFinalizerLocked();

  Scheduler Sched;
  const unsigned MaxActive;
  const unsigned MaxQueued;
  const uint64_t DeadlineNanos;
  const uint64_t DefaultBudget;

  std::mutex Mu;
  /// Signalled on slot release (blocking admission, drain()).
  std::condition_variable SlotCV;
  /// Wakes the finalizer thread (completions, shutdown).
  std::condition_variable WorkCV;
  /// Sessions admitted but not yet finalized.
  unsigned Active = 0;
  /// Async submissions waiting for a slot (FIFO admission).
  std::deque<QueuedLaunch> AdmitQueue;
  /// Finalize closures for quiescent sessions.
  std::deque<std::function<void()>> DoneQueue;
  /// Set by drain(): admission is closed for good.
  bool Stopping = false;
  bool ShuttingDown = false;
  bool FinalizerStarted = false;
  std::thread Finalizer;
};

} // namespace service
} // namespace lvish

#endif // LVISH_SERVICE_RUNTIME_H
