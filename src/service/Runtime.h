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
/// up a private Runtime.
///
/// One session object (detail::Submission) holds a session's scheduler
/// state, body, result and outcome; the SessionFuture, the admission
/// queue and the scheduler's session table share it.
///
/// Completion: a Runtime with N workers runs N threads. The worker whose
/// decrement quiesces an async session calls its onQuiescent hook once
/// it holds no lock (the decrement itself can run under a park-site
/// lock), and the hook runs Runtime::finalizeAndRelease: finalize
/// (finishSession / fault take / exit freeze / outcome publication), then
/// release the slot, which launches the next queued session. A blocking
/// run (and every session of an explore-mode Runtime) goes through
/// Runtime::runBlocking: admit, launch, wait for quiescence, then the same
/// finalizeAndRelease on the calling thread, which is idle anyway.
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
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace lvish {
namespace service {

/// Runtime construction parameters.
struct RuntimeConfig {
  /// The shared worker pool's configuration (worker count, tracing,
  /// steal seed, explore controller).
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

/// Per-session options. The one-shot runPar* wrappers take RunOptions,
/// which adds the private pool's configuration to these.
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

class Runtime;

namespace detail {

template <typename P> struct ParValue;
template <typename T> struct ParValue<Par<T>> {
  using type = T;
};

template <EffectSet E, typename F>
using BodyResult = typename ParValue<std::invoke_result_t<F, ParCtx<E>>>::type;

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

/// The untyped face of one session: its scheduler state (the base), its
/// options and timestamps, and the three steps the Runtime drives it
/// through. The admission queue holds these.
class SessionBase : public SessionState,
                    public std::enable_shared_from_this<SessionBase> {
public:
  explicit SessionBase(const SessionOptions &O)
      : Opts(O), SubmitNanos(nowNanos()) {
    StepBudget = O.MaxSteps;
  }

  /// Opens the session on \p Sched, then creates and schedules its root
  /// (so the root's creation lands inside the session's stats delta).
  virtual void launch(Scheduler &Sched) = 0;

  /// Finalizes the quiescent session: reaps leftovers, resolves the fault
  /// (a recorded fault wins even if the root produced a value before a
  /// sibling faulted; otherwise a valueless root is a deterministic
  /// deadlock), applies the exit freeze, delivers the stats delta, and
  /// publishes the outcome. Runs on the submitter (blocking runs) or the
  /// worker that quiesced the session (async submissions) - never under a
  /// park-site lock.
  virtual void finalize(Scheduler &Sched) = 0;

  /// Publishes a deterministic refusal outcome without opening a session.
  /// \p Code selects the refusal flavor (SessionRejected, Shed,
  /// DeadlineExceeded, RuntimeStopping) and its counters.
  virtual void reject(FaultCode Code, const char *Reason) = 0;

  /// The options, with MaxSteps already defaulted to the Runtime's budget.
  const SessionOptions Opts;
  /// The Runtime whose worker finalizes this session at quiescence; null
  /// for blocking sessions, whose driver waits on CV instead.
  Runtime *Completions = nullptr;
  /// Creation time; also the admission queue's deadline clock.
  const uint64_t SubmitNanos;
  /// When the outcome was published (under Mutex); 0 until then.
  uint64_t DoneNanos = 0;

protected:
  bool hasQuiescentHook() const override { return Completions != nullptr; }
  /// An async session is finalized, and its slot released, by the worker
  /// that quiesced it.
  void onQuiescent() override;
};

/// A session producing \p R: the result the root writes, and the outcome
/// a SessionFuture consumes (guarded by SessionState::Mutex).
template <typename R> class Session : public SessionBase {
public:
  using SessionBase::SessionBase;

  /// Where the root deposits the body's result (a done flag for void).
  std::conditional_t<std::is_void_v<R>, bool, std::optional<R>> Result{};
  std::optional<ParOutcome<R>> Outcome;
  /// Set by the first SessionFuture::get(): a second get() returns a
  /// deterministic FutureConsumed fault instead of blocking forever on an
  /// Outcome that will never re-appear.
  bool Consumed = false;

  void finalize(Scheduler &Sched) final {
    size_t Leftover = Sched.finishSession(*this);
    std::optional<Fault> Flt = Sched.takeSessionFault(*this);
    if (!Flt && !Result) {
      Flt = makeDeadlockFault(Leftover, Id);
      obs::count(obs::Event::FaultsRaised); // Not routed via raiseFault.
    }
    if (Flt)
      obs::count(obs::Event::FaultsContained);
    if (Opts.StatsOut)
      *Opts.StatsOut = Sched.sessionStats(*this);
    if (Flt) {
      publish(ParOutcome<R>::failure(std::move(*Flt)));
    } else if constexpr (std::is_void_v<R>) {
      assert(!Opts.FreezeOnExit &&
             "FreezeOnExit requires the body to return an LVar handle");
      publish(ParOutcome<void>::success());
    } else {
      if constexpr (requires { (*Result)->markFrozen(); }) {
        // The session is fully quiescent: freezing here cannot race a put.
        if (Opts.FreezeOnExit)
          (*Result)->markFrozen();
      } else {
        assert(!Opts.FreezeOnExit &&
               "FreezeOnExit requires the body to return an LVar handle");
      }
      publish(ParOutcome<R>::success(std::move(*Result)));
    }
    obs::count(obs::Event::SessionsCompleted);
    obs::addSessionLatencyNanos(DoneNanos - SubmitNanos);
  }

  void reject(FaultCode Code, const char *Reason) final {
    countRejection(Code);
    publish(ParOutcome<R>::failure(makeAdmissionFault(Code, Reason)));
  }

private:
  /// Publishes \p Out and wakes future waiters.
  void publish(ParOutcome<R> Out) {
    std::lock_guard<std::mutex> Lock(Mutex);
    DoneNanos = nowNanos();
    Outcome.emplace(std::move(Out));
    CV.notify_all();
  }
};

/// The session object a submission allocates: a Session plus its body.
/// The root coroutine reaches the body through the session, which
/// outlives every task of it, so the root frame holds no copy.
template <EffectSet E, typename F, typename R>
class Submission final : public Session<R> {
public:
  Submission(F B, const SessionOptions &O)
      : Session<R>(O), Body(std::move(B)) {}

  void launch(Scheduler &Sched) override {
    Sched.beginSession(this->shared_from_this(),
                       this->Opts.StatsOut != nullptr);
    obs::count(obs::Event::SessionsSubmitted);
    lvish::detail::launchTask(Sched, root(this), /*Parent=*/nullptr,
                              check::effectMask(E), /*Scopes=*/{},
                              /*FreshCancel=*/nullptr, this);
  }

private:
  /// The session's root task: materializes the session context and
  /// deposits the body's result in the session's slot. Its frame is the
  /// root Task, so a session launch allocates one block.
  static lvish::detail::TaskRoot root(Submission *S) {
    ParCtx<E> Ctx =
        lvish::detail::CtxAccess::make<E>(Scheduler::currentTask());
    if constexpr (std::is_void_v<R>) {
      co_await S->Body(Ctx);
      S->Result = true;
    } else {
      S->Result = co_await S->Body(Ctx);
    }
  }

  F Body;
};

} // namespace detail

/// Handle to an asynchronously submitted session's eventual outcome.
/// Copyable (all copies share the session object); get() consumes the
/// outcome, so exactly one consumer should call it.
template <typename R> class SessionFuture {
public:
  SessionFuture() = default;

  /// False only for default-constructed futures.
  bool valid() const { return S != nullptr; }

  /// True once the outcome is available (get() will not block). Stays
  /// true after the outcome has been consumed.
  bool ready() const {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    return S->Outcome.has_value() || S->Consumed;
  }

  /// Blocks until the outcome is available.
  void wait() const {
    std::unique_lock<std::mutex> Lock(S->Mutex);
    S->CV.wait(Lock, [this] { return S->Outcome.has_value() || S->Consumed; });
  }

  /// Blocks until the session completes and moves its outcome out (call
  /// once; composes with ParOutcome exactly like tryRunPar's return). A
  /// second call does not block: it returns a deterministic
  /// FaultCode::FutureConsumed outcome - in NDEBUG builds too.
  ParOutcome<R> get() {
    std::unique_lock<std::mutex> Lock(S->Mutex);
    S->CV.wait(Lock, [this] { return S->Outcome.has_value() || S->Consumed; });
    if (!S->Outcome.has_value())
      return ParOutcome<R>::failure(detail::makeConsumedFault(S->Id));
    S->Consumed = true;
    ParOutcome<R> Out = std::move(*S->Outcome);
    S->Outcome.reset();
    return Out;
  }

  /// The session's id (0 for sessions rejected before admission).
  uint64_t sessionId() const {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    return S->Id;
  }

  /// Submit-to-outcome latency; 0 until the outcome is published.
  uint64_t latencyNanos() const {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    return S->DoneNanos ? S->DoneNanos - S->SubmitNanos : 0;
  }

private:
  friend class Runtime;
  explicit SessionFuture(std::shared_ptr<detail::Session<R>> Sess)
      : S(std::move(Sess)) {}
  std::shared_ptr<detail::Session<R>> S;
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
    auto S = makeSession<E>(std::move(Body), Opts);
    runBlocking(*S);
    return std::move(*S->Outcome);
  }

  template <EffectSet E, typename F>
  auto submitSession(F Body, const SessionOptions &Opts) {
    auto S = makeSession<E>(std::move(Body), Opts);
    SessionFuture<detail::BodyResult<E, F>> Fut(S);
    if (Sched.exploreCtl()) {
      // Explore-mode pools have no worker threads: the session executes
      // inline on the submitting thread, exclusively (acquireSlotOrVeto
      // rejects rather than blocks when the pool is busy).
      runBlocking(*S);
    } else {
      // Launched now if a slot is free, or later by the thread that frees
      // one; the worker that quiesces it finalizes it (onQuiescent), and
      // admission may refuse it instead (shed, deadline, stopping).
      S->Completions = this;
      routeSubmission(std::move(S));
    }
    return Fut;
  }

private:
  friend class detail::SessionBase;
  using SessionPtr = std::shared_ptr<detail::SessionBase>;

  /// Allocates the session object, the one allocation a session needs
  /// besides its node in the scheduler's session table.
  template <EffectSet E, typename F>
  auto makeSession(F Body, SessionOptions Opts) {
    if (!Opts.MaxSteps)
      Opts.MaxSteps = DefaultBudget;
    return std::make_shared<
        detail::Submission<E, F, detail::BodyResult<E, F>>>(std::move(Body),
                                                              Opts);
  }

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
  /// The one blocking session driver: admit (or reject), launch, wait on
  /// the session's own quiesce scope, finalizeAndRelease inline.
  void runBlocking(detail::SessionBase &S);
  /// Finalizes the quiescent \p S, then releaseSlot(): the one completion
  /// sequence, run by a blocking driver or by the worker that quiesced an
  /// async session. Touches neither S nor the Runtime after releaseSlot
  /// unlocks Mu.
  void finalizeAndRelease(detail::SessionBase &S);
  /// Frees one slot; launches the next in-deadline queued submission.
  void releaseSlot();
  /// Launches now (slot free), queues FIFO, or refuses (stopping / shed).
  void routeSubmission(SessionPtr S);
  /// Caller must hold Mu. Pops admission-queue entries while a slot is
  /// free: expired ones (past SubmitDeadlineNanos) are moved to
  /// \p Expired for the caller to reject OUTSIDE Mu; the first in-deadline
  /// entry claims the slot and is returned for the caller to launch.
  SessionPtr admitNextLocked(std::vector<SessionPtr> &Expired);

  /// Declared first, so destroyed last: ~Runtime destroys Mu and SlotCV
  /// before the Scheduler joins its workers. Hence a worker touches nothing
  /// of the Runtime once its releaseSlot has unlocked Mu.
  Scheduler Sched;
  const unsigned MaxActive;
  const unsigned MaxQueued;
  const uint64_t DeadlineNanos;
  const uint64_t DefaultBudget;

  std::mutex Mu;
  /// Signalled on slot release (blocking admission, drain()).
  std::condition_variable SlotCV;
  /// Sessions admitted but not yet finalized.
  unsigned Active = 0;
  /// Async submissions waiting for a slot (FIFO admission).
  std::deque<SessionPtr> AdmitQueue;
  /// Set by drain(): admission is closed for good.
  bool Stopping = false;
};

} // namespace service
} // namespace lvish

#endif // LVISH_SERVICE_RUNTIME_H
