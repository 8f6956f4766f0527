//===- Scheduler.h - Work-stealing Par scheduler ----------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The work-stealing scheduler that runs Par computations, mirroring the
/// "lightweight, library-level threads ... scheduled by a custom
/// work-stealing scheduler provided by LVish" (Section 2 of the paper).
/// Tasks are C++20 coroutine chains (see src/sched/Task.h); a blocked
/// threshold read parks its task on the LVar's waiter list and the worker
/// moves on, so blocking never occupies an OS thread.
///
/// Lazy waits (work-first, as in Cilk-5): a read that misses while its
/// worker's own deque still holds work is not published. It goes on the
/// worker's lazy stack (at most LazyWaitCap deep) and stays pending in its
/// session and runnable in its scopes. The worker re-probes the innermost
/// one after every slice and runs its task next once the threshold holds;
/// when its own deque runs dry, it publishes them all through the park
/// site's publish-then-recheck before it takes injected work, steals or
/// sleeps. A threshold that holds keeps holding, so a later read reads the
/// same value; a fork joined on the same worker thus costs no park and no
/// wake. Explore mode and tracing keep every wait eager (the controller
/// owns every decision; the trace needs wake()'s dataflow edge).
///
/// Session protocol (driven by the service runtime in src/service, which
/// runPar wraps):
///   1. the driver allocates its session object - a SessionState subclass
///      that also holds the body and the outcome - and beginSession()
///      stamps its id and enters it in the session table, which co-owns it
///      until finishSession; the root task points at it and is scheduled,
///      and every task forked under the root borrows the same pointer;
///   2. the decrement that takes the session's pending count to zero marks
///      it Quiesced under its mutex: no task OF THAT SESSION is runnable or
///      running, while sibling sessions sharing the pool keep running. A
///      blocking driver waits for the flag in waitSessionQuiescent(S); a
///      session with an onQuiescent() hook (an async service session)
///      goes on the decrementing worker's private list, and that worker
///      calls the hook - which finalizes the session - with no lock held,
///      after its current dispatch and before it idles;
///   3. finishSession(S) reaps the session's permanently parked tasks -
///      exactly the tasks in its registry, which holds a task from the
///      park that links it to the wake that unlinks it. A task that is
///      still parked at quiescence can never be woken (only tasks perform
///      puts, and LVars are session-local), so destroying it cannot change
///      any observable outcome; this is how cancelled-and-forgotten or
///      speculatively blocked tasks are collected, matching GC of blocked
///      green threads in the Haskell original. If the *root* never
///      produced a result, the program has a deterministic deadlock, which
///      the session driver reports as a Fault. Every task of the session
///      is retired by the time it returns.
///
/// Fairness across sessions: externally submitted and yielded tasks land
/// in their session's own inject FIFO (an intrusive list through
/// Task::InjectNext); the sessions whose FIFO is not empty form a ring
/// drained round-robin (one task per session per turn), and every 61st
/// dispatch (the fairness stride, a constant in Scheduler.cpp) a worker
/// checks the inject queues BEFORE its own deque, so a fan-out-heavy
/// session whose deques never drain cannot starve injected siblings.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_SCHED_SCHEDULER_H
#define LVISH_SCHED_SCHEDULER_H

#include "src/obs/SchedulerStats.h"
#include "src/sched/BlockCache.h"
#include "src/sched/ExploreHooks.h"
#include "src/sched/FaultSignal.h"
#include "src/sched/SessionState.h"
#include "src/sched/Task.h"
#include "src/sched/Trace.h"
#include "src/sched/WorkStealingDeque.h"
#include "src/support/Assert.h"
#include "src/support/Fault.h"
#include "src/support/SplitMix.h"

#include <atomic>
#include <condition_variable>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lvish {

class TaskScope;

namespace detail {

class TaskRoot;

/// The one routine that spawns a task; see its definition in
/// src/core/Par.h. The defaults live on this first declaration.
inline void launchTask(
    Scheduler &Sched, TaskRoot Body, Task *Parent, uint8_t Fx,
    std::initializer_list<std::shared_ptr<TaskScope>> Scopes = {},
    CancelNode *FreshCancel = nullptr, SessionState *Session = nullptr);

} // namespace detail

/// Scheduler construction parameters.
struct SchedulerConfig {
  /// Number of worker threads. 0 means std::thread::hardware_concurrency().
  unsigned NumWorkers = 0;
  /// Record the task DAG for the parallelism simulator (src/sim).
  bool EnableTracing = false;
  /// Seed for the (non-semantic) steal-victim randomization.
  uint64_t StealSeed = 0x6c76697368ULL; // "lvish"
  /// Controlled-scheduling test mode (DESIGN.md Section 12): when
  /// non-null, no worker threads are spawned and the session thread
  /// single-steps NumWorkers *virtual* workers, delegating every
  /// nondeterministic decision to this controller. Set via
  /// RunOptions::Explore; null (zero overhead) in production runs.
  explore::ScheduleCtl *Explore = nullptr;
};

/// Work-stealing scheduler; see file comment. One scheduler runs many
/// sessions, concurrently: each session carries its own SessionState, so
/// quiescence, faults, and stats deltas are all session-scoped.
class Scheduler {
public:
  explicit Scheduler(SchedulerConfig Config = SchedulerConfig());
  ~Scheduler();

  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  unsigned numWorkers() const { return static_cast<unsigned>(Workers.size()); }

  /// Index of the calling worker's per-worker slot in a [0, numWorkers()]
  /// array, with numWorkers() for external (non-worker) callers. Used by
  /// a plain handler registration to pick the delta slot of the worker
  /// running a put.
  unsigned callerBatchIndex() const;

  /// Makes \p T runnable for the first time, or again after a park: on
  /// the calling worker's own deque, or - off this scheduler's workers, or
  /// with \p Inject - on its session's inject FIFO. A session root is
  /// launched with \p Inject, so a root a worker launches queues behind
  /// the sessions admitted before it instead of ahead of them.
  void schedule(Task *T, bool Inject = false);

  /// Wakes a parked task - the only way a task leaves its park - and
  /// unlinks it from its session's registry; \p Waker (may be null) is
  /// recorded as the dataflow edge source when tracing.
  void wake(Task *T, Task *Waker);

  /// Requeues a task that is yielding cooperatively: it never parked, so
  /// the pending-work count and scope counts are untouched.
  void wakeKeepPending(Task *T);

  /// Bookkeeping for a task that just parked itself on a waiter list:
  /// links it into its session's registry, then drops it from the
  /// session's pending count. Called by the parking awaiter under the
  /// park site's lock (see LVarBase for the exact publication protocol).
  void onTaskParked(Task *T);

  /// True when a threshold read that just missed may wait lazily instead
  /// of parking: the caller is a worker of this scheduler, its own deque
  /// holds work, its lazy stack has room, and neither an explore
  /// controller nor tracing needs every wait published (see file comment).
  bool canParkLazily() const;

  /// Records \p W on the calling worker's lazy stack; its task then
  /// suspends without a waiter push, a fence or onTaskParked: it stays
  /// pending in its session and runnable in its scopes. Called under W's
  /// bucket lock, right after canParkLazily() held.
  void waitLazily(const LazyWait &W);

  /// Called from a task root's final awaiter: retires the finished task,
  /// destroying its frame.
  void onTaskFinished(Task *T);

  /// Defers destruction of the (currently suspended) cancelled task to the
  /// worker loop, immediately after the current resume slice unwinds.
  void deferRetire(Task *T);

  /// Opens session \p S: stamps a fresh id, snapshots the stats baseline
  /// when \p SnapshotStats (only sessionStats reads it), and registers S
  /// in the session table so raiseFault can route to it. A contained
  /// fault cancels S->CancelRoot. Call BEFORE launching the session's root
  /// task so the root's creation lands inside the session's stats delta.
  void beginSession(std::shared_ptr<SessionState> S, bool SnapshotStats);

  /// Blocks the calling (non-worker) thread until no task of session \p S
  /// is runnable or running and the decrement that made it so is done
  /// with \p S (SessionState::Quiesced); sibling sessions keep executing.
  /// In explore mode this is where the session actually executes: the
  /// calling thread single-steps the virtual workers to quiescence.
  void waitSessionQuiescent(SessionState &S);

  /// Explore mode: reorders a batch of tasks about to be woken together
  /// by repeatedly asking the controller, through \p Ask, which of the
  /// remaining tasks fires next. Threshold wakeups and scope drains ask
  /// ScheduleCtl::onPick; a BoundedStream capacity credit asks
  /// ScheduleCtl::onBackpressure, so its choice is recorded (and
  /// replayed) as its own decision kind. No-op (one null check) outside
  /// explore mode or for batches of one.
  void explorePermute(std::vector<Task *> &ToWake,
                      unsigned (explore::ScheduleCtl::*Ask)(unsigned));

  /// The session's schedule controller, or null outside explore mode.
  explore::ScheduleCtl *exploreCtl() const { return ExploreCtl; }

  /// Reaps every task of session \p S still in its registry of parked
  /// tasks (all are permanently parked at this point), unregisters the
  /// session from the table, and returns how many tasks were reaped.
  /// Requires the session to be quiescent. Walks only \p S's own
  /// registry, so
  /// its cost is O(this session's leftovers) and sibling sessions are
  /// neither visited nor touched: LVars are session-local
  /// (LVarBase::checkSession), so reaping one session's park sites can
  /// never wake another's waiters.
  size_t finishSession(SessionState &S);

  /// Records \p F as its session's fault - routed by F.SessionId through
  /// the session table, keeping whichever of the old and new fault is
  /// least under faultLess, so the winner under a fault race is
  /// deterministic - and transitively cancels THAT SESSION ONLY via its
  /// root CancelNode. Thread-safe; called from workers mid-violation. A
  /// fault for an already-finished session is dropped.
  void raiseFault(Fault F);

  /// Takes (and clears) the fault recorded for session \p S, if any.
  /// Called by the session driver after finishSession.
  std::optional<Fault> takeSessionFault(SessionState &S);

  /// The session's scheduler-stats delta: stats() minus the baseline
  /// snapshotted at beginSession. Counters are exact once the session has
  /// quiesced AND no sibling session ran concurrently; with overlapping
  /// sessions the delta attributes shared-pool activity approximately.
  /// MaxDequeDepth and NumWorkers are not differences: the current
  /// (cumulative) values are reported.
  SchedulerStats sessionStats(const SessionState &S) const;

  /// The task currently executing on this thread (null on non-workers).
  static Task *currentTask();

  /// Worker index of the calling thread (on whichever scheduler owns it),
  /// or -1 on non-worker threads. Diagnostic only.
  static int currentWorkerIndex();

  /// Trace recorder, or null when tracing is disabled.
  TraceRecorder *trace() { return Tracing ? &Recorder : nullptr; }

  /// Aggregates every worker's counter block (plus the shared block for
  /// off-worker events) into one snapshot. Counters are cumulative over
  /// the scheduler's lifetime; the snapshot is exact once all sessions
  /// have quiesced, approximate while workers run. Per-session deltas
  /// (what SessionOptions::StatsOut delivers) come from sessionStats().
  SchedulerStats stats() const;

private:
  /// Only launchTask creates tasks: it also declares and schedules them.
  friend void detail::launchTask(
      Scheduler &, detail::TaskRoot, Task *, uint8_t,
      std::initializer_list<std::shared_ptr<TaskScope>>, CancelNode *,
      SessionState *);

  /// Initialises \p T, the promise of a task root that has not started,
  /// in place: it allocates nothing, and schedules nothing. A child of
  /// \p Parent inherits its session, cancellation node (unless
  /// \p FreshCancel replaces it), scopes and a split of every transformer
  /// layer; a session root (null \p Parent) takes \p Session's id and
  /// CancelRoot. The task then enters \p Scopes.
  void createTask(Task *T, Task *Parent,
                  std::initializer_list<std::shared_ptr<TaskScope>> Scopes,
                  CancelNode *FreshCancel, SessionState *Session);

  /// Lazy waits one worker may hold; beyond it a missed read parks. A
  /// constant, like the block cache's bounds: a fork-join nest deeper
  /// than this pays a park per extra level.
  static constexpr unsigned LazyWaitCap = 64;

  struct alignas(64) Worker {
    WorkStealingDeque<Task> Deque;
    SplitMix64 StealRng;
    Task *PendingRetire = nullptr;
    std::thread Thread;
    /// Dispatches since this worker last checked the inject queues (see
    /// the fairness stride in Scheduler.cpp).
    unsigned InjectStreak = 0;
    /// This worker's private counter block (its own cache line).
    obs::WorkerCounters Counters;
    /// Threshold reads waiting lazily, innermost last. Only this worker
    /// touches them.
    unsigned LazyCount = 0;
    LazyWait Lazy[LazyWaitCap];
    /// Sessions this worker quiesced whose onQuiescent hook it has yet to
    /// call (through SessionState::QuiescedNext). Only this worker touches
    /// them.
    SessionState *QuiescedHead = nullptr;
  };

  void workerLoop(unsigned Index);
  Task *findWork(unsigned Index);
  /// The dispatch step both workerLoop and exploreRun take for a task
  /// \p Me just acquired: charge the step budget, reap \p T if it was
  /// cancelled, else resume its slice, then retire what the slice handed
  /// to deferRetire.
  void dispatch(Worker &Me, Task *T);
  /// Re-probes \p Me's innermost lazy wait; pops and returns its task when
  /// the threshold holds, else null.
  Task *resumeLazy(Worker &Me);
  /// Publishes every lazy wait of \p Me, outermost first. A wait whose
  /// threshold holds by now goes back on \p Me's deque, still pending.
  void publishLazy(Worker &Me);
  /// Charges one scheduler decision against \p T's session step budget
  /// (SessionState::StepBudget). Exactly the call whose count first
  /// crosses the budget raises FaultCode::BudgetExceeded through the
  /// normal cancel-and-drain path; the popped task then retires via the
  /// isCancelled check that follows every charge site. No-op (one load)
  /// for unbudgeted sessions.
  void chargeBudgetStep(Task *T);
  /// Explore mode's session driver: runs on the waitSessionQuiescent
  /// caller, masquerading as each virtual worker in turn, until \p S is
  /// quiescent.
  void exploreRun(SessionState &S);
  /// Counts one event in the calling thread's counter block: the worker's
  /// own (single writer) when called on a worker of this scheduler, else
  /// the shared external block (runPar roots and wakes arrive from
  /// non-worker threads).
  void bumpCounter(std::atomic<uint64_t> obs::WorkerCounters::*Field);
  Task *tryInjected();
  /// Enqueues \p T on its session's inject queue (round-robin drained).
  void pushInjected(Task *T);
  /// Bumps \p T's session pending count.
  void addPending(Task *T);
  /// Drops \p S's pending count; when it hits zero, marks S Quiesced and
  /// signals its CV under S.Mutex, and links a session with a hook onto
  /// the calling worker's QuiescedHead list.
  void removePending(SessionState &S);
  /// Calls the onQuiescent hook of every session on \p Me's QuiescedHead
  /// list, with no lock held.
  void runQuiescentHooks(Worker &Me);
  /// Leaves \p T's scopes and destroys its root frame, \p T with it.
  /// \p T must not be in its session's registry.
  void retire(Task *T);
  /// Retires a finished or cancelled \p T, then drops it from its
  /// session's pending count.
  void retireAndRelease(Task *T);
  void sliceEnd(Task *T);
  void sliceBegin(Task *T);
  /// Ends the current slice and opens a new one (at fork and wake points);
  /// returns the ended slice's id, or TraceRecorder::None.
  uint32_t sliceCut(Task *T);

  const bool Tracing;
  explore::ScheduleCtl *const ExploreCtl;
  TraceRecorder Recorder;

  std::vector<std::unique_ptr<Worker>> Workers;
  std::atomic<bool> Shutdown{false};

  std::atomic<uint64_t> NextSessionId{1};

  /// Counter block for events raised off the worker threads.
  obs::WorkerCounters ExternalCounters;

  // External submission queues (session roots; yields; wakes from
  // non-worker threads): each session's own FIFO, drained round-robin.
  // InjectRing points at the LAST session of a circular list (through
  // SessionState::InjectRingNext) of the sessions whose FIFO is not empty;
  // each turn takes ONE task from the session after it, then rotates that
  // session to the back - deficit round-robin with quantum 1. A single
  // session degenerates to one FIFO.
  std::mutex InjectMutex;
  SessionState *InjectRing = nullptr;

  // Idle workers sleep here.
  std::mutex IdleMutex;
  std::condition_variable IdleCV;
  std::atomic<int> SleeperCount{0};

  // Live sessions, keyed by id (raiseFault routes through this). The
  // table owns each session's state until finishSession; tasks borrow it.
  // Each session keeps its own registry of parked tasks
  // (SessionState::TaskHead).
  mutable std::mutex SessionsMutex;
  std::unordered_map<uint64_t, std::shared_ptr<SessionState>> Sessions;
};

namespace detail {

/// Classifies the exception a coroutine of the current task is unwinding
/// with: a FaultSignal (the session fault is already recorded; see
/// FaultSignal.h) marks the task so that a final awaiter retires it, and
/// anything else aborts. Every Par and task-root promise calls it from
/// unhandled_exception.
inline void containException() {
  try {
    throw; // lvish-lint: allow(no-throw) - rethrow to classify.
  } catch (const FaultSignal &) {
    Task *T = Scheduler::currentTask();
    assert(T && "FaultSignal outside a scheduled task");
    if (T)
      T->FaultPoisoned = true;
  } catch (...) {
    // User exceptions have no deterministic containment story; the
    // legacy abort stands. lvish-lint: allow(fatal)
    fatalError("exception escaped a Par computation (lvish-cpp library "
               "code never throws; check user code)");
  }
}

/// A task's root coroutine. Its promise is the Task, so the task lives in
/// the frame that also holds the root's arguments (a fork's closure, a
/// handler's registration, a session's pointer): one block from the
/// calling thread's block cache, freed by the one destroy() in
/// Scheduler::retire. Every spawn site returns one and hands it to
/// launchTask before it starts.
class TaskRoot {
  static_assert(alignof(Task) <= blockcache::ClassBytes,
                "a root frame's Task needs the block cache's alignment");

public:
  struct promise_type final : Task {
    static void *operator new(std::size_t Bytes) {
      return blockcache::allocate(Bytes);
    }
    static void operator delete(void *P, std::size_t Bytes) noexcept {
      blockcache::release(P, Bytes);
    }

    /// A root has no continuation: finishing retires the task.
    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<>
      await_suspend(std::coroutine_handle<promise_type> H) noexcept {
        Task &T = H.promise();
        // onTaskFinished destroys H's frame, T included; nothing below
        // may touch either.
        T.Sched->onTaskFinished(&T);
        return std::noop_coroutine();
      }
      void await_resume() const noexcept {}
    };

    TaskRoot get_return_object() {
      return TaskRoot(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() const noexcept { return {}; }
    FinalAwaiter final_suspend() const noexcept { return {}; }
    void return_void() const noexcept {}
    void unhandled_exception() { containException(); }
  };

  /// The root frame of \p T: every task is a TaskRoot's promise.
  static std::coroutine_handle<promise_type> frameOf(Task &T) {
    return std::coroutine_handle<promise_type>::from_promise(
        static_cast<promise_type &>(T));
  }

  TaskRoot(TaskRoot &&O) noexcept : Frame(std::exchange(O.Frame, nullptr)) {}
  ~TaskRoot() {
    if (Frame)
      Frame.destroy();
  }

  /// Gives up the unstarted frame; its task is now the caller's to launch.
  Task &release() { return std::exchange(Frame, nullptr).promise(); }

private:
  explicit TaskRoot(std::coroutine_handle<promise_type> H) : Frame(H) {}
  std::coroutine_handle<promise_type> Frame;
};

} // namespace detail
} // namespace lvish

#endif // LVISH_SCHED_SCHEDULER_H
