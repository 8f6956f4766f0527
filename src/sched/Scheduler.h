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
///   1. beginSession() allocates a SessionState (id, per-session pending
///      count, fault slot, cancel root) and enters it in the session
///      table, which owns it until finishSession; the root task points at
///      it and is scheduled, and every task forked under the root borrows
///      the same pointer;
///   2. waitSessionQuiescent(S) blocks until the decrement that took the
///      session's pending count to zero has marked it Quiesced - no task
///      OF THAT SESSION is runnable or running, while sibling sessions
///      sharing the pool keep running; async submitters install a
///      quiescence observer instead;
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
/// in per-session inject queues drained round-robin (one task per session
/// per turn), and every 61st dispatch (the fairness stride, a constant in
/// Scheduler.cpp) a worker checks the inject queues BEFORE its own deque,
/// so a fan-out-heavy session whose deques never drain cannot starve
/// injected siblings.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_SCHED_SCHEDULER_H
#define LVISH_SCHED_SCHEDULER_H

#include "src/obs/SchedulerStats.h"
#include "src/sched/ExploreHooks.h"
#include "src/sched/SessionState.h"
#include "src/sched/Task.h"
#include "src/sched/Trace.h"
#include "src/sched/WorkStealingDeque.h"
#include "src/support/Fault.h"
#include "src/support/SplitMix.h"

#include <atomic>
#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

namespace lvish {

class TaskScope;
template <typename T> class Par;

namespace detail {

/// The one routine that spawns a task; see its definition in
/// src/core/Par.h. The defaults live on this first declaration.
inline void launchTask(
    Scheduler &Sched, Par<void> Body, Task *Parent, uint8_t Fx,
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
  /// HandlerPool to pick the delta batch of the worker running a put.
  unsigned callerBatchIndex() const;

  /// Makes \p T runnable for the first time, or again after a park.
  void schedule(Task *T);

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

  /// Called from a root coroutine's final awaiter: retires the finished
  /// task, destroying its frame.
  void onTaskFinished(Task *T);

  /// Defers destruction of the (currently suspended) cancelled task to the
  /// worker loop, immediately after the current resume slice unwinds.
  void deferRetire(Task *T);

  /// Opens a new session: allocates an id, snapshots the stats baseline,
  /// and registers the state in the session table so raiseFault can route
  /// to it. \p SessionRoot is the root CancelNode a contained fault
  /// cancels. Call BEFORE launching the session's root task so the root's
  /// creation lands inside the session's stats delta.
  std::shared_ptr<SessionState> beginSession(
      std::shared_ptr<CancelNode> SessionRoot);

  /// Installs \p OnQuiescent to fire exactly once when the session's
  /// pending count first reaches zero. Must be installed before the
  /// session's root is scheduled. The callback may run under a park-site
  /// lock: it must only enqueue (see SessionState::Observer).
  void setSessionObserver(SessionState &S, std::function<void()> OnQuiescent);

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
      Scheduler &, Par<void>, Task *, uint8_t,
      std::initializer_list<std::shared_ptr<TaskScope>>, CancelNode *,
      SessionState *);

  /// Creates (but does not schedule) a task owning coroutine \p Root. A
  /// child of \p Parent inherits its session, cancellation node (unless
  /// \p FreshCancel replaces it), scopes and a split of every transformer
  /// layer; a session root (null \p Parent) takes \p Session's id and
  /// CancelRoot. The task then enters \p Scopes. Its storage comes from
  /// the calling thread's block cache (src/sched/BlockCache.h).
  Task *createTask(std::coroutine_handle<> Root, Task *Parent,
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
  /// Drops \p S's pending count; fires the session's quiescence
  /// CV/observer when it hits zero.
  void removePending(SessionState &S);
  /// Destroys \p T (scopes, frame) and returns its storage to the block
  /// cache. \p T must not be in its session's registry.
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
  // non-worker threads), one per session, drained round-robin: each turn
  // takes ONE task from the front session's queue, then rotates that
  // session to the back - deficit round-robin with quantum 1. A single
  // session degenerates to the old FIFO.
  std::mutex InjectMutex;
  std::unordered_map<uint64_t, std::deque<Task *>> InjectBySession;
  std::deque<uint64_t> InjectOrder;
  size_t InjectedCount = 0;

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

} // namespace lvish

#endif // LVISH_SCHED_SCHEDULER_H
