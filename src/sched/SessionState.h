//===- SessionState.h - Per-session scheduler accounting --------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One \c SessionState per in-flight runPar session on a scheduler. The
/// paper's `s` type parameter scopes every LVar to one session; the service
/// runtime (src/service) additionally multiplexes many *concurrent*
/// sessions onto one worker pool, so the bookkeeping that used to be
/// scheduler-global - the outstanding-task count whose zero means
/// quiescence, the recorded fault and the cancellation root it fires, the
/// quiescence condition variable, the inject FIFO - lives here, one
/// instance per session.
///
/// The service runtime's session object (service::detail::Session) derives
/// from it, so \c Mutex and \c CV guard and signal its outcome too.
///
/// Lifetime: allocated (shared_ptr) by the session's driver; the
/// scheduler's session table co-owns it from beginSession to
/// finishSession. Tasks only borrow it: \c Task::Session and \c Task::Cancel
/// are plain pointers, and a fork touches no reference count. Why that is
/// safe:
///
///  * The session table owns S until finishSession, and finishSession
///    runs only after the session quiesced. Every task is retired by the
///    time it returns: a task that is not parked is counted in
///    \c Pending, and a parked one is in the registry and reaped there.
///  * A task's pending count is released after the task is retired
///    (Scheduler::retireAndRelease), so S outlives every task that can
///    still decrement it. The last thing that touches S after its last
///    decrement is Scheduler::removePending's critical section under
///    \c Mutex: it sets \c Quiesced there, and
///    Scheduler::waitSessionQuiescent waits for that flag, not for
///    \c Pending == 0. A waiter that read 0 early could free S while the
///    notifier was still about to lock it.
///  * From quiescence to finalization an async session is held by the
///    session table: the decrementing worker links it onto its own list
///    and calls \c onQuiescent, which takes a reference before
///    finishSession drops the table's. A blocking one is held by its
///    driver, which finalizes it itself.
///  * Every CancelNode a task can point at is either \c CancelRoot or a
///    node that forkCancelable registered in the tree
///    (CancelNode::addChild) before launching a task on it, so the root's
///    tree - owned by S - owns them all. A handler task borrows its
///    registrar's node, which is in the tree by the same rule.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_SCHED_SESSIONSTATE_H
#define LVISH_SCHED_SESSIONSTATE_H

#include "src/obs/SchedulerStats.h"
#include "src/sched/CancelNode.h"
#include "src/support/Fault.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>

namespace lvish {

class Task;

/// Per-session scheduler state; see file comment. Fields are manipulated
/// by the owning Scheduler only (callers go through the Scheduler's
/// session API).
class SessionState {
public:
  SessionState() = default;
  SessionState(const SessionState &) = delete;
  SessionState &operator=(const SessionState &) = delete;
  virtual ~SessionState() = default;

  /// Session id, also stamped on every Task and LVar of the session.
  /// beginSession writes it under \c Mutex: a future may read it.
  uint64_t Id = 0;

  /// Tasks of THIS session that are runnable or running. Zero means the
  /// session is quiescent: nothing of this session can ever create work
  /// again. A task waiting lazily on its worker's lazy stack counts as
  /// running: it leaves the count only when the worker publishes its wait
  /// and it parks. Quiescence is this counter alone, threaded or explored:
  /// the explore driver steps the session until it reaches zero.
  std::atomic<int64_t> Pending{0};

  /// Guards TaskHead and the intrusive Task::RegPrev/RegNext links of
  /// this session's parked tasks. Taken on park and on wake only, so a
  /// task that never parks takes no session lock.
  std::mutex TasksMutex;

  /// The session's registry: every parked task of THIS session (an
  /// intrusive list through Task::RegPrev/RegNext), so finishSession
  /// reaps its leftovers without visiting any sibling session's tasks.
  /// Scheduler::onTaskParked links a task under its park site's lock;
  /// Scheduler::wake, the only unpark path, unlinks it.
  Task *TaskHead = nullptr;

  /// The session's inject FIFO (through Task::InjectNext) and its link in
  /// the scheduler's ring of sessions whose FIFO is not empty; guarded by
  /// the scheduler's inject lock.
  Task *InjectHead = nullptr;
  Task *InjectTail = nullptr;
  SessionState *InjectRingNext = nullptr;

  /// Link in the list of quiesced sessions whose hook the worker that
  /// quiesced them has yet to call; only that worker touches it.
  SessionState *QuiescedNext = nullptr;

  /// The session root's cancellation node: what raiseFault cancels to
  /// contain a fault to this session. Its tree owns every cancellation
  /// node a task of the session points at.
  CancelNode CancelRoot;

  /// Deterministic step budget: maximum number of scheduler decisions
  /// (task resumes) this session may consume before it is killed with
  /// FaultCode::BudgetExceeded. 0 means unlimited. Written once, before
  /// the session root is scheduled (publication piggybacks on the
  /// schedule() handoff), read by every worker that pops a task of this
  /// session. Counted in steps - not wall clock - so the kill point is
  /// identical on every run of the same schedule (DESIGN.md Section 16).
  uint64_t StepBudget = 0;

  /// Scheduler decisions charged so far (relaxed; the kill is raised by
  /// exactly the worker whose fetch_add crossed the budget).
  std::atomic<uint64_t> StepsUsed{0};

  /// Scheduler::stats() snapshot taken at beginSession if asked for; the
  /// session's stats delta is the current snapshot minus this one. Exact
  /// when sessions run back-to-back; approximate while sessions overlap
  /// (concurrent sessions' events land in the same worker counters).
  SchedulerStats StartStats;

  /// Guards SessionFault / Quiesced (and the driver's outcome); backs CV.
  std::mutex Mutex;

  /// Signalled at quiescence (Scheduler::removePending) and outcome.
  std::condition_variable CV;

  /// Set, under Mutex, by the decrement that took Pending to zero; see the
  /// file comment for why waiters wait for it rather than for Pending.
  bool Quiesced = false;

  /// Lattice-least fault recorded for this session, if any.
  std::optional<Fault> SessionFault;

protected:
  friend class Scheduler;

  /// True when quiescence must call onQuiescent. Read under \c Mutex by
  /// the decrement that took Pending to zero; false for blocking sessions,
  /// whose driver waits on \c CV.
  virtual bool hasQuiescentHook() const { return false; }

  /// Called exactly once, after Pending reached zero, on the worker of
  /// the pool whose decrement got it there, with no lock held - after
  /// that worker's current dispatch, before it idles. The service runtime
  /// finalizes an async session here and admits the next one.
  virtual void onQuiescent() {}
};

} // namespace lvish

#endif // LVISH_SCHED_SESSIONSTATE_H
