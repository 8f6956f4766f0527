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
/// quiescence condition variable - lives here, one instance per session.
///
/// Lifetime: created by Scheduler::beginSession and owned (shared_ptr) by
/// the scheduler's session table and the submitter's completion plumbing.
/// Tasks only borrow it: \c Task::Session and \c Task::Cancel are plain
/// pointers, and a fork touches no reference count. Why that is safe:
///
///  * The session table owns S until finishSession, and finishSession
///    runs only after the session quiesced. Every task is retired by the
///    time it returns: a task that is not parked is counted in
///    \c Pending, and a parked one is in the registry and reaped there.
///  * A task's pending count is released after the task is retired
///    (Scheduler::retireAndRelease), so S outlives every task that can
///    still decrement it. The last thing that touches S after its last
///    decrement is Scheduler::removePending's notify under \c Mutex; it
///    sets \c Quiesced there, and Scheduler::waitSessionQuiescent waits
///    for that flag, not for \c Pending == 0. A waiter that read 0 early
///    could free S while the notifier was still about to lock it. An
///    async session's observer holds its own reference through the call.
///  * Every CancelNode a task can point at is either \c CancelRoot or a
///    node that forkCancelable registered under its parent's node
///    (CancelNode::addChild) before launching the task, so the root's
///    tree - owned by S - owns them all.
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
#include <functional>
#include <memory>
#include <mutex>
#include <optional>

namespace lvish {

class Task;

/// Per-session scheduler state; see file comment. Fields are manipulated
/// by the owning Scheduler only (callers go through the Scheduler's
/// session API).
class SessionState {
public:
  /// Session id, also stamped on every Task and LVar of the session.
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

  /// The session root's cancellation node: what raiseFault cancels to
  /// contain a fault to this session. Its tree owns every cancellation
  /// node a task of the session points at.
  std::shared_ptr<CancelNode> CancelRoot;

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

  /// Scheduler::stats() snapshot taken at beginSession; the session's
  /// stats delta is the current snapshot minus this one. Exact when
  /// sessions run back-to-back; approximate while sessions overlap
  /// (concurrent sessions' events land in the same worker counters).
  SchedulerStats StartStats;

  /// Guards SessionFault / Observer / Quiesced and backs CV.
  std::mutex Mutex;

  /// Signalled when Pending hits zero (see Scheduler::removePending).
  std::condition_variable CV;

  /// Set, under Mutex, by the decrement that took Pending to zero; see the
  /// file comment for why waiters wait for it rather than for Pending.
  bool Quiesced = false;

  /// Lattice-least fault recorded for this session, if any.
  std::optional<Fault> SessionFault;

  /// Fired exactly once when Pending first hits zero, AFTER Mutex is
  /// released. May run under a park-site lock (the last task of a session
  /// can park while holding one), so it must only enqueue - the service
  /// runtime pushes the session onto its completion queue here; heavy
  /// finalization (finishSession) happens on the finalizer thread.
  std::function<void()> Observer;
};

} // namespace lvish

#endif // LVISH_SCHED_SESSIONSTATE_H
