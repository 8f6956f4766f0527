//===- Deadlock.h - Deadlock-detecting scopes (DeadlockT) -------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// \c DeadlockT (Section 6): "returns when all computations underneath a
/// forked child have either returned or blocked indefinitely. This
/// transformer is useful for detecting and responding to cycles in graphs
/// of computations."
///
/// The child computation and everything it forks are counted by a
/// Runnable-mode TaskScope: a task leaves the count when it finishes or
/// parks, re-enters when woken. The scope drains exactly at the paper's
/// condition. Two obligations carry over:
///
///  * Children must be "blind" toward the outside world: they may write
///    LVars visible outside but must only *read* LVars created inside the
///    scope. "If they could read [outside data], they could block on data
///    outside of their control, which creates ambiguity between genuine
///    deadlock and temporary blocking." The effect system cannot see
///    inside/outside, so this is a documented contract (checked in spirit
///    by requiring HasPut; reads remain possible for scope-internal
///    dataflow).
///  * Tasks left permanently blocked are reaped at the end of the session
///    (see Scheduler::finishSession); their effects can never occur.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_TRANS_DEADLOCK_H
#define LVISH_TRANS_DEADLOCK_H

#include "src/check/EffectAuditor.h"
#include "src/core/Par.h"
#include "src/sched/TaskScope.h"

#include <memory>

namespace lvish {

/// What a deadlock scope observed once it drained.
struct DeadlockReport {
  /// Tasks of the scope still alive (necessarily parked) at drain time:
  /// 0 means everything returned; > 0 means a deadlock (e.g. a dependency
  /// cycle) left that many tasks permanently blocked.
  int64_t BlockedTasks = 0;

  bool deadlocked() const { return BlockedTasks > 0; }
};

namespace detail {

/// Awaits a Runnable-mode scope's drain.
class ScopeDrainAwaiter {
public:
  ScopeDrainAwaiter(std::shared_ptr<TaskScope> S, Task *T)
      : Scope(std::move(S)), Tsk(T) {}

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> H) {
    if (Tsk->isCancelled()) {
      Tsk->Sched->deferRetire(Tsk);
      return true;
    }
    Tsk->Resume = H;
    return Scope->parkUntilDrained(Tsk);
  }
  void await_resume() const noexcept {}

private:
  std::shared_ptr<TaskScope> Scope;
  Task *Tsk;
};

} // namespace detail

/// Runs \p Body as a forked child under deadlock detection; returns when
/// every task underneath has returned or blocked indefinitely, reporting
/// how many remained blocked.
template <EffectSet E, typename F>
  requires(hasPut(E) && hasGet(E))
Par<DeadlockReport> forkWithDeadlockDetection(ParCtx<E> Ctx, F Body) {
  static_assert(std::is_invocable_r_v<Par<void>, F, ParCtx<E>>,
                "deadlock-scope body must be Par<void>(ParCtx<E>)");
  // Runnable scope detects the returned-or-blocked condition; the Live
  // twin lets us count how many tasks were still alive (blocked) at drain.
  auto Runnable = std::make_shared<TaskScope>(TaskScope::Mode::Runnable);
  auto Live = std::make_shared<TaskScope>(TaskScope::Mode::Live);

  // Blocked descendants may be retired long after this frame returns;
  // every task under the scopes owns them through its scope list.
  detail::launchTask(*Ctx.sched(), detail::forkBody<E>(std::move(Body)),
                     Ctx.task(), check::effectMask(E), {Runnable, Live});

  co_await detail::ScopeDrainAwaiter(Runnable, Ctx.task());
  DeadlockReport Report;
  Report.BlockedTasks = Live->activeCount();
  co_return Report;
}

} // namespace lvish

#endif // LVISH_TRANS_DEADLOCK_H
