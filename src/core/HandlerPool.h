//===- HandlerPool.h - Event handlers and quiescence ------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Handler pools: LVish lets a program "register latent event handlers
/// that run when puts that change the state of an LVar occur ... these are
/// equivalent to an implicit set of functions blocked on gets" (Section 2,
/// footnote 3). A pool groups handler invocations so that \c quiesce can
/// block until the entire cascade they trigger has drained - the pattern
/// behind the graph-traversal example in the paper's appendix.
///
/// Any LVar deriving from \c HandledLVar<Delta> (src/core/LVarBase.h) -
/// which supplies \c DeltaType and \c addHandlerRaw, and asks the
/// structure only for its replay of the current contents - plugs into
/// \c addHandler below; this is the "general data-structure / scheduler
/// interface" role that \c ParLVar plays in Section 4's
/// independent-extensibility discussion.
///
/// Delta batching (DESIGN.md Section 13): handlers whose effect level
/// cannot block (no HasGet) do not spawn one task per delta. Each pool
/// keeps one delta batch per worker (plus one for external callers); a put
/// appends a thunk to its worker's batch and spawns a single flush task
/// only when the batch was idle. The flush task drains the batch - and
/// whatever lands in it while draining - then disarms. TaskScope
/// enter/exit is per *flush*, not per delta, so quiescence still counts
/// every pending delta (a delta is only ever pending while its batch's
/// flush is armed). Handlers that CAN block (HasGet in their effect row)
/// keep the one-task-per-delta path: a parked handler would otherwise
/// stall every delta queued behind it in the batch.
///
/// Either way a handler task is forked from the putting task, so in a
/// fixpoint (handlers putting into the LVar they watch) it inherits the
/// pool's scope from its parent. \c Task::addScope then adds nothing: a
/// task N handler generations deep carries the pool once, not N times,
/// and each spawn costs O(distinct scopes), not O(chain depth).
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_CORE_HANDLERPOOL_H
#define LVISH_CORE_HANDLERPOOL_H

#include "src/core/Par.h"
#include "src/obs/Telemetry.h"
#include "src/sched/TaskScope.h"
#include "src/support/Timer.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace lvish {

/// Groups handler invocations for quiescence; see file comment.
class HandlerPool {
public:
  /// One per-worker delta batch (its own cache line). A put holds Mu just
  /// long enough to append; the flush task holds it just long enough to
  /// swap the pending vector out.
  struct alignas(64) WorkerBatch {
    std::mutex Mu;
    std::vector<std::function<Par<void>()>> Pending;
    /// True while a flush task owns this batch (one Scope.enter per arm).
    bool FlushArmed = false;
  };

  /// \p NumBatchSlots must be the scheduler's numWorkers() + 1 (the last
  /// slot serves external, non-worker callers); newPool does this.
  explicit HandlerPool(unsigned NumBatchSlots)
      : Scope(TaskScope::Mode::Live),
        Batches(std::make_unique<WorkerBatch[]>(NumBatchSlots)),
        NumBatchSlots(NumBatchSlots) {}

  /// Counts every handler task spawned under this pool, including the
  /// tasks they transitively fork.
  TaskScope Scope;

  /// Per-worker delta batches for non-blocking handlers.
  std::unique_ptr<WorkerBatch[]> Batches;
  unsigned NumBatchSlots;

  /// Union of the effect masks of every registration whose deltas may
  /// share a batch; flush tasks declare this (a superset per delta, which
  /// the audit permits - declared effects bound performed ones).
  std::atomic<uint8_t> BatchFx{0};

  /// Monotonic registration ordinal source for HandlerHandle.
  std::atomic<uint64_t> Registrations{0};
};

namespace detail {

/// Root of a flush task: runs every thunk in \p B - and whatever lands in
/// it meanwhile - then disarms the batch.
inline Par<void> flushBatch(HandlerPool::WorkerBatch *B) {
  std::vector<std::function<Par<void>()>> Local;
  for (;;) {
    {
      std::lock_guard<std::mutex> Lock(B->Mu);
      if (B->Pending.empty()) {
        B->FlushArmed = false;
        break;
      }
      Local.swap(B->Pending);
    }
    for (auto &Thunk : Local)
      co_await Thunk();
    Local.clear();
  }
}

} // namespace detail

/// Names one handler registration (which pool, which ordinal). Returned by
/// \c addHandler so callers can tie a registration to its pool - e.g. to
/// keep the pool alive or to quiesce the right pool later.
struct HandlerHandle {
  std::shared_ptr<HandlerPool> Pool;
  uint64_t Registration = 0;

  explicit operator bool() const { return Pool != nullptr; }
};

/// Allocates a handler pool for the current session, sized to the
/// scheduler's worker count (one delta batch per worker plus one for
/// external callers).
template <EffectSet E> std::shared_ptr<HandlerPool> newPool(ParCtx<E> Ctx) {
  return std::make_shared<HandlerPool>(Ctx.sched()->numWorkers() + 1);
}

/// Registers \p Callback (signature `Par<void>(ParCtx<E>, const Delta&)`)
/// to run, as a task counted by \p Pool, for the LVar's current contents
/// and for every subsequent change. Returns a HandlerHandle naming the
/// registration; [[nodiscard]] because dropping it discards the only name
/// the program has for the registration (and the only way to pass it to a
/// future deregistration API) - bind it even if only to note the intent.
///
/// Ownership note: the callback is stored inside the LVar for the LVar's
/// whole lifetime. A handler that refers to its *own* LVar (the fixpoint
/// idiom, e.g. graph traversal) must capture a non-owning pointer or
/// reference - capturing the shared_ptr would create a reference cycle
/// that Haskell's GC would collect but C++ cannot. Prefer \c addHandlerRef
/// below, which passes the LVar back into the callback by reference so
/// there is nothing to capture.
template <EffectSet E, typename LVarT, typename F>
[[nodiscard]] HandlerHandle addHandler(ParCtx<E> Ctx,
                                       std::shared_ptr<HandlerPool> Pool,
                                       LVarT &LV, F Callback) {
  using Delta = typename LVarT::DeltaType;
  static_assert(
      std::is_invocable_r_v<Par<void>, F, ParCtx<E>, const Delta &>,
      "handler callback must be callable as Par<void>(ParCtx<E>, Delta)");
  Scheduler *Sched = Ctx.sched();
  Pool->BatchFx.fetch_or(check::effectMask(E), std::memory_order_relaxed);
  uint64_t Ordinal =
      Pool->Registrations.fetch_add(1, std::memory_order_relaxed);
  if constexpr (!hasGet(E)) {
    // Non-blocking handler: batch deltas per worker, one flush task per
    // armed batch (see file comment).
    LV.addHandlerRaw(
        [Sched, Pool, Callback](const Delta &D) {
          obs::count(obs::Event::HandlerInvocations);
          HandlerPool::WorkerBatch &B =
              Pool->Batches[Sched->callerBatchIndex()];
          bool Spawn = false;
          {
            std::lock_guard<std::mutex> Lock(B.Mu);
            // The thunk runs on the flush task, and its D and Callback
            // live in the flush's Local until the callback completes.
            B.Pending.push_back([Callback, D]() -> Par<void> {
              return Callback(
                  detail::CtxAccess::make<E>(Scheduler::currentTask()), D);
            });
            if (!B.FlushArmed) {
              B.FlushArmed = true;
              // Enter the scope while still holding B.Mu: the scope count
              // covers the pending delta before anyone can observe the
              // batch, so quiesce never sees a transient drain.
              Pool->Scope.enter();
              Spawn = true;
            }
          }
          if (!Spawn)
            return; // An armed flush task will pick the delta up.
          // The scope entry pins the pool, and so B, for the flush task.
          detail::launchTask(
              *Sched, detail::flushBatch(&B), Scheduler::currentTask(),
              Pool->BatchFx.load(std::memory_order_relaxed),
              {std::shared_ptr<TaskScope>(Pool, &Pool->Scope)});
          // The task now counts itself (a flush spawned from another task
          // of this pool inherited the scope and counts through that
          // entry): hand off the count entered at arming.
          Pool->Scope.exitOne();
          obs::count(obs::Event::HandlerBatchFlushes);
        },
        Ctx.task());
  } else {
    // Blocking-capable handler: one task per delta, so a parked handler
    // never stalls deltas queued behind it.
    LV.addHandlerRaw(
        [Sched, Pool, Callback](const Delta &D) {
          // Runs synchronously inside the put (or registration); spawn the
          // user callback as its own task so the put does not block.
          obs::count(obs::Event::HandlerInvocations);
          // A plain adaptor, not a coroutine: forkBody's frame owns it, so
          // Callback and D outlive the callback's own frame.
          auto Invoke = [Callback, D](ParCtx<E> C) -> Par<void> {
            return Callback(C, D);
          };
          // A handler spawned from another task of this pool (the
          // fixpoint idiom) already inherited the scope.
          detail::launchTask(
              *Sched, detail::forkBody<E>(std::move(Invoke)),
              Scheduler::currentTask(), check::effectMask(E),
              {std::shared_ptr<TaskScope>(Pool, &Pool->Scope)});
        },
        Ctx.task());
  }
  return HandlerHandle{std::move(Pool), Ordinal};
}

/// Like \c addHandler, but the callback receives the LVar by reference
/// (signature `Par<void>(ParCtx<E>, LVarT&, const Delta&)`), so the
/// fixpoint idiom - a handler that writes back into the LVar it watches -
/// needs no self-capture at all. This is the safe spelling of the
/// ownership note above: the reference is non-owning by construction and
/// cannot form the shared_ptr cycle.
template <EffectSet E, typename LVarT, typename F>
[[nodiscard]] HandlerHandle addHandlerRef(ParCtx<E> Ctx,
                                          std::shared_ptr<HandlerPool> Pool,
                                          LVarT &LV, F Callback) {
  using Delta = typename LVarT::DeltaType;
  static_assert(
      std::is_invocable_r_v<Par<void>, F, ParCtx<E>, LVarT &, const Delta &>,
      "handler callback must be callable as "
      "Par<void>(ParCtx<E>, LVarT&, Delta)");
  LVarT *Raw = &LV;
  return addHandler(Ctx, std::move(Pool), LV,
                    [Raw, Callback](ParCtx<E> C, const Delta &D) {
                      return Callback(C, *Raw, D);
                    });
}

/// Awaitable that blocks until every handler task in the pool (and
/// everything those tasks forked) has finished: LVish's `quiesce`.
class QuiesceAwaiter {
public:
  QuiesceAwaiter(std::shared_ptr<HandlerPool> P, Task *T)
      : Pool(std::move(P)), Tsk(T) {}

  bool await_ready() const noexcept { return false; }

  bool await_suspend(std::coroutine_handle<> H) {
    if (Tsk->isCancelled()) {
      Tsk->Sched->deferRetire(Tsk);
      return true;
    }
    Tsk->Resume = H;
    // Stamp the wait start *before* parking: once parkUntilDrained
    // publishes the task, another worker may resume it (and run
    // await_resume) concurrently with this frame.
    if constexpr (obs::TelemetryEnabled)
      WaitStart = nowNanos();
    bool Parked = Pool->Scope.parkUntilDrained(Tsk);
    if constexpr (obs::TelemetryEnabled) {
      if (Parked)
        obs::count(obs::Event::QuiesceWaits);
      else
        WaitStart = 0; // Already drained: no wait to attribute. Safe to
                       // clear - the task was never published.
    }
    return Parked;
  }

  void await_resume() const noexcept {
    if constexpr (obs::TelemetryEnabled) {
      if (WaitStart)
        obs::addQuiesceWaitNanos(nowNanos() - WaitStart);
    }
  }

private:
  std::shared_ptr<HandlerPool> Pool;
  Task *Tsk;
  /// Wall-clock park time of a real quiescence wait (telemetry only; 0
  /// when the pool was already drained).
  uint64_t WaitStart = 0;
};

/// Blocks until \p Pool has drained. The caller must not itself be a
/// handler task of the same pool (it could then never drain).
template <EffectSet E>
  requires(hasGet(E))
QuiesceAwaiter quiesce(ParCtx<E> Ctx, std::shared_ptr<HandlerPool> Pool) {
  return QuiesceAwaiter(std::move(Pool), Ctx.task());
}

} // namespace lvish

#endif // LVISH_CORE_HANDLERPOOL_H
