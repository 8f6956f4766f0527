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
/// footnote 3). A pool is only the count behind \c quiesce: every handler
/// task of every registration made with it enters its \c TaskScope, so
/// \c quiesce can block until the entire cascade they trigger has drained
/// - the pattern behind the graph-traversal example in the paper's
/// appendix.
///
/// Any LVar deriving from \c HandledLVar<Delta> (src/core/LVarBase.h) -
/// which supplies \c DeltaType and \c addHandlerRaw, and asks the
/// structure only for its replay of the current contents - plugs into
/// \c addHandler below; this is the "general data-structure / scheduler
/// interface" role that \c ParLVar plays in Section 4's
/// independent-extensibility discussion.
///
/// A registration is one object, a \c detail::HandlerReg<Delta> typed on
/// its callback, which the LVar holds by \c shared_ptr and calls once per
/// delta. Its kind is picked by the callback's return type alone:
///
///  * A callback returning \c void is a plain call (\c PlainHandler). It
///    cannot \c co_await, so it can never park, whatever its effect row.
///    Its deltas are batched by value in the registration's own slots, one
///    per worker plus one for external callers. A put appends the delta to
///    its worker's slot and spawns a single flush task only when the slot
///    was idle. The flush task drains the slot - and whatever lands in it
///    while draining - calling the callback in a loop, then disarms. No
///    task, coroutine frame or allocation is made per delta, and the stack
///    does not grow with the length of a handler chain. TaskScope
///    enter/exit is per *flush*, not per delta, so quiescence still counts
///    every pending delta (a delta is only ever pending while its slot's
///    flush is armed).
///  * A callback returning \c Par<void> may await, so it may park. It runs
///    as its own task, one per delta (\c TaskHandler): a parked handler
///    would otherwise stall every delta queued behind it in a batch.
///
/// Either way the task declares the registration's own effect level, and
/// its frame owns the registration, so pending deltas still run after the
/// program drops the LVar. It is forked from the putting task, so in a
/// fixpoint (handlers putting into the LVar they watch) it inherits the
/// pool's scope from its parent. \c Task::addScope then adds nothing: a
/// task N handler generations deep carries the pool once, not N times,
/// and each spawn costs O(distinct scopes), not O(chain depth). Its
/// cancellation node is not the putter's but the registrar's: a handler
/// belongs to the computation that registered it, so a put from a
/// cancelled branch (a \c getMemoRO request, say) starts work that the
/// cancel does not kill, and a flush that such a put armed still runs.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_CORE_HANDLERPOOL_H
#define LVISH_CORE_HANDLERPOOL_H

#include "src/core/LVarBase.h"
#include "src/core/Par.h"
#include "src/obs/Telemetry.h"
#include "src/sched/TaskScope.h"
#include "src/support/Timer.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

namespace lvish {

/// Counts a pool's handler tasks for quiescence; see file comment.
class HandlerPool {
public:
  /// Counts every handler task spawned under this pool, including the
  /// tasks they transitively fork.
  TaskScope Scope{TaskScope::Mode::Live};
};

namespace detail {

/// What both kinds of registration share: the callback, called as
/// \p E, and where its tasks go.
template <EffectSet E, typename Delta, typename F>
class PooledHandler : public HandlerReg<Delta> {
public:
  PooledHandler(ParCtx<E> Registrar, std::shared_ptr<HandlerPool> Pool,
                F Callback)
      : Callback(std::move(Callback)), Sched(Registrar.sched()),
        Cancel(Registrar.task()->Cancel), Pool(std::move(Pool)) {}

protected:
  /// Spawns \p Body as a task of this registration: forked from the
  /// putting task, declaring \p E, entered into the pool's scope, under
  /// the registrar's cancellation node (see file comment).
  void launch(TaskRoot Body) {
    launchTask(*Sched, std::move(Body), Scheduler::currentTask(),
               check::effectMask(E),
               {std::shared_ptr<TaskScope>(Pool, &Pool->Scope)}, Cancel);
  }

  F Callback;
  Scheduler *Sched;
  /// Owned by the session's cancel tree, which outlives every put.
  CancelNode *Cancel;
  std::shared_ptr<HandlerPool> Pool;
};

/// A plain registration: \p F called as `void(ParCtx<E>, const Delta&)`
/// on each delta, in the order its slot received them, by one flush task
/// per armed slot.
template <EffectSet E, typename Delta, typename F>
class PlainHandler final
    : public PooledHandler<E, Delta, F>,
      public std::enable_shared_from_this<PlainHandler<E, Delta, F>> {
public:
  PlainHandler(ParCtx<E> Registrar, std::shared_ptr<HandlerPool> Pool,
               F Callback)
      : PooledHandler<E, Delta, F>(Registrar, std::move(Pool),
                                   std::move(Callback)),
        Slots(std::make_unique<Slot[]>(Registrar.sched()->numWorkers() +
                                        1)) {}

  void operator()(const Delta &D) override {
    obs::count(obs::Event::HandlerInvocations);
    unsigned S = this->Sched->callerBatchIndex();
    Slot &B = Slots[S];
    HandlerPool &Pool = *this->Pool;
    {
      std::lock_guard<std::mutex> Lock(B.Mu);
      B.Pending.push_back(D);
      if (B.FlushArmed)
        return; // The armed flush task will pick the delta up.
      B.FlushArmed = true;
      // Enter the scope while still holding B.Mu: the scope count covers
      // the pending delta before anyone can observe the slot, so quiesce
      // never sees a transient drain.
      Pool.Scope.enter();
    }
    this->launch(flush(this->shared_from_this(), S));
    // The task now counts itself (a flush spawned from another task of
    // this pool inherited the scope and counts through that entry): hand
    // off the count entered at arming.
    Pool.Scope.exitOne();
    obs::count(obs::Event::HandlerBatchFlushes);
  }

private:
  /// One slot's deltas (its own cache line). A put holds Mu just long
  /// enough to append; the flush task holds it just long enough to swap
  /// Pending into Running.
  struct alignas(64) Slot {
    std::mutex Mu;
    std::vector<Delta> Pending;
    /// The flush task's alone: the deltas it took and is calling.
    std::vector<Delta> Running;
    /// True while a flush task owns this slot (one Scope.enter per arm).
    bool FlushArmed = false;
  };

  /// Root of a flush task: runs every delta pending in slot \p S - and
  /// whatever lands in it meanwhile - then disarms the slot.
  static TaskRoot flush(std::shared_ptr<PlainHandler> Self, unsigned S) {
    Slot &B = Self->Slots[S];
    ParCtx<E> Ctx = CtxAccess::make<E>(Scheduler::currentTask());
    for (;;) {
      {
        std::lock_guard<std::mutex> Lock(B.Mu);
        if (B.Pending.empty()) {
          B.FlushArmed = false;
          break;
        }
        B.Pending.swap(B.Running);
      }
      for (const Delta &D : B.Running)
        Self->Callback(Ctx, D);
      B.Running.clear(); // Keeps the capacity: the vectors only grow.
    }
    co_return;
  }

  /// numWorkers() + 1 slots: callerBatchIndex() picks one.
  std::unique_ptr<Slot[]> Slots;
};

/// A task registration: \p F called as `Par<void>(ParCtx<E>, const
/// Delta&)`, one task per delta, so a parked handler never stalls the
/// deltas after it.
template <EffectSet E, typename Delta, typename F>
class TaskHandler final
    : public PooledHandler<E, Delta, F>,
      public std::enable_shared_from_this<TaskHandler<E, Delta, F>> {
public:
  using PooledHandler<E, Delta, F>::PooledHandler;

  void operator()(const Delta &D) override {
    obs::count(obs::Event::HandlerInvocations);
    this->launch(run(this->shared_from_this(), D));
  }

private:
  /// Root of a handler task; its frame owns the registration and \p D.
  static TaskRoot run(std::shared_ptr<TaskHandler> Self, Delta D) {
    ParCtx<E> Ctx = CtxAccess::make<E>(Scheduler::currentTask());
    co_await Self->Callback(Ctx, D);
  }
};

/// Which of the two callback forms \p F has when called with \p Args: a
/// plain call (`void`), a task (`Par<void>`), or neither.
enum class HandlerForm { Plain, Task, Invalid };

template <typename F, typename... Args> constexpr HandlerForm handlerForm() {
  if constexpr (!std::is_invocable_v<F, Args...>) {
    return HandlerForm::Invalid;
  } else {
    using R = std::invoke_result_t<F, Args...>;
    if constexpr (std::is_void_v<R>)
      return HandlerForm::Plain;
    else if constexpr (std::is_same_v<R, Par<void>>)
      return HandlerForm::Task;
    else
      return HandlerForm::Invalid;
  }
}

} // namespace detail

/// Names the pool a handler registration counts in. Returned by
/// \c addHandler so callers can tie a registration to its pool - e.g. to
/// keep the pool alive or to quiesce the right pool later.
struct HandlerHandle {
  std::shared_ptr<HandlerPool> Pool;

  explicit operator bool() const { return Pool != nullptr; }
};

/// Allocates a handler pool for the current session.
template <EffectSet E> std::shared_ptr<HandlerPool> newPool(ParCtx<E>) {
  return std::make_shared<HandlerPool>();
}

/// Registers \p Callback to run, counted by \p Pool, for the LVar's
/// current contents and for every subsequent change. The callback is
/// either `void(ParCtx<E>, const Delta&)`, called in a batch flush loop, or
/// `Par<void>(ParCtx<E>, const Delta&)`, run as one task per delta (see
/// file comment). Returns a HandlerHandle naming the registration's pool;
/// [[nodiscard]] because dropping it discards the only name the program
/// has for the registration (and the only way to pass it to a future
/// deregistration API) - bind it even if only to note the intent.
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
  constexpr detail::HandlerForm Form =
      detail::handlerForm<F, ParCtx<E>, const Delta &>();
  static_assert(Form != detail::HandlerForm::Invalid,
                "handler callback must be callable as "
                "void(ParCtx<E>, const Delta&) or "
                "Par<void>(ParCtx<E>, const Delta&)");
  using Reg = std::conditional_t<Form == detail::HandlerForm::Plain,
                                 detail::PlainHandler<E, Delta, F>,
                                 detail::TaskHandler<E, Delta, F>>;
  HandlerHandle H{Pool};
  LV.addHandlerRaw(
      std::make_shared<Reg>(Ctx, std::move(Pool), std::move(Callback)),
      Ctx.task());
  return H;
}

/// Like \c addHandler, but the callback receives the LVar by reference
/// (`void(ParCtx<E>, LVarT&, const Delta&)` or its `Par<void>` form), so
/// the fixpoint idiom - a handler that writes back into the LVar it
/// watches - needs no self-capture at all. This is the safe spelling of
/// the ownership note above: the reference is non-owning by construction
/// and cannot form the shared_ptr cycle.
template <EffectSet E, typename LVarT, typename F>
[[nodiscard]] HandlerHandle addHandlerRef(ParCtx<E> Ctx,
                                          std::shared_ptr<HandlerPool> Pool,
                                          LVarT &LV, F Callback) {
  using Delta = typename LVarT::DeltaType;
  static_assert(detail::handlerForm<F, ParCtx<E>, LVarT &, const Delta &>() !=
                    detail::HandlerForm::Invalid,
                "handler callback must be callable as "
                "void(ParCtx<E>, LVarT&, const Delta&) or "
                "Par<void>(ParCtx<E>, LVarT&, const Delta&)");
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
    WaitStart = nowNanos();
    bool Parked = Pool->Scope.parkUntilDrained(Tsk);
    if (Parked)
      obs::count(obs::Event::QuiesceWaits);
    else
      WaitStart = 0; // Already drained: no wait to attribute. Safe to
                     // clear - the task was never published.
    return Parked;
  }

  void await_resume() const noexcept {
    if (WaitStart)
      obs::addQuiesceWaitNanos(nowNanos() - WaitStart);
  }

private:
  std::shared_ptr<HandlerPool> Pool;
  Task *Tsk;
  /// Wall-clock park time of a real quiescence wait (0 when the pool was
  /// already drained).
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
