//===- Par.h - The Par computation type and fork ----------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// \c Par<T> is the C++ rendition of the paper's `Par e s a` monad: a lazy
/// coroutine whose \c co_await is monadic bind. Effect tracking lives on
/// the capability token \c ParCtx<E> (see Effects.h); the session parameter
/// `s` becomes a runtime session id carried by the task.
///
/// The minimal Par-monad interface of Section 4 is `fork :: m () -> m ()`;
/// here \c fork takes a callable from a child context to \c Par<void>, so
/// the child body runs with *its own* task context (transformer layers
/// split, pedigree extended, cancellation inherited) rather than the
/// parent's. "Programs with fork create a binary tree of monadic actions."
///
/// Usage sketch:
/// \code
///   Par<int> work(ParCtx<Eff::Det> Ctx, std::shared_ptr<IVar<int>> IV) {
///     fork(Ctx, [IV](ParCtx<Eff::Det> C) -> Par<void> {
///       put(C, *IV, 42);
///       co_return;
///     });
///     int V = co_await get(Ctx, *IV);
///     co_return V + 1;
///   }
///   int R = runPar<Eff::Det>([&](ParCtx<Eff::Det> Ctx) {
///     return work(Ctx, IV);
///   });
/// \endcode
///
/// \warning GCC 12 coroutine bug (toolchain workaround). g++ 12 destroys a
/// non-trivially-destructible *temporary* argument of an awaited
/// Par-returning call twice when the callee suspends (standalone
/// reproducer: tools/gcc12_coawait_temp_bug.cpp; fixed in later GCC).
/// Discipline used throughout this repository and required of callers on
/// GCC 12:
///
///   // BAD:  capturing-lambda temporary inside the co_await expression
///   co_await parallelFor(Ctx, 0, N, 1,
///                        [Shared](ParCtx<E> C, size_t I) { ... });
///   // GOOD: bind it first, then await
///   auto Body = [Shared](ParCtx<E> C, size_t I) { ... };
///   co_await parallelFor(Ctx, 0, N, 1, Body);
///
/// Only prvalue temporaries with non-trivial destructors are affected
/// (capturing lambdas, type-erased function wrappers, containers,
/// shared_ptr). Named lvalues - even passed by value - and stateless
/// lambdas are safe, and plain awaiter-returning operations (get,
/// waitSize, quiesce, ...) are safe with any argument shape.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_CORE_PAR_H
#define LVISH_CORE_PAR_H

#include "src/check/EffectAuditor.h"
#include "src/core/Effects.h"
#include "src/fault/FaultInject.h"
#include "src/sched/BlockCache.h"
#include "src/sched/Scheduler.h"
#include "src/support/Assert.h"

#include <coroutine>
#include <cstddef>
#include <optional>
#include <type_traits>
#include <utility>

namespace lvish {

template <typename T> class Par;
template <EffectSet E> class ParCtx;

namespace detail {

/// Internal factory for contexts; keeps ParCtx unforgeable by user code
/// (only runPar and the fork machinery mint them).
struct CtxAccess {
  template <EffectSet E> static ParCtx<E> make(Task *T) {
    return ParCtx<E>(T);
  }
};

/// Shared final-awaiter: transfer to the awaiting coroutine. A Par is
/// always awaited - a task's outermost coroutine is a TaskRoot - so only
/// a fault retires a task here.
template <typename Promise> struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }

  std::coroutine_handle<>
  await_suspend(std::coroutine_handle<Promise> H) noexcept {
    Task *Cur = Scheduler::currentTask();
    if (Cur && Cur->FaultPoisoned) {
      // A FaultSignal unwound this coroutine (see FaultSignal.h): the
      // session fault is recorded and the session is being cancelled, so
      // retire the whole task here instead of resuming the continuation.
      // onTaskFinished destroys the task's root frame, which transitively
      // destroys H's frame; nothing below may touch either.
      Cur->Sched->onTaskFinished(Cur);
      return std::noop_coroutine();
    }
    assert(H.promise().Continuation && "finished Par with no awaiter");
    return H.promise().Continuation;
  }

  void await_resume() const noexcept {}
};

/// What every Par promise shares.
struct PromiseBase {
  std::coroutine_handle<> Continuation; ///< Awaiting coroutine (same task).

  /// Coroutine frames come from the per-thread block cache, like task
  /// roots: a fork's frames are freed and reused on the worker that joins
  /// it instead of going through the allocator.
  static void *operator new(std::size_t Bytes) {
    return blockcache::allocate(Bytes);
  }
  static void operator delete(void *P, std::size_t Bytes) noexcept {
    blockcache::release(P, Bytes);
  }

  std::suspend_always initial_suspend() const noexcept { return {}; }

  void unhandled_exception() { containException(); }
};

/// Where a Par's promise keeps its result: the value, or nothing for
/// Par<void>.
template <typename T> struct ParResult {
  std::optional<T> Value;
  void return_value(T V) { Value.emplace(std::move(V)); }
};
template <> struct ParResult<void> {
  void return_void() const noexcept {}
};

} // namespace detail

/// A lazy parallel computation returning \p T - \c void for forked bodies
/// and effect-only computations; see file comment. Move-only; consumed by
/// `co_await`, or by \c runPar as a session's body.
template <typename T> class Par {
public:
  struct promise_type : detail::PromiseBase, detail::ParResult<T> {
    Par get_return_object() {
      return Par(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    detail::FinalAwaiter<promise_type> final_suspend() const noexcept {
      return {};
    }
  };

  Par() = default;
  explicit Par(std::coroutine_handle<promise_type> H) : Handle(H) {}

  Par(Par &&O) noexcept : Handle(std::exchange(O.Handle, nullptr)) {}
  Par &operator=(Par &&O) noexcept {
    if (this != &O) {
      destroy();
      Handle = std::exchange(O.Handle, nullptr);
    }
    return *this;
  }
  Par(const Par &) = delete;
  Par &operator=(const Par &) = delete;
  ~Par() { destroy(); }

  bool valid() const { return Handle != nullptr; }

  // -- Awaitable interface: sequential bind within the same task ----------
  bool await_ready() const noexcept { return false; }

  std::coroutine_handle<>
  await_suspend(std::coroutine_handle<> Awaiting) noexcept {
    assert(Handle && "co_await on an empty Par");
    Handle.promise().Continuation = Awaiting;
    return Handle; // Symmetric transfer: start the child immediately.
  }

  T await_resume() {
    if constexpr (std::is_void_v<T>) {
      return;
    } else {
      assert(Handle.promise().Value && "Par finished without a value");
      return std::move(*Handle.promise().Value);
    }
  }

private:
  void destroy() {
    if (Handle) {
      Handle.destroy();
      Handle = nullptr;
    }
  }
  std::coroutine_handle<promise_type> Handle;
};

/// The capability token: a Par computation's effect level \p E plus its
/// identity (task, scheduler, session). Obtained from \c runPar or inside
/// a \c fork body; implicitly convertible to any weaker effect level
/// (explicit subtype coercion in the paper's terms).
template <EffectSet E> class ParCtx {
public:
  Task *task() const { return Tsk; }
  Scheduler *sched() const { return Tsk->Sched; }
  uint64_t sessionId() const { return Tsk->SessionId; }

  static constexpr EffectSet Effects = E;

  /// Subsumption: a context may be used wherever a context demanding fewer
  /// effects is expected.
  template <EffectSet E2>
    requires(E.subsumes(E2))
  operator ParCtx<E2>() const {
    return detail::CtxAccess::make<E2>(Tsk);
  }

  /// Announces memory traffic for the bandwidth model of the parallelism
  /// simulator (no-op unless tracing is enabled).
  void noteBytes(uint64_t N) const {
    if (Tsk->Sched->trace())
      Tsk->SliceBytes += N;
  }

private:
  friend struct detail::CtxAccess;
  explicit ParCtx(Task *T) : Tsk(T) { assert(T && "null task in ParCtx"); }
  Task *Tsk;
};

namespace detail {

/// The root of a forked task: materializes the child's own context once
/// the child actually runs (Scheduler::currentTask() is then the child).
/// Its frame is the task and holds the closure; \p Body's own frame is
/// the fork's one other allocation.
template <EffectSet E, typename F> TaskRoot forkBody(F Body) {
  ParCtx<E> Ctx = CtxAccess::make<E>(Scheduler::currentTask());
  co_await Body(Ctx);
}

/// The one routine that spawns a task: initialises \p Body's task in
/// place under \p Parent - or, when \p Parent is null, as the root of
/// \p Session - declares its effect mask \p Fx, enters it into \p Scopes
/// on top of the scopes it inherits, gives it \p FreshCancel instead of
/// the inherited cancellation node when that is non-null, and schedules
/// it (a session root on its session's inject FIFO). fork, both handler
/// dispatch paths, forkCancelable, forkWithDeadlockDetection and the
/// session launcher all come here with a TaskRoot, whose frame already
/// holds the task; Scheduler::createTask is private to it. The task may
/// run, and even retire, before this returns.
inline void launchTask(
    Scheduler &Sched, TaskRoot Body, Task *Parent, uint8_t Fx,
    std::initializer_list<std::shared_ptr<TaskScope>> Scopes,
    CancelNode *FreshCancel, SessionState *Session) {
  Task &T = Body.release();
  Sched.createTask(&T, Parent, Scopes, FreshCancel, Session);
  check::declareTaskEffects(&T, Fx);
  Sched.schedule(&T, /*Inject=*/Parent == nullptr);
}

} // namespace detail

/// Forks \p Body to run in parallel as a new task. \p Body is invoked with
/// the child's own context (same effect level as the parent's) and must
/// return \c Par<void>. This is the `fork` of the paper's \c ParMonad type
/// class.
template <EffectSet E, typename F> void fork(ParCtx<E> Ctx, F Body) {
  static_assert(std::is_invocable_r_v<Par<void>, F, ParCtx<E>>,
                "fork body must be callable as Par<void>(ParCtx<E>)");
  // Fault-injection allocation-failure shim (no-op with no plan installed).
  fault::injectSpawn(Ctx.task());
  detail::launchTask(*Ctx.sched(), detail::forkBody<E>(std::move(Body)),
                     Ctx.task(), check::effectMask(E));
}

/// Cooperative yield: reschedules the current task, letting siblings run.
/// Also a cancellation poll point.
struct YieldAwaiter {
  Task *T;

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> H) const {
    if (T->isCancelled()) {
      T->Sched->deferRetire(T);
      return true;
    }
    T->Resume = H;
    Scheduler *S = T->Sched;
    Task *Self = T;
    // The task stays runnable; requeue without pending-count churn.
    S->wakeKeepPending(Self);
    return true;
  }
  void await_resume() const noexcept {}
};

template <EffectSet E> YieldAwaiter yield(ParCtx<E> Ctx) {
  return YieldAwaiter{Ctx.task()};
}

} // namespace lvish

#endif // LVISH_CORE_PAR_H
