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
/// (capturing lambdas, std::function, containers, shared_ptr). Named
/// lvalues - even passed by value - and stateless lambdas are safe, and
/// plain awaiter-returning operations (get, waitSize, quiesce, ...) are
/// safe with any argument shape.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_CORE_PAR_H
#define LVISH_CORE_PAR_H

#include "src/check/EffectAuditor.h"
#include "src/core/Effects.h"
#include "src/fault/FaultInject.h"
#include "src/sched/BlockCache.h"
#include "src/sched/FaultSignal.h"
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

/// Shared final-awaiter: transfer to the awaiting parent coroutine, or
/// retire the task when this coroutine is a task root.
template <typename Promise> struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }

  std::coroutine_handle<>
  await_suspend(std::coroutine_handle<Promise> H) noexcept {
    Promise &P = H.promise();
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
    if (P.Continuation)
      return P.Continuation;
    Task *T = P.OwnerTask;
    assert(T && "finished coroutine with no continuation and no task");
    // onTaskFinished destroys H's frame; nothing below may touch it.
    T->Sched->onTaskFinished(T);
    return std::noop_coroutine();
  }

  void await_resume() const noexcept {}
};

/// Promise bits shared between Par<T> and Par<void>.
struct PromiseBase {
  std::coroutine_handle<> Continuation; ///< Awaiting coroutine (same task).
  Task *OwnerTask = nullptr;            ///< Set when installed as task root.

  /// Coroutine frames come from the per-thread block cache, like Task
  /// storage: a fork's frames are freed and reused on the worker that
  /// joins it instead of going through the allocator.
  static void *operator new(std::size_t Bytes) {
    return blockcache::allocate(Bytes);
  }
  static void operator delete(void *P, std::size_t Bytes) noexcept {
    blockcache::release(P, Bytes);
  }

  std::suspend_always initial_suspend() const noexcept { return {}; }

  void unhandled_exception() {
    try {
      throw; // lvish-lint: allow(no-throw) - rethrow to classify.
    } catch (const FaultSignal &) {
      // A contract violation already recorded the session fault (see
      // FaultSignal.h); mark the task so the final awaiter retires it.
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
};

} // namespace detail

/// A lazy parallel computation returning \p T; see file comment. Move-only;
/// consumed by `co_await` or by \c fork / \c runPar.
template <typename T> class Par {
public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> Value;

    Par get_return_object() {
      return Par(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    detail::FinalAwaiter<promise_type> final_suspend() const noexcept {
      return {};
    }
    void return_value(T V) { Value.emplace(std::move(V)); }
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
    assert(Handle.promise().Value && "Par finished without a value");
    return std::move(*Handle.promise().Value);
  }

  /// Releases ownership of the coroutine (fork/runPar internals only).
  std::coroutine_handle<promise_type> release() {
    return std::exchange(Handle, nullptr);
  }
  std::coroutine_handle<promise_type> handle() const { return Handle; }

private:
  void destroy() {
    if (Handle) {
      Handle.destroy();
      Handle = nullptr;
    }
  }
  std::coroutine_handle<promise_type> Handle;
};

/// Par<void>: forked bodies and effect-only computations.
template <> class Par<void> {
public:
  struct promise_type : detail::PromiseBase {
    Par get_return_object() {
      return Par(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    detail::FinalAwaiter<promise_type> final_suspend() const noexcept {
      return {};
    }
    void return_void() const noexcept {}
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

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<>
  await_suspend(std::coroutine_handle<> Awaiting) noexcept {
    assert(Handle && "co_await on an empty Par");
    Handle.promise().Continuation = Awaiting;
    return Handle;
  }
  void await_resume() const noexcept {}

  std::coroutine_handle<promise_type> release() {
    return std::exchange(Handle, nullptr);
  }
  std::coroutine_handle<promise_type> handle() const { return Handle; }

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

/// Trampoline that materializes the child's own context once the child
/// task actually runs (Scheduler::currentTask() is then the child).
template <EffectSet E, typename F> Par<void> forkBody(F Body) {
  ParCtx<E> Ctx = CtxAccess::make<E>(Scheduler::currentTask());
  co_await Body(Ctx);
}

/// The one routine that spawns a task: creates it with \p Body as its
/// root coroutine under \p Parent - or, when \p Parent is null, as the
/// root of \p Session - declares its effect mask \p Fx, enters it into
/// \p Scopes on top of the scopes it inherits, gives it \p FreshCancel
/// instead of the inherited cancellation node when that is non-null, and
/// schedules it. fork, both handler dispatch paths, forkCancelable,
/// forkWithDeadlockDetection and the session launcher all come here;
/// Scheduler::createTask is private to it. The task may run, and even
/// retire, before this returns.
inline void launchTask(
    Scheduler &Sched, Par<void> Body, Task *Parent, uint8_t Fx,
    std::initializer_list<std::shared_ptr<TaskScope>> Scopes,
    CancelNode *FreshCancel, SessionState *Session) {
  auto H = Body.release();
  assert(H && "launching an empty Par as a task");
  Task *T = Sched.createTask(H, Parent, Scopes, FreshCancel, Session);
  H.promise().OwnerTask = T;
  check::declareTaskEffects(T, Fx);
  Sched.schedule(T);
}

} // namespace detail

/// Forks \p Body to run in parallel as a new task. \p Body is invoked with
/// the child's own context (same effect level as the parent's) and must
/// return \c Par<void>. This is the `fork` of the paper's \c ParMonad type
/// class.
template <EffectSet E, typename F> void fork(ParCtx<E> Ctx, F Body) {
  static_assert(std::is_invocable_r_v<Par<void>, F, ParCtx<E>>,
                "fork body must be callable as Par<void>(ParCtx<E>)");
  // LVISH_FAULTS allocation-failure shim (no-op otherwise).
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
