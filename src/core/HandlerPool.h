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
/// Two dispatch paths, picked by the callback's return type alone:
///
///  * A callback returning \c void is a plain call. It cannot \c co_await,
///    so it can never park, whatever its effect row. Its deltas are
///    batched: each pool keeps one delta batch per worker (plus one for
///    external callers), and each plain registration keeps its deltas by
///    value in one typed vector per batch slot. A put appends the delta to
///    its worker's slot and spawns a single flush task only when the batch
///    was idle. The flush task drains the batch - and whatever lands in it
///    while draining - calling each callback in a loop, then disarms. No
///    task, coroutine frame or allocation is made per delta, and the stack
///    does not grow with the length of a handler chain. TaskScope
///    enter/exit is per *flush*, not per delta, so quiescence still counts
///    every pending delta (a delta is only ever pending while its batch's
///    flush is armed).
///  * A callback returning \c Par<void> may await, so it may park. It runs
///    as its own task, one per delta: a parked handler would otherwise
///    stall every delta queued behind it in a batch.
///
/// Either way a handler or flush task is forked from the putting task, so
/// in a fixpoint (handlers putting into the LVar they watch) it inherits
/// the pool's scope from its parent. \c Task::addScope then adds nothing: a
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
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

namespace lvish {

namespace detail {

/// The deltas of one plain (`void`) registration, held by value in one
/// typed vector per batch slot. Every call on a slot happens under that
/// slot's WorkerBatch::Mu, except run, which only the batch's one armed
/// flush task makes.
class PlainLane {
public:
  PlainLane() = default;
  PlainLane(const PlainLane &) = delete;
  PlainLane &operator=(const PlainLane &) = delete;
  virtual ~PlainLane() = default;
  /// Moves \p Slot's pending deltas aside for run (batch lock held).
  virtual void take(unsigned Slot) = 0;
  /// Calls the callback, as the flush task \p T, on every delta the last
  /// take moved aside, then drops them.
  virtual void run(unsigned Slot, Task *T) = 0;
};

} // namespace detail

/// Groups handler invocations for quiescence; see file comment.
class HandlerPool {
public:
  /// One per-worker delta batch (its own cache line). A put holds Mu just
  /// long enough to append; the flush task holds it just long enough to
  /// move the pending deltas aside.
  struct alignas(64) WorkerBatch {
    std::mutex Mu;
    /// The registrations with deltas pending in this slot, each once.
    std::vector<std::shared_ptr<detail::PlainLane>> Lanes;
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

  /// Per-worker delta batches for plain handlers.
  std::unique_ptr<WorkerBatch[]> Batches;
  unsigned NumBatchSlots;

  /// Union of the effect masks of every plain registration, whose deltas
  /// may share a batch; flush tasks declare this (a superset per delta,
  /// which the audit permits - declared effects bound performed ones).
  std::atomic<uint8_t> BatchFx{0};

  /// Monotonic registration ordinal source for HandlerHandle.
  std::atomic<uint64_t> Registrations{0};
};

namespace detail {

/// A plain registration's lane: \p F called as `void(ParCtx<E>, const
/// Delta&)` on each delta, in the order its slot received them.
template <EffectSet E, typename Delta, typename F>
class TypedLane final : public PlainLane {
public:
  TypedLane(F Callback, unsigned NumSlots)
      : Callback(std::move(Callback)),
        Slots(std::make_unique<SlotDeltas[]>(NumSlots)) {}

  /// Appends \p D to \p Slot (batch lock held). True when the slot was
  /// empty, so the lane must be listed in the batch.
  bool push(unsigned Slot, const Delta &D) {
    std::vector<Delta> &Pending = Slots[Slot].Pending;
    Pending.push_back(D);
    return Pending.size() == 1;
  }

  void take(unsigned Slot) override {
    Slots[Slot].Pending.swap(Slots[Slot].Running);
  }

  void run(unsigned Slot, Task *T) override {
    std::vector<Delta> &Running = Slots[Slot].Running;
    ParCtx<E> Ctx = CtxAccess::make<E>(T);
    for (const Delta &D : Running)
      Callback(Ctx, D);
    Running.clear(); // Keeps the capacity: the vectors only grow.
  }

private:
  /// Double-buffered per slot: puts append to Pending while the flush
  /// runs the deltas it took into Running.
  struct alignas(64) SlotDeltas {
    std::vector<Delta> Pending;
    std::vector<Delta> Running;
  };

  F Callback;
  std::unique_ptr<SlotDeltas[]> Slots;
};

/// Root of a flush task: runs every delta pending in \p Pool's batch
/// \p Slot - and whatever lands in it meanwhile - then disarms the batch.
inline Par<void> flushBatch(HandlerPool *Pool, unsigned Slot) {
  HandlerPool::WorkerBatch &B = Pool->Batches[Slot];
  Task *T = Scheduler::currentTask();
  std::vector<std::shared_ptr<PlainLane>> Local;
  for (;;) {
    {
      std::lock_guard<std::mutex> Lock(B.Mu);
      if (B.Lanes.empty()) {
        B.FlushArmed = false;
        break;
      }
      Local.swap(B.Lanes);
      for (const auto &Lane : Local)
        Lane->take(Slot);
    }
    for (const auto &Lane : Local)
      Lane->run(Slot, T);
    Local.clear();
  }
  co_return;
}

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

/// Registers \p Callback to run, counted by \p Pool, for the LVar's
/// current contents and for every subsequent change. The callback is
/// either `void(ParCtx<E>, const Delta&)`, called in a batch flush loop, or
/// `Par<void>(ParCtx<E>, const Delta&)`, run as one task per delta (see
/// file comment). Returns a HandlerHandle naming the registration;
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
  Scheduler *Sched = Ctx.sched();
  uint64_t Ordinal =
      Pool->Registrations.fetch_add(1, std::memory_order_relaxed);
  if constexpr (Form == detail::HandlerForm::Plain) {
    // Plain handler: batch deltas per worker, one flush task per armed
    // batch (see file comment).
    Pool->BatchFx.fetch_or(check::effectMask(E), std::memory_order_relaxed);
    // The lane outlives the LVar while a batch lists it, so pending deltas
    // still run after the program drops the LVar.
    auto Lane = std::make_shared<detail::TypedLane<E, Delta, F>>(
        std::move(Callback), Pool->NumBatchSlots);
    LV.addHandlerRaw(
        [Sched, Pool, Lane](const Delta &D) {
          obs::count(obs::Event::HandlerInvocations);
          unsigned Slot = Sched->callerBatchIndex();
          HandlerPool::WorkerBatch &B = Pool->Batches[Slot];
          bool Spawn = false;
          {
            std::lock_guard<std::mutex> Lock(B.Mu);
            if (Lane->push(Slot, D))
              B.Lanes.push_back(Lane);
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
              *Sched, detail::flushBatch(Pool.get(), Slot),
              Scheduler::currentTask(),
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
    // Task handler: one task per delta, so a parked handler never stalls
    // deltas queued behind it.
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
