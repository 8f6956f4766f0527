//===- IVar.h - Single-assignment variables ---------------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// IVars: single-assignment variables with blocking read semantics (Arvind
/// et al.'s I-structures), "a special case of LVars, corresponding to a
/// lattice with one empty and multiple full states, where
/// forall i. empty < full_i". A second put with a *different* value hits
/// top and is a deterministic error; re-putting an equal value is the
/// idempotent lub and is allowed.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_CORE_IVAR_H
#define LVISH_CORE_IVAR_H

#include "src/core/LVarBase.h"
#include "src/core/Par.h"

#include <memory>
#include <optional>

namespace lvish {

/// Single-assignment LVar; see file comment. Construct via \c newIVar.
template <typename T> class IVar : public LVarBase {
public:
  explicit IVar(uint64_t SessionId) : LVarBase(SessionId) {}

  /// Lub write: empty -> full(V). Full(V) -> full(V) is a no-op; a
  /// conflicting value is a deterministic error (lattice top).
  void putValue(const T &V, Task *Writer) {
    enterPut(Writer, check::FxPut, "IVar put");
    {
      std::lock_guard<std::mutex> Lock(WaitMutex);
      if (Slot) {
        if constexpr (std::equality_comparable<T>) {
          if (*Slot == V) {
            noOpPut();
            return; // Idempotent repeat of the same write.
          }
        }
        detail::raiseSessionFault(Writer, FaultCode::ConflictingPut,
                                  "multiple put to an IVar with conflicting "
                                  "values (lattice top reached)",
                                  debugName());
      }
      if (isFrozen())
        putAfterFreezeError(Writer, this);
      Slot.emplace(V);
    }
    // State and every parked waiter live under WaitMutex (Bucket0.Mu), so
    // the mutex alone orders this notify's probe - no fence needed.
    notifyWaiters(Writer, NotifyOrder::MutexGuarded);
  }

  /// Non-blocking peek used by freezing reads and tests. Only deterministic
  /// after a freeze or at session quiescence.
  std::optional<T> peek() const {
    std::lock_guard<std::mutex> Lock(WaitMutex);
    return Slot;
  }

  /// Blocking threshold read: unblocks once full, yielding a copy of the
  /// value (many readers may capture the same value).
  auto awaitFull(Task *Reader) {
    // The probe runs under WaitMutex: read Slot directly, never peek().
    return ThresholdAwaiter(*this, Reader, WaitSlot::dflt(),
                            [this] { return Slot; });
  }

private:
  // Guarded by WaitMutex (an IVar transitions at most once, so the mutex
  // is uncontended in steady state).
  std::optional<T> Slot;
};

/// Allocates an IVar tied to the current session. LVars are heap-allocated
/// and shared so their lifetime covers every task that may park on them
/// (the GC would do this in Haskell).
template <typename T, EffectSet E>
std::shared_ptr<IVar<T>> newIVar(ParCtx<E> Ctx) {
  return std::make_shared<IVar<T>>(Ctx.sessionId());
}

/// Named variant: the name shows up as "lvar=<Name>" in fault diagnostics.
template <typename T, EffectSet E>
std::shared_ptr<IVar<T>> newIVar(ParCtx<E> Ctx, const char *Name) {
  auto IV = std::make_shared<IVar<T>>(Ctx.sessionId());
  IV->setDebugName(Name);
  return IV;
}

/// `put :: HasPut e => IVar s a -> a -> Par e s ()`
template <EffectSet E, typename T>
  requires(hasPut(E))
void put(ParCtx<E> Ctx, IVar<T> &IV, const T &Value) {
  IV.putValue(Value, Ctx.task());
}

/// `get :: HasGet e => IVar s a -> Par e s a` - awaitable.
template <EffectSet E, typename T>
  requires(hasGet(E))
auto get(ParCtx<E> Ctx, IVar<T> &IV) {
  return IV.awaitFull(Ctx.task());
}

/// Freezes an IVar mid-computation (quasi-deterministic; requires the
/// Freeze effect) and returns its exact current contents.
template <EffectSet E, typename T>
  requires(hasFreeze(E))
std::optional<T> freezeIVar(ParCtx<E> Ctx, IVar<T> &IV) {
  IV.freezeFor(Ctx.task(), "IVar freeze");
  return IV.peek();
}

/// Forks \p Body and returns an IVar future carrying its result: the
/// \c spawn of the ParFuture interface, built from fork + IVar exactly as
/// in monad-par.
template <EffectSet E, typename F>
auto spawn(ParCtx<E> Ctx, F Body) {
  using RetPar = std::invoke_result_t<F, ParCtx<E>>;
  using R = decltype(std::declval<RetPar>().await_resume());
  static_assert(hasPut(E) && hasGet(E),
                "spawn needs Put (to fill the future) and Get (to read it)");
  auto Future = newIVar<R>(Ctx);
  fork(Ctx, [Future, B = std::move(Body)](ParCtx<E> C) mutable -> Par<void> {
    R Value = co_await B(C);
    put(C, *Future, Value);
  });
  return Future;
}

} // namespace lvish

#endif // LVISH_CORE_IVAR_H
