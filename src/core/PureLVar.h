//===- PureLVar.h - LVars over a pure lattice value --------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// \c PureLVar: "the simplest way to implement an LVar data structure (and
/// the easiest way to satisfy said proof obligations) is to represent it as
/// a single, pure value in a mutable box" (Section 2). The box is guarded
/// by the LVar's mutex; \c put takes the least upper bound of the old and
/// new states, and \c getPure performs a threshold read against a set of
/// pairwise-incompatible trigger sets, returning the index of whichever
/// trigger the state rose above.
///
/// Handlers ("latent event handlers that run when puts that change the
/// state of an LVar occur") are delivered under the footnote-6 asymmetric
/// gate, so registration never races a put and every state change is
/// delivered exactly once.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_CORE_PURELVAR_H
#define LVISH_CORE_PURELVAR_H

#include "src/check/LatticeChecker.h"
#include "src/core/LVarBase.h"
#include "src/core/Lattice.h"
#include "src/core/Par.h"

#include <concepts>
#include <memory>
#include <optional>
#include <vector>

namespace lvish {

/// A threshold set for PureLVar reads: a list of trigger sets, each a list
/// of lattice states. The read unblocks when the LVar's state is >= some
/// element of some trigger set, and returns that trigger set's index. The
/// trigger sets must be pairwise incompatible (the lub of states drawn from
/// two different sets must be top); \c checkPairwiseIncompatible verifies
/// this for lattices with a designated top.
template <typename D> using ThresholdSets = std::vector<std::vector<D>>;

/// LVar holding one pure lattice value; see file comment. Handlers
/// observe whole new states (the "delta" of a pure LVar is the state
/// itself).
template <typename L>
  requires Lattice<L>
class PureLVar : public HandledLVar<typename L::ValueType> {
  using Base = HandledLVar<typename L::ValueType>;
  using Base::WaitMutex;

public:
  using D = typename L::ValueType;
  using typename Base::Handler;

  PureLVar(uint64_t SessionId, D Initial)
      : Base(SessionId), State(std::move(Initial)) {}

  explicit PureLVar(uint64_t SessionId) : PureLVar(SessionId, L::bottom()) {}

  /// Lub write. Top-valued results are a deterministic error when the
  /// lattice designates a top; state changes on a frozen LVar likewise.
  void putValue(const D &V, Task *Writer) {
    this->enterPut(Writer, check::FxPut, "PureLVar put");
    AsymmetricGate::FastGuard Gate(this->HandlerGate);
    D NewState{L::bottom()};
    {
      std::lock_guard<std::mutex> Lock(WaitMutex);
#if LVISH_CHECK
      // Spot-check the author's join-law obligations on the live pair.
      if (check::sampleHit())
        check::checkJoinLaws<L>(State, V);
#endif
      D Joined = L::join(State, V);
      if (Joined == State) {
        this->noOpPut();
        return;
      }
      if (this->isFrozen())
        putAfterFreezeError(Writer, this);
      if constexpr (LatticeWithTop<L>) {
        if (L::isTop(Joined))
          detail::raiseSessionFault(Writer, FaultCode::LatticeTop,
                                    "PureLVar put reached lattice top "
                                    "(conflicting writes)",
                                    this->debugName());
      }
      State = Joined;
      NewState = std::move(Joined);
    }
    // Deliver the new state to handlers while still inside the gate's fast
    // section, then re-check blocked threshold reads. State and every
    // parked waiter live under WaitMutex (Bucket0.Mu), so the mutex alone
    // orders this notify's probe - no fence needed.
    this->deliver(NewState);
    this->notifyWaiters(Writer, NotifyOrder::MutexGuarded);
  }

  /// Exact read of the current state; deterministic only after freezing or
  /// at session quiescence.
  D peek() const {
    std::lock_guard<std::mutex> Lock(WaitMutex);
    return State;
  }

  /// Debug verification that trigger sets are pairwise incompatible
  /// (requires a designated top). Cheap for the finite lattices where it is
  /// exhaustive, e.g. the parallel-and lattice of Figure 1. Routed through
  /// the LatticeChecker when the dynamic checkers are compiled in, so
  /// violations report with the checker diagnostics (and tests can observe
  /// them); falls back to a direct fatal check otherwise.
  static void checkPairwiseIncompatible(const ThresholdSets<D> &Sets) {
#if LVISH_CHECK
    check::checkThresholdSets<L>(Sets);
#else
    if constexpr (LatticeWithTop<L>) {
      for (size_t I = 0; I < Sets.size(); ++I)
        for (size_t J = I + 1; J < Sets.size(); ++J)
          for (const D &A : Sets[I])
            for (const D &B : Sets[J])
              if (!L::isTop(L::join(A, B)))
                // Static misuse of the API, not a session-scoped runtime
                // contract violation. lvish-lint: allow(fatal)
                fatalError("threshold trigger sets are not pairwise "
                           "incompatible; reads would be nondeterministic");
    }
#endif
  }

  /// Blocking threshold read; see ThresholdSets. Yields the index of the
  /// trigger set the state rose above.
  auto awaitTriggers(Task *Reader, ThresholdSets<D> Triggers) {
#ifndef NDEBUG
    checkPairwiseIncompatible(Triggers);
#endif
    // The probes run under WaitMutex: read State directly, never peek().
    return ThresholdAwaiter(
        *this, Reader, WaitSlot::dflt(),
        [this, Triggers = std::move(Triggers)]() -> std::optional<size_t> {
          for (size_t I = 0, E = Triggers.size(); I != E; ++I)
            for (const D &Trig : Triggers[I])
              if (latticeLeq<L>(Trig, State))
                return I;
          return std::nullopt;
        });
  }

  /// Blocking read against a *general monotone threshold function*
  /// (footnote 5 of the paper: "in practice, we allow ourselves to use
  /// more general monotonic threshold functions" than trigger sets):
  /// unblocks once \p Fn returns an engaged optional, and yields its
  /// value. The function must be monotone: once it returns a value for
  /// some state, it must return the SAME value for every state above it -
  /// that is the author's proof obligation, checked only by the
  /// determinism sweeps in tests.
  template <typename FnT> auto awaitWith(Task *Reader, FnT Fn) {
    return ThresholdAwaiter(*this, Reader, WaitSlot::dflt(),
                            [this, Fn = std::move(Fn)]() mutable {
                              return Fn(State);
                            });
  }

private:
  void replayTo(Handler &H) override {
    D Current = peek();
    if (!(Current == L::bottom()))
      H(Current);
  }

  D State; ///< Guarded by WaitMutex.
};

/// Allocates a PureLVar at its lattice bottom.
template <typename L, EffectSet E>
  requires Lattice<L>
std::shared_ptr<PureLVar<L>> newPureLVar(ParCtx<E> Ctx) {
  return std::make_shared<PureLVar<L>>(Ctx.sessionId());
}

/// Allocates a PureLVar at a given initial (bottom-reachable) state.
template <typename L, EffectSet E>
  requires Lattice<L>
std::shared_ptr<PureLVar<L>> newPureLVar(ParCtx<E> Ctx,
                                         typename L::ValueType Init) {
  return std::make_shared<PureLVar<L>>(Ctx.sessionId(), std::move(Init));
}

/// `putPureLVar`: lub write (requires HasPut).
template <EffectSet E, typename L>
  requires(hasPut(E) && Lattice<L>)
void putPureLVar(ParCtx<E> Ctx, PureLVar<L> &LV,
                 const typename L::ValueType &V) {
  LV.putValue(V, Ctx.task());
}

/// Threshold read returning the activated trigger index - the unified
/// spelling of the paper's `getPureLVar`.
template <EffectSet E, typename L>
  requires(hasGet(E) && Lattice<L>)
auto get(ParCtx<E> Ctx, PureLVar<L> &LV,
         ThresholdSets<typename L::ValueType> Triggers) {
  return LV.awaitTriggers(Ctx.task(), std::move(Triggers));
}

/// General monotone-threshold read (footnote 5): blocks until \p Fn
/// returns an engaged optional on the LVar's state, and returns its
/// value. \p Fn must be monotone (stable above its activation point).
/// The result type is deduced from the callable's optional return.
template <EffectSet E, typename L, typename FnT>
  requires(hasGet(E) && Lattice<L> &&
           std::invocable<FnT &, const typename L::ValueType &>)
auto get(ParCtx<E> Ctx, PureLVar<L> &LV, FnT Fn) {
  return LV.awaitWith(Ctx.task(), std::move(Fn));
}

/// Freezes and returns the exact state (requires HasFreeze).
template <EffectSet E, typename L>
  requires(hasFreeze(E) && Lattice<L>)
typename L::ValueType freezePureLVar(ParCtx<E> Ctx, PureLVar<L> &LV) {
  LV.freezeFor(Ctx.task(), "PureLVar freeze");
  return LV.peek();
}

} // namespace lvish

#endif // LVISH_CORE_PURELVAR_H
