//===- Cancel.h - Deterministic speculation and cancellation ----*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// \c CancelT (Section 6.1): speculative parallel computations that can be
/// cancelled without breaking determinism.
///
///  * \c forkCancelable runs a *read-only* computation in parallel and
///    returns a cancellable future. Read-only-ness (enforced by the effect
///    system) is what makes cancellation safe: a computation with no
///    visible effect but its result can disappear without changing any
///    observable outcome.
///  * \c cancel kills the future "and all of that thread's subthreads,
///    transitively". Because cancellation may deterministically deprive a
///    reader of a value, cancel itself counts as a put effect.
///  * "It is an error to both cancel and read such a future, even if the
///    read happens first" - both orders raise the same deterministic error.
///  * \c forkCancelableND allows arbitrary effects in the child but
///    requires the nondeterminism (IO) bit in the *parent's* signature.
///
/// Implementation: one CancelNode per cancellable future ("this location
/// stores a tuple (live, children)"); regular forks share the parent's
/// node. The scheduler polls liveness "every time a scheduler action (get,
/// fork, put, and so on) is performed. Because scheduler actions are
/// frequent, this is sufficient" - no asynchronous-exception machinery.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_TRANS_CANCEL_H
#define LVISH_TRANS_CANCEL_H

#include "src/check/EffectAuditor.h"
#include "src/core/IVar.h"
#include "src/core/Par.h"

#include <memory>

namespace lvish {

/// A cancellable future: the result IVar plus the cancellation-tree node
/// guarding the computation that fills it.
template <typename T> class CFuture {
public:
  CFuture(std::shared_ptr<IVar<T>> R, std::shared_ptr<CancelNode> N)
      : Result(std::move(R)), Node(std::move(N)) {}

  const std::shared_ptr<IVar<T>> &result() const { return Result; }
  const std::shared_ptr<CancelNode> &node() const { return Node; }

private:
  std::shared_ptr<IVar<T>> Result;
  std::shared_ptr<CancelNode> Node;
};

namespace detail {

/// Spawns \p Body as a new task under a fresh cancellation node, funneling
/// its result into an IVar. \p ChildE is the effect level handed to the
/// child's body; the internal result-put is trusted code (blessed), like
/// the hidden put inside getMemoRO.
template <EffectSet ChildE, typename T, EffectSet E, typename F>
CFuture<T> forkCancelableImpl(ParCtx<E> Ctx, F Body) {
  auto Result = std::make_shared<IVar<T>>(Ctx.sessionId());
  // Registered under the parent's node before launch: the session's
  // cancel tree owns the node the child task borrows.
  auto Node = std::make_shared<CancelNode>();
  Ctx.task()->Cancel->addChild(Node);
  Par<void> Wrapper = forkBody<ChildE>(
      [Result, B = std::move(Body)](ParCtx<ChildE> C) mutable -> Par<void> {
        T V = co_await B(C);
        // Trusted: materialize a put-capable context to fill the future.
        // A cancellable future "must have no visible effect but its
        // result"; this is that result.
        constexpr EffectSet Blessed{true, true, false, false, false, false};
        ParCtx<Blessed> Full = CtxAccess::make<Blessed>(C.task());
        check::BlessScope Bless(C.task(), check::FxPut);
        put(Full, *Result, V);
      });
  // The fresh node replaces the inherited one: a new cancellable scope.
  launchTask(*Ctx.sched(), std::move(Wrapper), Ctx.task(),
             check::effectMask(ChildE), /*Scopes=*/{}, Node.get());
  return CFuture<T>(std::move(Result), std::move(Node));
}

} // namespace detail

/// `forkCancelable :: (ReadOnly m, ...) => CancelT m a -> CancelT m (CFuture m a)`
/// The child body runs at ReadOnly effect level; its type is
/// `Par<T>(ParCtx<Eff::ReadOnly>)`.
template <typename F, EffectSet E>
auto forkCancelable(ParCtx<E> Ctx, F Body) {
  using RetPar = std::invoke_result_t<F, ParCtx<Eff::ReadOnly>>;
  using T = decltype(std::declval<RetPar>().await_resume());
  return detail::forkCancelableImpl<Eff::ReadOnly, T>(Ctx, std::move(Body));
}

/// Variant allowing arbitrary effects in the child; correspondingly the
/// parent computation must admit nondeterminism (HasIO), as in the paper.
template <typename F, EffectSet E>
  requires(hasIO(E))
auto forkCancelableND(ParCtx<E> Ctx, F Body) {
  using RetPar = std::invoke_result_t<F, ParCtx<E>>;
  using T = decltype(std::declval<RetPar>().await_resume());
  return detail::forkCancelableImpl<E, T>(Ctx, std::move(Body));
}

/// `cancel :: (HasPut m2, ...) => CFuture m1 a -> CancelT m2 ()`
/// Kills the future's computation and all of its subthreads, transitively.
/// Deterministic error if the future was (or is later) read.
template <EffectSet E, typename T>
  requires(hasPut(E))
void cancel(ParCtx<E> Ctx, const CFuture<T> &Future) {
  obs::count(obs::Event::Cancellations);
  Future.node()->cancel();
  if (Future.node()->noteCancelConflict())
    detail::raiseSessionFault(Ctx.task(), FaultCode::CancelReadConflict,
                              "a CFuture was both cancelled and read "
                              "(order-independent determinism error)");
}

/// Blocking read of a cancellable future. Deterministic error if the
/// future was (or is later) cancelled - even when the read "wins".
template <EffectSet E, typename T>
  requires(hasGet(E))
Par<T> readCFuture(ParCtx<E> Ctx, CFuture<T> Future) {
  if (Future.node()->noteRead())
    detail::raiseSessionFault(Ctx.task(), FaultCode::CancelReadConflict,
                              "a CFuture was both cancelled and read "
                              "(order-independent determinism error)");
  T V = co_await get(Ctx, *Future.result());
  co_return V;
}

} // namespace lvish

#endif // LVISH_TRANS_CANCEL_H
