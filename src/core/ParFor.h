//===- ParFor.h - Parallel loops over index ranges --------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Divide-and-conquer parallel loops built from fork + IVar joins: the
/// bread-and-butter idiom of the traditional-kernel benchmark suite
/// (Section 7.2 / Figure 4). The recursive binary split bottoms out at a
/// grain size, below which iterations run sequentially.
///
/// Two loop forms: \c parallelFor, whose body is a plain call (the
/// put-only leaf every PBBS round uses), and \c parallelForPar, whose body
/// is a Par computation that may block.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_CORE_PARFOR_H
#define LVISH_CORE_PARFOR_H

#include "src/core/IVar.h"
#include "src/core/Par.h"

#include <cstddef>
#include <type_traits>

namespace lvish {

/// Chunk grain that still forks on small inputs: \p Default capped at
/// N/8, floored at 1. Large inputs keep the tuned grain; the tiny inputs
/// of the golden and explored tests still split into ~8 chunks, so worker
/// sweeps and virtual schedules exercise real parallel structure instead
/// of degenerating to one sequential task.
inline size_t pickGrain(size_t Default, size_t N) {
  size_t Adaptive = N / 8;
  if (Adaptive < 1)
    Adaptive = 1;
  return Default < Adaptive ? Default : Adaptive;
}

/// Parallel for over [Begin, End): calls \p Fn(Ctx, I) for every index,
/// a plain call in the task that owns the leaf. The body may put, bump,
/// insert or fork through the context, but cannot await; iterations must
/// be independent. A leaf runs its indices in one loop, with no coroutine
/// frame per element and no stack growth with the grain.
template <EffectSet E, typename F>
  requires(hasPut(E) && hasGet(E) &&
           std::is_void_v<std::invoke_result_t<F, ParCtx<E>, size_t>>)
Par<void> parallelFor(ParCtx<E> Ctx, size_t Begin, size_t End, size_t Grain,
                      F Fn) {
  assert(Grain > 0 && "grain must be positive");
  if (End - Begin <= Grain) {
    for (size_t I = Begin; I < End; ++I)
      Fn(Ctx, I);
    co_return;
  }
  size_t Mid = Begin + (End - Begin) / 2;
  auto Done = newIVar<bool>(Ctx);
  fork(Ctx, [Done, Begin, Mid, Grain, Fn](ParCtx<E> C) -> Par<void> {
    co_await parallelFor(C, Begin, Mid, Grain, Fn);
    put(C, *Done, true);
  });
  co_await parallelFor(Ctx, Mid, End, Grain, Fn);
  co_await get(Ctx, *Done);
}

/// Parallel for whose body is itself a Par computation. Use it only for
/// bodies that block (co_await a get, a quiesce, a nested loop); every
/// element costs a coroutine frame.
template <EffectSet E, typename F>
  requires(hasPut(E) && hasGet(E) &&
           std::is_invocable_r_v<Par<void>, F, ParCtx<E>, size_t>)
Par<void> parallelForPar(ParCtx<E> Ctx, size_t Begin, size_t End,
                         size_t Grain, F Fn) {
  assert(Grain > 0 && "grain must be positive");
  if (End - Begin <= Grain) {
    for (size_t I = Begin; I < End; ++I)
      co_await Fn(Ctx, I);
    co_return;
  }
  size_t Mid = Begin + (End - Begin) / 2;
  auto Done = newIVar<bool>(Ctx);
  fork(Ctx, [Done, Begin, Mid, Grain, Fn](ParCtx<E> C) -> Par<void> {
    co_await parallelForPar(C, Begin, Mid, Grain, Fn);
    put(C, *Done, true);
  });
  co_await parallelForPar(Ctx, Mid, End, Grain, Fn);
  co_await get(Ctx, *Done);
}

/// Parallel reduction over [Begin, End): \p Leaf maps an index to a value,
/// \p Combine folds two values (must be associative for determinism; the
/// reduction tree shape is fixed by the range, so commutativity is NOT
/// required).
template <typename T, EffectSet E, typename LeafF, typename CombineF>
  requires(hasPut(E) && hasGet(E))
Par<T> parallelReduce(ParCtx<E> Ctx, size_t Begin, size_t End, size_t Grain,
                      LeafF Leaf, CombineF Combine, T Identity) {
  assert(Grain > 0 && "grain must be positive");
  if (End - Begin <= Grain) {
    T Acc = Identity;
    for (size_t I = Begin; I < End; ++I)
      Acc = Combine(Acc, Leaf(I));
    co_return Acc;
  }
  size_t Mid = Begin + (End - Begin) / 2;
  auto Left = newIVar<T>(Ctx);
  fork(Ctx,
       [Left, Begin, Mid, Grain, Leaf, Combine, Identity](ParCtx<E> C)
           -> Par<void> {
         T V = co_await parallelReduce<T>(C, Begin, Mid, Grain, Leaf, Combine,
                                          Identity);
         put(C, *Left, V);
       });
  T Right = co_await parallelReduce<T>(Ctx, Mid, End, Grain, Leaf, Combine,
                                       Identity);
  T LeftV = co_await get(Ctx, *Left);
  co_return Combine(LeftV, Right);
}

} // namespace lvish

#endif // LVISH_CORE_PARFOR_H
