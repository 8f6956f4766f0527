//===- IStructure.h - Arrays of single-assignment slots ---------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// I-structures (Arvind, Nikhil & Pingali 1989, cited as [1] in the paper):
/// an array of write-once cells with blocking per-slot reads. The natural
/// substrate for dataflow-style array programs in a Par computation; used
/// by the functional merge-sort kernel to hand off sorted sub-results.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_DATA_ISTRUCTURE_H
#define LVISH_DATA_ISTRUCTURE_H

#include "src/core/IVar.h"

#include <memory>
#include <vector>

namespace lvish {

/// Fixed-size array of IVars sharing one session.
template <typename T> class IStructure {
public:
  IStructure(uint64_t SessionId, size_t N) {
    Slots.reserve(N);
    for (size_t I = 0; I < N; ++I)
      Slots.push_back(std::make_unique<IVar<T>>(SessionId));
  }

  size_t size() const { return Slots.size(); }

  IVar<T> &slot(size_t I) {
    assert(I < Slots.size() && "IStructure index out of range");
    return *Slots[I];
  }

private:
  std::vector<std::unique_ptr<IVar<T>>> Slots;
};

/// Allocates an IStructure of \p N empty slots.
template <typename T, EffectSet E>
std::shared_ptr<IStructure<T>> newIStructure(ParCtx<E> Ctx, size_t N) {
  return std::make_shared<IStructure<T>>(Ctx.sessionId(), N);
}

/// Writes slot \p I (single-assignment).
template <EffectSet E, typename T>
  requires(hasPut(E))
void putIdx(ParCtx<E> Ctx, IStructure<T> &S, size_t I, const T &V) {
  S.slot(I).putValue(V, Ctx.task());
}

/// Blocking read of slot \p I - the unified threshold-read spelling.
template <EffectSet E, typename T>
  requires(hasGet(E))
auto get(ParCtx<E> Ctx, IStructure<T> &S, size_t I) {
  return get(Ctx, S.slot(I));
}

} // namespace lvish

#endif // LVISH_DATA_ISTRUCTURE_H
