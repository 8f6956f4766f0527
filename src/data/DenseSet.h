//===- DenseSet.h - Set LVar over a dense universe [0, N) -------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set LVar over the fixed universe [0, N): one bit per element, in
/// words of 64, with bitwise OR as the join - the powerset of [0, N)
/// ordered by inclusion, stored the way PhyBin stores label sets
/// (src/support/DenseBitset.h, the paper's \c DenseLabelSet) and PBBS
/// stores per-vertex BFS flags. It has ISet's surface for elements known
/// to be small integers:
///  * \c insert - the lub with a singleton: a duplicate is one load, a
///    fresh element one \c fetch_or inside the handler gate;
///  * \c get(Ctx, Set, Elem) and \c waitSize - the threshold reads, on
///    the same key hash and size watermark as ISet's;
///  * handlers - each element delivered exactly once;
///  * \c freezeDenseSet - the contents in ascending order, read off the
///    set bits with no sort.
/// An element outside [0, N) is a programming error and asserts, as in
/// UnionFind.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_DATA_DENSESET_H
#define LVISH_DATA_DENSESET_H

#include "src/core/LVarBase.h"
#include "src/core/Par.h"
#include "src/support/Hashing.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace lvish {

/// Set LVar over [0, N); construct via \c newDenseSet.
class DenseSet : public HandledLVar<uint32_t> {
public:
  DenseSet(uint64_t SessionId, uint32_t N)
      : HandledLVar<uint32_t>(SessionId), NumElems(N), Words((N + 63) / 64) {}

  /// Lub write: adds \p Elem. A repeat is found by one unlocked load and
  /// never enters the gate, as in ISet.
  void insertElem(uint32_t Elem, Task *Writer) {
    enterPut(Writer, check::FxPut, "DenseSet insert");
    assert(Elem < NumElems && "DenseSet element out of range");
    std::atomic<uint64_t> &Word = Words[Elem / 64];
    const uint64_t Bit = uint64_t{1} << (Elem % 64);
    if (Word.load(std::memory_order_acquire) & Bit) {
      noOpPut();
      return; // Idempotent repeat: no delta, nothing to wake.
    }
    AsymmetricGate::FastGuard Fast(HandlerGate);
    if (Word.fetch_or(Bit, std::memory_order_acq_rel) & Bit) {
      noOpPut();
      return; // Lost the race to an equal insert.
    }
    const size_t NewSize = Count.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (isFrozen())
      putAfterFreezeError(Writer, this);
    deliver(Elem);
    notifyDelta(Writer, DefaultHash<uint32_t>{}(Elem), NewSize);
  }

  bool containsElem(uint32_t Elem) const {
    assert(Elem < NumElems && "DenseSet element out of range");
    return (Words[Elem / 64].load(std::memory_order_acquire) >> (Elem % 64)) &
           1;
  }

  /// Exact cardinality; deterministic only when frozen/quiescent.
  size_t sizeNow() const { return Count.load(std::memory_order_acquire); }

  /// The elements in ascending order; call after freezing.
  std::vector<uint32_t> toSortedVector() const {
    std::vector<uint32_t> Out;
    Out.reserve(sizeNow());
    forEachFrozen([&Out](uint32_t Elem) { Out.push_back(Elem); });
    return Out;
  }

  /// Ascending traversal (post-freeze or at quiescence).
  template <typename FnT> void forEachFrozen(FnT &&Fn) const {
    assert(this->isFrozen() &&
           "iterating an unfrozen DenseSet is nondeterministic");
    forEachSet(Fn);
  }

private:
  void replayTo(Handler &H) override { forEachSet(H); }

  /// Applies \p Fn to every set bit, lowest first.
  template <typename FnT> void forEachSet(FnT &Fn) const {
    for (size_t I = 0; I < Words.size(); ++I)
      for (uint64_t W = Words[I].load(std::memory_order_acquire); W;
           W &= W - 1)
        Fn(static_cast<uint32_t>(I * 64 + __builtin_ctzll(W)));
  }

  uint32_t NumElems;
  std::vector<std::atomic<uint64_t>> Words;
  std::atomic<size_t> Count{0};
};

/// Allocates the empty set over [0, \p N) for the current session.
template <EffectSet E>
std::shared_ptr<DenseSet> newDenseSet(ParCtx<E> Ctx, uint32_t N) {
  return std::make_shared<DenseSet>(Ctx.sessionId(), N);
}

/// `insert :: HasPut e => Int -> DenseSet s -> Par e s ()`
template <EffectSet E>
  requires(hasPut(E))
void insert(ParCtx<E> Ctx, DenseSet &Set, uint32_t Elem) {
  Set.insertElem(Elem, Ctx.task());
}

/// Blocks until \p Elem appears (the paper's `waitElem`).
template <EffectSet E>
  requires(hasGet(E))
auto get(ParCtx<E> Ctx, DenseSet &Set, uint32_t Elem) {
  return ThresholdAwaiter(Set, Ctx.task(),
                          WaitSlot::key(DefaultHash<uint32_t>{}(Elem)),
                          [&Set, Elem] { return Set.containsElem(Elem); });
}

/// Freezes (quasi-deterministic mid-session; deterministic after the
/// writers quiesce) and returns the contents in ascending order.
template <EffectSet E>
  requires(hasFreeze(E))
std::vector<uint32_t> freezeDenseSet(ParCtx<E> Ctx, DenseSet &Set) {
  Set.freezeFor(Ctx.task(), "DenseSet freeze");
  return Set.toSortedVector();
}

} // namespace lvish

#endif // LVISH_DATA_DENSESET_H
