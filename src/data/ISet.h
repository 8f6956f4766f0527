//===- ISet.h - Monotone concurrent set LVar --------------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `Data.LVar.Set`: a set LVar that "supports concurrent insertion, but not
/// deletion, during Par computations". The lattice is the powerset of the
/// element type ordered by inclusion; insert is the lub with a singleton.
/// Deterministic observations:
///  * \c lvish::get(Ctx, Set, Elem) (the paper's `waitElem`) - threshold
///    read that unblocks once a given element is present (the returned
///    information, "x is in the set", is stable);
///  * \c waitSize (src/core/LVarBase.h) - unblocks once the cardinality
///    reaches N (cardinality is monotone, and the read returns only the
///    threshold N, not the exact size);
///  * handlers - run for each element exactly once (current and future);
///  * freezing - exact contents, quasi-deterministic unless performed at
///    session quiescence (runParThenFreeze).
///
/// As in the paper, ISet deliberately has no \c bump operations: put-style
/// and bump-style updates never mix on one LVar.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_DATA_ISET_H
#define LVISH_DATA_ISET_H

#include "src/core/LVarBase.h"
#include "src/core/Par.h"
#include "src/data/InsertOnlyTable.h"

#include <memory>
#include <optional>
#include <vector>

namespace lvish {

/// Monotone set LVar; construct via \c newISet.
template <typename T, typename HashT = DefaultHash<T>>
class ISet : public HandledLVar<T> {
  struct Unit {};

public:
  using typename HandledLVar<T>::Handler;

  explicit ISet(uint64_t SessionId) : HandledLVar<T>(SessionId) {}

  /// Lub write: adds \p Elem. No-op if already present (idempotent): a
  /// repeat is found by a lock-free probe and never enters the gate.
  void insertElem(const T &Elem, Task *Writer) {
    this->enterPut(Writer, check::FxPut, "ISet insert");
    if (Table.contains(Elem)) {
      this->noOpPut();
      return; // Idempotent repeat: no delta, nothing to wake.
    }
    Table.insertUnder(
        this->HandlerGate, Elem, [] { return Unit{}; },
        [&](const Unit &, bool Inserted) {
          if (!Inserted) {
            this->noOpPut();
            return; // Lost the race to an equal insert.
          }
          if (this->isFrozen())
            putAfterFreezeError(Writer, this);
          this->deliver(Elem);
          this->notifyDelta(Writer, HashT{}(Elem), Table.size());
        });
  }

  bool containsElem(const T &Elem) const { return Table.contains(Elem); }

  /// Exact cardinality; deterministic only when frozen/quiescent.
  size_t sizeNow() const { return Table.size(); }

  /// Sorted snapshot; call after freezing for deterministic iteration.
  std::vector<T> toSortedVector() const {
    assert(this->isFrozen() &&
           "iterating an unfrozen ISet is nondeterministic");
    return Table.sorted([](const T &Elem, const Unit &) { return Elem; });
  }

  /// Unordered traversal (post-freeze or at quiescence).
  template <typename FnT> void forEachFrozen(FnT &&Fn) const {
    assert(this->isFrozen() &&
           "iterating an unfrozen ISet is nondeterministic");
    Table.forEach([&Fn](const T &Elem, const Unit &) { Fn(Elem); });
  }

private:
  void replayTo(Handler &H) override {
    Table.forEach([&H](const T &Elem, const Unit &) { H(Elem); });
  }

  InsertOnlyTable<T, Unit, HashT> Table;
};

/// Allocates an empty set for the current session.
template <typename T, EffectSet E>
std::shared_ptr<ISet<T>> newISet(ParCtx<E> Ctx) {
  return std::make_shared<ISet<T>>(Ctx.sessionId());
}

/// `insert :: HasPut e => a -> ISet s a -> Par e s ()`
template <EffectSet E, typename T, typename HashT>
  requires(hasPut(E))
void insert(ParCtx<E> Ctx, ISet<T, HashT> &Set, const T &Elem) {
  Set.insertElem(Elem, Ctx.task());
}

/// Blocks until \p Elem appears - the unified threshold-read spelling
/// (the paper's `waitElem`).
template <EffectSet E, typename T, typename HashT>
  requires(hasGet(E))
auto get(ParCtx<E> Ctx, ISet<T, HashT> &Set, T Elem) {
  const uint64_t Hash = HashT{}(Elem);
  return ThresholdAwaiter(
      Set, Ctx.task(), WaitSlot::key(Hash),
      [&Set, Elem = std::move(Elem)] { return Set.containsElem(Elem); });
}

/// Freezes mid-computation (quasi-deterministic) and returns the sorted
/// contents.
template <EffectSet E, typename T, typename HashT>
  requires(hasFreeze(E))
std::vector<T> freezeSet(ParCtx<E> Ctx, ISet<T, HashT> &Set) {
  Set.freezeFor(Ctx.task(), "ISet freeze");
  return Set.toSortedVector();
}

} // namespace lvish

#endif // LVISH_DATA_ISET_H
