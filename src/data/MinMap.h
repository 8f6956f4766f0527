//===- MinMap.h - Min-label map and dense min-vector LVars ------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two LVars over MinUint64Lattice (src/core/Lattice.h), built for the
/// PBBS port (src/pbbs/):
///
///  * \c MinMap<K> - a keyed map whose per-key state is a uint64 label
///    under *min*-join. Unlike IMap (exactly-once single-assignment per
///    key), a MinMap key may be written many times; each write joins (takes
///    the minimum), and registered handlers fire once per *winning* strict
///    decrease with the (key, newLabel) delta. That monotone delta stream
///    is what drives label-propagation fixpoints: \c componentsLabelProp
///    seeds label[v] = v and a handler relaxes each improvement across the
///    vertex's edges until quiescence.
///
///  * \c MinVec - the dense cousin: a fixed array of min-cells, the shape
///    deterministic reservations want (one cell per component root,
///    reservations join by min, the winner is read after a barrier). No
///    handlers - it pairs with fork-join rounds, not fixpoints - so a cell
///    is one padded atomic and a proposal is one CAS loop.
///
/// Deterministic observations mirror ISet/IMap: threshold reads ("the
/// label of K has dropped to <= Bound" is a stable, monotone fact),
/// cardinality waits, and freeze for exact contents.
///
/// Bottom (UINT64_MAX) is "no information": putting it is a no-op join,
/// so every key physically present in a MinMap carries a real label and
/// the key-count itself is a monotone threshold surface.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_DATA_MINMAP_H
#define LVISH_DATA_MINMAP_H

#include "src/core/LVarBase.h"
#include "src/core/Lattice.h"
#include "src/core/Par.h"
#include "src/data/InsertOnlyTable.h"

#include <atomic>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace lvish {

/// Keyed min-label LVar; construct via \c newMinMap.
template <typename K, typename HashT = DefaultHash<K>>
class MinMap : public HandledLVar<std::pair<K, uint64_t>> {
  using Base = HandledLVar<std::pair<K, uint64_t>>;
  /// A cell is a heap box so that putMin's CAS target keeps one address
  /// while the table grows; the table stores the pointer, and its current
  /// array owns the cell (see ~MinMap).
  using Cell = std::atomic<uint64_t>;

public:
  /// Bottom of MinUint64Lattice: "no label yet".
  static constexpr uint64_t Bottom = MinUint64Lattice::bottom();

  using typename Base::DeltaType;
  using typename Base::Handler;

  explicit MinMap(uint64_t SessionId) : Base(SessionId) {}
  ~MinMap() override {
    Table.forEach([](const K &, Cell *C) { delete C; });
  }

  /// Lub write: joins \p Label into the key's cell by min. Fires handlers
  /// with (Key, Label) exactly when this call strictly lowered the cell
  /// (first write included); repeats and non-improving labels are no-ops,
  /// found by a lock-free probe outside the gate. Only a fresh key
  /// allocates a cell.
  void joinKey(const K &Key, uint64_t Label, Task *Writer) {
    this->enterPut(Writer, check::FxPut, "MinMap put");
    Cell *const *Found = Table.find(Key);
    if (Label == Bottom ||
        (Found && Label >= (*Found)->load(std::memory_order_acquire))) {
      this->noOpPut();
      return; // join(bottom, x) = x, or a non-improving join.
    }
    // The cell is born holding the label, so no reader ever observes a
    // transient bottom cell; on a lost race the CAS loop joins into the
    // winner's cell.
    Table.insertUnder(
        this->HandlerGate, Key, [Label] { return new Cell(Label); },
        [&](Cell *C, bool Inserted) {
          if (!Inserted) {
            uint64_t Cur = C->load(std::memory_order_acquire);
            do {
              if (Label >= Cur) {
                this->noOpPut();
                return; // Non-improving join.
              }
              if (this->isFrozen())
                putAfterFreezeError(Writer, this);
            } while (!C->compare_exchange_weak(Cur, Label,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire));
          } else if (this->isFrozen()) {
            putAfterFreezeError(Writer, this);
          }
          this->deliver(DeltaType{Key, Label});
          this->notifyDelta(Writer, HashT{}(Key), Table.size());
        });
  }

  /// Current label, or nullopt if the key has never been written.
  /// Deterministic only when frozen/quiescent (labels can still drop).
  std::optional<uint64_t> peekKey(const K &Key) const {
    Cell *const *C = Table.find(Key);
    if (!C)
      return std::nullopt;
    return (*C)->load(std::memory_order_acquire);
  }

  /// Number of keys carrying a label; monotone, so threshold-readable.
  size_t sizeNow() const { return Table.size(); }

  /// Sorted (key, label) snapshot; call after freezing.
  std::vector<std::pair<K, uint64_t>> toSortedVector() const {
    assert(this->isFrozen() &&
           "iterating an unfrozen MinMap is nondeterministic");
    return Table.sorted([](const K &Key, const Cell *C) {
      return std::pair(Key, C->load(std::memory_order_acquire));
    });
  }

private:
  /// Delivers the current label of every existing key.
  void replayTo(const Handler &H) override {
    Table.forEach([&H](const K &Key, const Cell *C) {
      H(DeltaType{Key, C->load(std::memory_order_acquire)});
    });
  }

  InsertOnlyTable<K, Cell *, HashT> Table;
};

/// Allocates an empty min-map for the current session.
template <typename K, EffectSet E>
std::shared_ptr<MinMap<K>> newMinMap(ParCtx<E> Ctx) {
  return std::make_shared<MinMap<K>>(Ctx.sessionId());
}

/// `putMin :: HasPut e => k -> Word64 -> MinMap s k -> Par e s ()`
template <EffectSet E, typename K, typename HashT>
  requires(hasPut(E))
void putMin(ParCtx<E> Ctx, MinMap<K, HashT> &Map, const K &Key,
            uint64_t Label) {
  Map.joinKey(Key, Label, Ctx.task());
}

/// Blocks until label[Key] <= Bound - the unified threshold-read spelling.
/// "Label dropped to Bound or below" is a stable fact (labels only
/// decrease), so the read is deterministic; it returns only the bound,
/// never the exact label.
template <EffectSet E, typename K, typename HashT>
  requires(hasGet(E))
auto get(ParCtx<E> Ctx, MinMap<K, HashT> &Map, K Key, uint64_t Bound) {
  const uint64_t Hash = HashT{}(Key);
  return ThresholdAwaiter(
      Map, Ctx.task(), WaitSlot::key(Hash),
      [&Map, Key = std::move(Key), Bound]() -> std::optional<uint64_t> {
        std::optional<uint64_t> Label = Map.peekKey(Key);
        return Label && *Label <= Bound ? std::optional(Bound)
                                        : std::nullopt;
      });
}

/// Freezes (quasi-deterministic mid-session; deterministic after quiesce)
/// and returns the sorted (key, label) contents.
template <EffectSet E, typename K, typename HashT>
  requires(hasFreeze(E))
std::vector<std::pair<K, uint64_t>> freezeMinMap(ParCtx<E> Ctx,
                                                 MinMap<K, HashT> &Map) {
  Map.freezeFor(Ctx.task(), "MinMap freeze");
  return Map.toSortedVector();
}

/// A fixed-size array of min-cells sharing one LVar identity - the
/// CounterVec of the min lattice. Cells are cache-line padded; a join is
/// one CAS loop. Reads (\c peekAt / \c snapshot) are deterministic once
/// the writers have joined (fork-join barrier) or after freezing.
class MinVec : public LVarBase {
  struct alignas(64) Cell {
    std::atomic<uint64_t> V{MinUint64Lattice::bottom()};
  };

public:
  static constexpr uint64_t Bottom = MinUint64Lattice::bottom();

  MinVec(uint64_t SessionId, size_t N) : LVarBase(SessionId), Cells(N) {}

  size_t size() const { return Cells.size(); }

  /// Lub write: Cells[I] <- min(Cells[I], Label).
  void joinAt(size_t I, uint64_t Label, Task *Writer) {
    enterPut(Writer, check::FxPut, "MinVec put");
    assert(I < Cells.size() && "MinVec index out of range");
    uint64_t Cur = Cells[I].V.load(std::memory_order_acquire);
    for (;;) {
      if (Label >= Cur) {
        noOpPut();
        return;
      }
      if (isFrozen())
        putAfterFreezeError(Writer, this);
      // seq_cst on success so notifyWaiters can order its no-waiter probe
      // against this write without a standalone fence (as CounterVec).
      if (Cells[I].V.compare_exchange_weak(Cur, Label,
                                           std::memory_order_seq_cst,
                                           std::memory_order_acquire))
        break;
    }
    notifyWaiters(Writer, NotifyOrder::StateSeqCst);
  }

  uint64_t peekAt(size_t I) const {
    assert(I < Cells.size() && "MinVec index out of range");
    return Cells[I].V.load(std::memory_order_acquire);
  }

  /// Copies all cells out; deterministic once quiescent/frozen.
  std::vector<uint64_t> snapshot() const {
    std::vector<uint64_t> Out(Cells.size());
    for (size_t I = 0; I < Cells.size(); ++I)
      Out[I] = peekAt(I);
    return Out;
  }

private:
  std::vector<Cell> Cells;
};

/// Allocates a min-vector of \p N bottom (UINT64_MAX) cells.
template <EffectSet E>
std::shared_ptr<MinVec> newMinVec(ParCtx<E> Ctx, size_t N) {
  return std::make_shared<MinVec>(Ctx.sessionId(), N);
}

template <EffectSet E>
  requires(hasPut(E))
void putMinAt(ParCtx<E> Ctx, MinVec &MV, size_t I, uint64_t Label) {
  MV.joinAt(I, Label, Ctx.task());
}

template <EffectSet E>
  requires(hasFreeze(E))
std::vector<uint64_t> freezeMinVec(ParCtx<E> Ctx, MinVec &MV) {
  MV.freezeFor(Ctx.task(), "MinVec freeze");
  return MV.snapshot();
}

} // namespace lvish

#endif // LVISH_DATA_MINMAP_H
