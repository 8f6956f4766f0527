//===- IMap.h - Monotone concurrent key-value map LVar ----------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `Data.LVar.Map` / `Data.LVar.PureMap`: a key-value map LVar supporting
/// concurrent insertion but not deletion or update. Each key behaves like
/// an IVar: inserting a key twice with conflicting values is a
/// deterministic error (per-key lattice top). \c lvish::get(Ctx, Map, Key)
/// (the paper's `getKey`) is the blocking threshold read from the
/// appendix shopping-cart example:
///
///   p = do cart <- newEmptyMap
///          fork (insert Book 2 cart)
///          fork (insert Shoes 1 cart)
///          getKey Book cart        -- blocks until Book is present
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_DATA_IMAP_H
#define LVISH_DATA_IMAP_H

#include "src/core/LVarBase.h"
#include "src/core/Par.h"
#include "src/data/InsertOnlyTable.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace lvish {

/// Monotone map LVar; construct via \c newEmptyMap.
template <typename K, typename V, typename HashT = DefaultHash<K>>
class IMap : public HandledLVar<std::pair<K, V>> {
  using Base = HandledLVar<std::pair<K, V>>;

public:
  using typename Base::DeltaType;
  using typename Base::Handler;

  explicit IMap(uint64_t SessionId) : Base(SessionId) {}

  /// Lub write: binds \p Key to \p Val. Re-inserting an equal value is a
  /// no-op, found by a lock-free probe outside the gate; a conflicting
  /// value for an existing key is a deterministic error.
  void insertKV(const K &Key, const V &Val, Task *Writer) {
    this->enterPut(Writer, check::FxPut, "IMap insert");
    if (const V *Stored = Table.find(Key))
      return rebound(*Stored, Val, Writer);
    Table.insertUnder(
        this->HandlerGate, Key, [&Val] { return Val; },
        [&](const V &Stored, bool Inserted) {
          if (Inserted)
            bound(Key, Val, Writer);
          else
            rebound(Stored, Val, Writer);
        });
  }

  /// Non-blocking probe (deterministic only for keys known to be present,
  /// or when frozen). Returns a stable pointer or null.
  const V *lookupNow(const K &Key) const { return Table.find(Key); }

  /// Monotone get-or-create (LVish's `modify` for nested-LVar values): if
  /// \p Key is absent, binds it to \p Factory(); returns the stable stored
  /// value either way. Deterministic when the factory produces a fresh
  /// bottom LVar (every winner is indistinguishable) - the idiom behind
  /// "a map of sets" in the PhyBin parallelization (Section 7.1).
  template <typename FactoryT>
  const V &modifyKey(const K &Key, FactoryT Factory, Task *Writer) {
    // Finding the key bound is a read, not a put: count only past it.
    this->enterPut(Writer, check::FxPut, "IMap modifyKey",
                   /*Counted=*/false);
    if (const V *Existing = Table.find(Key))
      return *Existing;
    obs::count(obs::Event::Puts);
    // User code runs before the insert, not while the slot is claimed.
    V Fresh = Factory();
    return Table.insertUnder(
        this->HandlerGate, Key, [&Fresh] { return std::move(Fresh); },
        [&](const V &Stored, bool Inserted) -> const V & {
          if (Inserted)
            bound(Key, Stored, Writer);
          else
            this->noOpPut(); // Lost the race; the winner's value is canonical.
          return Stored;
        });
  }

  size_t sizeNow() const { return Table.size(); }

  /// Sorted snapshot; call after freezing for deterministic iteration.
  std::vector<std::pair<K, V>> toSortedVector() const {
    assert(this->isFrozen() &&
           "iterating an unfrozen IMap is nondeterministic");
    return Table.sorted(
        [](const K &Key, const V &Val) { return std::pair(Key, Val); });
  }

  /// Unordered traversal (post-freeze or at quiescence).
  template <typename FnT> void forEachFrozen(FnT &&Fn) const {
    assert(this->isFrozen() &&
           "iterating an unfrozen IMap is nondeterministic");
    Table.forEach(Fn);
  }

private:
  /// The tail of a put that bound a fresh key, inside the gate's fast
  /// section: freeze check, handler delivery, targeted wake.
  void bound(const K &Key, const V &Val, Task *Writer) {
    if (this->isFrozen())
      putAfterFreezeError(Writer, this);
    if (this->hasHandlers())
      this->deliver(DeltaType(Key, Val));
    this->notifyDelta(Writer, HashT{}(Key), Table.size());
  }

  /// A put to a key already bound to \p Stored: a no-op when \p Val is
  /// equal, the per-key lattice top otherwise.
  void rebound(const V &Stored, const V &Val, Task *Writer) {
    if constexpr (std::equality_comparable<V>) {
      if (Stored == Val) {
        this->noOpPut();
        return; // Idempotent repeat: no delta, nothing to wake.
      }
    }
    detail::raiseSessionFault(Writer, FaultCode::ConflictingInsert,
                              "conflicting insert for an existing IMap key "
                              "(per-key lattice top reached)",
                              this->debugName());
  }

  void replayTo(Handler &H) override {
    Table.forEach([&H](const K &Key, const V &Val) {
      H(DeltaType(Key, Val));
    });
  }

  InsertOnlyTable<K, V, HashT> Table;
};

/// Allocates an empty map for the current session.
template <typename K, typename V, EffectSet E>
std::shared_ptr<IMap<K, V>> newEmptyMap(ParCtx<E> Ctx) {
  return std::make_shared<IMap<K, V>>(Ctx.sessionId());
}

/// `insert :: HasPut e => k -> v -> IMap k s v -> Par e s ()`
template <EffectSet E, typename K, typename V, typename HashT>
  requires(hasPut(E))
void insert(ParCtx<E> Ctx, IMap<K, V, HashT> &Map, const K &Key,
            const V &Val) {
  Map.insertKV(Key, Val, Ctx.task());
}

/// `getKey :: HasGet e => k -> IMap k s v -> Par e s v` - the unified
/// threshold-read spelling: blocks until \p Key is bound, returns its
/// value.
template <EffectSet E, typename K, typename V, typename HashT>
  requires(hasGet(E))
auto get(ParCtx<E> Ctx, IMap<K, V, HashT> &Map, K Key) {
  const uint64_t Hash = HashT{}(Key);
  return ThresholdAwaiter(
      Map, Ctx.task(), WaitSlot::key(Hash),
      [&Map, Key = std::move(Key)]() -> std::optional<V> {
        const V *P = Map.lookupNow(Key);
        return P ? std::optional<V>(*P) : std::nullopt;
      });
}

/// Freezes mid-computation (quasi-deterministic) and returns the sorted
/// contents.
template <EffectSet E, typename K, typename V, typename HashT>
  requires(hasFreeze(E))
std::vector<std::pair<K, V>> freezeMap(ParCtx<E> Ctx,
                                       IMap<K, V, HashT> &Map) {
  Map.freezeFor(Ctx.task(), "IMap freeze");
  return Map.toSortedVector();
}

} // namespace lvish

#endif // LVISH_DATA_IMAP_H
