//===- InsertOnlyTable.h - Insert-only open-addressing table ----*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The storage under ISet, IMap and MinMap (DESIGN.md Section 13): linear
/// probing over a power-of-two array, insert and lookup but never delete -
/// the monotone growth that makes LVar collections deterministic. A slot's
/// control byte (kept apart from the entries) goes Empty -> Busy -> Full
/// once, so there is no ABA and no reader takes a lock.
///
///  * Claim: CAS Empty -> Busy, construct the entry in place, store Full
///    (release). Probe: load the array and a Full byte (acquire) before
///    reading an entry; a Busy slot is spun on until it turns Full.
///  * Grow: an insert that would take the load past 1/2 is refused; the
///    caller leaves the LVar gate's fast side and takes its slow side (the
///    rare-writer side footnote 6 built for handler registration), so no
///    insert is in flight while the entries are copied into an array twice
///    the size, which is then published (release).
///  * Retire: a replaced array (smaller than all later ones together) is
///    kept until the table dies, so a probe of it stays memory-safe and a
///    `const V &` handed out stays valid: values are immutable once bound.
///
/// Wake protocol: a put that lands a fresh key loaded the current array
/// before its notify fence, after the grower's release store of it; a
/// parked reader's re-probe loads the array after its own fence. If the
/// reader's fence is later, the re-probe sees that array or a later one
/// (which holds a copy of the key: growth excludes inserts); otherwise the
/// put sees the parked entry and wakes it.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_DATA_INSERTONLYTABLE_H
#define LVISH_DATA_INSERTONLYTABLE_H

#include "src/support/AsymmetricGate.h"
#include "src/support/Hashing.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace lvish {

/// Insert-only concurrent hash table; see file comment.
template <typename K, typename V, typename HashT = DefaultHash<K>>
class InsertOnlyTable {
public:
  InsertOnlyTable() : Cur(new Array(4, nullptr)) {}
  ~InsertOnlyTable() {
    for (Array *A = Cur.load(std::memory_order_relaxed); A;)
      delete std::exchange(A, A->Prev);
  }
  InsertOnlyTable(const InsertOnlyTable &) = delete;
  InsertOnlyTable &operator=(const InsertOnlyTable &) = delete;

  /// Lock-free lookup: the stored value (valid for the table's life) or
  /// null.
  const V *find(const K &Key) const {
    const Array &A = *Cur.load(std::memory_order_acquire);
    size_t I = A.home(Key);
    for (size_t N = 0; N <= A.Mask; ++N, I = (I + 1) & A.Mask) {
      if (A.settled(I) == Empty)
        return nullptr;
      if (A.Slots[I].Key == Key)
        return &A.Slots[I].Val;
    }
    return nullptr;
  }

  bool contains(const K &Key) const { return find(Key) != nullptr; }

  /// Number of entries (exact; monotonically non-decreasing).
  size_t size() const { return Count.load(std::memory_order_acquire); }

  /// The put path: inserts \p Key with value \p Make() if absent, inside a
  /// fast section of \p Gate (growing on its slow side first when the
  /// array is full), and returns \p Done(stored value, inserted?) from
  /// inside that section - so a fresh key's freeze check, delivery and
  /// notify run there. \p Make runs only for a claimed slot, while its
  /// readers spin: it must be short, must not throw, and must not touch
  /// this table. The caller must hold no fast section of \p Gate.
  template <typename MakeT, typename DoneT>
  decltype(auto) insertUnder(AsymmetricGate &Gate, const K &Key,
                             MakeT &&Make, DoneT &&Done) {
    for (;;) {
      {
        AsymmetricGate::FastGuard Fast(Gate);
        Array &A = *Cur.load(std::memory_order_acquire);
        size_t I = A.home(Key);
        for (size_t N = 0; N <= A.Mask;) {
          uint8_t S = A.settled(I);
          if (S == Full) {
            if (A.Slots[I].Key == Key)
              return Done(A.Slots[I].Val, false);
            ++N;
            I = (I + 1) & A.Mask;
          } else if (!hasRoom(A)) {
            break;
          } else if (A.Ctrl[I].compare_exchange_strong(
                         S, Busy, std::memory_order_acquire)) {
            ::new (static_cast<void *>(&A.Slots[I])) Entry{Key, Make()};
            A.Ctrl[I].store(Full, std::memory_order_release);
            Count.fetch_add(1, std::memory_order_acq_rel);
            return Done(A.Slots[I].Val, true);
          } // else lost the slot: look at it again.
        }
      }
      grow(Gate);
    }
  }

  /// Applies \p Fn(key, value) to every entry, without a lock. Only
  /// deterministic when the table is quiescent (frozen or post-session);
  /// the order is unspecified.
  template <typename FnT> void forEach(FnT &&Fn) const {
    const Array &A = *Cur.load(std::memory_order_acquire);
    for (size_t I = 0; I <= A.Mask; ++I)
      if (A.settled(I) == Full)
        Fn(A.Slots[I].Key, A.Slots[I].Val);
  }

  /// Every entry as \p Proj(key, value) - the key itself, or a pair
  /// whose first member is the key - in ascending key order: the
  /// deterministic iteration of a frozen table.
  template <typename ProjT> auto sorted(ProjT Proj) const {
    using Elem = std::invoke_result_t<ProjT &, const K &, const V &>;
    std::vector<Elem> Out;
    Out.reserve(size());
    forEach(
        [&](const K &Key, const V &Val) { Out.push_back(Proj(Key, Val)); });
    std::sort(Out.begin(), Out.end(), [](const Elem &A, const Elem &B) {
      if constexpr (std::is_same_v<Elem, K>)
        return A < B;
      else
        return A.first < B.first;
    });
    return Out;
  }

private:
  static constexpr uint8_t Empty = 0, Busy = 1, Full = 2;

  struct Entry {
    K Key;
    [[no_unique_address]] V Val;
  };

  /// One slot array, and the retired array it replaced.
  struct Array {
    Array(unsigned Log2, Array *Prev)
        : Log2(Log2), Mask((size_t{1} << Log2) - 1),
          Ctrl(std::make_unique<std::atomic<uint8_t>[]>(Mask + 1)),
          Slots(std::allocator<Entry>().allocate(Mask + 1)), Prev(Prev) {}
    ~Array() {
      for (size_t I = 0; I <= Mask; ++I)
        if (Ctrl[I].load(std::memory_order_relaxed) == Full)
          std::destroy_at(&Slots[I]);
      std::allocator<Entry>().deallocate(Slots, Mask + 1);
    }

    /// Fibonacci hashing (the top bits of the scrambled hash), so a weak
    /// user hash still spreads over the array.
    size_t home(const K &Key) const {
      return static_cast<size_t>((HashT{}(Key) * 0x9e3779b97f4a7c15ULL) >>
                                 (64 - Log2));
    }

    /// The slot's state once no insert is constructing it: Empty or Full.
    uint8_t settled(size_t I) const {
      uint8_t S;
      for (unsigned Spins = 0;
           (S = Ctrl[I].load(std::memory_order_acquire)) == Busy; ++Spins)
        if (Spins >= 64)
          std::this_thread::yield();
      return S;
    }

    const unsigned Log2;
    const size_t Mask;
    const std::unique_ptr<std::atomic<uint8_t>[]> Ctrl;
    Entry *const Slots;
    Array *const Prev;
  };

  /// True while one more entry keeps the load of \p A at most 1/2.
  bool hasRoom(const Array &A) const {
    return 2 * (Count.load(std::memory_order_relaxed) + 1) <= A.Mask + 1;
  }

  /// Doubles the array unless another thread already made room. With the
  /// slow side held no insert is in flight: every slot is Empty or Full.
  void grow(AsymmetricGate &Gate) {
    AsymmetricGate::SlowGuard Slow(Gate);
    Array *Old = Cur.load(std::memory_order_relaxed);
    if (hasRoom(*Old))
      return;
    auto New = std::make_unique<Array>(Old->Log2 + 1, Old);
    for (size_t I = 0; I <= Old->Mask; ++I) {
      if (Old->Ctrl[I].load(std::memory_order_relaxed) != Full)
        continue;
      // Copied, not moved: probes of Old may still read this entry.
      size_t J = New->home(Old->Slots[I].Key);
      while (New->Ctrl[J].load(std::memory_order_relaxed) != Empty)
        J = (J + 1) & New->Mask;
      ::new (static_cast<void *>(&New->Slots[J])) Entry(Old->Slots[I]);
      New->Ctrl[J].store(Full, std::memory_order_relaxed);
    }
    Cur.store(New.release(), std::memory_order_release);
  }

  std::atomic<Array *> Cur;
  /// On its own line: every fresh insert writes it, every probe reads Cur.
  alignas(64) std::atomic<size_t> Count{0};
};

} // namespace lvish

#endif // LVISH_DATA_INSERTONLYTABLE_H
