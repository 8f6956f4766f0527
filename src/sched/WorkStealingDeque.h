//===- WorkStealingDeque.h - Chase-Lev work-stealing deque ------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lock-free work-stealing deque after Chase & Lev, with the C11 memory
/// ordering discipline of Le, Pop, Cohen & Zappa Nardelli ("Correct and
/// Efficient Work-Stealing for Weakly Ordered Memory Models", PPoPP 2013).
/// The owner worker pushes and pops at the bottom; thieves steal from the
/// top. This is the substrate under the LVish Par scheduler, mirroring the
/// "custom work-stealing scheduler provided by LVish" (Section 2).
///
/// Publication: every store to Bottom is a release and a thief loads
/// Bottom and Buf with acquire, so what the owner wrote into an item
/// before pushing it happens-before the thief's reads of it. That is the
/// paper's release fence in push, stated on the store itself, which
/// ThreadSanitizer models (it does not model fences); on x86 both compile
/// to the same plain moves. The seq_cst fences in pop and steal order
/// the Bottom/Top race over the last item and stay as the paper has them.
///
/// Growth notes: the circular buffer doubles on overflow. Retired buffers
/// are kept until the deque is destroyed, because a concurrent thief may
/// still hold a pointer into an old buffer; this classic leak-until-teardown
/// scheme bounds memory by 2x the high-water mark.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_SCHED_WORKSTEALINGDEQUE_H
#define LVISH_SCHED_WORKSTEALINGDEQUE_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace lvish {

/// Single-owner, multi-thief lock-free deque of pointers.
template <typename T> class WorkStealingDeque {
  static_assert(sizeof(T *) <= sizeof(void *), "pointer payloads only");

  /// Power-of-two circular buffer indexed modulo its capacity.
  struct Buffer {
    explicit Buffer(uint64_t LogCap)
        : LogCapacity(LogCap), Slots(new std::atomic<T *>[uint64_t(1)
                                                          << LogCap]) {}

    uint64_t capacity() const { return uint64_t(1) << LogCapacity; }

    T *get(int64_t I) const {
      return Slots[static_cast<uint64_t>(I) & (capacity() - 1)].load(
          std::memory_order_relaxed);
    }

    void put(int64_t I, T *V) {
      Slots[static_cast<uint64_t>(I) & (capacity() - 1)].store(
          V, std::memory_order_relaxed);
    }

    uint64_t LogCapacity;
    std::unique_ptr<std::atomic<T *>[]> Slots;
  };

public:
  explicit WorkStealingDeque(uint64_t LogInitialCapacity = 8)
      : Top(0), Bottom(0) {
    Buffers.push_back(std::make_unique<Buffer>(LogInitialCapacity));
    Buf.store(Buffers.back().get(), std::memory_order_relaxed);
  }

  WorkStealingDeque(const WorkStealingDeque &) = delete;
  WorkStealingDeque &operator=(const WorkStealingDeque &) = delete;

  /// Owner-only: pushes \p Item at the bottom.
  void push(T *Item) {
    int64_t B = Bottom.load(std::memory_order_relaxed);
    int64_t Tp = Top.load(std::memory_order_acquire);
    Buffer *A = Buf.load(std::memory_order_relaxed);
    if (B - Tp > static_cast<int64_t>(A->capacity()) - 1)
      A = grow(B, Tp);
    A->put(B, Item);
    Bottom.store(B + 1, std::memory_order_release);
  }

  /// Owner-only: pops from the bottom (LIFO). Returns nullptr when empty.
  T *pop() {
    int64_t B = Bottom.load(std::memory_order_relaxed) - 1;
    Buffer *A = Buf.load(std::memory_order_relaxed);
    Bottom.store(B, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int64_t Tp = Top.load(std::memory_order_relaxed);
    if (Tp > B) {
      // Deque was already empty; restore.
      Bottom.store(B + 1, std::memory_order_release);
      return nullptr;
    }
    T *Item = A->get(B);
    if (Tp != B)
      return Item; // More than one element; no race with thieves.
    // Single element: race a pending steal for it.
    if (!Top.compare_exchange_strong(Tp, Tp + 1, std::memory_order_seq_cst,
                                     std::memory_order_relaxed))
      Item = nullptr; // Lost to a thief.
    Bottom.store(B + 1, std::memory_order_release);
    return Item;
  }

  /// Thief-side: steals from the top (FIFO). Returns nullptr when empty or
  /// when losing a race (the caller should retry elsewhere).
  T *steal() {
    int64_t Tp = Top.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int64_t B = Bottom.load(std::memory_order_acquire);
    if (Tp >= B)
      return nullptr;
    Buffer *A = Buf.load(std::memory_order_acquire);
    T *Item = A->get(Tp);
    if (!Top.compare_exchange_strong(Tp, Tp + 1, std::memory_order_seq_cst,
                                     std::memory_order_relaxed))
      return nullptr; // Lost the race.
    return Item;
  }

  /// Approximate size; only advisory (used for idle heuristics and stats).
  uint64_t sizeApprox() const {
    int64_t B = Bottom.load(std::memory_order_relaxed);
    int64_t Tp = Top.load(std::memory_order_relaxed);
    return B > Tp ? static_cast<uint64_t>(B - Tp) : 0;
  }

private:
  Buffer *grow(int64_t B, int64_t Tp) {
    Buffer *Old = Buf.load(std::memory_order_relaxed);
    auto Grown = std::make_unique<Buffer>(Old->LogCapacity + 1);
    for (int64_t I = Tp; I != B; ++I)
      Grown->put(I, Old->get(I));
    Buffer *Raw = Grown.get();
    Buffers.push_back(std::move(Grown));
    Buf.store(Raw, std::memory_order_release);
    return Raw;
  }

  // Signed indices: pop on an empty deque transiently drives Bottom below
  // Top (even to -1), which unsigned indices would turn into catastrophic
  // wraparound.
  alignas(64) std::atomic<int64_t> Top;
  alignas(64) std::atomic<int64_t> Bottom;
  alignas(64) std::atomic<Buffer *> Buf;
  /// Owner-only: all buffers ever allocated (see growth notes above).
  std::vector<std::unique_ptr<Buffer>> Buffers;
};

} // namespace lvish

#endif // LVISH_SCHED_WORKSTEALINGDEQUE_H
