//===- AsymmetricGate.h - Put/handler-registration gate ---------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's footnote 6: the key engineering challenge in supporting
/// non-idempotent writes is "resolving a race between puts and attempts to
/// register new handlers (callbacks) on an LVar. Our solution is a
/// specialized variant of a reader-writer lock that requires zero writes to
/// shared addresses if no handlers are currently being registered."
///
/// \c AsymmetricGate implements that lock. The fast side (a \c put) only
/// writes to a cache line private to the calling thread; it reads one shared
/// flag. The slow side (handler registration, and the growth of the table
/// under ISet/IMap/MinMap, src/data/InsertOnlyTable.h) raises the flag and
/// waits for every in-flight fast-side critical section to drain.
/// Correctness relies on sequentially-consistent ordering between the fast
/// side's slot store and flag load versus the slow side's flag store and
/// slot loads (the classic Dekker pattern).
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_SUPPORT_ASYMMETRICGATE_H
#define LVISH_SUPPORT_ASYMMETRICGATE_H

#include <atomic>
#include <cstdint>
#include <mutex>

namespace lvish {

/// Asymmetric reader-writer gate. Many concurrent fast-side holders are
/// allowed; slow-side holders are exclusive against both sides.
class AsymmetricGate {
public:
  /// Maximum number of threads with a private fast-path slot. Threads beyond
  /// this bound fall back to the slow path (still correct, just slower).
  static constexpr unsigned MaxSlots = 128;

  AsymmetricGate();
  ~AsymmetricGate() = default;

  AsymmetricGate(const AsymmetricGate &) = delete;
  AsymmetricGate &operator=(const AsymmetricGate &) = delete;

  /// Enters a fast-side (put-side) critical section. Returns an opaque token
  /// for \c exitFast. When no registration is active this performs no writes
  /// to shared cache lines.
  int enterFast();

  /// Leaves the fast-side critical section entered with token \p Slot.
  void exitFast(int Slot);

  /// Enters the exclusive slow side (handler registration, table growth).
  /// Blocks until all fast-side sections drain, so the calling thread must
  /// hold none of them (asserted).
  void enterSlow();

  /// Leaves the exclusive slow side.
  void exitSlow();

  /// RAII fast-side guard.
  class FastGuard {
  public:
    explicit FastGuard(AsymmetricGate &G) : Gate(G), Slot(G.enterFast()) {}
    ~FastGuard() { Gate.exitFast(Slot); }
    FastGuard(const FastGuard &) = delete;
    FastGuard &operator=(const FastGuard &) = delete;

  private:
    AsymmetricGate &Gate;
    int Slot;
  };

  /// RAII slow-side guard.
  class SlowGuard {
  public:
    explicit SlowGuard(AsymmetricGate &G) : Gate(G) { Gate.enterSlow(); }
    ~SlowGuard() { Gate.exitSlow(); }
    SlowGuard(const SlowGuard &) = delete;
    SlowGuard &operator=(const SlowGuard &) = delete;

  private:
    AsymmetricGate &Gate;
  };

private:
  struct alignas(64) Slot {
    std::atomic<uint32_t> Active{0};
  };

  /// Raised while a slow-side holder is active or waiting.
  std::atomic<uint32_t> SlowActive{0};
  /// Serializes slow-side holders and the shared fallback fast path.
  std::mutex SlowMutex;
  Slot Slots[MaxSlots];
};

} // namespace lvish

#endif // LVISH_SUPPORT_ASYMMETRICGATE_H
