//===- AsymmetricGate.cpp - Put/handler-registration gate ----------------===//

#include "src/support/AsymmetricGate.h"

#include <cassert>
#include <thread>

using namespace lvish;

// Global thread -> slot-index assignment, shared by all gate instances (the
// index is only an identity; each gate owns its own slot array).
static std::atomic<unsigned> NextThreadSlot{0};

static int myThreadSlot() {
  thread_local int Slot = -2;
  if (Slot == -2) {
    unsigned S = NextThreadSlot.fetch_add(1, std::memory_order_relaxed);
    Slot = S < AsymmetricGate::MaxSlots ? static_cast<int>(S) : -1;
  }
  return Slot;
}

AsymmetricGate::AsymmetricGate() = default;

int AsymmetricGate::enterFast() {
  int S = myThreadSlot();
  if (S < 0) {
    // No private slot available: fall back to the exclusive mutex.
    SlowMutex.lock();
    return -1;
  }
  std::atomic<uint32_t> &Mine = Slots[S].Active;
  // Nested fast sections on the same thread skip the Dekker handshake; the
  // outermost section already synchronized with any registrar.
  if (Mine.load(std::memory_order_relaxed) > 0) {
    Mine.fetch_add(1, std::memory_order_relaxed);
    return S;
  }
  for (;;) {
    // Dekker publication: announce intent on a private line, then check the
    // shared flag. Both must be sequentially consistent.
    Mine.store(1, std::memory_order_seq_cst);
    if (!SlowActive.load(std::memory_order_seq_cst))
      return S;
    // A registrar is active or waiting; back out and wait it out.
    Mine.store(0, std::memory_order_seq_cst);
    while (SlowActive.load(std::memory_order_acquire))
      std::this_thread::yield();
  }
}

void AsymmetricGate::exitFast(int Slot) {
  if (Slot < 0) {
    SlowMutex.unlock();
    return;
  }
  Slots[Slot].Active.fetch_sub(1, std::memory_order_release);
}

void AsymmetricGate::enterSlow() {
  // A thread inside a fast section would wait for itself below (a table
  // grow or a registration from inside a put of the same LVar).
  assert((myThreadSlot() < 0 ||
          Slots[myThreadSlot()].Active.load(std::memory_order_relaxed) ==
              0) &&
         "slow side entered while holding a fast section of the same gate");
  SlowMutex.lock();
  SlowActive.store(1, std::memory_order_seq_cst);
  // Wait for every in-flight fast-side section to drain.
  for (unsigned I = 0; I < MaxSlots; ++I)
    while (Slots[I].Active.load(std::memory_order_seq_cst))
      std::this_thread::yield();
}

void AsymmetricGate::exitSlow() {
  SlowActive.store(0, std::memory_order_release);
  SlowMutex.unlock();
}
