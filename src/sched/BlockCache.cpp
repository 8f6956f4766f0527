//===- BlockCache.cpp - Per-thread cache of small fixed-size blocks -------===//

#include "src/sched/BlockCache.h"

#include <atomic>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define LVISH_POISON_BLOCK(P, N) ASAN_POISON_MEMORY_REGION((P), (N))
#define LVISH_UNPOISON_BLOCK(P, N) ASAN_UNPOISON_MEMORY_REGION((P), (N))
#else
#define LVISH_POISON_BLOCK(P, N) ((void)(P), (void)(N))
#define LVISH_UNPOISON_BLOCK(P, N) ((void)(P), (void)(N))
#endif

using namespace lvish;
using namespace lvish::blockcache;

namespace {

constexpr unsigned NumClasses = MaxBytes / ClassBytes;

/// Size class of \p Bytes (<= MaxBytes): class K holds (K + 1) *
/// ClassBytes.
unsigned classOf(std::size_t Bytes) {
  return Bytes ? static_cast<unsigned>((Bytes - 1) / ClassBytes) : 0;
}

std::size_t classBytes(unsigned Cls) { return (Cls + 1) * ClassBytes; }

struct Cache {
  void *Blocks[NumClasses][Cap];
  unsigned Count[NumClasses];
  bool Armed;  // The exit-time drain below is registered.
  bool Closed; // Set once the thread's cache has been drained at exit.
};
// Trivially destructible, so it stays usable after the reaper below has
// run (a late release on an exiting thread then frees directly).
thread_local Cache CacheTL;

std::atomic<uint64_t> DrainedTotal{0};

void freeBlock(void *P, unsigned Cls) {
  ::operator delete(P, classBytes(Cls), std::align_val_t(ClassBytes));
}

struct Reaper {
  ~Reaper() {
    Cache &C = CacheTL;
    uint64_t Drained = 0;
    for (unsigned Cls = 0; Cls < NumClasses; ++Cls) {
      while (C.Count[Cls]) {
        void *P = C.Blocks[Cls][--C.Count[Cls]];
        LVISH_UNPOISON_BLOCK(P, classBytes(Cls));
        freeBlock(P, Cls);
        ++Drained;
      }
    }
    C.Closed = true;
    DrainedTotal.fetch_add(Drained, std::memory_order_relaxed);
  }
};
thread_local Reaper ReaperTL;

} // namespace

void *blockcache::allocate(std::size_t Bytes) {
  if (Bytes > MaxBytes)
    return ::operator new(Bytes, std::align_val_t(ClassBytes));
  const unsigned Cls = classOf(Bytes);
  Cache &C = CacheTL;
  if (C.Count[Cls]) {
    void *P = C.Blocks[Cls][--C.Count[Cls]];
    LVISH_UNPOISON_BLOCK(P, classBytes(Cls));
    return P;
  }
  return ::operator new(classBytes(Cls), std::align_val_t(ClassBytes));
}

void blockcache::release(void *P, std::size_t Bytes) noexcept {
  if (Bytes > MaxBytes) {
    ::operator delete(P, Bytes, std::align_val_t(ClassBytes));
    return;
  }
  const unsigned Cls = classOf(Bytes);
  Cache &C = CacheTL;
  if (C.Closed || C.Count[Cls] == Cap) {
    freeBlock(P, Cls);
    return;
  }
  if (!C.Armed) {
    // First use on this thread registers the reaper's exit-time drain.
    static_cast<void>(&ReaperTL);
    C.Armed = true;
  }
  LVISH_POISON_BLOCK(P, classBytes(Cls));
  C.Blocks[Cls][C.Count[Cls]++] = P;
}

unsigned blockcache::cachedHere(std::size_t Bytes) {
  return Bytes > MaxBytes ? 0 : CacheTL.Count[classOf(Bytes)];
}

uint64_t blockcache::drainedAtExit() {
  return DrainedTotal.load(std::memory_order_relaxed);
}
