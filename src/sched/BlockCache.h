//===- BlockCache.h - Per-thread cache of small fixed-size blocks -*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The storage every fork draws from: \c Task blocks (Scheduler::createTask
/// and retire) and every \c Par coroutine frame (PromiseBase's operator
/// new and sized operator delete). A fork makes a task and two or three
/// frames, and a worker that forks and joins in a loop frees what it made
/// a moment ago, so each thread keeps what it frees and hands it back to
/// its next allocation of the same size class instead of calling the
/// allocator.
///
/// Sizes round up to a multiple of ClassBytes; up to MaxBytes each class
/// keeps at most Cap blocks per thread, and larger sizes go straight to
/// the global allocator. The bounds are constants, not knobs: a fork-heavy
/// worker reuses a handful of blocks per class, and a larger cache only
/// holds memory. A block freed on another thread joins that thread's
/// cache. A thread's cache is returned to the allocator when the thread
/// exits, so a pool that starts and stops workers strands nothing. Cached
/// blocks are poisoned under AddressSanitizer, so a use after free still
/// faults.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_SCHED_BLOCKCACHE_H
#define LVISH_SCHED_BLOCKCACHE_H

#include <cstddef>
#include <cstdint>

namespace lvish::blockcache {

/// Size-class granularity, and the alignment of every cached block.
inline constexpr std::size_t ClassBytes = 64;
/// Largest size the cache serves.
inline constexpr std::size_t MaxBytes = 512;
/// Blocks one thread keeps per size class.
inline constexpr unsigned Cap = 64;

/// Returns a block of at least \p Bytes, aligned to ClassBytes when
/// \p Bytes <= MaxBytes.
void *allocate(std::size_t Bytes);

/// Frees \p P, which allocate(\p Bytes) returned on any thread.
void release(void *P, std::size_t Bytes) noexcept;

/// Blocks of \p Bytes' size class cached on the calling thread.
unsigned cachedHere(std::size_t Bytes);

/// Blocks that exiting threads' caches have returned to the allocator,
/// over the life of the process.
uint64_t drainedAtExit();

} // namespace lvish::blockcache

#endif // LVISH_SCHED_BLOCKCACHE_H
