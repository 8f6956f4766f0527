//===- SchedulerStats.h - Scheduler counter snapshot ------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduler's performance-counter surface: a per-worker, cache-line
/// padded block of relaxed counters (obs::WorkerCounters) that each worker
/// bumps without ever contending with its siblings, and the aggregate
/// SchedulerStats snapshot that Scheduler::stats() sums them into.
///
/// Counters here are always on: they sit on paths that already pay an
/// atomic (scheduling, stealing, parking), so one extra relaxed add per
/// event is noise. The *LVar-level* event counters, which sit on put fast
/// paths, live behind LVISH_TELEMETRY instead (src/obs/Telemetry.h).
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_OBS_SCHEDULERSTATS_H
#define LVISH_OBS_SCHEDULERSTATS_H

#include <algorithm>
#include <atomic>
#include <cstdint>

namespace lvish {

/// One aggregate snapshot of scheduler activity, produced by
/// Scheduler::stats(). Counters are cumulative over the scheduler's
/// lifetime (they span sessions) and are collected with relaxed loads, so
/// a snapshot taken while workers are running is approximate; after
/// waitSessionQuiescent() it is exact.
struct SchedulerStats {
  uint64_t TasksCreated = 0;  ///< Tasks allocated by createTask.
  uint64_t TasksExecuted = 0; ///< Tasks that ran to completion.
  uint64_t LocalPops = 0;     ///< Tasks popped from the worker's own deque.
  uint64_t StealAttempts = 0; ///< steal() probes, successful or not.
  uint64_t Steals = 0;        ///< Successful steals.
  uint64_t Parks = 0;         ///< Tasks parked on a waiter list.
  uint64_t Wakes = 0;         ///< Parked tasks made runnable again.
  uint64_t MaxDequeDepth = 0; ///< Deepest any worker deque ever got.
  unsigned NumWorkers = 0;    ///< Worker-thread count of the scheduler.

  /// Merges another snapshot in (for benches aggregating over several
  /// schedulers): counters add, the two maxima take the max.
  SchedulerStats &operator+=(const SchedulerStats &O) {
    TasksCreated += O.TasksCreated;
    TasksExecuted += O.TasksExecuted;
    LocalPops += O.LocalPops;
    StealAttempts += O.StealAttempts;
    Steals += O.Steals;
    Parks += O.Parks;
    Wakes += O.Wakes;
    MaxDequeDepth = std::max(MaxDequeDepth, O.MaxDequeDepth);
    NumWorkers = std::max(NumWorkers, O.NumWorkers);
    return *this;
  }

  /// Delta between two snapshots of the SAME scheduler (this = later,
  /// \p Start = earlier): event counters subtract, giving the activity in
  /// between - what Scheduler::sessionStats reports per session.
  /// MaxDequeDepth and NumWorkers are not differences; the later
  /// snapshot's (cumulative) values carry through.
  SchedulerStats operator-(const SchedulerStats &Start) const {
    SchedulerStats D = *this;
    D.TasksCreated -= Start.TasksCreated;
    D.TasksExecuted -= Start.TasksExecuted;
    D.LocalPops -= Start.LocalPops;
    D.StealAttempts -= Start.StealAttempts;
    D.Steals -= Start.Steals;
    D.Parks -= Start.Parks;
    D.Wakes -= Start.Wakes;
    return D;
  }
};

namespace obs {

/// Per-worker counter block. Exactly one cache line (8 x uint64_t),
/// aligned so a worker's writes never false-share with a sibling's.
/// The scheduler keeps one block per worker plus one shared block for
/// events raised off the worker threads (runPar roots, external wakes).
/// A worker's block has one writer, the worker, so it counts with
/// \c bumpOwned; the shared block has many and counts with \c bump.
/// Readers (Scheduler::stats) load relaxed either way.
struct alignas(64) WorkerCounters {
  std::atomic<uint64_t> TasksCreated{0};
  std::atomic<uint64_t> TasksExecuted{0};
  std::atomic<uint64_t> LocalPops{0};
  std::atomic<uint64_t> StealAttempts{0};
  std::atomic<uint64_t> Steals{0};
  std::atomic<uint64_t> Parks{0};
  std::atomic<uint64_t> Wakes{0};
  std::atomic<uint64_t> MaxDequeDepth{0};

  /// Counts into a block several threads write: a locked add.
  static void bump(std::atomic<uint64_t> &C, uint64_t N = 1) {
    C.fetch_add(N, std::memory_order_relaxed);
  }

  /// Counts into a block only the calling worker writes: a relaxed load
  /// plus store, which cannot lose an update with one writer.
  static void bumpOwned(std::atomic<uint64_t> &C, uint64_t N = 1) {
    C.store(C.load(std::memory_order_relaxed) + N, std::memory_order_relaxed);
  }

  /// Running maximum of the owning worker's deque depth. Only the owning
  /// worker calls this (pushes are owner-only), so load-then-store cannot
  /// lose an update.
  void noteDepth(uint64_t Depth) {
    if (Depth > MaxDequeDepth.load(std::memory_order_relaxed))
      MaxDequeDepth.store(Depth, std::memory_order_relaxed);
  }

  /// Adds this block into \p S (sum for event counts, max for depth).
  void accumulateInto(SchedulerStats &S) const {
    S.TasksCreated += TasksCreated.load(std::memory_order_relaxed);
    S.TasksExecuted += TasksExecuted.load(std::memory_order_relaxed);
    S.LocalPops += LocalPops.load(std::memory_order_relaxed);
    S.StealAttempts += StealAttempts.load(std::memory_order_relaxed);
    S.Steals += Steals.load(std::memory_order_relaxed);
    S.Parks += Parks.load(std::memory_order_relaxed);
    S.Wakes += Wakes.load(std::memory_order_relaxed);
    S.MaxDequeDepth = std::max(
        S.MaxDequeDepth, MaxDequeDepth.load(std::memory_order_relaxed));
  }
};

static_assert(sizeof(WorkerCounters) == 64,
              "WorkerCounters must fill exactly one cache line");

} // namespace obs
} // namespace lvish

#endif // LVISH_OBS_SCHEDULERSTATS_H
