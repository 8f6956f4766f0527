//===- ParkSite.h - Places a task can park on -------------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A \c ParkSite is anything that holds parked tasks: an LVar's waiter list
/// or a TaskScope's drain list. When the scheduler reaps a permanently
/// parked task at the end of a session, it first tells the park site to
/// forget the task so no dangling waiter entry survives the task's frame.
///
/// A threshold read that misses while its worker still has local work may
/// wait lazily instead of parking (Scheduler::canParkLazily): its
/// \c LazyWait sits on the worker's own lazy stack, and the scheduler
/// calls back through the site to re-probe or, before the worker looks
/// anywhere else for work, to publish it. Only LVars record lazy waits.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_SCHED_PARKSITE_H
#define LVISH_SCHED_PARKSITE_H

#include <cstdint>

namespace lvish {

class ParkSite;
class Task;

/// A threshold read that missed and was not published: the waiter entry it
/// would have pushed, plus where it would have pushed it. Lives on its
/// worker's lazy stack; only that worker touches it.
struct LazyWait {
  Task *Owner;
  ParkSite *Site;
  void *Awaiter;
  bool (*TryCapture)(void *Awaiter);
  /// The site's bucket encoding (Task::ParkedSlot) and, for a size
  /// waiter, its threshold.
  uint32_t Slot;
  uint64_t Threshold;
};

/// Interface for waiter-list owners; see file comment.
class ParkSite {
public:
  virtual ~ParkSite();

  /// Removes \p T from this site's waiter list if present. Idempotent, and
  /// only called when \p T can no longer be concurrently woken.
  virtual void removeParkedTask(Task *T) = 0;

  /// Re-checks a lazy wait's threshold under its bucket lock; true when it
  /// holds now (the awaiter has captured its result).
  virtual bool reprobe(const LazyWait &W);

  /// Publishes a lazy wait through the site's publish-then-recheck path.
  /// True if the task is now parked; false if the threshold held by the
  /// recheck (nothing stays published, and the task is runnable).
  virtual bool publish(const LazyWait &W);
};

} // namespace lvish

#endif // LVISH_SCHED_PARKSITE_H
