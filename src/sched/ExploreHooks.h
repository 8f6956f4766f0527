//===- ExploreHooks.h - Scheduler decision-point interface ------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface between the scheduler and the schedule explorer
/// (src/explore). In explore mode (SchedulerConfig::Explore non-null) the
/// scheduler spawns no OS threads; instead the runPar caller's thread
/// single-steps the session, and every nondeterministic decision the
/// threaded scheduler would have made implicitly - which virtual worker
/// runs next, whether it pops its own deque, takes from the inject queue,
/// or steals (and from which victim), and in what order multi-task wakes
/// and handler-pool drains fire - is delegated through this interface.
///
/// This header lives in src/sched (not src/explore) so the scheduler needs
/// no dependency on the explorer library: the scheduler *asks* decisions
/// through the abstract ScheduleCtl, and the concrete engines (seeded
/// random, PCT priorities, bounded enumeration, replay) live a layer up in
/// src/explore/SchedulePlan.h. See DESIGN.md Section 12.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_SCHED_EXPLOREHOOKS_H
#define LVISH_SCHED_EXPLOREHOOKS_H

#include "src/support/Pedigree.h"

#include <cstdint>

namespace lvish {
namespace explore {

/// How a virtual worker would acquire its next task.
enum class StepKind : uint8_t {
  Pop,    ///< Pop the worker's own deque (LIFO, the threaded fast path).
  Inject, ///< Take the front of the global inject queue (roots, yields).
  Steal,  ///< Steal the top (FIFO end) of \c Victim's deque.
};

/// One way the session could advance: \c Worker acquires a task via
/// \c Kind. The scheduler enumerates every currently-possible option in a
/// deterministic order (worker-major, Inject before Steals, victims
/// ascending) so a decision index fully identifies the step on replay.
struct StepOption {
  uint16_t Worker = 0;
  StepKind Kind = StepKind::Pop;
  uint16_t Victim = 0; ///< Meaningful for Steal only.
};

/// The explorer's side of the decision protocol. One controller drives at
/// most one session at a time; all calls arrive on the session thread.
class ScheduleCtl {
public:
  virtual ~ScheduleCtl();

  /// Called once per scheduling step with every possible next move
  /// (N >= 1). Returns the index of the option to take.
  virtual unsigned onStep(const StepOption *Options, unsigned N) = 0;

  /// Called for ordering decisions that are not worker steps: which of N
  /// remaining tasks a multi-task threshold wake releases first, and which
  /// of N handler-pool drain waiters resumes first. Returns an index in
  /// [0, N); N >= 2.
  virtual unsigned onPick(unsigned N) = 0;

  /// Called when a capacity credit (a BoundedStream consumer's advance)
  /// releases N >= 2 parked producers at once: returns which of the N
  /// remaining producers resumes first (selection order, like onPick).
  /// The explore engine records it as a decision of its own kind so
  /// replays stay bit-for-bit.
  virtual unsigned onBackpressure(unsigned N) = 0;

  /// Called just before a chosen task is resumed (or reaped, when it was
  /// cancelled in the queue) with its fork-tree pedigree; engines fold
  /// these into the schedule hash that pins a replay bit-for-bit.
  virtual void onResume(const Pedigree &Ped) = 0;
};

} // namespace explore
} // namespace lvish

#endif // LVISH_SCHED_EXPLOREHOOKS_H
