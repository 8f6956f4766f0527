//===- RunPar.h - One-shot session entry points -----------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runPar family: the bridge between ordinary sequential code and Par
/// computations.
///
///   runPar :: (NoFreeze e, NoIO e) => (forall s. Par e s a) -> a
///
/// becomes `runPar<E>(Body)` with a static assertion that E contains
/// neither Freeze nor IO, so the result is a pure function of the program.
/// `runParIO` lifts that restriction (nondeterministic effects allowed);
/// `runParThenFreeze` runs to full quiescence, then freezes the returned
/// LVar so its exact contents can be read deterministically.
///
/// Every entry point here is a ONE-SHOT wrapper: it spins up a private
/// service::Runtime (src/service/Runtime.h), runs the body as that
/// Runtime's single session, and tears the pool down. Long-lived callers
/// - benches amortizing worker startup, services multiplexing concurrent
/// sessions - should hold a service::Runtime and use Runtime::run /
/// Runtime::submit directly. Each entry point takes one RunOptions, which
/// a bare SchedulerConfig converts to.
///
/// Sessions run to *full* quiescence before returning: every forked task
/// has either finished or is permanently blocked (and is then reaped; see
/// Scheduler.h).
///
/// Fault containment (DESIGN.md Section 8): each session returns a
/// ParOutcome - the body's value, or the session's deterministic Fault.
/// A contract violation inside the session (conflicting put, put after
/// freeze, cancelled-and-read future, checker violation, injected
/// failure) records the lattice-least Fault on the session, cancels its
/// remaining tasks transitively through the session root's CancelNode,
/// lets the session quiesce, and surfaces here. A root that never
/// produced a value without any recorded fault is a deterministic
/// deadlock, reported as a Fault too (code deadlock_drained when the root
/// was the only leftover task, deadlock_leaked_tasks when other blocked
/// tasks leaked with it).
///
/// The tryRunPar* family exposes the ParOutcome; the classic runPar*
/// names keep their value-returning signatures as thin wrappers that
/// funnel every failure through ONE abort choke point,
/// ParOutcome::valueOrAbort.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_CORE_RUNPAR_H
#define LVISH_CORE_RUNPAR_H

#include "src/core/Par.h"
#include "src/obs/SchedulerStats.h"
#include "src/service/Runtime.h"
#include "src/support/Fault.h"

#include <type_traits>
#include <utility>

namespace lvish {

/// Session parameters orthogonal to the effect level: the session's own
/// options (service::SessionOptions: FreezeOnExit, StatsOut, MaxSteps)
/// plus the configuration of its private pool. Set the fields you need,
/// pass a SchedulerConfig where only the pool matters, or start from one
/// of the named factories:
///
///   SchedulerStats Stats;
///   auto R = runPar(Body, RunOptions::CollectStats(Stats));
///   // Stats.TasksCreated, Stats.Steals, ... now describe the run.
///   auto S = runPar(Body, SchedulerConfig{4}); // four workers
///
/// The pool lives for one session, so StatsOut's delta is its whole
/// history, and MaxSteps = 0 means unlimited.
struct RunOptions : service::SessionOptions {
  RunOptions() = default;
  /// Options whose only setting is the pool's \p Config.
  RunOptions(SchedulerConfig Config) : Config(Config) {}

  /// Configuration for the session's private scheduler pool.
  SchedulerConfig Config{};

  /// Options that deposit the session's stats delta into \p Out.
  static RunOptions CollectStats(SchedulerStats &Out) {
    RunOptions O;
    O.StatsOut = &Out;
    return O;
  }

  /// Options that run the session in controlled-scheduling (explore) mode:
  /// no OS worker threads; \p Ctl decides every scheduling step across
  /// \p VirtualWorkers virtual workers (DESIGN.md Section 12). Compose with
  /// the tryRunPar* entry points so a schedule-dependent fault surfaces as
  /// a ParOutcome instead of aborting the search. One session per
  /// controller at a time.
  static RunOptions Explore(explore::ScheduleCtl &Ctl,
                            unsigned VirtualWorkers = 2) {
    RunOptions O;
    O.Config.NumWorkers = VirtualWorkers;
    O.Config.Explore = &Ctl;
    return O;
  }
};

namespace detail {

/// The one session front door every runPar* wrapper funnels into.
/// Runs the body as the one session of a private one-shot Runtime and
/// returns the body's value or the session's deterministic Fault.
template <EffectSet E, typename F>
auto runParOnImpl(const RunOptions &Opts, F Body) {
  service::RuntimeConfig RC;
  RC.Sched = Opts.Config;
  service::Runtime RT(RC);
  return RT.runSession<E>(std::move(Body), Opts);
}

} // namespace detail

/// Runs \p Body and returns a ParOutcome: the body's pure result, or the
/// session's deterministic Fault. The fault-aware front of the runPar
/// family; every other entry point below derives from it.
///
/// The whole tryRunPar* family is [[nodiscard]]: discarding the
/// ParOutcome silently swallows a session Fault, which is exactly the
/// failure mode these entry points exist to surface (use the runPar*
/// forms if aborting on Fault is acceptable).
template <EffectSet E = Eff::Det, typename F>
[[nodiscard]] auto tryRunPar(F Body, const RunOptions &Opts = RunOptions()) {
  static_assert(noFreeze(E) && noIO(E),
                "runPar requires NoFreeze and NoIO; use runParIO or "
                "runParThenFreeze");
  return detail::runParOnImpl<E>(Opts, std::move(Body));
}

/// Fault-aware runParIO: like tryRunPar but without the purity
/// restriction (quasi-deterministic freezes and IO-bit operations
/// allowed).
template <EffectSet E = Eff::FullIO, typename F>
[[nodiscard]] auto tryRunParIO(F Body, const RunOptions &Opts = RunOptions()) {
  return detail::runParOnImpl<E>(Opts, std::move(Body));
}

/// Runs \p Body and returns its pure result, aborting the process on any
/// session Fault (the classic LVish signature). All failure paths funnel
/// through ParOutcome::valueOrAbort, the single fatalError choke point of
/// the library.
template <EffectSet E = Eff::Det, typename F>
auto runPar(F Body, const RunOptions &Opts = RunOptions()) {
  return tryRunPar<E>(std::move(Body), Opts).valueOrAbort();
}

/// Like runPar but without the purity restriction: quasi-deterministic
/// freezes and nondeterministic (IO-bit) operations are allowed.
template <EffectSet E = Eff::FullIO, typename F>
auto runParIO(F Body, const RunOptions &Opts = RunOptions()) {
  return tryRunParIO<E>(std::move(Body), Opts).valueOrAbort();
}

/// Fault-aware runParThenFreeze: quiesce, freeze the returned LVar handle
/// on the way out, and surface any session Fault as a ParOutcome. The
/// explorer uses this to search freeze-free programs whose results are
/// read through the exit freeze.
template <EffectSet E = Eff::Det, typename F>
[[nodiscard]] auto tryRunParThenFreeze(F Body, RunOptions Opts = RunOptions()) {
  static_assert(noFreeze(E) && noIO(E),
                "the computation under runParThenFreeze must not freeze "
                "explicitly");
  Opts.FreezeOnExit = true;
  return detail::runParOnImpl<E>(Opts, std::move(Body));
}

/// Runs \p Body (which returns a shared_ptr to an LVar data structure),
/// waits for full quiescence, then freezes the structure "on the way out"
/// so its exact contents can be read - the always-deterministic freezing
/// pattern (runParThenFreeze in LVish). Aborts on a session Fault like
/// the classic signature.
template <EffectSet E = Eff::Det, typename F>
auto runParThenFreeze(F Body, RunOptions Opts = RunOptions()) {
  return tryRunParThenFreeze<E>(std::move(Body), std::move(Opts))
      .valueOrAbort();
}

} // namespace lvish

#endif // LVISH_CORE_RUNPAR_H
