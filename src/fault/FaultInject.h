//===- FaultInject.h - Schedule-point injection hooks -----------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Task-aware half of the fault-injection harness: thin inline hooks
/// the runtime drops at its schedule points (fork, park, put; the
/// scheduler's steal point uses FaultPlan.h directly). Every build
/// compiles them in; each is a no-op unless a FaultPlan is installed, and
/// an unarmed hook costs one load and one not-taken branch.
///
/// Doomed-task failures raise through the same raiseSessionFault path as
/// real contract violations, so an injected failure exercises exactly the
/// containment machinery a production fault would: record-least-fault,
/// transitive cancellation, quiescence, Fault outcome.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_FAULT_FAULTINJECT_H
#define LVISH_FAULT_FAULTINJECT_H

#include "src/fault/FaultPlan.h"
#include "src/obs/Telemetry.h"
#include "src/sched/FaultSignal.h"
#include "src/sched/Task.h"

namespace lvish {
namespace fault {

/// The armed halves of the hooks below, kept out of line so an unarmed
/// hook inlines to one load and one not-taken branch.
[[gnu::cold, gnu::noinline]] inline void injectPointArmed(Point P, Task *T) {
  maybeDelay(P);
  if (T && T->InjectDoomed) {
    T->InjectDoomed = false;
    obs::count(obs::Event::InjectedFaults);
    detail::raiseSessionFault(T, FaultCode::InjectedFailure,
                              "injected task failure (fault-injection "
                              "plan)");
  }
}

[[gnu::cold, gnu::noinline]] inline void injectSpawnArmed(Task *Parent) {
  maybeDelay(Point::Spawn);
  uint64_t Clock = Parent->InjectClock++;
  if (shouldFailSpawn(Parent->Ped, Clock)) {
    obs::count(obs::Event::InjectedFaults);
    detail::raiseSessionFault(Parent, FaultCode::InjectedFailure,
                              "injected allocation failure at task spawn "
                              "(fault-injection plan)");
  }
}

/// Injection poll at a schedule point executed *by* task \p T (put or
/// park). Applies plan delays, then raises InjectedFailure if \p T was
/// doomed at creation. Must be called before the point's state change so
/// a doomed task's put never lands.
inline void injectPoint(Point P, Task *T) {
  if (planActive())
    injectPointArmed(P, T);
}

/// Allocation-failure shim at fork, called in the forking \p Parent
/// before the child task is created: deterministically fails the spawn
/// (per parent pedigree and spawn clock) as if the task allocation had
/// failed.
inline void injectSpawn(Task *Parent) {
  if (planActive() && Parent)
    injectSpawnArmed(Parent);
}

} // namespace fault
} // namespace lvish

#endif // LVISH_FAULT_FAULTINJECT_H
