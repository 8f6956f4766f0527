//===- FaultPlan.h - Seeded fault-injection plans ---------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision core of the fault-injection harness: a process-wide
/// \c FaultPlan describing which tasks fail, where artificial delays land,
/// and how often spawn allocation is simulated to fail. Every decision is
/// a pure SplitMix-style hash of (plan seed, task pedigree, per-task
/// decision clock), so injected *failures* are deterministic per plan
/// regardless of worker count or steal order; injected *delays* are
/// deliberately non-semantic (they perturb interleavings, never outcomes)
/// and may use thread-local clocks.
///
/// This header depends only on src/support/ so the scheduler can consult
/// it without a layering cycle; the Task-aware raising glue lives in
/// src/fault/FaultInject.h. The hooks are compiled into every build and
/// armed only while a plan is installed: an unarmed hook costs one acquire
/// load (planActive) and one not-taken branch; the decisions behind it
/// stay out of line.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_FAULT_FAULTPLAN_H
#define LVISH_FAULT_FAULTPLAN_H

#include "src/support/Pedigree.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace lvish {
namespace fault {

/// Schedule points where injection decisions are polled.
enum class Point : unsigned {
  Spawn = 0, ///< fork / task creation (allocation-failure shim).
  Steal,     ///< Worker work-finding loop (delay only).
  Park,      ///< Blocking threshold read about to park.
  Put,       ///< LVar state-changing write.
};

/// One injection campaign; install with setFaultPlan/PlanScope *before*
/// the runPar session under test starts.
struct FaultPlan {
  /// Base seed: all decisions are pure functions of it.
  uint64_t Seed = 0;

  /// Targeted task failure: when armed, the one task whose creation
  /// pedigree (L/R string, "" = session root) equals FailPedigree raises
  /// FaultCode::InjectedFailure at its next put/park injection poll.
  /// This is the mode FaultStressTest uses to assert outcome *identity*
  /// across schedules: exactly one task fails, deterministically.
  bool HaveFailPedigree = false;
  std::string FailPedigree;

  /// Chaos-mode task failure: every created task whose seeded pedigree
  /// hash lands on a multiple of this period is doomed. 0 disables.
  /// Outcomes are well-formed (value or InjectedFailure Fault) but the
  /// winning fault may differ across schedules when several tasks race.
  uint32_t FailHashPeriod = 0;

  /// Artificial delays at steal/park/put points: roughly one poll in
  /// DelayPeriod spins for DelayNanos. 0 disables.
  uint32_t DelayPeriod = 0;
  uint32_t DelayNanos = 2000;

  /// Allocation-failure shim: a spawn whose seeded (parent pedigree,
  /// spawn-clock) hash lands on a multiple of this period raises
  /// InjectedFailure in the forking parent, as if task allocation failed.
  /// 0 disables; 1 fails every spawn.
  uint32_t AllocFailPeriod = 0;
};

/// Installs \p Plan process-wide. Not thread-safe against running
/// sessions: configure before runPar, clear after it returns.
void setFaultPlan(const FaultPlan &Plan);

/// Disarms the active plan.
void clearFaultPlan();

/// Set by setFaultPlan, cleared by clearFaultPlan; read through planActive.
inline std::atomic<bool> PlanArmed{false};

/// True while a plan is installed: the one load every hook pays unarmed.
inline bool planActive() { return PlanArmed.load(std::memory_order_acquire); }

/// RAII plan installation for tests.
class PlanScope {
public:
  explicit PlanScope(const FaultPlan &Plan) { setFaultPlan(Plan); }
  ~PlanScope() { clearFaultPlan(); }
  PlanScope(const PlanScope &) = delete;
  PlanScope &operator=(const PlanScope &) = delete;
};

/// Decided at task creation: is the task at this pedigree doomed to an
/// injected failure? (Exact-pedigree targeting or chaos hash; see
/// FaultPlan.) Pure in (plan, pedigree).
bool shouldDoomTask(const Pedigree &Ped);

/// Decided at fork, in the parent: does this spawn's allocation shim
/// fire? Pure in (plan, parent pedigree, parent spawn clock).
bool shouldFailSpawn(const Pedigree &Ped, uint64_t SpawnClock);

/// Busy-spins for the plan's DelayNanos when the (thread-local) delay
/// clock lands on the period. Non-semantic by construction.
void maybeDelay(Point P);

} // namespace fault
} // namespace lvish

#endif // LVISH_FAULT_FAULTPLAN_H
