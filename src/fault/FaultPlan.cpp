//===- FaultPlan.cpp - Seeded fault-injection plans -----------------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "src/fault/FaultPlan.h"

#include "src/support/Fault.h"
#include "src/support/Hashing.h"
#include "src/support/Timer.h"

using namespace lvish;
using namespace lvish::fault;

namespace {

FaultPlan GPlan;

} // namespace

void fault::setFaultPlan(const FaultPlan &Plan) {
  GPlan = Plan;
  PlanArmed.store(true, std::memory_order_release);
}

void fault::clearFaultPlan() {
  PlanArmed.store(false, std::memory_order_release);
}

bool fault::shouldDoomTask(const Pedigree &Ped) {
  if (!planActive())
    return false;
  if (GPlan.HaveFailPedigree)
    return Ped.render() == GPlan.FailPedigree;
  if (GPlan.FailHashPeriod)
    return mix64(GPlan.Seed ^ Ped.hash()) % GPlan.FailHashPeriod == 0;
  return false;
}

bool fault::shouldFailSpawn(const Pedigree &Ped, uint64_t SpawnClock) {
  if (!planActive() || GPlan.AllocFailPeriod == 0)
    return false;
  uint64_t H = hashCombine(GPlan.Seed ^ Ped.hash(), SpawnClock);
  return H % GPlan.AllocFailPeriod == 0;
}

void fault::maybeDelay(Point P) {
  if (!planActive() || GPlan.DelayPeriod == 0)
    return;
  // Thread-local clock: delays are jitter, not semantics, so they need no
  // cross-schedule determinism - only a seed-dependent spread of where
  // they land.
  thread_local uint64_t DelayClock = 0;
  uint64_t H = hashCombine(GPlan.Seed ^ (static_cast<uint64_t>(P) << 32),
                           DelayClock++);
  if (H % GPlan.DelayPeriod != 0)
    return;
  uint64_t Until = nowNanos() + GPlan.DelayNanos;
  while (nowNanos() < Until) {
    // Busy spin: short (microseconds), and sleeping would just hide the
    // interleavings the delay is meant to expose.
  }
}
