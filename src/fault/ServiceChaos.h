//===- ServiceChaos.h - Seeded chaos for the service runtime ----*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service-layer half of the fault-injection harness (src/fault):
/// where FaultPlan dooms individual tasks inside one session, ServiceChaos
/// attacks the multi-tenant Runtime around the sessions - the failure
/// modes a long-lived pool actually sees:
///
///   * mid-flight session doom: a seeded subset of submitted sessions is
///     killed while running, by delivering Scheduler::raiseFault
///     (FaultCode::InjectedFailure) from a background thread after a
///     seeded delay. Delivery races session completion on purpose - a
///     doomed session may legitimately finish first, in which case
///     raiseFault drops the fault (the documented benign race). What must
///     hold either way: the doomed tenant's NEIGHBORS are unperturbed.
///   * admission delay injection: a seeded subset of submissions sleeps
///     before submit, jittering arrival order against the admission
///     queue's deadline/shed machinery.
///   * worker stall shim: stallPlan() derives a FaultPlan whose
///     steal/park/put delays (fault::maybeDelay) stutter the workers
///     under the sessions while a PlanScope installs it.
///
/// WHICH sessions are doomed/delayed is a pure SplitMix hash of
/// (plan seed, submission index) - reproducible per seed. WHEN a doom
/// lands is wall-clock jitter and deliberately non-deterministic: the
/// harness probes isolation under timing chaos, while ServiceChaosTest's
/// assertions only state schedule-independent facts (neighbor values
/// exact, doomed outcomes well-formed).
///
/// Header-only; the background thread is plain library code.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_FAULT_SERVICECHAOS_H
#define LVISH_FAULT_SERVICECHAOS_H

#include "src/fault/FaultPlan.h"
#include "src/obs/Telemetry.h"
#include "src/sched/Scheduler.h"
#include "src/support/SplitMix.h"
#include "src/support/Timer.h"

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace lvish {
namespace fault {

/// One chaos campaign against a service::Runtime; seeded decisions, see
/// file comment.
struct ServiceChaosPlan {
  /// Base seed: which sessions are doomed/delayed is a pure function of
  /// (Seed, submission index).
  uint64_t Seed = 0;
  /// Roughly one submission in DoomPeriod is doomed mid-flight.
  /// 0 disables dooming.
  uint32_t DoomPeriod = 0;
  /// Doom delivery waits a seeded delay in [0, DoomDelayMaxNanos] after
  /// armDoom, so kills land at varied points of the session's life.
  uint64_t DoomDelayMaxNanos = 200'000;
  /// Roughly one submission in AdmitDelayPeriod sleeps AdmitDelayNanos
  /// before submitting. 0 disables.
  uint32_t AdmitDelayPeriod = 0;
  uint64_t AdmitDelayNanos = 50'000;
  /// Worker stall shim: forwarded into stallPlan()'s FaultPlan delay
  /// knobs. 0 disables.
  uint32_t StallDelayPeriod = 0;
  uint32_t StallDelayNanos = 2000;
};

/// Drives one ServiceChaosPlan against the Scheduler under a Runtime.
/// Construction starts the delivery thread; destruction joins it (deliver
/// or discard pending dooms first - see drainDooms).
class ServiceChaos {
public:
  ServiceChaos(Scheduler &Sched, ServiceChaosPlan Plan)
      : Sched(Sched), Plan(Plan) {
    Deliverer = std::thread([this] { deliverLoop(); });
  }

  ~ServiceChaos() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Stop = true;
      CV.notify_all();
    }
    Deliverer.join();
  }

  ServiceChaos(const ServiceChaos &) = delete;
  ServiceChaos &operator=(const ServiceChaos &) = delete;

  /// Pure: is submission \p Index doomed under this plan's seed?
  bool doomed(uint64_t Index) const {
    return Plan.DoomPeriod != 0 &&
           decision(Index, 0x646f6f6dULL) % Plan.DoomPeriod == 0;
  }

  /// Pure: this submission's admission-delay injection (0 = none).
  uint64_t admitDelayNanos(uint64_t Index) const {
    if (Plan.AdmitDelayPeriod == 0 ||
        decision(Index, 0x61646d6974ULL) % Plan.AdmitDelayPeriod != 0)
      return 0;
    return Plan.AdmitDelayNanos;
  }

  /// Sleeps the admission-delay injection for \p Index, if any. Call
  /// just before submitting.
  void maybeDelayAdmission(uint64_t Index) const {
    if (uint64_t Delay = admitDelayNanos(Index))
      std::this_thread::sleep_for(std::chrono::nanoseconds(Delay));
  }

  /// Schedules the mid-flight kill of session \p SessionId (the id of
  /// doomed submission \p Index, read from its future after launch): the
  /// delivery thread raises InjectedFailure after a seeded delay.
  void armDoom(uint64_t SessionId, uint64_t Index) {
    uint64_t Delay =
        Plan.DoomDelayMaxNanos
            ? decision(Index, 0x64656c6179ULL) % (Plan.DoomDelayMaxNanos + 1)
            : 0;
    std::lock_guard<std::mutex> Lock(Mu);
    Pending.push_back({nowNanos() + Delay, SessionId});
    CV.notify_all();
  }

  /// Blocks until every armed doom has been delivered (the fault may
  /// still be dropped by the scheduler if its session already finished).
  void drainDooms() {
    std::unique_lock<std::mutex> Lock(Mu);
    CV.wait(Lock, [this] { return Pending.empty(); });
  }

  /// Dooms delivered to Scheduler::raiseFault so far (delivered, not
  /// necessarily recorded - finished sessions drop theirs).
  uint64_t doomsDelivered() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Delivered;
  }

  /// The worker stall shim: a FaultPlan carrying only this chaos plan's
  /// delay knobs, for installation via fault::PlanScope around the sweep.
  /// Delays are non-semantic (they perturb interleavings, never
  /// outcomes).
  FaultPlan stallPlan() const {
    FaultPlan P;
    P.Seed = Plan.Seed;
    P.DelayPeriod = Plan.StallDelayPeriod;
    P.DelayNanos = Plan.StallDelayNanos;
    return P;
  }

private:
  struct Doom {
    uint64_t DueNanos;
    uint64_t SessionId;
  };

  /// Pure per-(seed, index, salt) decision hash.
  uint64_t decision(uint64_t Index, uint64_t Salt) const {
    SplitMix64 Rng(Plan.Seed ^ mix64(Index + Salt));
    return Rng.next();
  }

  void deliverLoop() {
    std::unique_lock<std::mutex> Lock(Mu);
    for (;;) {
      if (Pending.empty()) {
        if (Stop)
          return;
        CV.wait(Lock, [this] { return Stop || !Pending.empty(); });
        continue;
      }
      // Earliest due doom first.
      size_t Next = 0;
      for (size_t I = 1; I < Pending.size(); ++I)
        if (Pending[I].DueNanos < Pending[Next].DueNanos)
          Next = I;
      uint64_t Now = nowNanos();
      if (Pending[Next].DueNanos > Now && !Stop) {
        CV.wait_for(Lock, std::chrono::nanoseconds(Pending[Next].DueNanos -
                                                   Now));
        continue;
      }
      Doom D = Pending[Next];
      Pending.erase(Pending.begin() + static_cast<ptrdiff_t>(Next));
      ++Delivered;
      Lock.unlock();
      Fault F;
      F.Code = FaultCode::InjectedFailure;
      F.SessionId = D.SessionId;
      F.Worker = -1;
      F.Pedigree.clear();
      F.Message = "ServiceChaos: session doomed mid-flight "
                  "[code=injected_failure, session=" +
                  std::to_string(D.SessionId) + ", pedigree=<root>]";
      obs::count(obs::Event::InjectedFaults);
      // Races session completion by design; raiseFault drops faults for
      // finished sessions.
      Sched.raiseFault(std::move(F));
      Lock.lock();
      CV.notify_all(); // drainDooms watches Pending.
    }
  }

  Scheduler &Sched;
  const ServiceChaosPlan Plan;

  mutable std::mutex Mu;
  std::condition_variable CV;
  std::vector<Doom> Pending;
  uint64_t Delivered = 0;
  bool Stop = false;
  std::thread Deliverer;
};

} // namespace fault
} // namespace lvish

#endif // LVISH_FAULT_SERVICECHAOS_H
