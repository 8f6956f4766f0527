//===- Runtime.cpp - Multi-tenant service runtime -------------------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
//
// The untemplated half of the Runtime: admission control (slot
// accounting, FIFO queueing with deadline/shed refusals, explore
// exclusivity, graceful stop) and the finalizer thread that turns
// quiescence observations into session outcomes.
//
// Lock discipline: Mu guards only the Runtime's own bookkeeping (Active,
// the two queues, stop flags). Launch, finalize, AND reject closures
// always run with Mu RELEASED - launches re-enter the Scheduler
// (beginSession, schedule), a worker finishing the session's last task
// calls back into enqueueCompletion (which needs Mu), and reject closures
// take the session channel's own mutex.
//
//===----------------------------------------------------------------------===//

#include "src/service/Runtime.h"

#include <chrono>

using namespace lvish;
using namespace lvish::service;

namespace {
constexpr const char *DeadlineReason =
    "queued past the admission deadline (SubmitDeadlineNanos)";
constexpr const char *ShedReason =
    "admission queue full (MaxQueuedSessions overload shed)";
constexpr const char *StoppingReason =
    "the Runtime is draining and no longer admits sessions";
} // namespace

Runtime::Runtime(RuntimeConfig Config)
    : Sched(Config.Sched), MaxActive(Config.MaxActiveSessions),
      MaxQueued(Config.MaxQueuedSessions),
      DeadlineNanos(Config.SubmitDeadlineNanos),
      DefaultBudget(Config.DefaultSessionBudget) {}

Runtime::~Runtime() {
  drain();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ShuttingDown = true;
    WorkCV.notify_all();
  }
  if (Finalizer.joinable())
    Finalizer.join();
}

Runtime::AdmitVeto Runtime::acquireSlotOrVeto() {
  std::unique_lock<std::mutex> Lock(Mu);
  if (Stopping)
    return {FaultCode::RuntimeStopping, StoppingReason};
  if (Sched.exploreCtl()) {
    if (Active > 0 || !AdmitQueue.empty() || !DoneQueue.empty())
      return {FaultCode::SessionRejected,
              "controlled-scheduling sessions need the Runtime to "
              "themselves and it is busy"};
    Active = 1;
    return {};
  }
  auto SlotFree = [this] {
    return Stopping || !MaxActive || Active < MaxActive;
  };
  if (DeadlineNanos) {
    if (!SlotCV.wait_for(Lock, std::chrono::nanoseconds(DeadlineNanos),
                         SlotFree))
      return {FaultCode::DeadlineExceeded,
              "no session slot freed within the admission deadline "
              "(SubmitDeadlineNanos)"};
  } else {
    SlotCV.wait(Lock, SlotFree);
  }
  if (Stopping)
    return {FaultCode::RuntimeStopping, StoppingReason};
  ++Active;
  return {};
}

std::function<void()> Runtime::admitNextLocked(
    std::vector<QueuedLaunch> &Expired) {
  while (!AdmitQueue.empty() && (!MaxActive || Active < MaxActive)) {
    if (DeadlineNanos &&
        nowNanos() - AdmitQueue.front().EnqueueNanos > DeadlineNanos) {
      Expired.push_back(std::move(AdmitQueue.front()));
      AdmitQueue.pop_front();
      continue;
    }
    std::function<void()> Launch = std::move(AdmitQueue.front().Launch);
    AdmitQueue.pop_front();
    ++Active;
    return Launch;
  }
  return nullptr;
}

void Runtime::releaseSlot() {
  std::function<void()> Next;
  std::vector<QueuedLaunch> Expired;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    assert(Active > 0 && "releaseSlot without a held slot");
    --Active;
    Next = admitNextLocked(Expired);
    SlotCV.notify_all();
  }
  for (QueuedLaunch &Q : Expired)
    Q.Reject(FaultCode::DeadlineExceeded, DeadlineReason);
  if (Next)
    Next();
}

void Runtime::routeSubmission(QueuedLaunch Q) {
  FaultCode RefuseCode = FaultCode::SessionRejected;
  const char *RefuseReason = nullptr;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Stopping) {
      RefuseCode = FaultCode::RuntimeStopping;
      RefuseReason = StoppingReason;
    } else if (MaxActive && Active >= MaxActive) {
      if (MaxQueued && AdmitQueue.size() >= MaxQueued) {
        RefuseCode = FaultCode::Shed;
        RefuseReason = ShedReason;
      } else {
        ensureFinalizerLocked();
        Q.EnqueueNanos = nowNanos();
        AdmitQueue.push_back(std::move(Q));
        return;
      }
    } else {
      ensureFinalizerLocked();
      ++Active;
    }
  }
  if (RefuseReason)
    Q.Reject(RefuseCode, RefuseReason);
  else
    Q.Launch();
}

void Runtime::enqueueCompletion(std::function<void()> Fin) {
  // May run under a park-site lock (the session's last pending-count
  // decrement can happen inside TaskScope/LVar park bookkeeping), so this
  // must only enqueue - never touch the Scheduler.
  std::lock_guard<std::mutex> Lock(Mu);
  DoneQueue.push_back(std::move(Fin));
  WorkCV.notify_one();
}

void Runtime::ensureFinalizerLocked() {
  if (FinalizerStarted)
    return;
  FinalizerStarted = true;
  Finalizer = std::thread([this] { finalizerLoop(); });
}

void Runtime::finalizerLoop() {
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    WorkCV.wait(Lock, [this] { return ShuttingDown || !DoneQueue.empty(); });
    if (DoneQueue.empty()) {
      if (ShuttingDown)
        return;
      continue;
    }
    std::function<void()> Fin = std::move(DoneQueue.front());
    DoneQueue.pop_front();
    // The finalized session's slot stays held through Fin (finishSession,
    // fault take, outcome publication), so drain() cannot complete while
    // a finalization is mid-flight.
    Lock.unlock();
    Fin();
    std::function<void()> Next;
    std::vector<QueuedLaunch> Expired;
    Lock.lock();
    assert(Active > 0 && "finalized a session without a held slot");
    --Active;
    Next = admitNextLocked(Expired);
    SlotCV.notify_all();
    if (Next || !Expired.empty()) {
      Lock.unlock();
      for (QueuedLaunch &Q : Expired)
        Q.Reject(FaultCode::DeadlineExceeded, DeadlineReason);
      if (Next)
        Next();
      Lock.lock();
    }
  }
}

void Runtime::drain() {
  std::deque<QueuedLaunch> Rejected;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
    Rejected.swap(AdmitQueue);
    // Wake blocking acquireSlotOrVeto waiters so they observe Stopping.
    SlotCV.notify_all();
  }
  for (QueuedLaunch &Q : Rejected)
    Q.Reject(FaultCode::RuntimeStopping, StoppingReason);
  std::unique_lock<std::mutex> Lock(Mu);
  if (Active > 0 || !DoneQueue.empty())
    obs::count(obs::Event::DrainWaits);
  SlotCV.wait(Lock, [this] { return Active == 0 && DoneQueue.empty(); });
}

void Runtime::awaitIdle() {
  std::unique_lock<std::mutex> Lock(Mu);
  SlotCV.wait(Lock, [this] {
    return Active == 0 && AdmitQueue.empty() && DoneQueue.empty();
  });
}
