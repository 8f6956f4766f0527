//===- Runtime.cpp - Multi-tenant service runtime -------------------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
//
// The untemplated half of the Runtime: admission control (slot
// accounting, FIFO queueing with deadline/shed refusals, explore
// exclusivity, graceful stop), the blocking session driver, and the
// finalizer thread that turns quiescent async sessions into outcomes.
//
// Lock discipline: Mu guards only the Runtime's own bookkeeping (Active,
// the two queues, stop flags). A session's launch, finalize AND reject
// always run with Mu RELEASED - launches re-enter the Scheduler, and
// finalize and reject take the session's own mutex, which an async
// session holds while its onQuiescent takes Mu to enqueue it.
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

void service::detail::SessionBase::onQuiescent() {
  if (Completions)
    Completions->enqueueCompletion(shared_from_this());
}

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

void Runtime::runBlocking(detail::SessionBase &S) {
  if (AdmitVeto V = acquireSlotOrVeto(); V.Reason) {
    S.reject(V.Code, V.Reason);
    return;
  }
  S.launch(Sched);
  Sched.waitSessionQuiescent(S);
  S.finalize(Sched);
  releaseSlot();
}

Runtime::SessionPtr Runtime::admitNextLocked(
    std::vector<SessionPtr> &Expired) {
  while (!AdmitQueue.empty() && (!MaxActive || Active < MaxActive)) {
    SessionPtr S = std::move(AdmitQueue.front());
    AdmitQueue.pop_front();
    if (DeadlineNanos && nowNanos() - S->SubmitNanos > DeadlineNanos) {
      Expired.push_back(std::move(S));
      continue;
    }
    ++Active;
    return S;
  }
  return nullptr;
}

void Runtime::releaseSlot() {
  SessionPtr Next;
  std::vector<SessionPtr> Expired;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    assert(Active > 0 && "releaseSlot without a held slot");
    --Active;
    Next = admitNextLocked(Expired);
    SlotCV.notify_all();
  }
  for (SessionPtr &E : Expired)
    E->reject(FaultCode::DeadlineExceeded, DeadlineReason);
  if (Next)
    Next->launch(Sched);
}

void Runtime::routeSubmission(SessionPtr S) {
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
        AdmitQueue.push_back(std::move(S));
        return;
      }
    } else {
      ensureFinalizerLocked();
      ++Active;
    }
  }
  if (RefuseReason)
    S->reject(RefuseCode, RefuseReason);
  else
    S->launch(Sched);
}

void Runtime::enqueueCompletion(SessionPtr S) {
  // Runs under the session's mutex and maybe a park-site lock (the
  // session's last pending-count decrement can happen inside
  // TaskScope/LVar park bookkeeping), so this must only enqueue - never
  // touch the Scheduler.
  std::lock_guard<std::mutex> Lock(Mu);
  DoneQueue.push_back(std::move(S));
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
    SessionPtr S = std::move(DoneQueue.front());
    DoneQueue.pop_front();
    // The finalized session's slot stays held through finalize
    // (finishSession, fault take, outcome publication), so drain() cannot
    // complete while a finalization is mid-flight. Session references
    // are dropped outside Mu: the last one destroys the user's body.
    Lock.unlock();
    S->finalize(Sched);
    S.reset();
    SessionPtr Next;
    std::vector<SessionPtr> Expired;
    Lock.lock();
    assert(Active > 0 && "finalized a session without a held slot");
    --Active;
    Next = admitNextLocked(Expired);
    SlotCV.notify_all();
    if (Next || !Expired.empty()) {
      Lock.unlock();
      for (SessionPtr &E : Expired)
        E->reject(FaultCode::DeadlineExceeded, DeadlineReason);
      Expired.clear();
      if (Next)
        Next->launch(Sched);
      Next.reset();
      Lock.lock();
    }
  }
}

void Runtime::drain() {
  std::deque<SessionPtr> Rejected;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
    Rejected.swap(AdmitQueue);
    // Wake blocking acquireSlotOrVeto waiters so they observe Stopping.
    SlotCV.notify_all();
  }
  for (SessionPtr &S : Rejected)
    S->reject(FaultCode::RuntimeStopping, StoppingReason);
  Rejected.clear();
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
