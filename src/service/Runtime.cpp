//===- Runtime.cpp - Multi-tenant service runtime -------------------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
//
// The untemplated half of the Runtime: admission control (slot
// accounting, FIFO queueing with deadline/shed refusals, explore
// exclusivity, graceful stop), the blocking session driver, and the one
// finalize-then-release sequence that turns a quiescent session into an
// outcome, on its blocked driver or on the worker that quiesced it.
//
// Lock discipline: Mu guards only the Runtime's own bookkeeping (Active,
// the admission queue, the stop flag) and is a leaf: nothing else is
// locked under it. A session's launch, finalize AND reject always run
// with Mu released - launches re-enter the Scheduler, and finalize and
// reject take the session's own mutex.
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
  Completions->finalizeAndRelease(*this);
}

Runtime::~Runtime() { drain(); }

Runtime::AdmitVeto Runtime::acquireSlotOrVeto() {
  std::unique_lock<std::mutex> Lock(Mu);
  if (Stopping)
    return {FaultCode::RuntimeStopping, StoppingReason};
  if (Sched.exploreCtl()) {
    if (Active > 0 || !AdmitQueue.empty())
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
  finalizeAndRelease(S);
}

void Runtime::finalizeAndRelease(detail::SessionBase &S) {
  {
    // finishSession drops the session table's reference, the only one an
    // async session whose future is gone still has: hold one through
    // finalize. It is dropped BEFORE releaseSlot, whose unlock can let
    // drain() return and the caller free what the session's body holds;
    // the last reference destroys that body.
    SessionPtr Hold = S.shared_from_this();
    S.finalize(Sched);
  }
  // From here S may be gone, and once releaseSlot unlocks Mu with no
  // session left active, so may the Runtime (see Sched).
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
        AdmitQueue.push_back(std::move(S));
        return;
      }
    } else {
      ++Active;
    }
  }
  if (RefuseReason)
    S->reject(RefuseCode, RefuseReason);
  else
    S->launch(Sched);
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
  if (Active > 0)
    obs::count(obs::Event::DrainWaits);
  SlotCV.wait(Lock, [this] { return Active == 0; });
}

void Runtime::awaitIdle() {
  std::unique_lock<std::mutex> Lock(Mu);
  SlotCV.wait(Lock, [this] { return Active == 0 && AdmitQueue.empty(); });
}
