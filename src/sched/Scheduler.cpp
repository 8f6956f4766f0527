//===- Scheduler.cpp - Work-stealing Par scheduler ------------------------===//

#include "src/sched/Scheduler.h"

#include "src/fault/FaultPlan.h"
#include "src/obs/Telemetry.h"
#include "src/support/Assert.h"
#include "src/support/Timer.h"

#include <cassert>
#include <cstdint>
#include <utility>

using namespace lvish;

// Thread-local identity of the current worker. WorkerSched distinguishes
// workers of different scheduler instances sharing a process.
namespace {
thread_local Task *CurrentTaskTL = nullptr;
thread_local Scheduler *WorkerSchedTL = nullptr;
thread_local unsigned WorkerIndexTL = ~0u;

// Multi-session fairness: every FairnessStride-th dispatch a worker checks
// the round-robin, per-session inject queues before its own deque,
// bounding how long a fan-out-heavy session can starve injected siblings.
constexpr unsigned FairnessStride = 61;

// Links T into / out of its session's registry of parked tasks.
void registryLink(Task *T) {
  SessionState *S = T->Session;
  std::lock_guard<std::mutex> Lock(S->TasksMutex);
  T->RegPrev = nullptr;
  T->RegNext = S->TaskHead;
  if (S->TaskHead)
    S->TaskHead->RegPrev = T;
  S->TaskHead = T;
}

void registryUnlink(Task *T) {
  SessionState *S = T->Session;
  std::lock_guard<std::mutex> Lock(S->TasksMutex);
  if (T->RegPrev)
    T->RegPrev->RegNext = T->RegNext;
  else
    S->TaskHead = T->RegNext;
  if (T->RegNext)
    T->RegNext->RegPrev = T->RegPrev;
  T->RegPrev = T->RegNext = nullptr;
}
} // namespace

Task *Scheduler::currentTask() { return CurrentTaskTL; }

int Scheduler::currentWorkerIndex() {
  return WorkerIndexTL == ~0u ? -1 : static_cast<int>(WorkerIndexTL);
}

void Scheduler::beginSession(std::shared_ptr<SessionState> S,
                             bool SnapshotStats) {
  uint64_t Id = NextSessionId.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    S->Id = Id;
  }
  if (SnapshotStats)
    S->StartStats = stats();
  std::lock_guard<std::mutex> Lock(SessionsMutex);
  Sessions.emplace(Id, std::move(S));
}

void Scheduler::raiseFault(Fault F) {
  obs::count(obs::Event::FaultsRaised);
  std::shared_ptr<SessionState> S;
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    auto It = Sessions.find(F.SessionId);
    if (It != Sessions.end())
      S = It->second;
  }
  // A fault for a session that already finished has nothing left to
  // cancel or report into; drop it.
  if (!S)
    return;
  {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    if (!S->SessionFault || faultLess(F, *S->SessionFault))
      S->SessionFault = std::move(F);
  }
  // Cancel outside the session lock: the cancel tree takes its own node
  // locks, and only THIS session's subtree hangs off its root.
  S->CancelRoot.cancel();
}

void Scheduler::chargeBudgetStep(Task *T) {
  SessionState *S = T->Session;
  if (S->StepBudget == 0)
    return;
  // Every pop of a session task - including reaps of already-cancelled
  // ones - is one scheduler decision. Exactly the charge that first
  // crosses the budget raises the fault; later charges see Used >
  // Budget + 1 and do nothing, so the kill is raised once even when
  // several workers pop tasks of the session concurrently.
  uint64_t Used = S->StepsUsed.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Used != S->StepBudget + 1)
    return;
  Fault F;
  F.Code = FaultCode::BudgetExceeded;
  F.SessionId = S->Id;
  F.Worker = currentWorkerIndex();
  F.Pedigree = T->pedigreeString();
  // Deterministic message: budget, session, pedigree only - no timings.
  F.Message = "Scheduler: session step budget exceeded (" +
              std::to_string(S->StepBudget) +
              " scheduler steps) [code=budget_exceeded, session=" +
              std::to_string(S->Id) + ", pedigree=" +
              (F.Pedigree.empty() ? "<root>" : F.Pedigree) + "]";
  obs::count(obs::Event::BudgetFaults);
  raiseFault(std::move(F));
}

std::optional<Fault> Scheduler::takeSessionFault(SessionState &S) {
  std::lock_guard<std::mutex> Lock(S.Mutex);
  std::optional<Fault> F = std::move(S.SessionFault);
  S.SessionFault.reset();
  return F;
}

SchedulerStats Scheduler::sessionStats(const SessionState &S) const {
  return stats() - S.StartStats;
}

void Scheduler::bumpCounter(
    std::atomic<uint64_t> obs::WorkerCounters::*Field) {
  if (WorkerSchedTL == this)
    obs::WorkerCounters::bumpOwned(Workers[WorkerIndexTL]->Counters.*Field);
  else
    obs::WorkerCounters::bump(ExternalCounters.*Field);
}

unsigned Scheduler::callerBatchIndex() const {
  // Under exploreRun the TLS masquerade sets WorkerIndexTL to the virtual
  // worker of the current step, so batches stay a ScheduleCtl-visible
  // function of the controlled schedule.
  return WorkerSchedTL == this ? WorkerIndexTL : numWorkers();
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats S;
  for (const auto &W : Workers)
    W->Counters.accumulateInto(S);
  ExternalCounters.accumulateInto(S);
  S.NumWorkers = numWorkers();
  return S;
}

explore::ScheduleCtl::~ScheduleCtl() = default;

Scheduler::Scheduler(SchedulerConfig Config)
    : Tracing(Config.EnableTracing), ExploreCtl(Config.Explore) {
  unsigned N = Config.NumWorkers;
  if (N == 0)
    N = std::max(1u, std::thread::hardware_concurrency());
  Workers.reserve(N);
  for (unsigned I = 0; I < N; ++I) {
    auto W = std::make_unique<Worker>();
    W->StealRng = SplitMix64(Config.StealSeed + I * 0x9e37ULL);
    Workers.push_back(std::move(W));
  }
  // Explore mode: the workers stay virtual (deques without threads); the
  // session thread drives them from exploreRun().
  if (!ExploreCtl)
    for (unsigned I = 0; I < N; ++I)
      Workers[I]->Thread = std::thread([this, I] { workerLoop(I); });
}

Scheduler::~Scheduler() {
  Shutdown.store(true, std::memory_order_release);
  IdleCV.notify_all();
  for (auto &W : Workers)
    if (W->Thread.joinable())
      W->Thread.join();
#ifndef NDEBUG
  // Every finished session reaped its registry; one still in the table
  // (begun, never finished) must not hold live tasks either.
  std::lock_guard<std::mutex> Lock(SessionsMutex);
  for (auto &[Id, S] : Sessions) {
    std::lock_guard<std::mutex> TLock(S->TasksMutex);
    assert(S->TaskHead == nullptr && "tasks leaked past their session");
  }
  for (auto &W : Workers)
    assert(!W->QuiescedHead && "a quiescent session's hook never ran");
#endif
}

void Scheduler::createTask(
    Task *T, Task *Parent,
    std::initializer_list<std::shared_ptr<TaskScope>> Scopes,
    CancelNode *FreshCancel, SessionState *Session) {
  assert(reinterpret_cast<uintptr_t>(T) % alignof(Task) == 0 &&
         "task root frame is under-aligned");
  T->Resume = detail::TaskRoot::frameOf(*T);
  T->Sched = this;
  if (Parent) {
    assert(Parent->Sched == this && "cross-scheduler fork");
    T->SessionId = Parent->SessionId;
    T->Session = Parent->Session;
    T->Cancel = FreshCancel ? FreshCancel : Parent->Cancel;
    T->Scopes = Parent->Scopes;
    T->Layers.reserve(Parent->Layers.size());
    for (auto &L : Parent->Layers)
      T->Layers.push_back(L->splitForChild());
    // Fork-tree pedigree split, mirroring PedigreeState::splitForChild:
    // the child descends Left from the parent's current position, the
    // parent's continuation proceeds Right. Safe to mutate the parent
    // here: fork runs on the parent's own thread.
    T->Ped = Parent->Ped;
    T->pedAppend(0);
    Parent->pedAppend(1);
  } else {
    assert(Session && "a session root needs its session");
    T->SessionId = Session->Id;
    T->Cancel = &Session->CancelRoot;
    T->Session = Session;
  }
  if (fault::planActive())
    T->InjectDoomed = fault::shouldDoomTask(T->Ped);
  T->scopesOnCreate();
  for (const std::shared_ptr<TaskScope> &S : Scopes)
    T->addScope(S);
  bumpCounter(&obs::WorkerCounters::TasksCreated);
  if (Tracing) {
    // A fork cuts the parent's slice: the child depends on the fork point,
    // not on the whole parent task.
    uint32_t ParentSlice =
        Parent ? sliceCut(Parent) : TraceRecorder::None;
    T->TraceId = Recorder.onTaskCreated(ParentSlice);
  }
}

void Scheduler::schedule(Task *T, bool Inject) {
  assert(T->DebugQueued.exchange(1, std::memory_order_acq_rel) == 0 &&
         "task scheduled while already queued or running");
  addPending(T);
  if (WorkerSchedTL == this && !Inject) {
    Worker &W = *Workers[WorkerIndexTL];
    W.Deque.push(T);
    W.Counters.noteDepth(W.Deque.sizeApprox());
  } else {
    pushInjected(T);
  }
  if (SleeperCount.load(std::memory_order_acquire) > 0)
    IdleCV.notify_one();
}

void Scheduler::wake(Task *T, Task *Waker) {
  bumpCounter(&obs::WorkerCounters::Wakes);
  registryUnlink(T);
  T->scopesOnUnpark();
  if (Tracing && Waker && Waker->TraceId != ~0u && T->TraceId != ~0u) {
    // The put that satisfied T's threshold precedes T's next slice.
    uint32_t WakerSlice = sliceCut(Waker);
    if (WakerSlice != TraceRecorder::None)
      Recorder.onWake(WakerSlice, T->TraceId);
  }
  schedule(T);
}

void Scheduler::wakeKeepPending(Task *T) {
  assert(T->DebugQueued.exchange(1, std::memory_order_acq_rel) == 0 &&
         "task requeued while already queued");
  sliceEnd(T);
  // Yields go to the back of the *inject* queue, not the worker's own
  // LIFO deque: re-pushing locally would pop the yielder right back and
  // starve its freshly forked siblings (workers prefer their own deque).
  pushInjected(T);
  if (SleeperCount.load(std::memory_order_acquire) > 0)
    IdleCV.notify_one();
}

void Scheduler::onTaskParked(Task *T) {
  bumpCounter(&obs::WorkerCounters::Parks);
  sliceEnd(T);
  T->scopesOnPark();
  registryLink(T);
  removePending(*T->Session);
}

bool Scheduler::canParkLazily() const {
  // Explore must own every decision and tracing needs the putter-to-reader
  // edge that only wake() records, so both keep every wait eager.
  if (WorkerSchedTL != this || ExploreCtl || Tracing)
    return false;
  const Worker &Me = *Workers[WorkerIndexTL];
  return Me.LazyCount < LazyWaitCap && Me.Deque.sizeApprox() > 0;
}

void Scheduler::waitLazily(const LazyWait &W) {
  // Not canParkLazily(): a thief may have emptied the deque since.
  assert(WorkerSchedTL == this && "lazy wait off a worker thread");
  Worker &Me = *Workers[WorkerIndexTL];
  assert(Me.LazyCount < LazyWaitCap && "lazy stack overflow");
  Me.Lazy[Me.LazyCount++] = W;
}

Task *Scheduler::resumeLazy(Worker &Me) {
  const LazyWait &W = Me.Lazy[Me.LazyCount - 1];
  if (!W.Site->reprobe(W))
    return nullptr;
  --Me.LazyCount;
  return W.Owner;
}

void Scheduler::publishLazy(Worker &Me) {
  // Outermost first, so a satisfied innermost wait is pushed last and
  // popped first, as it would have run had it stayed on the stack.
  for (unsigned I = 0; I < Me.LazyCount; ++I) {
    const LazyWait W = Me.Lazy[I];
    // Once parked, the task may be woken, run and retired by another
    // worker, or reaped with its session: W is not touched again.
    if (W.Site->publish(W))
      continue;
    // The threshold held by the recheck: the task never left its
    // session's pending count, so it goes back on the deque as is.
    assert(W.Owner->DebugQueued.exchange(1, std::memory_order_acq_rel) == 0 &&
           "lazy wait was already queued");
    Me.Deque.push(W.Owner);
    Me.Counters.noteDepth(Me.Deque.sizeApprox());
  }
  Me.LazyCount = 0;
}

void Scheduler::onTaskFinished(Task *T) {
  bumpCounter(&obs::WorkerCounters::TasksExecuted);
  retireAndRelease(T);
}

void Scheduler::deferRetire(Task *T) {
  assert(WorkerSchedTL == this && "deferRetire off a worker thread");
  Worker &W = *Workers[WorkerIndexTL];
  assert(!W.PendingRetire && "one deferred retire per slice");
  W.PendingRetire = T;
}

void Scheduler::retireAndRelease(Task *T) {
  // retire() destroys T; S stays alive through the decrement, which is
  // T's own pending count (see SessionState's lifetime paragraph).
  SessionState *S = T->Session;
  retire(T);
  removePending(*S);
}

void Scheduler::retire(Task *T) {
  sliceEnd(T);
  T->scopesOnFinish();
  // No registry work: a task is linked only while parked, and the one
  // path that retires a parked task, finishSession, unlinks it first.
  // Destroying the root frame unwinds the suspended chain, destroys T and
  // returns the block to the cache.
  detail::TaskRoot::frameOf(*T).destroy();
}

void Scheduler::waitSessionQuiescent(SessionState &S) {
  if (ExploreCtl) {
    // Explore mode: nothing runs until we step it; "waiting" IS running
    // the session, single-threaded, under the controller's decisions.
    exploreRun(S);
    return;
  }
  // Quiesced, not Pending == 0: the flag is set under S.Mutex by the
  // decrement that reached zero, so once this returns that notifier is
  // done with S and the caller may free it.
  std::unique_lock<std::mutex> Lock(S.Mutex);
  S.CV.wait(Lock, [&S] { return S.Quiesced; });
}

void Scheduler::explorePermute(
    std::vector<Task *> &ToWake,
    unsigned (explore::ScheduleCtl::*Ask)(unsigned)) {
  if (!ExploreCtl || ToWake.size() < 2)
    return;
  // Selection order: decision I picks which of the remaining tasks fires
  // next. The chosen task is moved to position I with the relative order
  // of the rest preserved, so a replayed index sequence reconstructs the
  // same permutation.
  for (size_t I = 0; I + 1 < ToWake.size(); ++I) {
    unsigned K = (ExploreCtl->*Ask)(static_cast<unsigned>(ToWake.size() - I));
    assert(K < ToWake.size() - I && "permute decision out of range");
    Task *Chosen = ToWake[I + K];
    ToWake.erase(ToWake.begin() + static_cast<ptrdiff_t>(I + K));
    ToWake.insert(ToWake.begin() + static_cast<ptrdiff_t>(I), Chosen);
  }
}

void Scheduler::exploreRun(SessionState &S) {
  // The session thread masquerades as each virtual worker via the worker
  // TLS, so schedule()/deferRetire() inside a resumed slice route to the
  // chosen worker's deque exactly as they would on a real worker thread.
  Scheduler *SavedSched = WorkerSchedTL;
  unsigned SavedIndex = WorkerIndexTL;
  Task *SavedTask = CurrentTaskTL;
  const unsigned N = numWorkers();
  std::vector<explore::StepOption> Options;
  // The Runtime admits an explore session only while it is otherwise idle,
  // so every queued task belongs to S.
  while (S.Pending.load(std::memory_order_acquire) > 0) {
    // Enumerate every possible next move, in a deterministic order. A
    // worker with local work always pops it first (matching the threaded
    // scheduler's own-deque priority); only idle workers consider the
    // inject queue and steals.
    Options.clear();
    bool HaveInjected;
    {
      std::lock_guard<std::mutex> Lock(InjectMutex);
      HaveInjected = InjectRing != nullptr;
    }
    for (unsigned W = 0; W < N; ++W) {
      if (Workers[W]->Deque.sizeApprox() > 0) {
        Options.push_back({static_cast<uint16_t>(W), explore::StepKind::Pop,
                           uint16_t{0}});
        continue;
      }
      if (HaveInjected)
        Options.push_back({static_cast<uint16_t>(W),
                           explore::StepKind::Inject, uint16_t{0}});
      for (unsigned V = 0; V < N; ++V)
        if (V != W && Workers[V]->Deque.sizeApprox() > 0)
          Options.push_back({static_cast<uint16_t>(W),
                             explore::StepKind::Steal,
                             static_cast<uint16_t>(V)});
    }
    // Pending counts exactly the queued tasks here (nothing is mid-resume
    // between steps and explore keeps every wait eager), so pending work
    // implies an option.
    assert(!Options.empty() && "pending work with nothing queued");
    unsigned Choice =
        ExploreCtl->onStep(Options.data(), static_cast<unsigned>(Options.size()));
    assert(Choice < Options.size() && "onStep out of range");
    const explore::StepOption Opt = Options[Choice];

    WorkerSchedTL = this;
    WorkerIndexTL = Opt.Worker;
    Worker &Me = *Workers[Opt.Worker];
    Task *T = nullptr;
    switch (Opt.Kind) {
    case explore::StepKind::Pop:
      T = Me.Deque.pop();
      obs::WorkerCounters::bumpOwned(Me.Counters.LocalPops);
      break;
    case explore::StepKind::Inject:
      T = tryInjected();
      break;
    case explore::StepKind::Steal:
      obs::WorkerCounters::bumpOwned(Me.Counters.StealAttempts);
      T = Workers[Opt.Victim]->Deque.steal();
      if (T)
        obs::WorkerCounters::bumpOwned(Me.Counters.Steals);
      break;
    }
    assert(T && "explore step chose an empty source");
    assert(T->DebugQueued.exchange(0, std::memory_order_acq_rel) == 1 &&
           "popped task was not queued");
    assert(T->Session == &S && "explore runs one session");
    ExploreCtl->onResume(T->Ped);
    dispatch(Me, T);
  }
  WorkerSchedTL = SavedSched;
  WorkerIndexTL = SavedIndex;
  CurrentTaskTL = SavedTask;
}

size_t Scheduler::finishSession(SessionState &S) {
  assert(S.Pending.load(std::memory_order_acquire) == 0 &&
         "finishSession before the session quiesced");
  // Phase 0: take THIS session's leftover tasks - its parked ones - out
  // of its own registry. Sibling sessions' registries are never visited.
  std::vector<Task *> Leftover;
  {
    std::lock_guard<std::mutex> Lock(S.TasksMutex);
    for (Task *T = S.TaskHead, *Next; T; T = Next) {
      Next = T->RegNext;
      T->RegPrev = T->RegNext = nullptr;
      Leftover.push_back(T);
    }
    S.TaskHead = nullptr;
  }
  // Phase 1: detach every leftover task from its park site while all task
  // frames (and therefore all LVars) are still alive. LVars are session-
  // local (LVarBase::checkSession), so these park sites hold only this
  // session's waiters.
  for (Task *T : Leftover) {
    assert(T->ParkedOn && "finishSession found a non-parked leftover task "
                          "(premature quiescence?)");
    if (ParkSite *Site = T->ParkedOn)
      Site->removeParkedTask(T);
  }
  // Phase 2: destroy the frames. Reaping can fire scope drains that try to
  // wake other leftover waiters; phase 1 already detached them, so those
  // wakes cannot reschedule anything (removeParkedTask emptied the lists).
  for (Task *T : Leftover)
    retire(T);
  // Unregister: raiseFault for this session id is a no-op from here on.
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    Sessions.erase(S.Id);
  }
  return Leftover.size();
}

void Scheduler::addPending(Task *T) {
  T->Session->Pending.fetch_add(1, std::memory_order_acq_rel);
}

void Scheduler::removePending(SessionState &S) {
  if (S.Pending.fetch_sub(1, std::memory_order_acq_rel) != 1)
    return;
  // This session just quiesced. Wake blocking waiters under S.Mutex, so a
  // waiter cannot miss the notify between its predicate check and its
  // wait. Nothing here touches S after the unlock: a blocking waiter may
  // free S as soon as it sees Quiesced. A session with a hook is instead
  // linked onto this worker's private list: the decrement can run under a
  // park-site lock (onTaskParked), and the hook's finalize reaps through
  // those same locks, so the worker calls it later with no lock held
  // (runQuiescentHooks). The session table keeps S alive until then.
  std::lock_guard<std::mutex> Lock(S.Mutex);
  assert(!S.Quiesced && "a session quiesced twice");
  S.Quiesced = true;
  S.CV.notify_all();
  if (S.hasQuiescentHook()) {
    assert(WorkerSchedTL == this && "a hooked session quiesced off a worker");
    Worker &Me = *Workers[WorkerIndexTL];
    S.QuiescedNext = Me.QuiescedHead;
    Me.QuiescedHead = &S;
  }
}

void Scheduler::runQuiescentHooks(Worker &Me) {
  while (SessionState *S = Me.QuiescedHead) {
    Me.QuiescedHead = S->QuiescedNext;
    S->QuiescedNext = nullptr;
    // The hook may free S (and, once it lets drain() return, its Runtime):
    // S is not touched again.
    S->onQuiescent();
  }
}

void Scheduler::sliceEnd(Task *T) {
  if (!Tracing || T->CurSlice == TraceRecorder::None)
    return;
  Recorder.onSliceEnd(T->CurSlice, nowNanos() - T->SliceStart,
                      T->SliceBytes, T->SliceStart);
  T->CurSlice = TraceRecorder::None;
  T->SliceBytes = 0;
}

void Scheduler::sliceBegin(Task *T) {
  if (!Tracing || T->TraceId == ~0u)
    return;
  T->CurSlice = Recorder.onSliceStart(T->TraceId);
  T->SliceStart = nowNanos();
  T->SliceBytes = 0;
}

uint32_t Scheduler::sliceCut(Task *T) {
  if (!Tracing || T->CurSlice == TraceRecorder::None)
    return TraceRecorder::None;
  uint32_t Ended = T->CurSlice;
  sliceEnd(T);
  sliceBegin(T);
  return Ended;
}

void Scheduler::pushInjected(Task *T) {
  SessionState *S = T->Session;
  std::lock_guard<std::mutex> Lock(InjectMutex);
  if (S->InjectTail) {
    S->InjectTail->InjectNext = T;
  } else {
    // The session's FIFO was empty: it joins the ring at the back.
    S->InjectHead = T;
    S->InjectRingNext = InjectRing ? InjectRing->InjectRingNext : S;
    if (InjectRing)
      InjectRing->InjectRingNext = S;
    InjectRing = S;
  }
  S->InjectTail = T;
}

Task *Scheduler::tryInjected() {
  std::lock_guard<std::mutex> Lock(InjectMutex);
  if (!InjectRing)
    return nullptr;
  // Deficit round-robin, quantum 1: take one task from the front
  // session, then rotate it behind the other queued sessions.
  SessionState *S = InjectRing->InjectRingNext;
  Task *T = S->InjectHead;
  S->InjectHead = T->InjectNext;
  T->InjectNext = nullptr;
  if (S->InjectHead) {
    InjectRing = S;
  } else {
    // Its FIFO ran dry: the session leaves the ring.
    S->InjectTail = nullptr;
    InjectRing = S == InjectRing ? nullptr : InjectRing;
    if (InjectRing)
      InjectRing->InjectRingNext = S->InjectRingNext;
    S->InjectRingNext = nullptr;
  }
  return T;
}

Task *Scheduler::findWork(unsigned Index) {
  Worker &Me = *Workers[Index];
  // Artificial scheduling jitter at the steal point (non-semantic: it
  // perturbs interleavings, never outcomes).
  if (fault::planActive())
    fault::maybeDelay(fault::Point::Steal);
  // Multi-session fairness: periodically let injected work (session
  // roots, yields - round-robin across sessions) preempt the local
  // deque, so one session's deep fan-out cannot starve its siblings'
  // submissions.
  if (++Me.InjectStreak >= FairnessStride) {
    Me.InjectStreak = 0;
    if (Task *T = tryInjected())
      return T;
  }
  if (Task *T = Me.Deque.pop()) {
    obs::WorkerCounters::bumpOwned(Me.Counters.LocalPops);
    return T;
  }
  // Out of local work: publish the lazy waits before looking anywhere
  // else, so a satisfier this worker will not run itself can wake them.
  if (Me.LazyCount) {
    publishLazy(Me);
    if (Task *T = Me.Deque.pop()) {
      obs::WorkerCounters::bumpOwned(Me.Counters.LocalPops);
      return T;
    }
  }
  // The inject queues are checked now, so the stride restarts: it counts
  // dispatches from local work, not idle polls, and at one worker a
  // session's schedule then does not depend on how long the worker idled
  // before it.
  Me.InjectStreak = 0;
  if (Task *T = tryInjected())
    return T;
  unsigned N = numWorkers();
  if (N > 1) {
    for (unsigned Attempt = 0; Attempt < 2 * N; ++Attempt) {
      unsigned Victim =
          static_cast<unsigned>(Me.StealRng.nextBounded(N));
      if (Victim == Index)
        continue;
      obs::WorkerCounters::bumpOwned(Me.Counters.StealAttempts);
      if (Task *T = Workers[Victim]->Deque.steal()) {
        obs::WorkerCounters::bumpOwned(Me.Counters.Steals);
        return T;
      }
    }
  }
  return nullptr;
}

void Scheduler::workerLoop(unsigned Index) {
  WorkerSchedTL = this;
  WorkerIndexTL = Index;
  Worker &Me = *Workers[Index];
  unsigned IdleSpins = 0;
  while (!Shutdown.load(std::memory_order_acquire)) {
    // The innermost lazy wait, re-probed after every slice, runs next
    // once its threshold holds: the task its eager twin would have woken
    // onto this deque and popped at once.
    Task *T = Me.LazyCount ? resumeLazy(Me) : nullptr;
    const bool WasLazy = T != nullptr;
    if (!WasLazy)
      T = findWork(Index);
    if (!T) {
      // findWork's publishLazy may have quiesced a session: run its hook
      // before idling, not after the sleep's timeout.
      if (Me.QuiescedHead) {
        runQuiescentHooks(Me);
        continue;
      }
      // Nothing found: spin briefly, then sleep with a timeout (the
      // timeout makes lost wakeups impossible to wedge on).
      if (++IdleSpins < 64) {
        std::this_thread::yield();
        continue;
      }
      SleeperCount.fetch_add(1, std::memory_order_acq_rel);
      {
        std::unique_lock<std::mutex> Lock(IdleMutex);
        IdleCV.wait_for(Lock, std::chrono::microseconds(500));
      }
      SleeperCount.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    IdleSpins = 0;
    assert((WasLazy ||
            T->DebugQueued.exchange(0, std::memory_order_acq_rel) == 1) &&
           "popped task was not queued");
    dispatch(Me, T);
    runQuiescentHooks(Me);
  }
}

void Scheduler::dispatch(Worker &Me, Task *T) {
  chargeBudgetStep(T);
  if (T->isCancelled()) {
    // A cancelled task is destroyed instead of resumed; the scheduler
    // polls liveness at every action, as in Section 6.1 of the paper.
    retireAndRelease(T);
    return;
  }
  CurrentTaskTL = T;
  if (Tracing)
    sliceBegin(T);
  std::coroutine_handle<> H = T->Resume;
  assert(H && "scheduled task has no resume point");
  H.resume();
  // NOTE: T may already be freed or running on another worker here; the
  // only safe cleanup is the thread-local reset and the deferred retire
  // handoff below.
  CurrentTaskTL = nullptr;
  if (Task *R = Me.PendingRetire) {
    Me.PendingRetire = nullptr;
    retireAndRelease(R);
  }
}
