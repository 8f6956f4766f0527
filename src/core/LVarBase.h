//===- LVarBase.h - Common LVar runtime machinery ---------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one LVar core every data structure is built on (DESIGN.md Section
/// 13): a structure supplies only its lattice state and its join, and
/// inherits the rest from here, written once -
///  * the put prologue (\c enterPut: session check, effect audit, the
///    fault-injection put poll, the Puts count) and \c noOpPut for joins that
///    change nothing;
///  * \c freezeFor, the prologue of every freeze* entry point;
///  * the handler list (\c HandledLVar), guarded by the footnote-6
///    asymmetric put/registration gate alone. The gate (8 KB of per-thread
///    slots) lives in HandledLVar, not here: an LVar that can never hold
///    a handler (IVar, Counter, CounterVec, MinVec, UnionFind) has no
///    registration to order its puts against, so it stays a few hundred
///    bytes;
///  * the blocking threshold read (\c ThresholdAwaiter), parked in the
///    sharded waiter table below;
///  * the freeze bit and the session id standing in for the paper's `s`
///    parameter.
///
/// Waiter sharding (DESIGN.md Section 13): a blocked threshold read parks
/// in the bucket named by its \c WaitSlot -
///  * \c WaitSlot::dflt() - the inline default bucket, whose mutex doubles
///    as the state lock of mutex-guarded structures (IVar, PureLVar) and
///    holds the unclassifiable waiters of Counter/CounterVec;
///  * \c WaitSlot::key(H) - one of \c NumKeyBuckets lazily allocated
///    per-key-hash buckets (IMap/ISet element reads), so a put re-checks
///    only the waiters its own key can satisfy;
///  * \c WaitSlot::size(N) - a lazily allocated min-heap of cardinality
///    watermarks (the waitSize family), skipped entirely while the
///    structure's size is below the smallest parked threshold. A size
///    waiter's tryCapture MUST be exactly "current size >= N" (monotone in
///    N), which is what lets the heap stop at the first unsatisfied
///    threshold.
///
/// Park/wake protocol (no lost wakeups): the parker first probes the
/// threshold under the bucket lock and returns at once when it already
/// holds - a satisfied read publishes nothing. Otherwise it PUBLISHES its
/// entry (bucket push + count/watermark update), issues a seq_cst fence,
/// and only then re-checks the threshold, withdrawing the entry if it is
/// satisfied by now. A put applies its state change, issues a seq_cst
/// fence, and then reads the bucket counts/watermark to decide whether to
/// scan. This is the store-buffering (Dekker) pattern: the put missing the
/// published entry AND the parker missing the state change cannot both
/// happen, so any racing pair resolves to either a scan that wakes the
/// waiter or a re-check that never parks. Both sides run tryCapture under
/// the bucket mutex, so awaiter state is never touched concurrently. The
/// parker's half is \c publishPark, the only copy.
///
/// Lazy waits: when the first probe misses and Scheduler::canParkLazily()
/// holds (a worker with local work, no explore controller, no tracing),
/// parkGet publishes nothing. It hands the scheduler a \c LazyWait and
/// the task suspends, still pending. The worker later re-probes it under
/// the same bucket lock (\c reprobe) and, once out of local work,
/// publishes it through \c publish, which is \c publishPark under the
/// lock. An unpublished wait is touched by its own worker only.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_CORE_LVARBASE_H
#define LVISH_CORE_LVARBASE_H

#include "src/check/EffectAuditor.h"
#include "src/core/Par.h"
#include "src/fault/FaultInject.h"
#include "src/obs/Telemetry.h"
#include "src/sched/FaultSignal.h"
#include "src/sched/Scheduler.h"
#include "src/sched/Task.h"
#include "src/support/AsymmetricGate.h"
#include "src/support/Assert.h"

#include <algorithm>
#include <atomic>
#include <concepts>
#include <coroutine>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace lvish {

/// How a notify entry point is ordered against the put's state change -
/// what makes the publish-then-recheck protocol's store-buffering argument
/// go through (see the file comment). The cheapest sound option depends on
/// how the data structure guards its state.
enum class NotifyOrder {
  /// State writes carry no usable ordering (lock-free hash tables): issue
  /// a seq_cst fence before probing the bucket counts.
  FenceBefore,
  /// The state write itself was a seq_cst RMW (Counter's fetch_add):
  /// seq_cst probe loads are ordered after it in the SC total order, so
  /// no fence is needed - a seq_cst load is a plain load on x86.
  StateSeqCst,
  /// State is written under Bucket0.Mu and every waiter parks in Bucket0
  /// under the same mutex (IVar, PureLVar): the mutex's happens-before
  /// makes any ordering between probe and state write race-free.
  MutexGuarded,
};

/// Names the waiter bucket a blocking threshold read parks in; see the
/// file comment for the three kinds.
struct WaitSlot {
  enum class Kind : uint8_t { Default, Key, Size };
  Kind K = Kind::Default;
  uint64_t Value = 0;

  /// The default bucket (mutex-guarded state, or unclassifiable waiters).
  static constexpr WaitSlot dflt() { return WaitSlot{}; }
  /// A per-key-hash bucket; \p Hash must be the same value the writing
  /// side passes to notifyDelta for the matching key.
  static constexpr WaitSlot key(uint64_t Hash) {
    return WaitSlot{Kind::Key, Hash};
  }
  /// The size-watermark heap; the awaiter's tryCapture must be exactly
  /// "current size >= Threshold".
  static constexpr WaitSlot size(uint64_t Threshold) {
    return WaitSlot{Kind::Size, Threshold};
  }
};

template <typename ProbeT> class ThresholdAwaiter;

/// Base class of every LVar; see file comment.
class LVarBase : public ParkSite {
public:
  explicit LVarBase(uint64_t SessionId)
      : WaitMutex(Bucket0.Mu), Session(SessionId) {}

  ~LVarBase() override {
    delete[] KeyBuckets.load(std::memory_order_acquire);
    delete SizeList.load(std::memory_order_acquire);
  }

  LVarBase(const LVarBase &) = delete;
  LVarBase &operator=(const LVarBase &) = delete;

  uint64_t sessionId() const { return Session; }

  /// True after a freeze; further state-changing puts are deterministic
  /// errors.
  bool isFrozen() const { return Frozen.load(std::memory_order_acquire); }

  /// Marks this LVar frozen. Exposed operations wrap this with the
  /// HasFreeze effect requirement; runParThenFreeze calls it after session
  /// quiescence, which is the always-deterministic pattern.
  void markFrozen() { Frozen.store(true, std::memory_order_release); }

  /// Optional debug name carried into fault diagnostics ("lvar=..." in
  /// Fault messages). Set it right after construction, before the LVar is
  /// shared with other tasks; reads at fault time take no lock.
  void setDebugName(std::string Name) { DbgName = std::move(Name); }

  /// The debug name, or null when none was set.
  const char *debugName() const {
    return DbgName.empty() ? nullptr : DbgName.c_str();
  }

  /// ParkSite: forget a reaped waiter (only called at quiescence, and
  /// only for a task parked here, so its bucket exists). O(one bucket):
  /// Task::ParkedSlot remembers which bucket holds the entry.
  void removeParkedTask(Task *T) override {
    const uint32_t Slot = T->ParkedSlot;
    std::lock_guard<std::mutex> Lock(slotMutex(Slot));
    if (Slot == SlotSize) {
      SizeWaiters &L = *SizeList.load(std::memory_order_acquire);
      for (auto It = L.Heap.begin(); It != L.Heap.end();)
        if (It->E.Owner == T) {
          It = L.Heap.erase(It);
          T->ParkedOn = nullptr;
        } else {
          ++It;
        }
      std::make_heap(L.Heap.begin(), L.Heap.end(), ThresholdGreater{});
      L.MinWatermark.store(L.Heap.empty() ? UINT64_MAX
                                          : L.Heap.front().Threshold,
                           std::memory_order_seq_cst);
      return;
    }
    WaiterBucket &B = bucketAt(Slot);
    for (auto It = B.Waiters.begin(); It != B.Waiters.end();)
      if (It->Owner == T) {
        It = B.Waiters.erase(It);
        B.Count.fetch_sub(1, std::memory_order_release);
        T->ParkedOn = nullptr;
      } else {
        ++It;
      }
  }

  /// ParkSite: re-probes a lazy wait under its bucket lock.
  bool reprobe(const LazyWait &W) override {
    std::lock_guard<std::mutex> Lock(slotMutex(W.Slot));
    return W.TryCapture(W.Awaiter);
  }

  /// ParkSite: publishes a lazy wait (the worker ran out of local work).
  bool publish(const LazyWait &W) override {
    std::lock_guard<std::mutex> Lock(slotMutex(W.Slot));
    return publishPark(W);
  }

  /// Asserts the accessing task belongs to this LVar's session (the
  /// runtime stand-in for the `s` type parameter).
  void checkSession(const Task *T) const {
    assert(T && "LVar access outside a Par computation");
    assert(T->SessionId == Session &&
           "LVar reused across runPar sessions (the `s` parameter would "
           "have rejected this program)");
    (void)T;
  }

  /// The prologue of every freeze* entry point: session check, Freeze
  /// effect audit, freeze bit. Callers whose puts check the bit under a
  /// state lock call this under that lock (Stream::freezeNow).
  void freezeFor(Task *Caller, const char *Op) {
    checkSession(Caller);
    check::auditEffect(Caller, check::FxFreeze, Op);
    markFrozen();
  }

protected:
  template <typename ProbeT> friend class ThresholdAwaiter;

  /// The prologue of every state-changing entry point, run before the
  /// state is touched: session check, effect audit (\p Fx is FxPut or
  /// FxBump), the fault-injection put poll (a doomed writer fails here, so
  /// its write never lands), and the Puts count. \p Counted = false
  /// leaves the count to the caller, for an entry point whose fast path
  /// is not a put (IMap::modifyKey finding its key bound).
  void enterPut(Task *Writer, uint8_t Fx, const char *Op,
                bool Counted = true) {
    checkSession(Writer);
    check::auditEffect(Writer, Fx, Op);
    fault::injectPoint(fault::Point::Put, Writer);
    if (Counted)
      obs::count(obs::Event::Puts);
  }

  /// Accounts a put that changed nothing (duplicate insert, equal re-put,
  /// non-improving join, zero bump): no delta to deliver, nothing to wake.
  static void noOpPut() {
    obs::count(obs::Event::NoOpJoins);
    obs::count(obs::Event::NotifySkips);
  }

  /// One blocked threshold read. \c TryCapture re-checks the threshold
  /// against the current state and, when satisfied, stores the read result
  /// into the awaiter (which lives in the parked coroutine's frame).
  struct WaiterEntry {
    Task *Owner;
    void *Awaiter;
    bool (*TryCapture)(void *Awaiter);
  };

  /// One waiter shard: its own lock, and a lock-free occupancy probe for
  /// the notify fast path. Not cache-line aligned: Bucket0 sits inline in
  /// every LVar, and an over-aligned member would send every IVar's
  /// allocation through the aligned allocator. The lazily allocated key
  /// buckets get a line each through KeyBucket.
  struct WaiterBucket {
    std::mutex Mu;
    std::vector<WaiterEntry> Waiters;
    /// Tracks Waiters.size(); probed without the lock by notifiers.
    std::atomic<uint32_t> Count{0};
  };

  /// Parks the calling coroutine unless the awaiter's threshold is already
  /// satisfied. Returns true if the task suspends (parked, waiting lazily,
  /// or cancelled), false if \c A->tryCapture() succeeded (the awaiter
  /// must resume immediately). \p Slot picks the waiter bucket (see
  /// WaitSlot). Also the cancellation poll point for reads (Section 6.1).
  template <typename AwaiterT>
  bool parkGet(Task *T, std::coroutine_handle<> H, AwaiterT *A,
               WaitSlot Slot = WaitSlot()) {
    checkSession(T);
    check::auditEffect(T, check::FxGet, "blocking threshold read");
    // Fault-injection park-point poll (no-op with no plan). A raise throws
    // out of await_suspend, which resumes the coroutine and rethrows in
    // its body - reaching unhandled_exception as usual.
    fault::injectPoint(fault::Point::Park, T);
    if (T->isCancelled()) {
      T->Sched->deferRetire(T);
      return true; // Suspend; the worker destroys the frame right after.
    }
    uint32_t SlotIdx = SlotDefault;
    if (Slot.K == WaitSlot::Kind::Size)
      SlotIdx = SlotSize;
    else if (Slot.K == WaitSlot::Kind::Key)
      SlotIdx = static_cast<uint32_t>(Slot.Value & (NumKeyBuckets - 1)) + 1;
    std::lock_guard<std::mutex> Lock(slotMutex(SlotIdx));
    // Probe first: an already-satisfied read (the common get of a full
    // IVar) publishes nothing and pays no fence.
    if (A->tryCapture())
      return false;
    T->Resume = H;
    const LazyWait W{
        T, this, A,
        [](void *P) { return static_cast<AwaiterT *>(P)->tryCapture(); },
        SlotIdx, Slot.Value};
    // The worker still has local work: wait unpublished, re-probed after
    // its slices (see the file comment).
    if (T->Sched->canParkLazily()) {
      T->Sched->waitLazily(W);
      return true;
    }
    return publishPark(W);
  }

  /// Full-table notify: re-checks every waiter in every occupied bucket.
  /// For structures without a per-key/size decomposition (IVar, PureLVar,
  /// Counter, CounterVec) all waiters live in the default bucket, so this
  /// degenerates to exactly the pre-sharding scan. \p Order picks the
  /// cheapest sound ordering against the caller's state write (see
  /// NotifyOrder): only FenceBefore pays a full fence on the no-waiter
  /// fast path.
  void notifyWaiters(Task *Waker,
                     NotifyOrder Order = NotifyOrder::FenceBefore) {
    if (Order == NotifyOrder::FenceBefore)
      std::atomic_thread_fence(std::memory_order_seq_cst);
    // StateSeqCst: the probe loads themselves must be seq_cst so they are
    // ordered after the caller's seq_cst state RMW in the SC total order
    // (a plain load on x86). Otherwise relaxed suffices - the fence or the
    // mutex supplies the ordering.
    const std::memory_order Probe = Order == NotifyOrder::StateSeqCst
                                        ? std::memory_order_seq_cst
                                        : std::memory_order_relaxed;
    std::vector<Task *> ToWake;
    bool Scanned = false;
    if (Bucket0.Count.load(Probe) != 0) {
      collectBucket(Bucket0, ToWake);
      Scanned = true;
    }
    if (KeyBucket *KB = KeyBuckets.load(std::memory_order_acquire))
      for (unsigned I = 0; I < NumKeyBuckets; ++I)
        if (KB[I].Count.load(Probe) != 0) {
          collectBucket(KB[I], ToWake);
          Scanned = true;
        }
    if (SizeWaiters *L = SizeList.load(std::memory_order_acquire))
      if (L->MinWatermark.load(Probe) != UINT64_MAX) {
        collectSize(*L, ToWake);
        Scanned = true;
      }
    if (!Scanned) {
      obs::count(obs::Event::NotifySkips);
      return;
    }
    dispatchWakes(Waker, ToWake);
  }

  /// Targeted notify for a delta that bound key \p KeyHash and grew the
  /// structure to \p NewSize: scans only the default bucket (usually
  /// empty), the one key bucket this delta can satisfy, and - only when
  /// the smallest parked watermark is reached - the size heap.
  void notifyDelta(Task *Waker, uint64_t KeyHash, uint64_t NewSize) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::vector<Task *> ToWake;
    bool Scanned = false;
    if (Bucket0.Count.load(std::memory_order_relaxed) != 0) {
      collectBucket(Bucket0, ToWake);
      Scanned = true;
    }
    if (KeyBucket *KB = KeyBuckets.load(std::memory_order_acquire)) {
      WaiterBucket &B = KB[KeyHash & (NumKeyBuckets - 1)];
      if (B.Count.load(std::memory_order_relaxed) != 0) {
        collectBucket(B, ToWake);
        Scanned = true;
      }
    }
    if (SizeWaiters *L = SizeList.load(std::memory_order_acquire))
      if (NewSize >= L->MinWatermark.load(std::memory_order_relaxed)) {
        collectSize(*L, ToWake);
        Scanned = true;
      }
    if (!Scanned) {
      obs::count(obs::Event::NotifySkips);
      return;
    }
    dispatchWakes(Waker, ToWake);
  }

  /// Targeted notify for a capacity credit (a BoundedStream consumer's
  /// advance): scans only the producer bucket named by \p KeyHash and
  /// routes the resume-order choice through ScheduleCtl::onBackpressure
  /// (its own decision kind) instead of onPick. Credit wakes are not
  /// threshold reads, so ThresholdWakeups is deliberately not counted
  /// here; the released producers count BackpressureParks on resume.
  void notifyCredit(Task *Waker, uint64_t KeyHash) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    KeyBucket *KB = KeyBuckets.load(std::memory_order_acquire);
    if (!KB) {
      obs::count(obs::Event::NotifySkips);
      return;
    }
    WaiterBucket &B = KB[KeyHash & (NumKeyBuckets - 1)];
    if (B.Count.load(std::memory_order_relaxed) == 0) {
      obs::count(obs::Event::NotifySkips);
      return;
    }
    std::vector<Task *> ToWake;
    collectBucket(B, ToWake);
    if (ToWake.empty())
      return;
    if (ToWake.size() > 1)
      ToWake.front()->Sched->explorePermute(
          ToWake, &explore::ScheduleCtl::onBackpressure);
    for (Task *T : ToWake)
      T->Sched->wake(T, Waker);
  }

  /// The always-present default shard.
  mutable WaiterBucket Bucket0;

  /// The default bucket's mutex, which mutex-guarded structures (IVar,
  /// PureLVar) also use as their state lock: their awaiters park in the
  /// default bucket, so tryCapture always runs under the state lock.
  /// (A reference, not a mutex: declared after Bucket0 so it binds to a
  /// constructed member, and usable from const methods unlike a direct
  /// alias through `this`.)
  std::mutex &WaitMutex;

  /// RAII guard for \c WaitMutex, exported so mutex-guarded structures
  /// outside the trusted core layer (Stream) can take the state lock
  /// without naming a raw sync primitive themselves - the lock they take
  /// is still this base's, never a new one, which is exactly what the
  /// raw-sync analyzer rule is guarding.
  using StateGuard = std::lock_guard<std::mutex>;

private:
  /// Key-bucket fan-out; power of two. 16 shards keeps the per-LVar lazy
  /// allocation at one cache line per shard while cutting the put-side
  /// scan by the same factor.
  static constexpr unsigned NumKeyBuckets = 16;
  /// Task::ParkedSlot encoding: 0 = default bucket, 1..NumKeyBuckets =
  /// key bucket index + 1, SlotSize = the size heap.
  static constexpr uint32_t SlotDefault = 0;
  static constexpr uint32_t SlotSize = ~0u;

  struct SizeWaiter {
    uint64_t Threshold;
    WaiterEntry E;
  };
  struct ThresholdGreater {
    bool operator()(const SizeWaiter &A, const SizeWaiter &B) const {
      return A.Threshold > B.Threshold; // std::*_heap => min-heap.
    }
  };
  /// The waitSize shard: a min-heap on the parked thresholds plus the
  /// smallest one mirrored in an atomic, so a put below every parked
  /// watermark skips the lock entirely.
  struct alignas(64) SizeWaiters {
    std::mutex Mu;
    std::vector<SizeWaiter> Heap;
    std::atomic<uint64_t> MinWatermark{UINT64_MAX};
  };

  /// A key bucket: one cache line each, so puts on different keys do not
  /// false-share a lock. Only the lazily allocated array pays the
  /// over-alignment.
  struct alignas(64) KeyBucket : WaiterBucket {};

  /// The non-size bucket named by \p Slot (Task::ParkedSlot encoding).
  WaiterBucket &bucketAt(uint32_t Slot) {
    if (Slot == SlotDefault)
      return Bucket0;
    assert(Slot - 1 < NumKeyBuckets && "corrupt waiter slot");
    return keyBuckets()[Slot - 1];
  }

  /// The lock guarding \p Slot's waiters, allocating its shard on first
  /// use.
  std::mutex &slotMutex(uint32_t Slot) {
    return Slot == SlotSize ? sizeList().Mu : bucketAt(Slot).Mu;
  }

  /// The one publish-then-recheck (see file comment), for parkGet's miss
  /// and for a worker publishing its lazy waits. Runs under
  /// slotMutex(W.Slot), after a probe of W's threshold missed. Returns
  /// true if W's task is parked, false if the recheck captured (the entry
  /// is withdrawn and the task stays runnable).
  bool publishPark(const LazyWait &W) {
    Task *T = W.Owner;
    const WaiterEntry Entry{T, W.Awaiter, W.TryCapture};
    if (W.Slot == SlotSize) {
      SizeWaiters &L = *SizeList.load(std::memory_order_relaxed);
      // Entry and lowered watermark first, fence, then the re-check.
      L.Heap.push_back(SizeWaiter{W.Threshold, Entry});
      const uint64_t OldMark = L.MinWatermark.load(std::memory_order_relaxed);
      if (W.Threshold < OldMark)
        L.MinWatermark.store(W.Threshold, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (W.TryCapture(W.Awaiter)) {
        L.Heap.pop_back(); // Withdraw: the push had not been heapified yet.
        if (W.Threshold < OldMark)
          L.MinWatermark.store(OldMark, std::memory_order_relaxed);
        return false;
      }
      std::push_heap(L.Heap.begin(), L.Heap.end(), ThresholdGreater{});
    } else {
      WaiterBucket &B = bucketAt(W.Slot);
      B.Waiters.push_back(Entry);
      B.Count.fetch_add(1, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (W.TryCapture(W.Awaiter)) {
        B.Waiters.pop_back(); // Withdraw our own (still last) entry.
        B.Count.fetch_sub(1, std::memory_order_release);
        return false;
      }
    }
    T->ParkedOn = this;
    T->ParkedSlot = W.Slot;
    // Park bookkeeping last, under the lock (session-quiescence protocol).
    T->Sched->onTaskParked(T);
    return true;
  }

  /// Lazily allocates the key-bucket array (first key park only; LVars
  /// that never park a per-key read - the bump-heavy PhyBin case, plain
  /// futures - never pay for it). Bucket0.Mu doubles as the allocation
  /// lock.
  KeyBucket *keyBuckets() {
    KeyBucket *P = KeyBuckets.load(std::memory_order_acquire);
    if (P)
      return P;
    std::lock_guard<std::mutex> Lock(Bucket0.Mu);
    P = KeyBuckets.load(std::memory_order_relaxed);
    if (!P) {
      P = new KeyBucket[NumKeyBuckets];
      KeyBuckets.store(P, std::memory_order_release);
    }
    return P;
  }

  /// Lazily allocates the size-waiter heap (first waitSize park only).
  SizeWaiters &sizeList() {
    SizeWaiters *P = SizeList.load(std::memory_order_acquire);
    if (P)
      return *P;
    std::lock_guard<std::mutex> Lock(Bucket0.Mu);
    P = SizeList.load(std::memory_order_relaxed);
    if (!P) {
      P = new SizeWaiters();
      SizeList.store(P, std::memory_order_release);
    }
    return *P;
  }

  /// Locks one bucket and moves its satisfied waiters into \p ToWake.
  void collectBucket(WaiterBucket &B, std::vector<Task *> &ToWake) {
    std::lock_guard<std::mutex> Lock(B.Mu);
    if (B.Waiters.empty())
      return;
    obs::count(obs::Event::BucketScans);
    for (auto It = B.Waiters.begin(); It != B.Waiters.end();)
      if (It->TryCapture(It->Awaiter)) {
        It->Owner->ParkedOn = nullptr;
        ToWake.push_back(It->Owner);
        It = B.Waiters.erase(It);
        B.Count.fetch_sub(1, std::memory_order_release);
      } else {
        ++It;
      }
  }

  /// Pops satisfied size waiters in ascending-threshold order. Stops at
  /// the first unsatisfied threshold: size waiters are monotone in N (the
  /// WaitSlot::size contract), so nothing above the heap top can fire.
  void collectSize(SizeWaiters &L, std::vector<Task *> &ToWake) {
    std::lock_guard<std::mutex> Lock(L.Mu);
    if (L.Heap.empty())
      return;
    obs::count(obs::Event::BucketScans);
    while (!L.Heap.empty()) {
      WaiterEntry &Top = L.Heap.front().E;
      if (!Top.TryCapture(Top.Awaiter))
        break;
      Top.Owner->ParkedOn = nullptr;
      ToWake.push_back(Top.Owner);
      std::pop_heap(L.Heap.begin(), L.Heap.end(), ThresholdGreater{});
      L.Heap.pop_back();
    }
    L.MinWatermark.store(L.Heap.empty() ? UINT64_MAX
                                        : L.Heap.front().Threshold,
                         std::memory_order_relaxed);
  }

  /// Releases a collected wake batch; a multi-task wakeup is a scheduling
  /// decision point, so in explore mode the controller chooses the order.
  void dispatchWakes(Task *Waker, std::vector<Task *> &ToWake) {
    if (ToWake.empty())
      return;
    obs::count(obs::Event::ThresholdWakeups, ToWake.size());
    if (ToWake.size() > 1)
      ToWake.front()->Sched->explorePermute(ToWake,
                                             &explore::ScheduleCtl::onPick);
    for (Task *T : ToWake)
      T->Sched->wake(T, Waker);
  }

  mutable std::atomic<KeyBucket *> KeyBuckets{nullptr};
  mutable std::atomic<SizeWaiters *> SizeList{nullptr};
  std::atomic<bool> Frozen{false};
  uint64_t Session;
  std::string DbgName;
};

/// Reports a state-changing put on a frozen LVar: the deterministic error
/// of the quasi-deterministic fragment (Kuper et al., POPL 2014). Raised
/// as a session Fault (code put_after_freeze) attributed to \p Writer and
/// \p LV; aborts only outside a session.
[[noreturn]] inline void putAfterFreezeError(Task *Writer,
                                             const LVarBase *LV) {
  detail::raiseSessionFault(Writer, FaultCode::PutAfterFreeze,
                            "put changed the state of a frozen LVar "
                            "(quasi-determinism violation)",
                            LV ? LV->debugName() : nullptr);
}

namespace detail {

/// One handler registration: what a put that changed a handled LVar's
/// state calls with its delta. HandlerPool.h has the two kinds addHandler
/// makes; each is typed on its callback, so a delivery is one virtual
/// call and no type-erased wrapper.
template <typename Delta> class HandlerReg {
public:
  HandlerReg() = default;
  HandlerReg(const HandlerReg &) = delete;
  HandlerReg &operator=(const HandlerReg &) = delete;
  virtual ~HandlerReg() = default;
  /// Runs inside the put's gate fast section, or inside the registration
  /// replay, on the putting (or registering) task's thread.
  virtual void operator()(const Delta &D) = 0;
};

} // namespace detail

/// An LVar with latent event handlers over deltas of type \p Delta: the
/// handler half of the one core. A put that changed the state calls
/// \c deliver inside its gate fast section; \c addHandlerRaw appends on
/// the slow side and replays the current contents through the structure's
/// \c replayTo. HandlerPool's addHandler plugs into any such LVar.
template <typename Delta> class HandledLVar : public LVarBase {
public:
  using DeltaType = Delta;
  using Handler = detail::HandlerReg<Delta>;

  using LVarBase::LVarBase;

  /// Registers \p H and delivers every state already present to it once;
  /// every later change then reaches it through \c deliver. Exactly-once:
  /// no put is between its state change and its delivery while this runs.
  void addHandlerRaw(std::shared_ptr<Handler> H, Task *Registrar) {
    checkSession(Registrar);
    AsymmetricGate::SlowGuard Gate(HandlerGate);
    Handlers.push_back(std::move(H));
    replayTo(*Handlers.back());
  }

protected:
  /// Footnote-6 gate: puts take the fast side; handler registration takes
  /// the slow side. See src/support/AsymmetricGate.h.
  AsymmetricGate HandlerGate;

  /// Delivers the current contents to a newly registered handler. Runs on
  /// the gate's slow side, so no put is in flight.
  virtual void replayTo(Handler &H) = 0;

  /// Lets a put skip building a delta nobody receives.
  bool hasHandlers() const { return !Handlers.empty(); }

  /// Hands \p D to every registered handler. Call only between the put's
  /// \c AsymmetricGate::FastGuard and its release.
  void deliver(const Delta &D) const {
    for (const std::shared_ptr<Handler> &H : Handlers)
      (*H)(D);
  }

private:
  /// Guarded by HandlerGate alone: written only on the slow side, read
  /// only on the fast side, and the gate excludes the two. The ordering
  /// behind that: \c exitSlow's release store of the slow flag pairs with
  /// the seq_cst flag load in \c enterFast, so a put entering after a
  /// registration sees the appended handler; \c exitFast's release
  /// decrement pairs with the seq_cst slot scan in \c enterSlow, so a
  /// registration appends only after every earlier put's reads of the
  /// list are done. Shared, not owned: a pending flush or handler task
  /// keeps its registration alive after the LVar is gone.
  std::vector<std::shared_ptr<Handler>> Handlers;
};

/// The one blocking threshold read. \p ProbeT is a callable evaluating the
/// threshold against the LVar's current state: it returns \c bool (the
/// read yields nothing) or \c std::optional<R> (the read yields the R it
/// captured). It is a template parameter, not a type-erased callable,
/// because parks sit on hot paths (one per blocked get).
///
/// The probe runs under the lock of the waiter bucket the read parks in
/// (parkGet's re-check and every notify's scan). For the default bucket
/// that lock is WaitMutex - the state lock of IVar and PureLVar - so their
/// probes read the state directly and must never call a method that takes
/// WaitMutex (their peek() would self-deadlock). A size-slot probe must be
/// exactly "current size >= N" (see WaitSlot::size).
template <typename ProbeT> class ThresholdAwaiter {
  using ProbeResult = std::invoke_result_t<ProbeT &>;
  static constexpr bool YieldsNothing = std::is_same_v<ProbeResult, bool>;
  struct Nothing {};

public:
  ThresholdAwaiter(LVarBase &LV, Task *Reader, WaitSlot Slot, ProbeT Probe)
      : Var(LV), Tsk(Reader), Slot(Slot), Probe(std::move(Probe)) {}

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> H) {
    return Var.parkGet(Tsk, H, this, Slot);
  }
  auto await_resume() {
    if constexpr (!YieldsNothing)
      return std::move(*Out);
  }

  /// Called under the bucket lock by parkGet and the notify scans.
  bool tryCapture() {
    if constexpr (YieldsNothing) {
      return Probe();
    } else {
      Out = Probe();
      return Out.has_value();
    }
  }

private:
  LVarBase &Var;
  Task *Tsk;
  WaitSlot Slot;
  ProbeT Probe;
  [[no_unique_address]] std::conditional_t<YieldsNothing, Nothing,
                                           ProbeResult> Out;
};

/// An LVar whose key count is a monotone, lock-free threshold surface
/// (ISet, IMap, MinMap).
template <typename LVarT>
concept SizedLVar = std::derived_from<LVarT, LVarBase> &&
                    requires(const LVarT &LV) {
                      { LV.sizeNow() } -> std::convertible_to<size_t>;
                    };

/// Blocks until \p LV holds at least \p N elements; returns nothing (the
/// exact size is not observable).
template <EffectSet E, SizedLVar LVarT>
  requires(hasGet(E))
auto waitSize(ParCtx<E> Ctx, LVarT &LV, size_t N) {
  return ThresholdAwaiter(LV, Ctx.task(), WaitSlot::size(N),
                          [&LV, N] { return LV.sizeNow() >= N; });
}

} // namespace lvish

#endif // LVISH_CORE_LVARBASE_H
