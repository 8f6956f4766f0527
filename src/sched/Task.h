//===- Task.h - Scheduler task and per-task context -------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A \c Task is the scheduler's unit of work: one forked Par computation,
/// realized as a chain of C++20 coroutines. The task records where to
/// resume, its cancellation-tree node, the scopes that count it, and its
/// *layer stack* - the C++ rendition of the paper's Par-monad-transformer
/// stack. Every layer (implicit state, pedigree, RNG, ParST view, ...)
/// contributes one \c LayerState; at \c fork each layer splits its state
/// between parent and child, exactly like the paper's \c SplittableState
/// instance for \c StateT.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_SCHED_TASK_H
#define LVISH_SCHED_TASK_H

#include "src/sched/CancelNode.h"
#include "src/sched/ParkSite.h"
#include "src/sched/SessionState.h"
#include "src/support/Fault.h"
#include "src/support/Pedigree.h"

#include <coroutine>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace lvish {

class Scheduler;
class TaskScope;

/// One splittable layer of per-task implicit state; the C++ analogue of a
/// Par-monad transformer's per-computation payload. Layers nest: the stack
/// in \c Task::Layers is searched topmost-first, matching the innermost-
/// transformer-wins semantics of a Haskell transformer stack.
class LayerState {
public:
  virtual ~LayerState();

  /// Splits this layer's state for a fork: mutates the parent's copy (this)
  /// and returns the child's. Mirrors `splitState :: a -> (a,a)` where the
  /// parent keeps one half.
  virtual std::unique_ptr<LayerState> splitForChild() = 0;

  /// Identity key used to find a layer of a given kind on the stack. Each
  /// concrete layer returns the address of a static tag.
  virtual const void *typeKey() const = 0;
};

/// The scheduler's unit of work; see file comment. Tasks are owned by the
/// scheduler from creation to retirement; their storage comes from the
/// per-thread block cache (src/sched/BlockCache.h) that Par coroutine
/// frames also draw from, and every creation constructs a fresh Task in
/// it.
class alignas(64) Task {
public:
  Task() = default;
  Task(const Task &) = delete;
  Task &operator=(const Task &) = delete;

  /// The outermost coroutine of this task; destroying it unwinds the whole
  /// suspended chain (inner coroutines are owned by Par objects living in
  /// their awaiters' frames).
  std::coroutine_handle<> Root;

  /// The innermost suspended coroutine - what a worker resumes next.
  /// Updated by parking awaiters before the task becomes wakeable.
  std::coroutine_handle<> Resume;

  Scheduler *Sched = nullptr;

  /// Session id of the enclosing session; LVar accesses assert that the
  /// task's session matches the LVar's (the runtime check standing in for
  /// the paper's `s` type parameter).
  uint64_t SessionId = 0;

  /// Per-session accounting (pending count, fault slot, registry,
  /// quiescence CV/observer), borrowed: the scheduler's session table
  /// owns it and outlives every task of the session (see SessionState's
  /// lifetime paragraph). A session root is launched with it; children
  /// inherit it on fork.
  SessionState *Session = nullptr;

  /// Cancellation-tree node, borrowed from the session's cancel tree
  /// (always non-null once attached to a scheduler; a session root gets
  /// its session's CancelRoot).
  CancelNode *Cancel = nullptr;

  /// Scopes counting this task (handler pools, deadlock scopes), each at
  /// most once (see addScope); copied to children on fork, so the list is
  /// bounded by the number of distinct enclosing scopes, not by how many
  /// handler generations deep the task runs. Each entry owns its scope (a
  /// pool's entry aliases the pool), keeping it alive as long as this
  /// task - a parked task may be retired long after the scope's creator
  /// returned.
  std::vector<std::shared_ptr<TaskScope>> Scopes;

  /// Transformer layer stack; split per-layer on fork.
  std::vector<std::unique_ptr<LayerState>> Layers;

  /// Where this task is parked, if parked. Written under the park site's
  /// internal lock; read during quiescent reaping only.
  ParkSite *ParkedOn = nullptr;

  /// Which waiter bucket of ParkedOn holds this task's entry (LVarBase's
  /// slot encoding: 0 = default bucket, 1..N = key bucket, ~0u = size
  /// heap). Written with ParkedOn; lets reaping lock only one bucket.
  uint32_t ParkedSlot = 0;

  // -- Trace bookkeeping (only meaningful when tracing is enabled) --------
  uint32_t TraceId = ~0u;   ///< Task id in the trace recorder.
  uint32_t CurSlice = ~0u;  ///< Open slice id, ~0u when not in a slice.
  uint64_t SliceStart = 0;  ///< Start timestamp of the open slice.
  uint64_t SliceBytes = 0;  ///< noteBytes accumulated in the open slice.

  // -- Session registry links, set while parked (SessionState::TasksMutex) -
  Task *RegPrev = nullptr;
  Task *RegNext = nullptr;

  /// Debug invariant: a task must never be enqueued twice concurrently.
  std::atomic<uint8_t> DebugQueued{0};

  // -- Fork-tree pedigree (always on) -------------------------------------
  // A compact twin of the PedigreeT transformer layer (trans/Pedigree.h):
  // bit I is the I-th branch taken from the session root, 0 = Left (a
  // forked child), 1 = Right (the parent's continuation). Faults use it as
  // the task's deterministic identity; the LVISH_FAULTS harness uses it to
  // target injections; the explorer (src/explore) keys replay logs on it.
  // Maintained by Scheduler::createTask; mutating the parent there is safe
  // because fork runs on the parent's own thread. 256 recorded bits with
  // explicit saturation - see src/support/Pedigree.h.
  Pedigree Ped;

  /// Appends one branch (0 = Left, 1 = Right).
  void pedAppend(unsigned Bit) { Ped.append(Bit); }

  /// This task's pedigree as an L/R string ("" = session root).
  std::string pedigreeString() const { return Ped.render(); }

  // -- Fault containment (see src/sched/FaultSignal.h) --------------------
  /// Set by PromiseBase::unhandled_exception when a FaultSignal unwound
  /// this task's coroutine chain; the final awaiter then retires the task
  /// instead of resuming a continuation.
  bool FaultPoisoned = false;
  /// LVISH_FAULTS: this task was chosen by the active FaultPlan and raises
  /// an InjectedFailure at its next injection poll (put/park point).
  bool InjectDoomed = false;
  /// LVISH_FAULTS: per-task deterministic decision counter (spawn shims).
  uint64_t InjectClock = 0;

  // -- Effect-audit bookkeeping (see src/check/EffectAuditor.h) -----------
  // Plain bytes so this header needs no core/check types; only the task's
  // own (sequenced) execution mutates them. Meaningful only when the
  // LVISH_CHECK build flag is on; always present so toggling the flag
  // cannot change Task's ABI between TUs.
  uint8_t DeclaredFx = 63; ///< Effects the task's body was forked at.
  uint8_t BlessedFx = 0;   ///< Temporarily blessed trusted escapes.
  uint8_t PerformedFx = 0; ///< Effects actually observed at runtime.

  /// True if the cancellation tree above this task has been cancelled.
  bool isCancelled() const { return Cancel && !Cancel->isLive(); }

  /// Finds the topmost layer whose typeKey is \p Key, or null.
  LayerState *findLayer(const void *Key) {
    for (auto It = Layers.rbegin(), E = Layers.rend(); It != E; ++It)
      if ((*It)->typeKey() == Key)
        return It->get();
    return nullptr;
  }

  /// Makes \p S count this not-yet-scheduled task: appends \p S and
  /// enters it, unless the task already inherited \p S from its parent -
  /// then it is already counted once, and adding it again would only grow
  /// the list. Called by Scheduler::createTask for launchTask's Scopes.
  void addScope(const std::shared_ptr<TaskScope> &S);

  /// Scope notifications (bodies in Task.cpp to keep TaskScope out of this
  /// header). Park/unpark only affect Runnable-mode scopes; create/finish
  /// affect all scopes.
  void scopesOnPark();
  void scopesOnUnpark();
  void scopesOnCreate();
  void scopesOnFinish();
};

} // namespace lvish

#endif // LVISH_SCHED_TASK_H
