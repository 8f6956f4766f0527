//===- Fault.h - Session-scoped deterministic faults ------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deterministic fault model. The paper's quasi-determinism theorem
/// makes *error* a first-class outcome: a conflicting put, a
/// put-after-freeze, or a cancel/read conflict must produce the same error
/// on every run. Rather than aborting the process, a violation inside a
/// runPar session is recorded as a \c Fault, the session's remaining tasks
/// are transitively cancelled, and the session returns a
/// \c ParOutcome<T> holding the fault.
///
/// When several tasks fault concurrently, the session keeps the
/// *lattice-least* fault under \c faultLess: pedigrees ordered
/// lexicographically ('L' < 'R', ancestors before descendants - the
/// leftmost/outermost position in the fork tree), ties broken by code and
/// message. For a program with a single faulting site this is trivially
/// deterministic; with several *independent* faulting sites the winner is
/// deterministic whenever every faulting task actually reaches its fault
/// before cancellation, which the containment path does not guarantee -
/// see DESIGN.md section 8 for the exact contract.
///
/// The legacy value-returning runPar API is a thin wrapper that funnels
/// every abort through one choke point, \c ParOutcome::valueOrAbort.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_SUPPORT_FAULT_H
#define LVISH_SUPPORT_FAULT_H

#include "src/support/Assert.h"

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace lvish {

/// What kind of contract violation a Fault records. One code per
/// deterministic error in the effect zoo, plus the injection harness.
enum class FaultCode : uint8_t {
  ConflictingPut,      ///< IVar second put with a different value.
  ConflictingInsert,   ///< IMap rebind of an existing key to a new value.
  LatticeTop,          ///< PureLVar join reached the designated top.
  PutAfterFreeze,      ///< State-changing put on a frozen LVar.
  CancelReadConflict,  ///< A CFuture was both cancelled and read.
  DeadlockDrained,     ///< Root blocked forever; every other task finished.
  DeadlockLeakedTasks, ///< Root blocked forever; other tasks also blocked.
  CheckerViolation,    ///< A dynamic checker (src/check) fired in-session.
  InjectedFailure,     ///< Raised by the fault-injection harness.
  SessionRejected,     ///< Runtime admission refused the session (e.g. an
                       ///< explore-mode session on a busy shared Runtime).
  BudgetExceeded,      ///< The session burned through its deterministic
                       ///< step budget (SessionOptions::MaxSteps) and was
                       ///< cancelled by the scheduler.
  DeadlineExceeded,    ///< The session's wall-clock admission deadline
                       ///< (RuntimeConfig::SubmitDeadlineNanos) elapsed
                       ///< before a slot freed; it never ran.
  Shed,                ///< Overload shedding: the admission queue was at
                       ///< RuntimeConfig::MaxQueuedSessions, so the
                       ///< submission was refused immediately.
  RuntimeStopping,     ///< The Runtime was draining (Runtime::drain); the
                       ///< session was rejected instead of admitted.
  FutureConsumed,      ///< SessionFuture::get() called after the outcome
                       ///< was already consumed.
};

/// Stable lower-snake-case name (JSON/telemetry-friendly).
inline const char *faultCodeName(FaultCode C) {
  switch (C) {
  case FaultCode::ConflictingPut:
    return "conflicting_put";
  case FaultCode::ConflictingInsert:
    return "conflicting_insert";
  case FaultCode::LatticeTop:
    return "lattice_top";
  case FaultCode::PutAfterFreeze:
    return "put_after_freeze";
  case FaultCode::CancelReadConflict:
    return "cancel_read_conflict";
  case FaultCode::DeadlockDrained:
    return "deadlock_drained";
  case FaultCode::DeadlockLeakedTasks:
    return "deadlock_leaked_tasks";
  case FaultCode::CheckerViolation:
    return "checker_violation";
  case FaultCode::InjectedFailure:
    return "injected_failure";
  case FaultCode::SessionRejected:
    return "session_rejected";
  case FaultCode::BudgetExceeded:
    return "budget_exceeded";
  case FaultCode::DeadlineExceeded:
    return "deadline_exceeded";
  case FaultCode::Shed:
    return "shed";
  case FaultCode::RuntimeStopping:
    return "runtime_stopping";
  case FaultCode::FutureConsumed:
    return "future_consumed";
  }
  return "unknown";
}

// Pedigree rendering lives in src/support/Pedigree.h (Pedigree::render);
// Fault::Pedigree stores the rendered L/R string, not the bit path.

/// One contained contract violation; see file comment.
struct Fault {
  FaultCode Code = FaultCode::CheckerViolation;
  /// Full human-readable message, including the diagnostic suffix
  /// (code, LVar debug name, session, worker, pedigree).
  std::string Message;
  /// Faulting task's fork-tree pedigree ("" = the session root).
  std::string Pedigree;
  /// Debug name of the faulting LVar, when one was set ("" otherwise).
  std::string LVarName;
  uint64_t SessionId = 0;
  /// Worker that observed the fault, or -1 (diagnostic only; NOT part of
  /// the deterministic identity).
  int Worker = -1;
};

/// The deterministic "least fault" order: leftmost/outermost fork-tree
/// position first (lexicographic pedigree, 'L' < 'R' and prefixes first),
/// then code, then message. Worker/session never participate.
inline bool faultLess(const Fault &A, const Fault &B) {
  if (A.Pedigree != B.Pedigree)
    return A.Pedigree < B.Pedigree;
  if (A.Code != B.Code)
    return static_cast<uint8_t>(A.Code) < static_cast<uint8_t>(B.Code);
  return A.Message < B.Message;
}

/// Value-or-Fault result of a runPar session. \c tryRunPar and friends
/// return this; the legacy value-returning wrappers call \c valueOrAbort,
/// the single place where a contained fault still becomes a process abort.
template <typename T> class ParOutcome {
public:
  static ParOutcome success(T V) {
    ParOutcome O;
    O.Value.emplace(std::move(V));
    return O;
  }
  static ParOutcome failure(Fault F) {
    ParOutcome O;
    O.Failure.emplace(std::move(F));
    return O;
  }

  bool ok() const { return Value.has_value(); }
  explicit operator bool() const { return ok(); }

  T &value() & {
    assert(ok() && "ParOutcome::value() on a faulted outcome");
    return *Value;
  }
  const T &value() const & {
    assert(ok() && "ParOutcome::value() on a faulted outcome");
    return *Value;
  }
  T &&value() && {
    assert(ok() && "ParOutcome::value() on a faulted outcome");
    return std::move(*Value);
  }

  const Fault &fault() const {
    assert(!ok() && "ParOutcome::fault() on a successful outcome");
    return *Failure;
  }

  /// THE abort choke point: the only place a contained Fault turns back
  /// into the legacy process abort (every value-returning runPar wrapper
  /// ends here). New code should consume the outcome instead.
  T valueOrAbort() && {
    if (!Value)
      fatalError(Failure->Message.c_str());
    return std::move(*Value);
  }

private:
  ParOutcome() = default;
  std::optional<T> Value;
  std::optional<Fault> Failure;
};

/// Effect-only sessions: ok() or a Fault.
template <> class ParOutcome<void> {
public:
  static ParOutcome success() { return ParOutcome(); }
  static ParOutcome failure(Fault F) {
    ParOutcome O;
    O.Failure.emplace(std::move(F));
    return O;
  }

  bool ok() const { return !Failure.has_value(); }
  explicit operator bool() const { return ok(); }

  const Fault &fault() const {
    assert(!ok() && "ParOutcome::fault() on a successful outcome");
    return *Failure;
  }

  /// See ParOutcome<T>::valueOrAbort.
  void valueOrAbort() && {
    if (Failure)
      fatalError(Failure->Message.c_str());
  }

private:
  ParOutcome() = default;
  std::optional<Fault> Failure;
};

} // namespace lvish

#endif // LVISH_SUPPORT_FAULT_H
