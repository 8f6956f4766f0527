//===- FaultSignal.h - In-session fault raising -----------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The containment half of the fault model (src/support/Fault.h): every
/// contract-violation site (conflicting put, put-after-freeze, cancel/read
/// conflict, checker violation, injected failure) calls
/// \c detail::raiseSessionFault instead of \c fatalError. The helper
///
///   1. formats the enriched diagnostic (fault code, LVar debug name,
///      session id, worker id, task pedigree),
///   2. records it as the session's fault via Scheduler::raiseFault (the
///      lattice-least fault wins under races, and the session's root
///      CancelNode is cancelled so remaining tasks are transitively
///      retired at their next poll point), and
///   3. throws \c FaultSignal, unwinding the faulting coroutine.
///
/// The promise's \c unhandled_exception (a \c Par's or a task root's)
/// catches the signal and \c detail::containException
/// (src/sched/Scheduler.h) marks the task \c FaultPoisoned; the final
/// awaiter then retires the whole task. Outside a session (no current task) the helper falls back
/// to the legacy process abort: there is no session to contain into.
///
/// FaultSignal is the one exception type lvish library code ever throws,
/// and it never escapes the scheduler: it is always caught by the promise
/// of the coroutine that triggered it.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_SCHED_FAULTSIGNAL_H
#define LVISH_SCHED_FAULTSIGNAL_H

#include "src/support/Fault.h"

namespace lvish {

class Task;

/// Thrown (and always re-caught inside the same task) after a fault has
/// been recorded; see file comment. Deliberately carries no payload - the
/// session's fault slot is the single source of truth.
struct FaultSignal {};

namespace detail {

/// Raises \p Code with base message \p Msg as the current session's fault
/// and unwinds by throwing FaultSignal; see file comment. \p T must be the
/// task executing this call (null falls back to fatalError). \p LVarName
/// is the faulting LVar's debug name, or null.
[[noreturn]] void raiseSessionFault(Task *T, FaultCode Code, const char *Msg,
                                    const char *LVarName = nullptr);

} // namespace detail
} // namespace lvish

#endif // LVISH_SCHED_FAULTSIGNAL_H
