//===- SessionFault.cpp - In-session fault raising ------------------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "src/sched/FaultSignal.h"

#include "src/sched/Scheduler.h"
#include "src/sched/Task.h"
#include "src/support/Assert.h"

#include <string>

using namespace lvish;

void lvish::detail::raiseSessionFault(Task *T, FaultCode Code,
                                      const char *Msg,
                                      const char *LVarName) {
  if (!T || !T->Sched) {
    // No session to contain into (external/session-setup context): the
    // legacy deterministic abort is all that is left.
    fatalError(Msg); // lvish-lint: allow(fatal)
  }

  Fault F;
  F.Code = Code;
  F.Pedigree = T->pedigreeString();
  F.LVarName = LVarName ? LVarName : "";
  F.SessionId = T->SessionId;
  F.Worker = Scheduler::currentWorkerIndex();

  // Satellite of the fault model: every diagnostic carries the fault
  // code, LVar debug name, session id, worker id, and task pedigree.
  F.Message = Msg;
  F.Message += " [code=";
  F.Message += faultCodeName(Code);
  F.Message += ", lvar=";
  F.Message += LVarName ? LVarName : "<unnamed>";
  F.Message += ", session=";
  F.Message += std::to_string(F.SessionId);
  F.Message += ", worker=";
  F.Message += std::to_string(F.Worker);
  F.Message += ", pedigree=";
  F.Message += F.Pedigree.empty() ? "<root>" : F.Pedigree.c_str();
  F.Message += "]";

  T->Sched->raiseFault(std::move(F));
  // Unwind the faulting coroutine; its promise's unhandled_exception marks
  // the task FaultPoisoned and the final awaiter retires it.
  throw FaultSignal{}; // lvish-lint: allow(no-throw)
}
