//===- TaskScope.cpp - Counted task scopes with quiescence ----------------===//

#include "src/sched/TaskScope.h"

#include "src/sched/Scheduler.h"
#include "src/sched/Task.h"

#include <cassert>

using namespace lvish;

void TaskScope::exitOne() {
  if (Active.fetch_sub(1, std::memory_order_acq_rel) != 1)
    return;
  std::vector<Task *> ToWake;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Active.load(std::memory_order_acquire) != 0)
      return; // A racing enter() revived the scope.
    ToWake.swap(DrainWaiters);
    for (Task *T : ToWake)
      T->ParkedOn = nullptr;
  }
  // Drain order is a scheduling decision point: in explore mode the
  // controller chooses which quiesce waiter resumes first.
  if (ToWake.size() > 1)
    ToWake.front()->Sched->explorePermute(ToWake,
                                             &explore::ScheduleCtl::onPick);
  for (Task *T : ToWake)
    T->Sched->wake(T, Scheduler::currentTask());
}

bool TaskScope::parkUntilDrained(Task *Waiter) {
  assert(Waiter && "scope waiter must be a task");
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Active.load(std::memory_order_acquire) == 0)
    return false; // Already drained; caller must not suspend.
  DrainWaiters.push_back(Waiter);
  Waiter->ParkedOn = this;
  // Bookkeeping last, under the lock: once the pending-work count drops,
  // anyone observing quiescence must also observe this park (see
  // Scheduler.h session protocol).
  Waiter->Sched->onTaskParked(Waiter);
  return true;
}

void TaskScope::removeParkedTask(Task *T) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto It = DrainWaiters.begin(); It != DrainWaiters.end(); ++It)
    if (*It == T) {
      DrainWaiters.erase(It);
      T->ParkedOn = nullptr;
      return;
    }
}
