//===- Task.cpp - Scheduler task and per-task context --------------------===//

#include "src/sched/Task.h"

#include "src/sched/TaskScope.h"

using namespace lvish;

// Virtual-method anchors.
ParkSite::~ParkSite() = default;
LayerState::~LayerState() = default;

void Task::addScope(const std::shared_ptr<TaskScope> &S) {
  for (const std::shared_ptr<TaskScope> &Have : Scopes)
    if (Have == S)
      return;
  Scopes.push_back(S);
  S->enter();
}

void Task::scopesOnPark() {
  for (const std::shared_ptr<TaskScope> &S : Scopes)
    if (S->mode() == TaskScope::Mode::Runnable)
      S->exitOne();
}

void Task::scopesOnUnpark() {
  for (const std::shared_ptr<TaskScope> &S : Scopes)
    if (S->mode() == TaskScope::Mode::Runnable)
      S->enter();
}

void Task::scopesOnCreate() {
  for (const std::shared_ptr<TaskScope> &S : Scopes)
    S->enter();
}

void Task::scopesOnFinish() {
  // Live-mode scopes first: a Runnable scope's drain wakes a waiter that
  // may read a Live twin's count at once (DeadlockT's blocked-task
  // report), and a finished task must no longer be counted there.
  for (const std::shared_ptr<TaskScope> &S : Scopes)
    if (S->mode() != TaskScope::Mode::Runnable)
      S->exitOne();
  for (const std::shared_ptr<TaskScope> &S : Scopes)
    if (S->mode() == TaskScope::Mode::Runnable)
      S->exitOne();
}
