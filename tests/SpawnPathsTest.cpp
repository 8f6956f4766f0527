//===- SpawnPathsTest.cpp - Every spawn site sets a task up the same way ---===//
//
// Every task is created by one routine, detail::launchTask. For each of
// the six ways a task comes to exist - fork, a per-delta handler task, a
// batched handler flush task, forkCancelable, forkWithDeadlockDetection
// and a session root - this checks what the new task carries while its
// body runs:
//
//  * its declared effect mask (LVISH_CHECK builds only; the field is
//    unused otherwise);
//  * its exact scope list: the parent's, plus the spawn site's own;
//  * its cancellation node: inherited, except under forkCancelable, where
//    it is the future's fresh node;
//  * its session id, and its pedigree: L appended to the child's, R to
//    the parent's.
//
// A last case drops every user reference to a handler pool while handler
// tasks are still pending: the tasks' scope lists must keep the pool alive
// until they have run, and release it after.
//
// tools/ci.sh's tsan stage re-runs this binary on its own.
//
//===----------------------------------------------------------------------===//

#include "src/core/LVish.h"
#include "src/data/ISet.h"
#include "src/sched/Scheduler.h"
#include "src/sched/Task.h"
#include "src/sched/TaskScope.h"
#include "src/trans/Cancel.h"
#include "src/trans/Deadlock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

using namespace lvish;

namespace {

constexpr EffectSet D = Eff::Det;

/// What a task carried at one point of its run. The pointers only name
/// objects for comparison: the run has freed them by the time the test
/// compares, so everything read through them is copied here first.
struct Seen {
  uint8_t DeclaredFx = 0;
  std::vector<const TaskScope *> Scopes;
  std::vector<TaskScope::Mode> ScopeModes;
  const CancelNode *Cancel = nullptr;
  uint64_t SessionId = 0;
  const SessionState *Session = nullptr;
  uint64_t SessionStateId = 0;
  const CancelNode *SessionCancelRoot = nullptr;
  std::string Pedigree;
};

Seen see(const Task *T) {
  Seen S;
  S.DeclaredFx = T->DeclaredFx;
  for (const std::shared_ptr<TaskScope> &Sc : T->Scopes) {
    S.Scopes.push_back(Sc.get());
    S.ScopeModes.push_back(Sc->mode());
  }
  S.Cancel = T->Cancel;
  S.SessionId = T->SessionId;
  S.Session = T->Session;
  S.SessionStateId = T->Session->Id;
  S.SessionCancelRoot = T->Session->CancelRoot.get();
  S.Pedigree = T->pedigreeString();
  return S;
}

constexpr TaskScope::Mode Runnable = TaskScope::Mode::Runnable;
constexpr TaskScope::Mode Live = TaskScope::Mode::Live;

/// The parent just before and just after a spawn, and the child.
struct Spawn {
  Seen Before, After, Child;
};

/// Checks what every spawn kind shares: the child runs in its parent's
/// session at effect mask \p Fx, and the spawn split the pedigree.
void expectChildOf(const Spawn &S, uint8_t Fx) {
  if (LVISH_CHECK) {
    EXPECT_EQ(S.Child.DeclaredFx, Fx);
  }
  EXPECT_EQ(S.Child.SessionId, S.Before.SessionId);
  EXPECT_EQ(S.Child.Session, S.Before.Session);
  EXPECT_EQ(S.Child.Pedigree, S.Before.Pedigree + "L");
  EXPECT_EQ(S.After.Pedigree, S.Before.Pedigree + "R");
}

TEST(SpawnPaths, SessionRootTakesItsSessionsState) {
  Seen Root;
  runPar<D>([Out = &Root](ParCtx<D> Ctx) -> Par<void> {
    *Out = see(Ctx.task());
    co_return;
  });
  if (LVISH_CHECK) {
    EXPECT_EQ(Root.DeclaredFx, check::effectMask(D));
  }
  EXPECT_TRUE(Root.Scopes.empty());
  EXPECT_EQ(Root.SessionId, Root.SessionStateId);
  EXPECT_EQ(Root.Cancel, Root.SessionCancelRoot);
  EXPECT_EQ(Root.Pedigree, "");
}

TEST(SpawnPaths, ForkInheritsScopesAndCancelNode) {
  Spawn S;
  runPar<D>([Out = &S](ParCtx<D> Ctx) -> Par<void> {
    Out->Before = see(Ctx.task());
    fork(Ctx, [Out](ParCtx<D> C) -> Par<void> {
      Out->Child = see(C.task());
      co_return;
    });
    Out->After = see(Ctx.task());
    co_return;
  });
  expectChildOf(S, check::effectMask(D));
  EXPECT_EQ(S.Child.Scopes, S.Before.Scopes);
  EXPECT_EQ(S.Child.Cancel, S.Before.Cancel);
}

TEST(SpawnPaths, DeadlockScopeAddsItsTwoScopes) {
  // The outer deadlock scope gives the inner spawn a non-empty inherited
  // list, so "inherited plus own" is checked, not just "own".
  Spawn Outer, Inner, Fork;
  runPar<D>([&Outer, &Inner, &Fork](ParCtx<D> Ctx) -> Par<void> {
    auto InnerBody = [&Inner, &Fork](ParCtx<D> C) -> Par<void> {
      Inner.Child = see(C.task());
      Fork.Before = see(C.task());
      fork(C, [&Fork](ParCtx<D> G) -> Par<void> {
        Fork.Child = see(G.task());
        co_return;
      });
      Fork.After = see(C.task());
      co_return;
    };
    auto OuterBody = [&Outer, &Inner, InnerBody](ParCtx<D> C) -> Par<void> {
      Outer.Child = see(C.task());
      Inner.Before = see(C.task());
      DeadlockReport R = co_await forkWithDeadlockDetection(C, InnerBody);
      Inner.After = see(C.task());
      (void)R;
    };
    Outer.Before = see(Ctx.task());
    DeadlockReport R = co_await forkWithDeadlockDetection(Ctx, OuterBody);
    Outer.After = see(Ctx.task());
    (void)R;
  });
  expectChildOf(Outer, check::effectMask(D));
  EXPECT_EQ(Outer.Child.Cancel, Outer.Before.Cancel);
  ASSERT_EQ(Outer.Child.Scopes.size(), 2u);
  EXPECT_EQ(Outer.Child.ScopeModes,
            (std::vector<TaskScope::Mode>{Runnable, Live}));

  expectChildOf(Inner, check::effectMask(D));
  EXPECT_EQ(Inner.Child.Cancel, Inner.Before.Cancel);
  ASSERT_EQ(Inner.Child.Scopes.size(), 4u);
  EXPECT_EQ(Inner.Child.Scopes[0], Outer.Child.Scopes[0]);
  EXPECT_EQ(Inner.Child.Scopes[1], Outer.Child.Scopes[1]);
  EXPECT_EQ(Inner.Child.ScopeModes,
            (std::vector<TaskScope::Mode>{Runnable, Live, Runnable, Live}));
  EXPECT_NE(Inner.Child.Scopes[2], Outer.Child.Scopes[0]);
  EXPECT_NE(Inner.Child.Scopes[3], Outer.Child.Scopes[1]);

  // A fork under both scopes carries all four, once each.
  expectChildOf(Fork, check::effectMask(D));
  EXPECT_EQ(Fork.Child.Scopes, Inner.Child.Scopes);
  EXPECT_EQ(Fork.Child.Cancel, Inner.Child.Cancel);
}

TEST(SpawnPaths, ForkCancelableGetsAFreshCancelNode) {
  Spawn S;
  const CancelNode *FutureNode = nullptr;
  int V = runPar<D>([Out = &S, &FutureNode](ParCtx<D> Ctx) -> Par<int> {
    Out->Before = see(Ctx.task());
    auto F = forkCancelable(Ctx, [Out](ParCtx<Eff::ReadOnly> C) -> Par<int> {
      Out->Child = see(C.task());
      co_return 5;
    });
    Out->After = see(Ctx.task());
    FutureNode = F.node().get();
    int R = co_await readCFuture(Ctx, F);
    co_return R;
  });
  EXPECT_EQ(V, 5);
  expectChildOf(S, check::effectMask(Eff::ReadOnly));
  EXPECT_EQ(S.Child.Scopes, S.Before.Scopes);
  EXPECT_EQ(S.Child.Cancel, FutureNode);
  EXPECT_NE(S.Child.Cancel, S.Before.Cancel);
}

/// A handler callback on a uint64_t set that runs \p Body(C): a plain
/// call when \p Plain (batched, run by a flush task), else a Par (one
/// task per delta).
template <bool Plain, EffectSet HE, typename B> auto handlerOf(B Body) {
  if constexpr (Plain)
    return [Body](ParCtx<HE> C, const uint64_t &) { Body(C); };
  else
    return [Body](ParCtx<HE> C, const uint64_t &) -> Par<void> {
      Body(C);
      co_return;
    };
}

/// One handler task per delta (a Par callback), or one flush task per
/// armed batch (a plain one). Either way the task declares the handler's
/// effect level.
template <bool Plain> void expectHandlerSpawn() {
  Spawn S;
  const TaskScope *PoolScope = nullptr;
  runPar<D>(
      [Out = &S, &PoolScope](ParCtx<D> Ctx) -> Par<void> {
        auto Set = newISet<uint64_t>(Ctx);
        auto Pool = newPool(Ctx);
        PoolScope = &Pool->Scope;
        [[maybe_unused]] HandlerHandle H = addHandler(
            Ctx, Pool, *Set, handlerOf<Plain, D>([Out](ParCtx<D> C) {
              Out->Child = see(C.task());
            }));
        Out->Before = see(Ctx.task());
        insert(Ctx, *Set, uint64_t{7});
        Out->After = see(Ctx.task());
        co_await quiesce(Ctx, Pool);
      },
      SchedulerConfig{1});
  expectChildOf(S, check::effectMask(D));
  EXPECT_EQ(S.Child.Scopes, std::vector<const TaskScope *>{PoolScope});
  EXPECT_EQ(S.Child.Cancel, S.Before.Cancel);
}

TEST(SpawnPaths, PerDeltaHandlerTaskEntersThePoolScope) {
  expectHandlerSpawn</*Plain=*/false>();
}

TEST(SpawnPaths, BatchedFlushTaskEntersThePoolScope) {
  expectHandlerSpawn</*Plain=*/true>();
}

/// Pending handler tasks keep their pool alive once the program has
/// dropped the pool, its handle and the LVar holding the callbacks, and
/// free it once they are done. A Par handler first parks on a gate the
/// root fills only after dropping everything; a plain one cannot park, so
/// its flush task is simply still queued or running.
template <bool Plain> void expectPendingHandlersPinThePool() {
  constexpr uint64_t N = 64;
  for (unsigned W : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "workers=" << W);
    std::weak_ptr<HandlerPool> Weak;
    std::atomic<uint64_t> Ran{0}, Pinned{0};
    runPar<D>(
        [&Weak, &Ran, &Pinned](ParCtx<D> Ctx) -> Par<void> {
          auto Gate = newIVar<int>(Ctx);
          {
            auto Set = newISet<uint64_t>(Ctx);
            auto Pool = newPool(Ctx);
            Weak = Pool;
            std::weak_ptr<HandlerPool> W = Pool;
            auto Note = [W, &Ran, &Pinned] {
              Pinned.fetch_add(!W.expired());
              Ran.fetch_add(1);
            };
            HandlerHandle H = [&] {
              if constexpr (Plain)
                return addHandler(Ctx, Pool, *Set,
                                  [Note](ParCtx<D>, const uint64_t &) {
                                    Note();
                                  });
              else
                return addHandler(
                    Ctx, Pool, *Set,
                    [Gate, Note](ParCtx<D> C, const uint64_t &) -> Par<void> {
                      int G = co_await get(C, *Gate);
                      (void)G;
                      Note();
                    });
            }();
            for (uint64_t I = 0; I < N; ++I)
              insert(Ctx, *Set, I);
            // H, Pool and Set - the last owner of the callbacks - all go
            // out of scope here, with the handler tasks still pending.
          }
          put(Ctx, *Gate, 1);
          co_return;
        },
        SchedulerConfig{W});
    EXPECT_EQ(Ran.load(), N);
    EXPECT_EQ(Pinned.load(), N);
    EXPECT_TRUE(Weak.expired());
  }
}

TEST(SpawnPaths, PendingHandlerTasksPinTheirPool) {
  expectPendingHandlersPinThePool</*Plain=*/false>();
}

TEST(SpawnPaths, PendingFlushTasksPinTheirPool) {
  expectPendingHandlersPinThePool</*Plain=*/true>();
}

} // namespace
