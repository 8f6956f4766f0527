//===- ExploreRegressionTest.cpp - Pinned replay corpus ---------------------===//
//
// Known schedule-dependent races, each pinned to a committed replay string
// (DESIGN.md Section 12). Every entry must reproduce the same
// (FaultCode, pedigree) - and the same schedule hash, bit-for-bit - on
// every run, on every machine. If a scheduler change breaks a string, the
// corpus is regenerated (see EXPERIMENTS.md):
//
//   LVISH_EXPLORE_REGEN=1 ./ExploreRegressionTest --gtest_filter='*Regen*'
//
// and the printed lines are pasted over the Corpus table below.
//
//===----------------------------------------------------------------------===//

#include "src/core/HandlerPool.h"
#include "src/core/LVish.h"
#include "src/data/ISet.h"
#include "src/explore/Explorer.h"
#include "src/trans/Cancel.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace lvish;

namespace {

constexpr EffectSet IOE = Eff::FullIO;

// -- The race programs -----------------------------------------------------
// Each has at least two schedule-dependent outcomes; the corpus pins one
// specific failing interleaving of each.

/// Freeze races a forked put: ok:7 or put_after_freeze@L.
ParOutcome<int> putAfterFreeze(const RunOptions &Opts) {
  return tryRunParIO<IOE>(
      [](ParCtx<IOE> Ctx) -> Par<int> {
        auto LV = newPureLVar<MaxUint64Lattice>(Ctx);
        auto Putter = [LV](ParCtx<IOE> C) -> Par<void> {
          putPureLVar(C, *LV, 7);
          co_return;
        };
        fork(Ctx, Putter);
        co_await yield(Ctx);
        co_return static_cast<int>(freezePureLVar(Ctx, *LV));
      },
      Opts);
}

/// Two children race conflicting IVar puts: the second to run faults, so
/// the pedigree is "L" or "RL" depending on the schedule.
ParOutcome<int> conflictingIVarPut(const RunOptions &Opts) {
  return tryRunParIO<IOE>(
      [](ParCtx<IOE> Ctx) -> Par<int> {
        auto IV = newIVar<int>(Ctx, "contested");
        auto A = [IV](ParCtx<IOE> C) -> Par<void> {
          put(C, *IV, 1);
          co_return;
        };
        auto B = [IV](ParCtx<IOE> C) -> Par<void> {
          put(C, *IV, 2);
          co_return;
        };
        fork(Ctx, A);
        fork(Ctx, B);
        co_return co_await get(Ctx, *IV);
      },
      Opts);
}

/// Cancel-and-read: the root reads a cancellable future while a sibling
/// cancels it. Whichever side loses the race raises cancel_read_conflict,
/// so the fault pedigree is "<root>" or "RL" by schedule.
ParOutcome<int> cancelAndRead(const RunOptions &Opts) {
  return tryRunParIO<IOE>(
      [](ParCtx<IOE> Ctx) -> Par<int> {
        auto Fut = forkCancelable(
            Ctx, [](ParCtx<Eff::ReadOnly>) -> Par<int> { co_return 5; });
        auto Canceller = [Fut](ParCtx<IOE> C) -> Par<void> {
          cancel(C, Fut);
          co_return;
        };
        fork(Ctx, Canceller);
        co_await yield(Ctx);
        co_return co_await readCFuture(Ctx, Fut);
      },
      Opts);
}

/// Quiesce-vs-late-handler: the root freezes an ISet WITHOUT quiescing its
/// handler pool; a still-running cascade handler (8 -> 4 -> 2 -> 1) may
/// insert after the freeze (put_after_freeze), or the cascade may win
/// (ok:4). The paper's Section 2 quasi-determinism bug, distilled.
ParOutcome<int> quiesceVsLateHandler(const RunOptions &Opts) {
  // The handler below deliberately captures a raw pointer (capturing the
  // shared_ptr would form the LVar->handler->LVar cycle of DESIGN.md
  // section 11). The race under test is freeze-vs-insert, not lifetime,
  // so park a keepalive here: it outlives the root frame and is only
  // released once tryRunParIO has drained the whole session.
  std::shared_ptr<ISet<int>> Keep;
  return tryRunParIO<IOE>(
      [&Keep](ParCtx<IOE> Ctx) -> Par<int> {
        auto S = newISet<int>(Ctx);
        Keep = S;
        auto Pool = newPool(Ctx);
        ISet<int> *Raw = S.get();
        auto Handler = [Raw](ParCtx<IOE> C, const int &V) -> Par<void> {
          if (V > 1 && V % 2 == 0)
            insert(C, *Raw, V / 2);
          co_return;
        };
        [[maybe_unused]] HandlerHandle H = addHandler(Ctx, Pool, *S, Handler);
        insert(Ctx, *S, 8);
        co_await yield(Ctx); // NO quiesce: deliberately quasi-deterministic.
        auto Contents = freezeSet(Ctx, *S);
        co_return static_cast<int>(Contents.size());
      },
      Opts);
}

/// Wake-order conflict: two waiters parked on the same gate are woken in
/// an explorer-chosen order and race conflicting puts, so the losing
/// pedigree ("L" vs "RL") is decided by an onPick decision.
ParOutcome<int> wakeOrderConflict(const RunOptions &Opts) {
  return tryRunParIO<IOE>(
      [](ParCtx<IOE> Ctx) -> Par<int> {
        auto Gate = newIVar<int>(Ctx, "gate");
        auto Out = newIVar<int>(Ctx, "out");
        auto W1 = [Gate, Out](ParCtx<IOE> C) -> Par<void> {
          int G = co_await get(C, *Gate);
          put(C, *Out, G + 1);
        };
        auto W2 = [Gate, Out](ParCtx<IOE> C) -> Par<void> {
          int G = co_await get(C, *Gate);
          put(C, *Out, G + 2);
        };
        fork(Ctx, W1);
        fork(Ctx, W2);
        co_await yield(Ctx);
        put(Ctx, *Gate, 1);
        co_return co_await get(Ctx, *Out);
      },
      Opts);
}

/// Deterministic budget kill: a session with a step budget that yields
/// past it. Unlike the racy members above this fails on EVERY schedule -
/// its pin checks that the budget charge itself (DESIGN.md Section 16)
/// replays bit-for-bit: same code, same pedigree, same schedule hash.
ParOutcome<int> budgetBlown(const RunOptions &Opts) {
  RunOptions Budgeted = Opts;
  Budgeted.MaxSteps = 6;
  return tryRunParIO<IOE>(
      [](ParCtx<IOE> Ctx) -> Par<int> {
        for (int I = 0; I < 1'000'000; ++I)
          co_await yield(Ctx);
        co_return 0;
      },
      Budgeted);
}

// -- The pinned corpus -----------------------------------------------------

using ProgramFn = ParOutcome<int> (*)(const RunOptions &);

struct CorpusEntry {
  const char *Name;
  ProgramFn Program;
  /// Expected failureSig: "<faultCodeName>@<pedigree>".
  const char *Sig;
  /// Committed replay string (regenerate with LVISH_EXPLORE_REGEN=1).
  const char *Replay;
};

const CorpusEntry Corpus[] = {
    {"put-after-freeze", putAfterFreeze, "put_after_freeze@L",
     "lvx1:w2:h363e5e09db50bd26:1"},
    {"conflicting-ivar-put", conflictingIVarPut, "conflicting_put@L",
     "lvx1:w2:hbcda0170f8c4f3f6:"},
    {"cancel-and-read", cancelAndRead, "cancel_read_conflict@RL",
     "lvx1:w2:h106a61ca763e0408:0.1"},
    {"quiesce-vs-late-handler", quiesceVsLateHandler, "put_after_freeze@L",
     "lvx1:w2:h363e5e09db50bd26:1"},
    {"wake-order-conflict", wakeOrderConflict, "conflicting_put@L",
     "lvx1:w2:hca0c5031b25c0d34:0.0.0.0.1"},
    {"budget-blown", budgetBlown, "budget_exceeded@<root>",
     "lvx1:w2:h7bf4f9982d8025db:"},
};

TEST(ExploreRegressionTest, PinnedReplaysReproduce) {
  for (const CorpusEntry &E : Corpus) {
    SCOPED_TRACE(E.Name);
    auto Spec = explore::decodeReplay(E.Replay);
    ASSERT_TRUE(Spec.has_value()) << "corpus string does not decode";
    // "Every run": replay each pinned schedule several times in-process;
    // the whole TEST re-runs per ctest invocation across configs.
    for (int Rep = 0; Rep < 3; ++Rep) {
      bool BitIdentical = false;
      std::optional<Fault> Flt =
          explore::replaySession(E.Program, *Spec, &BitIdentical);
      ASSERT_TRUE(Flt.has_value()) << "rep " << Rep << ": no fault";
      EXPECT_EQ(explore::failureSig(*Flt), E.Sig) << "rep " << Rep;
      EXPECT_TRUE(BitIdentical)
          << "rep " << Rep << ": schedule hash diverged from the corpus";
    }
  }
}

TEST(ExploreRegressionTest, BudgetKillReplayIsBitIdentical) {
  // The ISSUE acceptance criterion, spelled out: two runs of the SAME
  // pinned replay string must produce the identical budget Fault - code,
  // pedigree, session id - and both runs' schedule hashes must match the
  // committed hash.
  const CorpusEntry *E = nullptr;
  for (const CorpusEntry &C : Corpus)
    if (std::string(C.Name) == "budget-blown")
      E = &C;
  ASSERT_NE(E, nullptr);
  auto Spec = explore::decodeReplay(E->Replay);
  ASSERT_TRUE(Spec.has_value());
  bool Bit1 = false, Bit2 = false;
  std::optional<Fault> F1 = explore::replaySession(E->Program, *Spec, &Bit1);
  std::optional<Fault> F2 = explore::replaySession(E->Program, *Spec, &Bit2);
  ASSERT_TRUE(F1.has_value());
  ASSERT_TRUE(F2.has_value());
  EXPECT_EQ(F1->Code, FaultCode::BudgetExceeded);
  EXPECT_EQ(F1->Code, F2->Code);
  EXPECT_EQ(F1->Pedigree, F2->Pedigree);
  EXPECT_EQ(F1->SessionId, F2->SessionId);
  EXPECT_EQ(F1->Message, F2->Message)
      << "the budget message embeds only deterministic fields";
  EXPECT_TRUE(Bit1);
  EXPECT_TRUE(Bit2) << "schedule hash diverged between two identical replays";
}

TEST(ExploreRegressionTest, CorpusRacesAreSearchFindable) {
  // Sanity on the corpus itself: each pinned race is still discoverable
  // by seeded search (i.e. the programs stayed racy; the corpus is not
  // pinning vacuous strings).
  for (const CorpusEntry &E : Corpus) {
    SCOPED_TRACE(E.Name);
    explore::SearchOptions O;
    O.Schedules = 200;
    O.Shrink = false;
    explore::SearchResult R = explore::searchPct(E.Program, O);
    EXPECT_TRUE(R.Failure.has_value())
        << "no failing schedule found in " << R.SchedulesRun;
  }
}

TEST(ExploreRegressionTest, RegenerateCorpus) {
  if (!std::getenv("LVISH_EXPLORE_REGEN"))
    GTEST_SKIP() << "set LVISH_EXPLORE_REGEN=1 to regenerate the corpus";
  for (const CorpusEntry &E : Corpus) {
    // Search until the EXPECTED signature is found (some programs fail
    // with several signatures; the corpus pins one per program).
    std::string Replay, GotSig;
    for (uint64_t Base = 0; Base < 64 && Replay.empty(); ++Base) {
      explore::SearchOptions O;
      O.Seed = 0x6c76697368ULL + Base * 1000;
      O.Schedules = 500;
      explore::SearchResult R = explore::searchPct(E.Program, O);
      if (!R.Failure)
        continue;
      GotSig = explore::failureSig(R.Failure->F);
      if (GotSig == E.Sig)
        Replay = R.Failure->Replay;
    }
    if (Replay.empty()) {
      ADD_FAILURE() << E.Name << ": wanted " << E.Sig << ", last got "
                    << GotSig;
      continue;
    }
    std::printf("    {\"%s\", %s, \"%s\",\n     \"%s\"},\n", E.Name,
                "<program>", E.Sig, Replay.c_str());
  }
  std::fflush(stdout);
}

} // namespace
