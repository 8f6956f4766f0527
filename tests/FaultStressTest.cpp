//===- FaultStressTest.cpp - Seeded fault-injection determinism ------------===//
//
// The fault-containment acceptance harness (DESIGN.md Section 8): the same
// program, run under many steal seeds, fault-plan seeds, and worker
// counts, must produce the *identical* outcome every time - the same
// value, or the same Fault (code + pedigree), with the process never
// aborting.
//
// The outcome-identity sweeps always run (they need no injection); the
// plan-driven tests are armed by configuring with -DLVISH_FAULTS=ON (the
// `faults` stage of tools/ci.sh) and skip cleanly otherwise.
//
//===----------------------------------------------------------------------===//

#include "src/core/LVish.h"
#include "src/core/ParFor.h"
#include "src/data/Counter.h"
#include "src/data/ISet.h"
#include "src/data/MinMap.h"
#include "src/data/Stream.h"
#include "src/data/UnionFind.h"
#include "src/fault/FaultPlan.h"
#include "src/obs/Telemetry.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace lvish;

namespace {

constexpr EffectSet D = Eff::Det;

SchedulerConfig cfg(unsigned Workers, uint64_t StealSeed) {
  SchedulerConfig C;
  C.NumWorkers = Workers;
  C.StealSeed = StealSeed;
  return C;
}

const unsigned WorkerCounts[] = {1, 2, 4};
const uint64_t PlanSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89}; // >= 8.

/// Canonical comparable rendering of an outcome: the value, or the
/// Fault's deterministic identity (code + pedigree + LVar name). The
/// worker index and the message's diagnostic suffix are deliberately NOT
/// part of the signature.
std::string sig(const ParOutcome<int> &O) {
  if (O.ok())
    return "ok:" + std::to_string(O.value());
  const Fault &F = O.fault();
  return std::string("fault:") + faultCodeName(F.Code) + ":pedigree=" +
         F.Pedigree + ":lvar=" + F.LVarName;
}

/// The canonical fork-tree program: forks \p Kids children off the root,
/// child i filling slot i with i*i; the root sums all slots. With no plan
/// installed this returns sum(i*i). Child i's creation pedigree is
/// "R"*i + "L" (the root moves one R per fork; each child descends L).
ParOutcome<int> fanOut(SchedulerConfig C, int Kids) {
  return tryRunPar<D>(
      [Kids](ParCtx<D> Ctx) -> Par<int> {
        std::vector<std::shared_ptr<IVar<int>>> Slots;
        for (int I = 0; I < Kids; ++I)
          Slots.push_back(newIVar<int>(Ctx, "slot"));
        for (int I = 0; I < Kids; ++I) {
          auto Slot = Slots[static_cast<size_t>(I)];
          auto Body = [Slot, I](ParCtx<D> C2) -> Par<void> {
            put(C2, *Slot, I * I);
            co_return;
          };
          fork(Ctx, Body);
        }
        int Sum = 0;
        for (int I = 0; I < Kids; ++I)
          Sum += co_await get(Ctx, *Slots[static_cast<size_t>(I)]);
        co_return Sum;
      },
      C);
}

/// Writes a doomed child can make without touching an IVar; each put entry
/// point must poll the LVISH_FAULTS plan itself.
enum class PollTarget {
  ISetAndCounter,
  MinMap,
  MinVec,
  CounterVec,
  Advance,
  UnionFind,
  /// putMinAt from a plain parallelFor leaf, run in the child's own task.
  ParallelForLeaf,
  /// putMinAt from a plain handler. Child i is not forked: it is the flush
  /// task the root's insert into a set watched by a fresh pool spawns, and
  /// the put runs inside the flush's loop over its deltas.
  PlainHandler
};

/// fanOut's fork tree, but child i writes only through \p Target. For
/// ISetAndCounter child i inserts i into an ISet and bumps a Counter by i,
/// and the root waits for all \p Kids elements, then for the counter to
/// reach sum(i), which it returns. For the other targets the root does not
/// wait (session quiescence joins the children) and returns \p Kids.
ParOutcome<int> pollFanOut(SchedulerConfig C, int Kids, PollTarget Target) {
  constexpr EffectSet DB = Eff::DetBump;
  return tryRunPar<DB>(
      [Kids, Target](ParCtx<DB> Ctx) -> Par<int> {
        auto Set = newISet<int>(Ctx);
        auto Ctr = newCounter(Ctx);
        auto Labels = newMinMap<int>(Ctx);
        auto Cells = newMinVec(Ctx, static_cast<size_t>(Kids));
        auto Bumps = newCounterVec(Ctx, static_cast<size_t>(Kids));
        auto Window = newBoundedStream<int>(Ctx, 1);
        auto Parts = newUnionFind(Ctx, static_cast<uint32_t>(Kids));
        for (int I = 0; I < Kids; ++I) {
          auto Body = [Set, Ctr, Labels, Cells, Bumps, Window, Parts, Target,
                       I](ParCtx<DB> C2) -> Par<void> {
            const auto U = static_cast<uint64_t>(I);
            switch (Target) {
            case PollTarget::ISetAndCounter:
              insert(C2, *Set, I);
              incrCounter(C2, *Ctr, U);
              break;
            case PollTarget::MinMap:
              putMin(C2, *Labels, I, U);
              break;
            case PollTarget::MinVec:
              putMinAt(C2, *Cells, static_cast<size_t>(I), U);
              break;
            case PollTarget::CounterVec:
              incrCounterAt(C2, *Bumps, static_cast<size_t>(I));
              break;
            case PollTarget::Advance:
              advance(C2, *Window, U + 1);
              break;
            case PollTarget::UnionFind:
              unite(C2, *Parts, 0, static_cast<uint32_t>(I));
              break;
            case PollTarget::ParallelForLeaf: {
              auto Leaf = [Cells, I](ParCtx<Eff::DetBump> C3, size_t J) {
                putMinAt(C3, *Cells, static_cast<size_t>(I), J + 1);
              };
              co_await parallelFor(C2, 0, 4, 4, Leaf);
              break;
            }
            case PollTarget::PlainHandler:
              break; // Not forked; see below.
            }
            co_return;
          };
          if (Target != PollTarget::PlainHandler) {
            fork(Ctx, Body);
            continue;
          }
          // The set and the pool go out of scope with the flush pending:
          // the flush's scope entry keeps the pool alive, and the batch
          // keeps the registration's deltas.
          auto Watched = newISet<int>(Ctx);
          auto Pool = newPool(Ctx);
          [[maybe_unused]] HandlerHandle H = addHandler(
              Ctx, Pool, *Watched, [Cells](ParCtx<DB> C, const int &V) {
                putMinAt(C, *Cells, static_cast<size_t>(V),
                         static_cast<uint64_t>(V));
              });
          insert(Ctx, *Watched, I);
        }
        if (Target != PollTarget::ISetAndCounter)
          co_return Kids;
        co_await waitSize(Ctx, *Set, static_cast<size_t>(Kids));
        const auto Sum = static_cast<uint64_t>(Kids * (Kids - 1) / 2);
        co_return static_cast<int>(co_await get(Ctx, *Ctr, Sum));
      },
      C);
}

/// A contract-violating program: the first-forked child conflicts with
/// the root's put, sequenced through a threshold read so the loser is
/// fixed by dataflow. Expected outcome under any schedule:
/// (conflicting_put, pedigree "L").
ParOutcome<int> conflictProgram(SchedulerConfig C) {
  return tryRunPar<D>(
      [](ParCtx<D> Ctx) -> Par<int> {
        auto IV = newIVar<int>(Ctx, "contested");
        auto Body = [IV](ParCtx<D> C2) -> Par<void> {
          int V = co_await get(C2, *IV);
          put(C2, *IV, V + 1);
        };
        fork(Ctx, Body);
        put(Ctx, *IV, 1);
        co_return co_await get(Ctx, *IV);
      },
      C);
}

/// Runs \p Program over every worker count and every seed in PlanSeeds
/// (used as steal seeds too) and asserts one identical outcome signature,
/// which must equal \p Expected.
template <typename ProgramT>
void sweepIdentical(ProgramT Program, const std::string &Expected) {
  for (unsigned W : WorkerCounts)
    for (uint64_t S : PlanSeeds) {
      ParOutcome<int> O = Program(cfg(W, S));
      EXPECT_EQ(sig(O), Expected)
          << "workers=" << W << " seed=" << S
          << (O.ok() ? "" : (" msg: " + O.fault().Message));
    }
}

// -- Always-on outcome-identity sweeps (no injection needed) ---------------

TEST(FaultStressTest, ValueIdenticalAcrossWorkersAndSeeds) {
  sweepIdentical([](SchedulerConfig C) { return fanOut(C, 6); },
                 "ok:55"); // 0+1+4+9+16+25.
}

TEST(FaultStressTest, FaultIdenticalAcrossWorkersAndSeeds) {
  sweepIdentical(conflictProgram,
                 "fault:conflicting_put:pedigree=L:lvar=contested");
}

// -- Plan-driven injection (LVISH_FAULTS builds; the `faults` CI stage) ----

TEST(FaultStressTest, TargetedFailureIdenticalAcrossSeeds) {
  if constexpr (!fault::InjectionEnabled) {
    GTEST_SKIP() << "configure with -DLVISH_FAULTS=ON";
  } else {
    // Doom exactly child #2 of the fan-out ("RRL"); every plan seed and
    // every worker count must contain the identical Fault, even with the
    // seeded delays perturbing the schedule around it.
    for (unsigned W : WorkerCounts)
      for (uint64_t S : PlanSeeds) {
        fault::FaultPlan Plan;
        Plan.Seed = S;
        Plan.HaveFailPedigree = true;
        Plan.FailPedigree = "RRL";
        Plan.DelayPeriod = 3;
        Plan.DelayNanos = 1000;
        fault::PlanScope Scope(Plan);
        ParOutcome<int> O = fanOut(cfg(W, S), 6);
        EXPECT_EQ(sig(O), "fault:injected_failure:pedigree=RRL:lvar=")
            << "workers=" << W << " seed=" << S;
      }
  }
}

TEST(FaultStressTest, DoomedWriterFailsAtEveryPutEntryPoint) {
  if constexpr (!fault::InjectionEnabled) {
    GTEST_SKIP() << "configure with -DLVISH_FAULTS=ON";
  } else {
    // Child #2 ("RRL") writes only to structures other than IVar; its
    // first put must still poll the plan and fail, identically for every
    // worker count and plan seed.
    const PollTarget Targets[] = {PollTarget::ISetAndCounter,
                                  PollTarget::MinMap, PollTarget::MinVec,
                                  PollTarget::CounterVec,
                                  PollTarget::Advance,
                                  PollTarget::UnionFind,
                                  PollTarget::ParallelForLeaf,
                                  PollTarget::PlainHandler};
    for (PollTarget Target : Targets) {
      const int T = static_cast<int>(Target);
      EXPECT_EQ(sig(pollFanOut(cfg(2, 1), 6, Target)),
                Target == PollTarget::ISetAndCounter ? "ok:15" : "ok:6")
          << "target=" << T << " without a plan";
      for (unsigned W : WorkerCounts)
        for (uint64_t S : PlanSeeds) {
          fault::FaultPlan Plan;
          Plan.Seed = S;
          Plan.HaveFailPedigree = true;
          Plan.FailPedigree = "RRL";
          fault::PlanScope Scope(Plan);
          ParOutcome<int> O = pollFanOut(cfg(W, S), 6, Target);
          EXPECT_EQ(sig(O), "fault:injected_failure:pedigree=RRL:lvar=")
              << "target=" << T << " workers=" << W << " seed=" << S;
        }
    }
  }
}

TEST(FaultStressTest, DelayOnlyPlanPreservesValues) {
  if constexpr (!fault::InjectionEnabled) {
    GTEST_SKIP() << "configure with -DLVISH_FAULTS=ON";
  } else {
    // Pure schedule perturbation: delays at steal/park/put points must
    // never change the value (they are non-semantic by construction).
    for (uint64_t S : PlanSeeds) {
      fault::FaultPlan Plan;
      Plan.Seed = S;
      Plan.DelayPeriod = 2;
      Plan.DelayNanos = 2000;
      fault::PlanScope Scope(Plan);
      ParOutcome<int> O = fanOut(cfg(4, S), 6);
      EXPECT_EQ(sig(O), "ok:55") << "seed=" << S;
    }
  }
}

TEST(FaultStressTest, ChaosPlanOutcomesAreWellFormed) {
  if constexpr (!fault::InjectionEnabled) {
    GTEST_SKIP() << "configure with -DLVISH_FAULTS=ON";
  } else {
    // Chaos mode dooms tasks by seeded pedigree hash. When several doomed
    // tasks race, cancellation may keep some from reaching their raise
    // point, so the *winning* fault is not schedule-identical (DESIGN.md
    // Section 8); what IS guaranteed is a well-formed outcome: the exact
    // fan-out value, or a contained injected failure. Never an abort.
    for (uint64_t S : PlanSeeds) {
      fault::FaultPlan Plan;
      Plan.Seed = S;
      Plan.FailHashPeriod = 2; // Doom roughly every second task.
      fault::PlanScope Scope(Plan);
      ParOutcome<int> O = fanOut(cfg(4, S), 6);
      if (O.ok()) {
        EXPECT_EQ(O.value(), 55) << "seed=" << S;
      } else {
        EXPECT_EQ(O.fault().Code, FaultCode::InjectedFailure)
            << "seed=" << S << " msg: " << O.fault().Message;
        EXPECT_NE(O.fault().Message.find("injected"), std::string::npos);
      }
    }
    // Same seed, same worker count: the doom set is a pure function of
    // the plan, so repeated runs of the single-doomed-task configuration
    // stay identical (covered by TargetedFailureIdenticalAcrossSeeds);
    // here we only re-run one chaos seed to confirm containment holds
    // under repetition.
    fault::FaultPlan Plan;
    Plan.Seed = 7;
    Plan.FailHashPeriod = 2;
    for (int I = 0; I < 4; ++I) {
      fault::PlanScope Scope(Plan);
      ParOutcome<int> O = fanOut(cfg(4, 7), 6);
      EXPECT_TRUE(O.ok() || O.fault().Code == FaultCode::InjectedFailure);
    }
  }
}

TEST(FaultStressTest, SpawnAllocationFailureIsDeterministic) {
  if constexpr (!fault::InjectionEnabled) {
    GTEST_SKIP() << "configure with -DLVISH_FAULTS=ON";
  } else {
    // AllocFailPeriod = 1 fails every spawn: the root's very first fork
    // raises in the root (pedigree ""), identically for every seed and
    // worker count.
    for (unsigned W : WorkerCounts)
      for (uint64_t S : PlanSeeds) {
        fault::FaultPlan Plan;
        Plan.Seed = S;
        Plan.AllocFailPeriod = 1;
        fault::PlanScope Scope(Plan);
        ParOutcome<int> O = fanOut(cfg(W, S), 6);
        EXPECT_EQ(sig(O), "fault:injected_failure:pedigree=:lvar=")
            << "workers=" << W << " seed=" << S;
      }
  }
}

// The discarded branch of a non-template `if constexpr` is still
// semantically checked, and the telemetry-off TelemetrySnapshot has no
// count(); this one needs the preprocessor.
#if LVISH_TELEMETRY
TEST(FaultStressTest, InjectionCountsInTelemetry) {
  if constexpr (!fault::InjectionEnabled) {
    GTEST_SKIP() << "configure with -DLVISH_FAULTS=ON";
  } else {
    obs::TelemetrySnapshot Before = obs::telemetrySnapshot();
    fault::FaultPlan Plan;
    Plan.Seed = 3;
    Plan.HaveFailPedigree = true;
    Plan.FailPedigree = "L";
    fault::PlanScope Scope(Plan);
    ParOutcome<int> O = fanOut(cfg(2, 3), 3);
    EXPECT_FALSE(O.ok());
    obs::TelemetrySnapshot After = obs::telemetrySnapshot();
    EXPECT_GE(After.count(obs::Event::InjectedFaults),
              Before.count(obs::Event::InjectedFaults) + 1);
    EXPECT_GE(After.count(obs::Event::FaultsRaised),
              Before.count(obs::Event::FaultsRaised) + 1);
    EXPECT_GE(After.count(obs::Event::FaultsContained),
              Before.count(obs::Event::FaultsContained) + 1);
  }
}
#else
TEST(FaultStressTest, InjectionCountsInTelemetry) {
  GTEST_SKIP() << "configure with -DLVISH_TELEMETRY=ON";
}
#endif

} // namespace
