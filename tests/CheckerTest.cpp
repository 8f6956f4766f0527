//===- CheckerTest.cpp - Dynamic determinism checkers ----------------------===//
//
// Tests for src/check/: the LatticeChecker (join laws, threshold-set
// incompatibility), the DisjointnessChecker (shadow interval map of ParST
// extents), and the EffectAuditor (declared-vs-performed effect masks).
// Each checker must catch a deliberately seeded violation, and the
// law-abiding equivalent must stay silent.
//
// Bodies are gated on LVISH_CHECK: in Release/RelWithDebInfo builds (where
// the checkers compile to nothing) the tests skip instead of failing, so
// the default tier-1 run stays green while the Debug configuration
// exercises everything.
//
//===----------------------------------------------------------------------===//

#include "src/core/LVish.h"
#include "src/data/Counter.h"
#include "src/trans/Transformers.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

using namespace lvish;

namespace {

constexpr EffectSet D = Eff::Det;

#if LVISH_CHECK

// -- Recording harness --------------------------------------------------

std::mutex RecMutex;
std::vector<std::pair<check::ViolationKind, std::string>> Recorded;

void recordViolation(const check::ViolationReport &R) {
  std::lock_guard<std::mutex> Lock(RecMutex);
  Recorded.emplace_back(R.Kind, std::string(R.Message));
}

/// Installs the recording handler (which also makes every sampled check
/// run), and clears every piece of global checker state between tests.
class CheckerTest : public ::testing::Test {
protected:
  void SetUp() override {
    {
      std::lock_guard<std::mutex> Lock(RecMutex);
      Recorded.clear();
    }
    Prev = check::setViolationHandler(&recordViolation);
    check::resetViolationCounts();
    check::DisjointnessChecker::instance().clearAllExtents();
  }
  void TearDown() override {
    check::setViolationHandler(Prev);
    check::resetViolationCounts();
    check::DisjointnessChecker::instance().clearAllExtents();
  }

  static size_t recordedCount(check::ViolationKind K) {
    std::lock_guard<std::mutex> Lock(RecMutex);
    size_t N = 0;
    for (const auto &R : Recorded)
      if (R.first == K)
        ++N;
    return N;
  }

  static bool recordedMessageContains(const char *Needle) {
    std::lock_guard<std::mutex> Lock(RecMutex);
    for (const auto &R : Recorded)
      if (R.second.find(Needle) != std::string::npos)
        return true;
    return false;
  }

  check::ViolationHandler Prev = nullptr;
};

// -- LatticeChecker -----------------------------------------------------

/// Deliberately broken: "first argument wins" is neither commutative nor
/// an upper bound of its operands.
struct FirstWinsLattice {
  using ValueType = int;
  static ValueType bottom() { return 0; }
  static ValueType join(ValueType A, ValueType B) {
    (void)B;
    return A;
  }
};

TEST_F(CheckerTest, NonCommutativeJoinCaught) {
  runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
    auto LV = newPureLVar<FirstWinsLattice>(Ctx);
    putPureLVar(Ctx, *LV, 5);
    co_return;
  });
  EXPECT_GE(check::violationCount(check::ViolationKind::LatticeLaw), 1u);
  EXPECT_TRUE(recordedMessageContains("not commutative"));
}

TEST_F(CheckerTest, LawAbidingLatticeSilent) {
  runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
    auto LV = newPureLVar<MaxUint64Lattice>(Ctx);
    for (unsigned long long V = 1; V <= 32; ++V)
      putPureLVar(Ctx, *LV, V);
    co_return;
  });
  EXPECT_EQ(check::violationCount(check::ViolationKind::LatticeLaw), 0u);
}

TEST_F(CheckerTest, BumpOverflowCaught) {
  runPar<Eff::DetBump>([](ParCtx<Eff::DetBump> Ctx) -> Par<void> {
    auto C = newCounter(Ctx);
    incrCounter(Ctx, *C, ~0ull); // Counter now sits at the very top...
    incrCounter(Ctx, *C, 2);     // ...so this bump wraps: not inflationary.
    co_return;
  });
  EXPECT_GE(check::violationCount(check::ViolationKind::LatticeLaw), 1u);
  EXPECT_TRUE(recordedMessageContains("overflowed"));
}

TEST_F(CheckerTest, InRangeBumpsSilent) {
  runPar<Eff::DetBump>([](ParCtx<Eff::DetBump> Ctx) -> Par<void> {
    auto C = newCounter(Ctx);
    for (int I = 0; I < 100; ++I)
      incrCounter(Ctx, *C);
    co_return;
  });
  EXPECT_EQ(check::violationCount(check::ViolationKind::LatticeLaw), 0u);
}

/// Four-point diamond encoded as bits: 0 = bottom, 1/2 = incomparable
/// middle states, 3 = top. Join is bitwise or.
struct DiamondLattice {
  using ValueType = unsigned;
  static ValueType bottom() { return 0; }
  static ValueType join(ValueType A, ValueType B) { return A | B; }
  static bool isTop(ValueType V) { return V == 3; }
};

TEST_F(CheckerTest, CompatibleThresholdSetsCaught) {
  // {1} and {1} are trivially compatible (join is 1, not top): a read
  // could activate on either index depending on schedule.
  PureLVar<DiamondLattice>::checkPairwiseIncompatible({{1u}, {1u}});
  EXPECT_GE(check::violationCount(check::ViolationKind::ThresholdSet), 1u);
  EXPECT_TRUE(recordedMessageContains("compatible"));
}

TEST_F(CheckerTest, EmptyThresholdSetCaught) {
  PureLVar<DiamondLattice>::checkPairwiseIncompatible({{1u}, {}});
  EXPECT_GE(check::violationCount(check::ViolationKind::ThresholdSet), 1u);
  EXPECT_TRUE(recordedMessageContains("empty"));
}

TEST_F(CheckerTest, IncompatibleThresholdSetsSilent) {
  // {1} vs {2}: their lub is 3 = top - a legal threshold read.
  PureLVar<DiamondLattice>::checkPairwiseIncompatible({{1u}, {2u}});
  EXPECT_EQ(check::violationCount(check::ViolationKind::ThresholdSet), 0u);
}

TEST_F(CheckerTest, ThresholdReadThroughGetIsValidated) {
  // End-to-end: the compatible pair is caught at get registration.
  runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
    auto LV = newPureLVar<DiamondLattice>(Ctx);
    putPureLVar(Ctx, *LV, 1u);
    ThresholdSets<unsigned> Sets{{1u}, {1u}};
    size_t Idx = co_await get(Ctx, *LV, Sets);
    EXPECT_EQ(Idx, 0u);
    co_return;
  });
  EXPECT_GE(check::violationCount(check::ViolationKind::ThresholdSet), 1u);
}

// -- DisjointnessChecker ------------------------------------------------

TEST_F(CheckerTest, OverlappingExtentRegistrationCaught) {
  auto &DC = check::DisjointnessChecker::instance();
  int Storage[16];
  int CellA, CellB; // Addresses double as distinct ownership scopes.
  DC.registerExtent(&Storage[0], &Storage[8], &CellA, 0, "test left");
  // Overlaps [4, 8) of the first extent but claims a different scope.
  DC.registerExtent(&Storage[4], &Storage[12], &CellB, 0, "test right");
  EXPECT_GE(check::violationCount(check::ViolationKind::Disjointness), 1u);
  EXPECT_TRUE(recordedMessageContains("overlaps"));
}

TEST_F(CheckerTest, AccessClassification) {
  auto &DC = check::DisjointnessChecker::instance();
  int Storage[16];
  int CellA, CellB;
  DC.registerExtent(&Storage[0], &Storage[8], &CellA, 7, "test extent");
  EXPECT_EQ(DC.classifyAccess(&Storage[2], &Storage[3], &CellA, 7),
            check::AccessStatus::Ok);
  EXPECT_EQ(DC.classifyAccess(&Storage[2], &Storage[3], &CellA, 6),
            check::AccessStatus::Stale);
  EXPECT_EQ(DC.classifyAccess(&Storage[2], &Storage[3], &CellB, 7),
            check::AccessStatus::ForeignOwner);
  EXPECT_EQ(DC.classifyAccess(&Storage[12], &Storage[13], &CellA, 7),
            check::AccessStatus::Unknown);
}

TEST_F(CheckerTest, CleanRunParVecDrainsExtents) {
  auto &DC = check::DisjointnessChecker::instance();
  int Sum = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<int> {
        co_return co_await runParVec(
            Ctx, 64, 1,
            [](ParCtx<Eff::DetST> C, VecView<int> V) -> Par<int> {
              auto Child = [](ParCtx<Eff::DetST> C2,
                              VecView<int> Half) -> Par<void> {
                Half.fill(2);
                co_return;
              };
              co_await forkSTSplit(C, V, 32, Child, Child);
              int S = 0;
              for (size_t I = 0; I < V.size(); ++I)
                S += V.readChecked(I);
              co_return S;
            });
      },
      SchedulerConfig{2});
  EXPECT_EQ(Sum, 128);
  EXPECT_EQ(check::violationCount(check::ViolationKind::Disjointness), 0u);
  // Every extent registered by runParVec/forkSTSplit was released again.
  EXPECT_EQ(DC.liveExtentCount(), 0u);
}

TEST_F(CheckerTest, NestedZoomAndTempBufferDrain) {
  auto &DC = check::DisjointnessChecker::instance();
  runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
    co_await runParVec(
        Ctx, 32, 0, [](ParCtx<Eff::DetST> C, VecView<int> V) -> Par<void> {
          auto Inner = [](ParCtx<Eff::DetST> C2,
                          VecView<int> Sub) -> Par<void> {
            Sub.fill(9);
            co_return;
          };
          co_await zoomIn(C, V, 8, 24, Inner);
          auto WithTmp = [](ParCtx<Eff::DetST> C2, VecView<int> S,
                            VecView<int> Tmp) -> Par<void> {
            Tmp.fill(1);
            S.writeChecked(0, Tmp.readChecked(0));
            co_return;
          };
          co_await withTempBuffer(C, V, 16, WithTmp);
          EXPECT_EQ(V.readChecked(8), 9);
          EXPECT_EQ(V.readChecked(0), 1);
          co_return;
        });
    co_return;
  });
  EXPECT_EQ(check::violationCount(check::ViolationKind::Disjointness), 0u);
  EXPECT_EQ(DC.liveExtentCount(), 0u);
}

// -- EffectAuditor ------------------------------------------------------

TEST_F(CheckerTest, ReadOnlyCancelableChildWriteCaught) {
  // The Section 6.1 safety condition: a cancellable child must be
  // read-only. Going through the LVar's state method directly bypasses
  // the `requires(hasPut(E))` wrapper - exactly what the audit catches.
  runPar<D>(
      [](ParCtx<D> Ctx) -> Par<int> {
        auto Leak = newIVar<int>(Ctx);
        auto Fut = forkCancelable(
            Ctx, [Leak](ParCtx<Eff::ReadOnly> C) -> Par<int> {
              Leak->putValue(42, C.task()); // Undeclared Put effect.
              co_return 1;
            });
        co_return co_await readCFuture(Ctx, Fut);
      },
      SchedulerConfig{2});
  EXPECT_GE(check::violationCount(check::ViolationKind::EffectDiscipline),
            1u);
  EXPECT_TRUE(recordedMessageContains("Put"));
}

TEST_F(CheckerTest, ReadOnlyCancelableChildReadSilent) {
  // The blessed internal result-put of forkCancelable must NOT trip the
  // audit: it is the one write the paper explicitly allows the child.
  int V = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<int> {
        auto Src = newIVar<int>(Ctx);
        put(Ctx, *Src, 21);
        auto Fut = forkCancelable(
            Ctx, [Src](ParCtx<Eff::ReadOnly> C) -> Par<int> {
              int X = co_await get(C, *Src);
              co_return X * 2;
            });
        co_return co_await readCFuture(Ctx, Fut);
      },
      SchedulerConfig{2});
  EXPECT_EQ(V, 42);
  EXPECT_EQ(check::violationCount(check::ViolationKind::EffectDiscipline),
            0u);
}

TEST_F(CheckerTest, DeclaredEffectsSilentAcrossStructures) {
  // A full deterministic workload across IVar/ISet/IMap with matching
  // static and declared effects produces no audit noise. (The freeze
  // audit is exercised by the whole existing suite running under the
  // checkers, e.g. PhybinTest's freezeCounterVec.)
  runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
    auto IV = newIVar<int>(Ctx);
    auto Set = newISet<int>(Ctx);
    auto Map = newEmptyMap<int, int>(Ctx);
    put(Ctx, *IV, 1);
    insert(Ctx, *Set, 2);
    insert(Ctx, *Map, 3, 4);
    int X = co_await get(Ctx, *IV);
    co_await get(Ctx, *Set, 2);
    int Y = co_await get(Ctx, *Map, 3);
    EXPECT_EQ(X + Y, 5);
    co_return;
  });
  EXPECT_EQ(check::violationCount(check::ViolationKind::EffectDiscipline),
            0u);
}

TEST_F(CheckerTest, MemoROBlessedRequestPutSilent) {
  // getMemoRO's hidden request-put is blessed trusted code (Section 6.2);
  // the audit must stay quiet for a ReadOnly caller.
  int V = runPar<D>(
      [](ParCtx<D> Ctx) -> Par<int> {
        auto M = makeMemo<int>(
            Ctx, [](ParCtx<Eff::ReadOnly> C, int K) -> Par<int> {
              (void)C;
              co_return K * 10;
            });
        auto Fut = forkCancelable(
            Ctx, [M](ParCtx<Eff::ReadOnly> C) -> Par<int> {
              int R = co_await getMemoRO(C, M, 7);
              co_return R;
            });
        co_return co_await readCFuture(Ctx, Fut);
      },
      SchedulerConfig{2});
  EXPECT_EQ(V, 70);
  EXPECT_EQ(check::violationCount(check::ViolationKind::EffectDiscipline),
            0u);
}

// -- Default (no handler) behavior: violations are fatal ----------------

using CheckerDeathTest = CheckerTest;

TEST_F(CheckerDeathTest, UnhandledViolationAborts) {
  EXPECT_DEATH(
      {
        check::setViolationHandler(nullptr);
        runPar<D>([](ParCtx<D> Ctx) -> Par<void> {
          auto LV = newPureLVar<FirstWinsLattice>(Ctx);
          // Without a handler one put in SamplePeriod is checked.
          for (uint64_t I = 0; I < check::SamplePeriod; ++I)
            putPureLVar(Ctx, *LV, 5);
          co_return;
        });
      },
      "determinism violation");
}

#else // !LVISH_CHECK

TEST(CheckerTest, CheckersCompiledOut) {
  GTEST_SKIP() << "LVISH_CHECK is off in this configuration; build with "
                  "-DCMAKE_BUILD_TYPE=Debug or -DLVISH_CHECK=ON";
}

#endif // LVISH_CHECK

} // namespace
