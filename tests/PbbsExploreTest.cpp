//===- PbbsExploreTest.cpp - Explored schedules over the PBBS suite --------===//
//
// The PBBS ports under the schedule explorer (src/explore/): seeded
// random AND PCT-priority virtual schedules per problem, on tiny inputs,
// each run compared against the 1-worker reference. A mismatch prints the
// engine's lvx1: replay string - paste it into decodeReplay +
// sessionOptions to re-run the exact offending interleaving.
//
// One "interesting" schedule per problem is pinned into a committed
// corpus (the ExploreRegressionTest pattern, inverted: these programs are
// DETERMINISTIC, so the pins assert the result still matches the
// reference under the pinned schedule and that the replay reproduces
// bit-for-bit - same pedigree hash - on every rep). Regenerate after
// scheduler changes with:
//
//   LVISH_EXPLORE_REGEN=1 ./PbbsExploreTest --gtest_filter='*Regen*'
//
//===----------------------------------------------------------------------===//

#include "src/explore/Explorer.h"
#include "src/pbbs/Pbbs.h"
#include "tests/ForestInputs.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace lvish;
using namespace lvish::pbbs;

namespace {

// -- Tiny fixed inputs -----------------------------------------------------
// Small enough that a virtual schedule stays short (and a pinned replay
// string stays reviewable), large enough to have real parallel structure:
// several BFS rounds, multiple components, hot histogram buckets.

const Graph &tinyUniform() {
  static const Graph G = makeUniformGraph(10, 3, 7);
  return G;
}

const Graph &tinyPowerLaw() {
  static const Graph G = makePowerLawGraph(12, 2, 5);
  return G;
}

const std::vector<uint64_t> &tinyKeys() {
  static const std::vector<uint64_t> K = makeSkewedKeys(48, 32, 3);
  return K;
}

// -- The programs, RunOptions -> observable result -------------------------

std::vector<uint32_t> runBfsLevels(const RunOptions &O) {
  return bfsLevels(tinyUniform(), 0, O);
}

std::vector<uint32_t> runBfsReach(const RunOptions &O) {
  return bfsReach(tinyPowerLaw(), 0, O);
}

std::vector<uint32_t> runComponents(const RunOptions &O) {
  return componentsLVar(tinyPowerLaw(), O);
}

std::vector<uint32_t> runComponentsLabelProp(const RunOptions &O) {
  return componentsLabelProp(tinyPowerLaw(), O);
}

std::vector<uint64_t> runHistogram(const RunOptions &O) {
  return histogramLVar(tinyKeys(), 8, O);
}

std::vector<uint64_t> runDedup(const RunOptions &O) {
  return removeDuplicatesLVar(tinyKeys(), O);
}

std::vector<uint64_t> runForest(const RunOptions &O) {
  return spanningForestLVar(toEdgeList(tinyUniform()), O);
}

template <typename F> auto reference(F Program) {
  RunOptions Opts;
  Opts.Config.NumWorkers = 1;
  return Program(Opts);
}

// -- Seeded sweeps: random and PCT engines ---------------------------------

constexpr uint64_t SweepSeeds[] = {1, 7, 42, 99, 31337, 2014, 777};

template <typename F> void exploreSweep(const char *Name, F Program) {
  const auto Ref = reference(Program);
  for (unsigned Workers : {2u, 3u}) {
    for (uint64_t Seed : SweepSeeds) {
      {
        explore::Engine Eng = explore::Engine::random(Seed, Workers);
        auto Got = Program(explore::sessionOptions(Eng));
        EXPECT_EQ(Got, Ref)
            << Name << ": random seed=" << Seed << " workers=" << Workers
            << "\n  replay: " << Eng.replayString();
      }
      {
        explore::Engine Eng = explore::Engine::pct(Seed, Workers, 3);
        auto Got = Program(explore::sessionOptions(Eng));
        EXPECT_EQ(Got, Ref)
            << Name << ": pct seed=" << Seed << " workers=" << Workers
            << "\n  replay: " << Eng.replayString();
      }
    }
  }
}

TEST(PbbsExplored, BfsLevels) { exploreSweep("bfs-levels", runBfsLevels); }
TEST(PbbsExplored, BfsReach) { exploreSweep("bfs-reach", runBfsReach); }
TEST(PbbsExplored, Components) { exploreSweep("components", runComponents); }
TEST(PbbsExplored, ComponentsLabelProp) {
  exploreSweep("components-labelprop", runComponentsLabelProp);
}
TEST(PbbsExplored, Histogram) { exploreSweep("histogram", runHistogram); }
TEST(PbbsExplored, RemoveDuplicates) { exploreSweep("dedup", runDedup); }
TEST(PbbsExplored, SpanningForest) { exploreSweep("forest", runForest); }

TEST(PbbsExplored, SpanningForestAdversarial) {
  // Stars, paths, K_64 and K_{2,n}: many edges of a round reserve one
  // root, so commits and retries race on few cells.
  for (const NamedEdgeList &In : adversarialForests(24)) {
    SCOPED_TRACE(In.Name);
    auto Program = [&In](const RunOptions &O) {
      return spanningForestLVar(In.EL, O);
    };
    EXPECT_EQ(reference(Program), spanningForestSeq(In.EL));
    exploreSweep(In.Name, Program);
  }
}

// -- The pinned corpus -----------------------------------------------------
// One schedule per problem, chosen by a PCT engine (priority preemptions
// - the adversarial shape), committed as a replay string. Each pin must
// (a) still produce the reference answer and (b) reproduce the committed
// pedigree hash bit-for-bit on every rep.

using CheckFn = bool (*)(const RunOptions &);

template <typename F> bool runMatchesReference(F Program, const RunOptions &O) {
  return Program(O) == reference(Program);
}

bool checkBfsLevels(const RunOptions &O) {
  return runMatchesReference(runBfsLevels, O);
}
bool checkBfsReach(const RunOptions &O) {
  return runMatchesReference(runBfsReach, O);
}
bool checkComponents(const RunOptions &O) {
  return runMatchesReference(runComponents, O);
}
bool checkComponentsLabelProp(const RunOptions &O) {
  return runMatchesReference(runComponentsLabelProp, O);
}
bool checkHistogram(const RunOptions &O) {
  return runMatchesReference(runHistogram, O);
}
bool checkDedup(const RunOptions &O) {
  return runMatchesReference(runDedup, O);
}
bool checkForest(const RunOptions &O) {
  return runMatchesReference(runForest, O);
}

struct PinEntry {
  const char *Name;
  CheckFn Check;
  /// Committed replay string (regenerate with LVISH_EXPLORE_REGEN=1).
  const char *Replay;
};

const PinEntry Corpus[] = {
    {"bfs-levels", checkBfsLevels,
     "lvx1:w2:h35a65ec46fd881c2:0.0.0.0.0.0.0.0.0.0.0"},
    {"bfs-reach", checkBfsReach,
     "lvx1:w2:hbf5d2013eff5dc5d:0.0.0"},
    {"components", checkComponents,
     "lvx1:w2:hb75cb1e8a33a9134:0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.1.1.1.1.1.1.1"},
    {"components-labelprop", checkComponentsLabelProp,
     "lvx1:w2:hfc2b7a67945466e9:0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.1.1.1.1.1.1.1."
     "1.1.1"},
    {"histogram", checkHistogram,
     "lvx1:w2:h566163ad14b8f924:0.0.0.0.0.0.0.0.0.0.0.0.0.0.0"},
    {"dedup", checkDedup,
     "lvx1:w2:h566163ad14b8f924:0.0.0.0.0.0.0.0.0.0.0.0.0.0.0"},
    {"forest", checkForest,
     "lvx1:w2:h5f22bb5f60d63b83:0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.1.1.1.1.1.1.1.1."
     "1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1."
     "1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1"},
};

TEST(PbbsExplored, PinnedSchedulesReproduce) {
  for (const PinEntry &E : Corpus) {
    SCOPED_TRACE(E.Name);
    auto Spec = explore::decodeReplay(E.Replay);
    ASSERT_TRUE(Spec.has_value()) << "corpus string does not decode";
    for (int Rep = 0; Rep < 3; ++Rep) {
      explore::Engine Eng = explore::Engine::replay(*Spec);
      EXPECT_TRUE(E.Check(explore::sessionOptions(Eng)))
          << "rep " << Rep << ": pinned schedule diverged from reference";
      EXPECT_EQ(Eng.pedigreeHash(), Spec->PedHash)
          << "rep " << Rep << ": schedule hash diverged from the corpus";
    }
  }
}

TEST(PbbsExplored, RegenerateCorpus) {
  if (!std::getenv("LVISH_EXPLORE_REGEN"))
    GTEST_SKIP() << "set LVISH_EXPLORE_REGEN=1 to regenerate the corpus";
  for (const PinEntry &E : Corpus) {
    // A PCT schedule with preemption change-points: the "interesting"
    // interleaving shape. The check must pass under it (these programs
    // are deterministic) - regen fails loudly if it does not.
    explore::Engine Eng = explore::Engine::pct(0x6c76697368ULL, 2, 3);
    if (!E.Check(explore::sessionOptions(Eng))) {
      ADD_FAILURE() << E.Name << ": diverged under the regen schedule";
      continue;
    }
    std::printf("    {\"%s\", check..., \"%s\"},\n", E.Name,
                Eng.replayString().c_str());
  }
  std::fflush(stdout);
}

} // namespace
