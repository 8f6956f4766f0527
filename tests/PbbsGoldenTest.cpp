//===- PbbsGoldenTest.cpp - PBBS suite vs sequential references ------------===//
//
// The acceptance gate of the PBBS port (DESIGN.md Section 17): every
// LVar-parallel problem must equal its single-threaded sequential
// reference EXACTLY, over a matrix of input seeds x input sizes x worker
// counts (1/2/4/8) x steal seeds, on both graph distributions and both
// key-stream shapes. Inputs come from the shared seeded generators
// (src/pbbs/Input.h) - the same functions the benches call - so a failure
// here names an input any machine can regenerate bit-for-bit.
//
//===----------------------------------------------------------------------===//

#include "src/pbbs/Pbbs.h"
#include "tests/ForestInputs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

using namespace lvish;
using namespace lvish::pbbs;

namespace {

// -- The schedule matrix ---------------------------------------------------

struct SchedParam {
  unsigned Workers;
  uint64_t StealSeed;
};

RunOptions schedOptions(const SchedParam &P) {
  RunOptions Opts;
  Opts.Config.NumWorkers = P.Workers;
  Opts.Config.StealSeed = P.StealSeed;
  return Opts;
}

// Worker counts 1/2/4/8; two steal seeds at each multi-worker width so the
// same thread count still samples different victim orders.
const SchedParam Schedules[] = {
    {1, 1},  {2, 7},    {2, 31337}, {4, 13},
    {4, 99}, {8, 2014}, {8, 777},
};

// -- Input matrix ----------------------------------------------------------

constexpr uint64_t InputSeeds[] = {1, 42, 99991};

struct GraphShape {
  const char *Name;
  uint32_t N;
  uint32_t AvgDegree;
};

constexpr GraphShape GraphShapes[] = {
    {"tiny", 24, 3},
    {"sparse", 160, 2},
    {"dense", 96, 12},
};

Graph makeGraph(bool PowerLaw, const GraphShape &S, uint64_t Seed) {
  return PowerLaw ? makePowerLawGraph(S.N, S.AvgDegree, Seed)
                  : makeUniformGraph(S.N, S.AvgDegree, Seed);
}

// Every (distribution, shape, seed) graph instance, built once per test.
template <typename Fn> void forEachGraph(Fn Body) {
  for (bool PowerLaw : {false, true})
    for (const GraphShape &S : GraphShapes)
      for (uint64_t Seed : InputSeeds) {
        SCOPED_TRACE(::testing::Message()
                     << (PowerLaw ? "powerlaw" : "uniform") << "/" << S.Name
                     << "/seed=" << Seed);
        Body(makeGraph(PowerLaw, S, Seed));
      }
}

// -- Generator sanity ------------------------------------------------------

TEST(PbbsInput, GeneratorsAreSeedDeterministic) {
  forEachGraph([](const Graph &G) {
    (void)G; // forEachGraph itself re-derives each instance fresh.
  });
  for (uint64_t Seed : InputSeeds) {
    Graph A = makeUniformGraph(200, 4, Seed);
    Graph B = makeUniformGraph(200, 4, Seed);
    EXPECT_EQ(A.Offsets, B.Offsets);
    EXPECT_EQ(A.Adjacency, B.Adjacency);
    Graph P = makePowerLawGraph(200, 4, Seed);
    Graph Q = makePowerLawGraph(200, 4, Seed);
    EXPECT_EQ(P.Offsets, Q.Offsets);
    EXPECT_EQ(P.Adjacency, Q.Adjacency);
    EXPECT_EQ(makeSkewedKeys(500, 64, Seed), makeSkewedKeys(500, 64, Seed));
    EXPECT_EQ(makeUniformKeys(500, 64, Seed), makeUniformKeys(500, 64, Seed));
  }
  // Different seeds actually produce different inputs.
  EXPECT_NE(makeUniformGraph(200, 4, 1).Adjacency,
            makeUniformGraph(200, 4, 2).Adjacency);
  EXPECT_NE(makeSkewedKeys(500, 64, 1), makeSkewedKeys(500, 64, 2));
}

TEST(PbbsInput, CsrIsSymmetricAndEdgeListCoversIt) {
  forEachGraph([](const Graph &G) {
    // Every directed arc has its reverse (the CSR is symmetrized).
    std::vector<std::pair<uint32_t, uint32_t>> Arcs;
    for (uint32_t V = 0; V < G.NumVertices; ++V)
      for (const uint32_t *W = G.neighborsBegin(V); W != G.neighborsEnd(V);
           ++W) {
        EXPECT_NE(V, *W) << "self-loop survived generation";
        Arcs.push_back({V, *W});
      }
    auto Sorted = Arcs;
    std::sort(Sorted.begin(), Sorted.end());
    for (const auto &[U, V] : Arcs)
      EXPECT_TRUE(std::binary_search(Sorted.begin(), Sorted.end(),
                                     std::make_pair(V, U)))
          << "missing reverse arc " << V << "->" << U;
    // The edge list is exactly the U < V half of the arcs.
    EdgeList EL = toEdgeList(G);
    EXPECT_EQ(2 * EL.Edges.size(), Arcs.size());
    for (const auto &[U, V] : EL.Edges)
      EXPECT_LT(U, V);
  });
}

TEST(PbbsInput, SkewedKeysAreActuallySkewed) {
  // The cubed-uniform transform concentrates mass near zero: the bottom
  // eighth of the universe must hold well over its uniform share.
  auto Keys = makeSkewedKeys(4000, 4096, 42);
  size_t Low = 0;
  for (uint64_t K : Keys) {
    EXPECT_LT(K, 4096u);
    Low += K < 512 ? 1 : 0;
  }
  EXPECT_GT(Low, Keys.size() / 3) << "skew transform lost its head";
}

// -- Golden matrices, one per problem --------------------------------------

TEST(PbbsGolden, BfsLevelsMatchesSequential) {
  forEachGraph([](const Graph &G) {
    auto Ref = bfsSeq(G, 0);
    for (const SchedParam &P : Schedules) {
      SCOPED_TRACE(::testing::Message() << "workers=" << P.Workers
                                        << " steal=" << P.StealSeed);
      EXPECT_EQ(bfsLevels(G, 0, schedOptions(P)), Ref);
    }
  });
}

TEST(PbbsGolden, BfsReachMatchesSequential) {
  forEachGraph([](const Graph &G) {
    auto Ref = bfsReachSeq(G, 0);
    for (const SchedParam &P : Schedules) {
      SCOPED_TRACE(::testing::Message() << "workers=" << P.Workers
                                        << " steal=" << P.StealSeed);
      EXPECT_EQ(bfsReach(G, 0, schedOptions(P)), Ref);
    }
  });
}

TEST(PbbsGolden, ConnectedComponentsMatchesSequential) {
  forEachGraph([](const Graph &G) {
    auto Ref = componentsSeq(G);
    for (const SchedParam &P : Schedules) {
      SCOPED_TRACE(::testing::Message() << "workers=" << P.Workers
                                        << " steal=" << P.StealSeed);
      EXPECT_EQ(componentsLVar(G, schedOptions(P)), Ref);
    }
  });
}

TEST(PbbsGolden, ComponentsLabelPropMatchesSequential) {
  // The handler stress case: the batched-flush cascade must reach the
  // same fixpoint as the union-find port and the sequential sweep.
  forEachGraph([](const Graph &G) {
    auto Ref = componentsSeq(G);
    for (const SchedParam &P : Schedules) {
      SCOPED_TRACE(::testing::Message() << "workers=" << P.Workers
                                        << " steal=" << P.StealSeed);
      EXPECT_EQ(componentsLabelProp(G, schedOptions(P)), Ref);
    }
  });
}

TEST(PbbsGolden, SpanningForestMatchesSequential) {
  forEachGraph([](const Graph &G) {
    EdgeList EL = toEdgeList(G);
    auto Ref = spanningForestSeq(EL);
    for (const SchedParam &P : Schedules) {
      SCOPED_TRACE(::testing::Message() << "workers=" << P.Workers
                                        << " steal=" << P.StealSeed);
      EXPECT_EQ(spanningForestLVar(EL, schedOptions(P)), Ref);
    }
  });
}

TEST(PbbsGolden, SpanningForestAdversarialMatchesSequential) {
  // Inputs that pile each round's reservations onto few roots, plus a
  // uniform graph of more than three 4,096-edge prefixes, so retried
  // edges cross rounds.
  std::vector<NamedEdgeList> Inputs = adversarialForests(5000);
  Inputs.push_back({"uniform-5000", toEdgeList(makeUniformGraph(5000, 6, 7))});
  ASSERT_GT(Inputs.back().EL.Edges.size(), 3u * 4096u);
  for (const NamedEdgeList &In : Inputs) {
    SCOPED_TRACE(In.Name);
    auto Ref = spanningForestSeq(In.EL);
    for (const SchedParam &P : Schedules) {
      SCOPED_TRACE(::testing::Message() << "workers=" << P.Workers
                                        << " steal=" << P.StealSeed);
      EXPECT_EQ(spanningForestLVar(In.EL, schedOptions(P)), Ref);
    }
  }
}

TEST(PbbsGolden, HistogramMatchesSequential) {
  for (bool Skewed : {false, true})
    for (uint64_t Seed : InputSeeds)
      for (size_t N : {100u, 3000u}) {
        auto Keys = Skewed ? makeSkewedKeys(N, 1 << 20, Seed)
                           : makeUniformKeys(N, 1 << 20, Seed);
        SCOPED_TRACE(::testing::Message()
                     << (Skewed ? "skewed" : "uniform") << "/seed=" << Seed
                     << "/n=" << N);
        constexpr uint64_t Buckets = 64;
        auto Ref = histogramSeq(Keys, Buckets);
        for (const SchedParam &P : Schedules) {
          SCOPED_TRACE(::testing::Message() << "workers=" << P.Workers
                                            << " steal=" << P.StealSeed);
          EXPECT_EQ(histogramLVar(Keys, Buckets, schedOptions(P)), Ref);
        }
      }
}

TEST(PbbsGolden, RemoveDuplicatesMatchesSequential) {
  for (bool Skewed : {false, true})
    for (uint64_t Seed : InputSeeds)
      for (size_t N : {100u, 3000u}) {
        auto Keys = Skewed ? makeSkewedKeys(N, 512, Seed)
                           : makeUniformKeys(N, 512, Seed);
        SCOPED_TRACE(::testing::Message()
                     << (Skewed ? "skewed" : "uniform") << "/seed=" << Seed
                     << "/n=" << N);
        auto Ref = removeDuplicatesSeq(Keys);
        for (const SchedParam &P : Schedules) {
          SCOPED_TRACE(::testing::Message() << "workers=" << P.Workers
                                            << " steal=" << P.StealSeed);
          EXPECT_EQ(removeDuplicatesLVar(Keys, schedOptions(P)), Ref);
        }
      }
}

// -- Cross-problem invariants ----------------------------------------------

TEST(PbbsGolden, ComponentsAgreeWithReachability) {
  // Two independent ports must tell one story: v is reachable from 0
  // exactly when it shares 0's component label.
  forEachGraph([](const Graph &G) {
    auto Reach = bfsReach(G, 0);
    auto Labels = componentsLVar(G);
    std::vector<uint32_t> SameComp;
    for (uint32_t V = 0; V < G.NumVertices; ++V)
      if (Labels[V] == Labels[0])
        SameComp.push_back(V);
    EXPECT_EQ(Reach, SameComp);
  });
}

TEST(PbbsGolden, ForestSizeMatchesComponentCount) {
  // |forest| == N - #components, the defining identity of a spanning
  // forest - checked against the *other* problem's independent answer.
  forEachGraph([](const Graph &G) {
    EdgeList EL = toEdgeList(G);
    auto Forest = spanningForestLVar(EL);
    auto Labels = componentsSeq(G);
    std::vector<uint32_t> Roots = Labels;
    std::sort(Roots.begin(), Roots.end());
    Roots.erase(std::unique(Roots.begin(), Roots.end()), Roots.end());
    EXPECT_EQ(Forest.size(), G.NumVertices - Roots.size());
  });
}

} // namespace
