//===- Input.h - Seeded deterministic PBBS input generators -----*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared input side of the PBBS port (DESIGN.md Section 17): seeded,
/// machine-independent generators for the graph and key-stream workloads,
/// used verbatim by both the golden tests (tests/PbbsGoldenTest.cpp) and
/// the benches (bench/bench_pbbs_*.cpp) so a committed baseline and a
/// failing test always talk about the same input. All randomness is
/// SplitMix64 (support/SplitMix.h): a generator's output is a pure
/// function of (parameters, seed).
///
/// Two graph distributions, matching the PBBS inputs the paper's suite
/// draws on: uniform random (Erdos-Renyi-ish) and a power-law / RMAT-style
/// recursive-quadrant sampler whose skewed degrees stress the handler
/// fixpoints far harder than the uniform case.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_PBBS_INPUT_H
#define LVISH_PBBS_INPUT_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace lvish {
namespace pbbs {

/// An undirected (multi)graph in CSR form; edges appear in both
/// directions. Parallel edges are kept (the LVar algorithms are join-based
/// and idempotent, so duplicates only cost work, never correctness).
struct Graph {
  uint32_t NumVertices = 0;
  std::vector<uint32_t> Offsets; ///< size NumVertices + 1
  std::vector<uint32_t> Adjacency;

  uint32_t degree(uint32_t V) const { return Offsets[V + 1] - Offsets[V]; }
  const uint32_t *neighborsBegin(uint32_t V) const {
    return Adjacency.data() + Offsets[V];
  }
  const uint32_t *neighborsEnd(uint32_t V) const {
    return Adjacency.data() + Offsets[V + 1];
  }
  size_t numDirectedEdges() const { return Adjacency.size(); }
};

/// An undirected edge list (each edge once, U < V); the spanning-forest
/// input shape. The *position* of an edge is its identity: index-as-weight
/// makes the minimum spanning forest unique, which is what lets parallel
/// deterministic reservations and a sequential Kruskal-by-index agree
/// exactly.
struct EdgeList {
  uint32_t NumVertices = 0;
  std::vector<std::pair<uint32_t, uint32_t>> Edges;
};

/// Uniform random multigraph: ~N*AvgDegree/2 endpoint pairs drawn
/// uniformly (self-loops discarded), symmetrized into CSR.
Graph makeUniformGraph(uint32_t N, uint32_t AvgDegree, uint64_t Seed);

/// Power-law-ish RMAT graph: endpoints drawn by recursive quadrant
/// descent with probabilities (0.57, 0.19, 0.19, 0.05), giving the
/// heavy-tailed degree distribution of the PBBS rMat inputs.
Graph makePowerLawGraph(uint32_t N, uint32_t AvgDegree, uint64_t Seed);

/// Flattens a CSR graph into an undirected edge list (U < V, one entry
/// per undirected edge occurrence, CSR order - deterministic).
EdgeList toEdgeList(const Graph &G);

/// Skewed key stream over [0, Universe): a cubed-uniform transform
/// concentrates mass near 0 (Zipf-flavored), the removeDuplicates /
/// histogram stress shape - a few keys extremely hot, a long cold tail.
std::vector<uint64_t> makeSkewedKeys(size_t N, uint64_t Universe,
                                     uint64_t Seed);

/// Uniform key stream over [0, Universe); the low-contention contrast.
std::vector<uint64_t> makeUniformKeys(size_t N, uint64_t Universe,
                                      uint64_t Seed);

} // namespace pbbs
} // namespace lvish

#endif // LVISH_PBBS_INPUT_H
