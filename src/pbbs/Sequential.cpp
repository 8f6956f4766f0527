//===- Sequential.cpp - PBBS sequential references -------------------------===//
//
// The plain sequential algorithm each PBBS kernel is checked and timed
// against. They live in one translation unit that includes no library
// header, so an edit to an LVar kernel or to a header it uses leaves
// their code untouched; CMakeLists.txt also pins this file's code
// alignment. Declarations are in each kernel's header.
//
//===----------------------------------------------------------------------===//

#include "src/pbbs/Input.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

namespace lvish {
namespace pbbs {

namespace {

/// pbbs::UnreachedLevel (Bfs.h), spelled out so that this file includes
/// no library header.
constexpr uint32_t Unreached = ~0u;
constexpr uint32_t NoLabel = ~0u;

/// Path-compressing find over a plain parent array.
uint32_t findRoot(std::vector<uint32_t> &Parent, uint32_t V) {
  uint32_t Root = V;
  while (Parent[Root] != Root)
    Root = Parent[Root];
  while (Parent[V] != Root) {
    uint32_t Next = Parent[V];
    Parent[V] = Root;
    V = Next;
  }
  return Root;
}

} // namespace

std::vector<uint32_t> bfsSeq(const Graph &G, uint32_t Source) {
  std::vector<uint32_t> Levels(G.NumVertices, Unreached);
  if (Source >= G.NumVertices)
    return Levels;
  Levels[Source] = 0;
  std::deque<uint32_t> Queue{Source};
  while (!Queue.empty()) {
    uint32_t V = Queue.front();
    Queue.pop_front();
    for (const uint32_t *W = G.neighborsBegin(V), *End = G.neighborsEnd(V);
         W != End; ++W)
      if (Levels[*W] == Unreached) {
        Levels[*W] = Levels[V] + 1;
        Queue.push_back(*W);
      }
  }
  return Levels;
}

std::vector<uint32_t> bfsReachSeq(const Graph &G, uint32_t Source) {
  std::vector<uint32_t> Levels = bfsSeq(G, Source);
  std::vector<uint32_t> Reached;
  for (uint32_t V = 0; V < G.NumVertices; ++V)
    if (Levels[V] != Unreached)
      Reached.push_back(V);
  return Reached;
}

std::vector<uint32_t> componentsSeq(const Graph &G) {
  std::vector<uint32_t> Labels(G.NumVertices, NoLabel);
  for (uint32_t Root = 0; Root < G.NumVertices; ++Root) {
    if (Labels[Root] != NoLabel)
      continue; // Already labeled by a smaller root.
    // BFS from the smallest unlabeled vertex: it is its component's min.
    Labels[Root] = Root;
    std::deque<uint32_t> Queue{Root};
    while (!Queue.empty()) {
      uint32_t V = Queue.front();
      Queue.pop_front();
      for (const uint32_t *W = G.neighborsBegin(V),
                          *End = G.neighborsEnd(V);
           W != End; ++W)
        if (Labels[*W] == NoLabel) {
          Labels[*W] = Root;
          Queue.push_back(*W);
        }
    }
  }
  return Labels;
}

std::vector<uint64_t> histogramSeq(const std::vector<uint64_t> &Keys,
                                   uint64_t NumBuckets) {
  std::vector<uint64_t> Counts(NumBuckets, 0);
  for (uint64_t K : Keys)
    ++Counts[K % NumBuckets];
  return Counts;
}

std::vector<uint64_t> removeDuplicatesSeq(const std::vector<uint64_t> &Keys) {
  std::vector<uint64_t> Out(Keys);
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

std::vector<uint64_t> spanningForestSeq(const EdgeList &EL) {
  std::vector<uint32_t> Parent(EL.NumVertices);
  for (uint32_t V = 0; V < EL.NumVertices; ++V)
    Parent[V] = V;
  std::vector<uint64_t> Accepted;
  for (size_t I = 0; I < EL.Edges.size(); ++I) {
    uint32_t RU = findRoot(Parent, EL.Edges[I].first);
    uint32_t RV = findRoot(Parent, EL.Edges[I].second);
    if (RU == RV)
      continue;
    Parent[RU < RV ? RV : RU] = RU < RV ? RU : RV;
    Accepted.push_back(I);
  }
  return Accepted;
}

} // namespace pbbs
} // namespace lvish
