//===- SpanningForest.cpp - PBBS spanning forest on ParST + LVars ----------===//

#include "src/pbbs/SpanningForest.h"

#include "src/data/MinMap.h"
#include "src/data/UnionFind.h"
#include "src/trans/ParST.h"

#include <algorithm>

using namespace lvish;
using namespace lvish::pbbs;

namespace {

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

/// An undecided edge of the current prefix: its index (identity, weight
/// and the low word of its reservation key), and the roots its endpoints
/// had when the round began; equal roots mean the edge is dropped.
struct EdgeRec {
  uint32_t Idx;
  uint32_t U = 0, V = 0;
  bool Accepted = false;
};

/// ST (the disjoint slice mutation), put (reservations and unions), get
/// (fork-join). Nothing is frozen.
constexpr EffectSet ForestEff = Eff::DetST;
constexpr size_t EdgeGrain = 512;
constexpr size_t PrefixSize = 4096; // Undecided edges per round.

/// What both passes of a round share. Round r reserves with key
/// ((2^32 - 1 - r) << 32) | index: keys fall from round to round, so one
/// MinVec serves every round without a reset.
struct Round {
  const EdgeList *EL;
  UnionFind *Forest;
  MinVec *Reserved;
  uint64_t KeyHigh;
};

/// Reserve: an edge whose roots still differ min-writes its key into
/// both roots' cells; one whose roots agree is dropped.
void reserve(ParCtx<ForestEff> C, const Round &R, EdgeRec &E) {
  E.U = R.Forest->rootOf(R.EL->Edges[E.Idx].first);
  E.V = R.Forest->rootOf(R.EL->Edges[E.Idx].second);
  if (E.U != E.V) {
    putMinAt(C, *R.Reserved, E.U, R.KeyHigh | E.Idx);
    putMinAt(C, *R.Reserved, E.V, R.KeyHigh | E.Idx);
  }
}

/// Commit: an edge holding either reservation is the lowest undecided
/// edge touching that root's class, so index-order Kruskal accepts it
/// too; it unites. Any other reserving edge stays pending.
void commit(ParCtx<ForestEff> C, const Round &R, EdgeRec &E) {
  const uint64_t Key = R.KeyHigh | E.Idx;
  if (E.U == E.V ||
      (R.Reserved->peekAt(E.U) != Key && R.Reserved->peekAt(E.V) != Key))
    return;
  unite(C, *R.Forest, E.U, E.V);
  E.Accepted = true;
}

/// Runs \p Step on every edge of the owned slice, splitting recursively
/// via forkSTSplit until the slice fits the grain.
template <auto Step>
Par<void> eachEdge(ParCtx<ForestEff> C, VecView<EdgeRec> View,
                   const Round *R, size_t Grain) {
  if (View.size() <= Grain) {
    EdgeRec *E = View.raw();
    C.noteBytes(2 * View.size() * sizeof(EdgeRec));
    for (size_t I = 0; I < View.size(); ++I)
      Step(C, *R, E[I]);
    co_return;
  }
  auto Child = [R, Grain](ParCtx<ForestEff> C2, VecView<EdgeRec> Sub) {
    return eachEdge<Step>(C2, Sub, R, Grain);
  };
  co_await forkSTSplit(C, View, View.size() / 2, Child, Child);
}

} // namespace

std::vector<uint64_t> pbbs::spanningForestSeq(const EdgeList &EL) {
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

std::vector<uint64_t> pbbs::spanningForestLVar(const EdgeList &EL,
                                               const RunOptions &Opts) {
  const EdgeList *ELP = &EL;
  return runPar<ForestEff>(
      [ELP](ParCtx<ForestEff> Ctx) -> Par<std::vector<uint64_t>> {
        const size_t M = ELP->Edges.size();
        auto Forest = newUnionFind(Ctx, ELP->NumVertices);
        auto Reserved = newMinVec(Ctx, ELP->NumVertices);
        Round R{ELP, Forest.get(), Reserved.get(), 0};
        std::vector<EdgeRec> Prefix(std::min(M, PrefixSize));
        std::vector<uint8_t> Accepted(M, 0);
        auto &DC = check::DisjointnessChecker::instance();
        size_t Retries = 0, Next = 0;
        for (uint64_t Rnd = 0; Retries > 0 || Next < M; ++Rnd) {
          // Retries come first, then fresh edges: the prefix is the
          // lowest-indexed undecided edges, in index order.
          size_t Len = Retries;
          for (; Len < Prefix.size() && Next < M; ++Len)
            Prefix[Len] = EdgeRec{static_cast<uint32_t>(Next++)};
          R.KeyHigh = (uint64_t{0xFFFFFFFF} - Rnd) << 32;
          // Both passes split the caller-owned prefix as one root view
          // (the in-place grant of Kernels.cpp's mergeSortParST). The
          // barrier between them quiesces every reservation, so each
          // commit reads its cells' final minima.
          auto Gen = detail::newGenCell();
          VecView<EdgeRec> Root(Prefix.data(), Len, Gen, 0);
          DC.registerExtent(Prefix.data(), Prefix.data() + Len, Gen.get(), 0,
                            "pbbs forest prefix");
          const size_t Grain = pickGrain(EdgeGrain, Len);
          co_await eachEdge<reserve>(Ctx, Root, &R, Grain);
          co_await eachEdge<commit>(Ctx, Root, &R, Grain);
          DC.releaseExtent(Prefix.data(), Gen.get());
          Gen->fetch_add(1, std::memory_order_acq_rel); // Poison views.
          Retries = 0;
          for (size_t I = 0; I < Len; ++I) {
            if (Prefix[I].Accepted)
              Accepted[Prefix[I].Idx] = 1;
            else if (Prefix[I].U != Prefix[I].V)
              Prefix[Retries++] = Prefix[I];
          }
        }
        std::vector<uint64_t> Out;
        for (size_t I = 0; I < M; ++I)
          if (Accepted[I])
            Out.push_back(I);
        co_return Out;
      },
      Opts);
}
