//===- SpanningForest.cpp - PBBS spanning forest by BulkRetryT -------------===//

#include "src/pbbs/SpanningForest.h"

#include "src/data/MinMap.h"
#include "src/data/UnionFind.h"
#include "src/trans/BulkRetry.h"

using namespace lvish;
using namespace lvish::pbbs;

namespace {

/// The roots an edge's endpoints had when its round's reserve pass ran.
struct Roots {
  uint32_t U = 0, V = 0;
};

/// Put (reservations and unions) and get (the passes' fork-join); nothing
/// is frozen.
constexpr EffectSet ForestEff = Eff::Det;

/// Edge \p I's key in round \p Round: ((2^32 - 1 - Round) << 32) | I.
/// Keys fall from round to round, so one MinVec serves every round
/// without a reset.
uint64_t reservationKey(uint64_t Round, size_t I) {
  return ((uint64_t{0xFFFFFFFF} - Round) << 32) | I;
}

} // namespace

std::vector<uint64_t> pbbs::spanningForestLVar(const EdgeList &EL,
                                               const RunOptions &Opts) {
  const EdgeList *ELP = &EL;
  return runPar<ForestEff>(
      [ELP](ParCtx<ForestEff> Ctx) -> Par<std::vector<uint64_t>> {
        const size_t M = ELP->Edges.size();
        auto Forest = newUnionFind(Ctx, ELP->NumVertices);
        auto Reserved = newMinVec(Ctx, ELP->NumVertices);
        UnionFind *F = Forest.get();
        MinVec *R = Reserved.get();
        // Reserve: an edge whose roots still differ min-writes its key
        // into both roots' cells; one whose roots agree is dropped.
        auto Reserve = [ELP, F, R](ParCtx<ForestEff> C, uint64_t Round,
                                   size_t I, Roots &S) {
          S.U = F->rootOf(ELP->Edges[I].first);
          S.V = F->rootOf(ELP->Edges[I].second);
          if (S.U == S.V)
            return false;
          putMinAt(C, *R, S.U, reservationKey(Round, I));
          putMinAt(C, *R, S.V, reservationKey(Round, I));
          return true;
        };
        // Commit: an edge holding either reservation is the lowest
        // undecided edge touching that root's class, so index-order
        // Kruskal accepts it too; it unites. Any other edge retries.
        auto Commit = [F, R](ParCtx<ForestEff> C, uint64_t Round, size_t I,
                             Roots &S) {
          const uint64_t Key = reservationKey(Round, I);
          if (R->peekAt(S.U) != Key && R->peekAt(S.V) != Key)
            return false;
          unite(C, *F, S.U, S.V);
          return true;
        };
        SpecResult Res =
            co_await forSpeculative<Roots>(Ctx, 0, M, Reserve, Commit);
        std::vector<uint64_t> Out;
        for (size_t I = 0; I < M; ++I)
          if (Res.Committed[I])
            Out.push_back(I);
        co_return Out;
      },
      Opts);
}
