//===- Bfs.cpp - PBBS breadth-first search on LVars ------------------------===//

#include "src/pbbs/Bfs.h"

#include "src/core/HandlerPool.h"
#include "src/core/ParFor.h"
#include "src/data/DenseSet.h"
#include "src/data/ISet.h"

using namespace lvish;
using namespace lvish::pbbs;

namespace {

/// The frontier-round engine needs put (frontier inserts), get (the
/// parallelFor barrier), and freeze (reading each round's frontier).
constexpr EffectSet BfsEff = Eff::QuasiDet;
constexpr size_t BfsGrain = 64;

} // namespace

std::vector<uint32_t> pbbs::bfsLevels(const Graph &G, uint32_t Source,
                                      const RunOptions &Opts) {
  std::vector<uint32_t> Levels(G.NumVertices, UnreachedLevel);
  if (Source >= G.NumVertices)
    return Levels;
  Levels[Source] = 0;
  const Graph *GP = &G;
  std::vector<uint32_t> *LP = &Levels;
  runParIO<BfsEff>(
      [GP, LP, Source](ParCtx<BfsEff> Ctx) -> Par<void> {
        std::vector<uint32_t> Frontier{Source};
        for (uint32_t Round = 1; !Frontier.empty(); ++Round) {
          auto Next = newISet<uint32_t>(Ctx);
          const std::vector<uint32_t> *FP = &Frontier;
          ISet<uint32_t> *NP = Next.get();
          // Levels is only READ during the round (it was last written
          // between rounds, below); racing discoveries of the same vertex
          // dedup inside the ISet join.
          auto Body = [GP, LP, FP, NP](ParCtx<BfsEff> C, size_t I) {
            uint32_t V = (*FP)[I];
            for (const uint32_t *W = GP->neighborsBegin(V),
                                *End = GP->neighborsEnd(V);
                 W != End; ++W)
              if ((*LP)[*W] == UnreachedLevel)
                insert(C, *NP, *W);
          };
          co_await parallelFor(Ctx, 0, Frontier.size(),
                               pickGrain(BfsGrain, Frontier.size()), Body);
          // The barrier above quiesced every writer of Next: freezing here
          // is deterministic, and the sorted contents give a canonical
          // next frontier regardless of insertion order.
          std::vector<uint32_t> Sorted = freezeSet(Ctx, *Next);
          for (uint32_t W : Sorted)
            (*LP)[W] = Round;
          Frontier = std::move(Sorted);
        }
        co_return;
      },
      Opts);
  return Levels;
}

std::vector<uint32_t> pbbs::bfsReach(const Graph &G, uint32_t Source,
                                     const RunOptions &Opts) {
  if (Source >= G.NumVertices)
    return {};
  constexpr EffectSet E = Eff::Det; // put + get; the freeze is on exit.
  const Graph *GP = &G;
  auto Seen = runParThenFreeze<E>(
      [GP, Source](ParCtx<E> Ctx) -> Par<std::shared_ptr<DenseSet>> {
        // The reached set is a DenseSet over the vertex ids: a repeat
        // discovery is one load, and the exit reads the set bits in
        // ascending order with no sort.
        auto S = newDenseSet(Ctx, GP->NumVertices);
        auto Pool = newPool(Ctx);
        // addHandlerRef: the callback receives the set by reference, so
        // the closure holds no owning pointer back into the LVar (the
        // shared_ptr-cycle hazard of HandlerPool.h). It never awaits, so it
        // is a plain call: the pool batches the reached vertices per worker
        // and one flush task runs them in a loop, with no task per vertex.
        auto Handler = [GP](ParCtx<E> C, DenseSet &SeenRef,
                            const uint32_t &V) {
          for (const uint32_t *W = GP->neighborsBegin(V),
                              *End = GP->neighborsEnd(V);
               W != End; ++W)
            insert(C, SeenRef, *W);
        };
        [[maybe_unused]] HandlerHandle H =
            addHandlerRef(Ctx, Pool, *S, Handler);
        insert(Ctx, *S, Source);
        co_await quiesce(Ctx, Pool);
        co_return S;
      },
      Opts);
  return Seen->toSortedVector();
}
