//===- ConnectedComponents.cpp - PBBS connectivity on LVars ----------------===//

#include "src/pbbs/ConnectedComponents.h"

#include "src/core/HandlerPool.h"
#include "src/core/ParFor.h"
#include "src/data/MinMap.h"
#include "src/data/UnionFind.h"

using namespace lvish;
using namespace lvish::pbbs;

namespace {

/// put (unite) and get (the parallelFor barrier); the partition is frozen
/// on the way out of the session.
constexpr EffectSet UfEff = Eff::Det;
constexpr size_t UniteGrain = 128;

} // namespace

std::vector<uint32_t> pbbs::componentsLVar(const Graph &G,
                                           const RunOptions &Opts) {
  const Graph *GP = &G;
  uint32_t N = G.NumVertices;
  if (N == 0)
    return {};
  auto Parts = runParThenFreeze<UfEff>(
      [GP, N](ParCtx<UfEff> Ctx) -> Par<std::shared_ptr<UnionFind>> {
        auto UF = newUnionFind(Ctx, N);
        UnionFind *UP = UF.get();
        // Each undirected edge is united once, from its smaller endpoint.
        auto Body = [UP, GP](ParCtx<UfEff> C, size_t V) {
          uint32_t U = static_cast<uint32_t>(V);
          for (const uint32_t *W = GP->neighborsBegin(U),
                              *End = GP->neighborsEnd(U);
               W != End; ++W)
            if (*W > U)
              unite(C, *UP, U, *W);
        };
        co_await parallelFor(Ctx, 0, N, pickGrain(UniteGrain, N), Body);
        co_return UF;
      },
      Opts);
  return Parts->labels();
}

namespace {

/// put (seeding + relaxation), get (parallelFor + quiesce), freeze (the
/// final labeled snapshot after the fixpoint).
constexpr EffectSet CcEff = Eff::QuasiDet;
/// The relaxation handler only ever writes (putMin), so it is registered
/// with no more than put (least privilege).
constexpr EffectSet RelaxEff{/*put*/ true,    /*get*/ false,
                             /*bump*/ false,  /*freeze*/ false,
                             /*io*/ false,    /*st*/ false};
constexpr size_t SeedGrain = 128;

} // namespace

std::vector<uint32_t> pbbs::componentsLabelProp(const Graph &G,
                                                const RunOptions &Opts) {
  const Graph *GP = &G;
  uint32_t N = G.NumVertices;
  if (N == 0)
    return {};
  return runParIO<CcEff>(
      [GP, N](ParCtx<CcEff> Ctx) -> Par<std::vector<uint32_t>> {
        auto Labels = newMinMap<uint32_t>(Ctx);
        auto Pool = newPool(Ctx);
        // Relaxation: each winning decrease of label[v] pushes the new
        // label to every neighbor. Non-improving pushes are no-op joins,
        // so the cascade dies out exactly at the fixpoint. A plain call:
        // the pool batches the decreases per worker and one flush task
        // runs them in a loop.
        auto Relax = [GP](ParCtx<RelaxEff> C, MinMap<uint32_t> &M,
                          const std::pair<uint32_t, uint64_t> &D) {
          uint32_t V = D.first;
          uint64_t L = D.second;
          // Stale-wave cutoff: if label[V] has already dropped below L,
          // the handler run for that smaller delta pushes a value that
          // strictly subsumes L at every neighbor (min-join), so pushing
          // L here could only seed doomed churn. The advisory peek cannot
          // change the fixpoint - it only skips no-op-bound work - so the
          // frozen result stays schedule-independent.
          auto Cur = M.peekKey(V);
          if (Cur && *Cur < L)
            return;
          for (const uint32_t *W = GP->neighborsBegin(V),
                              *End = GP->neighborsEnd(V);
               W != End; ++W)
            putMin(C, M, *W, L);
        };
        [[maybe_unused]] HandlerHandle H = addHandlerRef(
            ParCtx<RelaxEff>(Ctx), Pool, *Labels, Relax);
        MinMap<uint32_t> *MP = Labels.get();
        // Seed only local minima (vertices smaller than every neighbor).
        // A component's final label - its smallest vertex id - is always a
        // local minimum, so the fixpoint is unchanged, but the N - |minima|
        // waves that were doomed to lose never start. Without this filter
        // every vertex launches a wave and the relaxation cascade degrades
        // to quadratic label churn under adversarial task orders.
        auto SeedBody = [MP, GP](ParCtx<CcEff> C, size_t V) {
          uint32_t U = static_cast<uint32_t>(V);
          for (const uint32_t *W = GP->neighborsBegin(U),
                              *End = GP->neighborsEnd(U);
               W != End; ++W)
            if (*W < U)
              return;
          putMin(C, *MP, U, static_cast<uint64_t>(V));
        };
        co_await parallelFor(Ctx, 0, N, pickGrain(SeedGrain, N), SeedBody);
        co_await quiesce(Ctx, Pool);
        // Post-quiescence freeze: deterministic exact contents.
        auto Frozen = freezeMinMap(Ctx, *Labels);
        std::vector<uint32_t> Out(N, 0);
        for (const auto &[V, L] : Frozen)
          Out[V] = static_cast<uint32_t>(L);
        co_return Out;
      },
      Opts);
}
