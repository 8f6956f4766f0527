//===- RFDistance.cpp - Robinson-Foulds distance matrices ------------------===//

#include "src/phybin/RFDistance.h"

#include "src/core/LVish.h"
#include "src/core/ParFor.h"
#include "src/data/Counter.h"
#include "src/data/IMap.h"
#include "src/data/ISet.h"
#include "src/phybin/Bipartition.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

using namespace lvish;
using namespace lvish::phybin;

DistanceMatrix phybin::rfNaivePairwise(const TreeSet &Trees) {
  size_t N = Trees.numTrees();
  size_t S = Trees.numSpecies();
  DistanceMatrix D(N);
  // Deliberately re-extracts bipartitions per pair: this is the locality
  // profile of the N^2/2-metric-applications tools (Phylip, DendroPy).
  for (size_t I = 0; I < N; ++I)
    for (size_t J = I + 1; J < N; ++J) {
      auto BI = extractBipartitions(Trees.Trees[I], S);
      auto BJ = extractBipartitions(Trees.Trees[J], S);
      D.set(I, J, static_cast<uint32_t>(symmetricDifferenceSize(BI, BJ)));
    }
  return D;
}

DistanceMatrix phybin::rfHashRFSequential(const TreeSet &Trees) {
  size_t N = Trees.numTrees();
  size_t S = Trees.numSpecies();

  // Phase 1 (Figure 3): biptable :: bipartition -> set of trees.
  // The per-tree bipartition counts are kept for the final subtraction.
  struct BipHash {
    uint64_t operator()(const DenseLabelSet &B) const { return B.hash(); }
  };
  std::unordered_map<DenseLabelSet, std::vector<uint32_t>, BipHash> BipTable;
  std::vector<uint32_t> BipCount(N, 0);
  for (size_t T = 0; T < N; ++T) {
    auto Bips = extractBipartitions(Trees.Trees[T], S);
    BipCount[T] = static_cast<uint32_t>(Bips.size());
    for (DenseLabelSet &B : Bips)
      BipTable[std::move(B)].push_back(static_cast<uint32_t>(T));
  }

  // Phase 2: count shared bipartitions per tree pair; this reads only the
  // (much smaller) per-bipartition tree sets. RF(t1,t2) =
  // |bips t1| + |bips t2| - 2*shared(t1,t2).
  std::vector<uint32_t> Shared(N * N, 0);
  for (const auto &[Bip, Members] : BipTable) {
    (void)Bip;
    for (size_t A = 0; A < Members.size(); ++A)
      for (size_t B = A + 1; B < Members.size(); ++B)
        ++Shared[size_t(Members[A]) * N + Members[B]];
  }
  DistanceMatrix D(N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = I + 1; J < N; ++J)
      D.set(I, J, BipCount[I] + BipCount[J] - 2 * Shared[I * N + J]);
  return D;
}

namespace {

/// Effect level of the parallel distance computation: LVar writes and
/// reads, non-idempotent counter bumps, and the two phase-boundary freezes
/// (each performed after a full fork-join, where freezing is
/// deterministic - the runParThenFreeze argument applied mid-session).
constexpr EffectSet PhyBinEff{true, true, true, true, false, false};

using TreeSetLV = ISet<uint32_t>;
struct BipHashLV {
  uint64_t operator()(const DenseLabelSet &B) const { return B.hash(); }
};
using BipTableLV =
    IMap<DenseLabelSet, std::shared_ptr<TreeSetLV>, BipHashLV>;

Par<DistanceMatrix> rfParallelBody(ParCtx<PhyBinEff> Ctx,
                                   const TreeSet *Trees) {
  size_t N = Trees->numTrees();
  size_t S = Trees->numSpecies();

  auto BipTable = std::make_shared<BipTableLV>(Ctx.sessionId());
  // Written disjointly (one slot per tree) by phase 1: the DPJ-style
  // disjoint-update pattern, safe without atomics.
  auto BipCount = std::make_shared<std::vector<uint32_t>>(N, 0);

  // Phase 1: all trees in parallel, inserting into the map-of-sets.
  uint64_t Session = Ctx.sessionId();
  auto Phase1 = [BipTable, BipCount, Trees, S,
                 Session](ParCtx<PhyBinEff> C, size_t T) {
    auto Bips = extractBipartitions(Trees->Trees[T], S);
    (*BipCount)[T] = static_cast<uint32_t>(Bips.size());
    for (const DenseLabelSet &B : Bips) {
      // Heterogeneous call the generic modifyKey wrapper cannot express
      // (the factory returns a nested LVar). lvish-lint: allow(state-bypass)
      const std::shared_ptr<TreeSetLV> &Set = BipTable->modifyKey(
          B, [Session] { return std::make_shared<TreeSetLV>(Session); },
          C.task());
      insert(C, *Set, static_cast<uint32_t>(T));
    }
  };
  co_await parallelFor(Ctx, 0, N, 4, Phase1);

  // Phase boundary: the join above guarantees quiescence of all inserts,
  // so freezing here is deterministic.
  // lvish-lint: allow(state-bypass) - post-join quiescent freeze.
  BipTable->markFrozen();
  std::vector<std::shared_ptr<TreeSetLV>> Entries;
  BipTable->forEachFrozen(
      [&Entries](const DenseLabelSet &, const std::shared_ptr<TreeSetLV> &V) {
        Entries.push_back(V);
      });

  // Phase 2: one task per chunk of bipartitions, bumping the shared-pair
  // counters (the "vector of monotonic bump counters").
  auto SharedCounts = newCounterVec(Ctx, N * N);
  auto EntriesPtr = &Entries;
  auto Phase2 = [SharedCounts, EntriesPtr, N](ParCtx<PhyBinEff> C,
                                              size_t EI) {
    TreeSetLV &Members = *(*EntriesPtr)[EI];
    // Quiescent since phase 1's join. lvish-lint: allow(state-bypass)
    Members.markFrozen();
    std::vector<uint32_t> List;
    Members.forEachFrozen(
        [&List](const uint32_t &T) { List.push_back(T); });
    std::sort(List.begin(), List.end());
    for (size_t A = 0; A < List.size(); ++A)
      for (size_t B = A + 1; B < List.size(); ++B)
        incrCounterAt(C, *SharedCounts,
                      size_t(List[A]) * N + List[B]);
  };
  co_await parallelFor(Ctx, 0, Entries.size(), 8, Phase2);

  // Final pure pass: assemble the matrix.
  std::vector<uint64_t> Shared = freezeCounterVec(Ctx, *SharedCounts);
  DistanceMatrix D(N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = I + 1; J < N; ++J)
      D.set(I, J,
            (*BipCount)[I] + (*BipCount)[J] -
                2 * static_cast<uint32_t>(Shared[I * N + J]));
  co_return D;
}

} // namespace

DistanceMatrix phybin::rfHashRFParallelOn(service::Runtime &RT,
                                          const TreeSet &Trees) {
  const TreeSet *Ptr = &Trees;
  return RT.runIO<PhyBinEff>([Ptr](ParCtx<PhyBinEff> Ctx)
                                 -> Par<DistanceMatrix> {
           DistanceMatrix D = co_await rfParallelBody(Ctx, Ptr);
           co_return D;
         })
      .valueOrAbort();
}

DistanceMatrix phybin::rfHashRFParallel(const TreeSet &Trees,
                                        const SchedulerConfig &Config) {
  service::RuntimeConfig RC;
  RC.Sched = Config;
  service::Runtime RT(RC);
  return rfHashRFParallelOn(RT, Trees);
}
