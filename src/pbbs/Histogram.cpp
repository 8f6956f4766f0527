//===- Histogram.cpp - PBBS histogram / removeDuplicates on LVars ----------===//

#include "src/pbbs/Histogram.h"

#include "src/core/ParFor.h"
#include "src/data/Counter.h"
#include "src/data/ISet.h"
#include "src/pbbs/Input.h"

#include <algorithm>

using namespace lvish;
using namespace lvish::pbbs;

namespace {

/// bump (the counts), put+get (parallelFor), freeze (the exact read).
constexpr EffectSet HistEff{true, true, true, true, false, false};
constexpr size_t KeyGrain = 256;
/// Keys per histogram leaf, in multiples of the bucket count: enough that
/// one bump per nonzero bucket costs little next to counting the keys.
constexpr size_t KeysPerBucket = 8;

} // namespace

std::vector<uint64_t> pbbs::histogramLVar(const std::vector<uint64_t> &Keys,
                                          uint64_t NumBuckets,
                                          const RunOptions &Opts) {
  const uint64_t *KP = Keys.data();
  size_t N = Keys.size();
  return runParIO<HistEff>(
      [KP, N, NumBuckets](ParCtx<HistEff> Ctx) -> Par<std::vector<uint64_t>> {
        auto Counts = newCounterVec(Ctx, NumBuckets);
        CounterVec *CP = Counts.get();
        // Each leaf counts its own block of keys locally, then bumps each
        // nonzero bucket once. Bumps commute, so the frozen counts do not
        // depend on how blocks interleave. Tiny inputs still split into
        // about 8 blocks (pickGrain).
        size_t Blocks = std::max<size_t>(
            1, N / pickGrain(KeysPerBucket * NumBuckets, N));
        auto Body = [KP, N, CP, NumBuckets, Blocks](ParCtx<HistEff> C,
                                                    size_t B) {
          std::vector<uint64_t> Local(NumBuckets, 0);
          for (size_t I = N * B / Blocks, E = N * (B + 1) / Blocks; I < E;
               ++I)
            ++Local[KP[I] % NumBuckets];
          for (size_t K = 0; K < NumBuckets; ++K)
            if (Local[K] != 0)
              incrCounterAt(C, *CP, K, Local[K]);
        };
        co_await parallelFor(Ctx, 0, Blocks, 1, Body);
        co_return freezeCounterVec(Ctx, *Counts);
      },
      Opts);
}

namespace {

constexpr EffectSet DedupEff = Eff::QuasiDet;

} // namespace

std::vector<uint64_t>
pbbs::removeDuplicatesLVar(const std::vector<uint64_t> &Keys,
                           const RunOptions &Opts) {
  const uint64_t *KP = Keys.data();
  size_t N = Keys.size();
  return runParIO<DedupEff>(
      [KP, N](ParCtx<DedupEff> Ctx) -> Par<std::vector<uint64_t>> {
        auto Distinct = newISet<uint64_t>(Ctx);
        ISet<uint64_t> *DP = Distinct.get();
        auto Body = [KP, DP](ParCtx<DedupEff> C, size_t I) {
          insert(C, *DP, KP[I]);
        };
        co_await parallelFor(Ctx, 0, N, pickGrain(KeyGrain, N), Body);
        // Quiescent at the barrier: the freeze is deterministic and the
        // sorted snapshot is the canonical dedup result.
        co_return freezeSet(Ctx, *Distinct);
      },
      Opts);
}
