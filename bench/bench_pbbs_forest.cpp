//===- bench_pbbs_forest.cpp - PBBS spanning forest by BulkRetryT ----------===//
//
// The PBBS spanning-forest port (src/pbbs/SpanningForest.h), the paper's
// Section 6 BulkRetryT story: union-find Kruskal-by-index reference vs
// deterministic reservations through forSpeculative, whose per-edge
// slots hold the endpoints' roots and whose reservations and unions flow
// through a MinVec and a UnionFind, swept over input sizes, both graph
// distributions, and worker counts.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchHarness.h"
#include "src/pbbs/Pbbs.h"

#include <string>

using namespace lvish;
using namespace lvish::pbbs;

namespace {

volatile uint64_t Sink; // Defeats dead-code elimination of results.

} // namespace

int main(int argc, char **argv) {
  bench::BenchHarness H("pbbs_forest",
                        bench::BenchConfig::fromArgs(argc, argv));
  const uint32_t BaseN = H.config().pick<uint32_t>(50'000, 1'000);
  const uint32_t AvgDegree = 6;
  constexpr uint64_t Seed = 42;
  H.noteConfig("base_vertices", uint64_t{BaseN});
  H.noteConfig("avg_degree", uint64_t{AvgDegree});
  H.noteConfig("input_seed", Seed);

  SchedulerStats Total;
  for (uint32_t N : {BaseN, 4 * BaseN}) { // Input-size sweep.
    for (bool PowerLaw : {false, true}) {
      Graph G = PowerLaw ? makePowerLawGraph(N, AvgDegree, Seed)
                         : makeUniformGraph(N, AvgDegree, Seed);
      EdgeList EL = toEdgeList(G);
      std::string Tag = std::string(PowerLaw ? "powerlaw" : "uniform") +
                        "_n" + std::to_string(N);
      bench::Series &Seq = H.measure(Tag + "_seq", [&] {
        Sink = Sink + spanningForestSeq(EL).size();
      });
      Seq.config("vertices", N);
      Seq.config("edges", static_cast<uint64_t>(EL.Edges.size()));
      double SeqSec = Seq.medianSec();
      for (unsigned W : {1u, 2u, 4u, 8u}) {
        bench::Series &S =
            H.measure(Tag + "_lvar_w" + std::to_string(W), [&] {
              SchedulerStats Stats;
              RunOptions Opts = RunOptions::CollectStats(Stats);
              Opts.Config.NumWorkers = W;
              Sink = Sink + spanningForestLVar(EL, Opts).size();
              Total += Stats;
            });
        S.config("vertices", N);
        S.config("edges", static_cast<uint64_t>(EL.Edges.size()));
        S.config("workers", W);
        if (S.medianSec() > 0)
          S.metric("speedup_vs_seq", SeqSec / S.medianSec());
      }
    }
  }
  H.recordStats(Total);
  return H.finish();
}
