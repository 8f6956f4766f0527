//===- bench_pbbs_components.cpp - PBBS connected components on LVars ------===//
//
// The PBBS connectivity port (src/pbbs/ConnectedComponents.h): BFS-sweep
// sequential reference vs union-find on a partition LVar (`_lvar_w*`)
// and vs min-label propagation over a MinMap handler fixpoint
// (`_labelprop_w*`, the batched-flush handler stress case), swept over
// input sizes, both graph distributions, and worker counts. The
// power-law instance is the label-propagation stress case: its hub
// vertices fan every label improvement out to thousands of neighbors.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchHarness.h"
#include "src/pbbs/Pbbs.h"

#include <string>
#include <vector>

using namespace lvish;
using namespace lvish::pbbs;

namespace {

volatile uint64_t Sink; // Defeats dead-code elimination of results.

} // namespace

int main(int argc, char **argv) {
  bench::BenchHarness H("pbbs_components",
                        bench::BenchConfig::fromArgs(argc, argv));
  // Smaller than the BFS sweep: min-label propagation pays a batched
  // handler delta per winning label decrease, a deliberately chatty
  // idiom whose residual churn grows faster than the input. Union-find
  // makes one put per edge.
  const uint32_t BaseN = H.config().pick<uint32_t>(8'000, 800);
  const uint32_t AvgDegree = 6;
  constexpr uint64_t Seed = 42;
  H.noteConfig("base_vertices", uint64_t{BaseN});
  H.noteConfig("avg_degree", uint64_t{AvgDegree});
  H.noteConfig("input_seed", Seed);

  SchedulerStats Total;
  // 2x (not the 4x of the other sweeps): label churn is superlinear, and
  // the point of the sweep is the scaling shape, not a wall-clock soak.
  for (uint32_t N : {BaseN, 2 * BaseN}) { // Input-size sweep.
    for (bool PowerLaw : {false, true}) {
      Graph G = PowerLaw ? makePowerLawGraph(N, AvgDegree, Seed)
                         : makeUniformGraph(N, AvgDegree, Seed);
      std::string Tag = std::string(PowerLaw ? "powerlaw" : "uniform") +
                        "_n" + std::to_string(N);
      bench::Series &Seq = H.measure(Tag + "_seq", [&] {
        Sink = Sink + componentsSeq(G).size();
      });
      Seq.config("vertices", N);
      double SeqSec = Seq.medianSec();
      const struct {
        const char *Suffix;
        std::vector<uint32_t> (*Run)(const Graph &, const RunOptions &);
      } Kernels[] = {{"_lvar_w", componentsLVar},
                     {"_labelprop_w", componentsLabelProp}};
      for (const auto &Kn : Kernels)
        for (unsigned W : {1u, 2u, 4u, 8u}) {
          std::string Name = Tag + Kn.Suffix + std::to_string(W);
          bench::Series &S = H.measure(Name, [&] {
            SchedulerStats Stats;
            RunOptions Opts = RunOptions::CollectStats(Stats);
            Opts.Config.NumWorkers = W;
            Sink = Sink + Kn.Run(G, Opts).size();
            Total += Stats;
          });
          S.config("vertices", N);
          S.config("workers", W);
          if (S.medianSec() > 0)
            S.metric("speedup_vs_seq", SeqSec / S.medianSec());
        }
    }
  }
  H.recordStats(Total);
  return H.finish();
}
