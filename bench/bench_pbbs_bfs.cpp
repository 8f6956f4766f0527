//===- bench_pbbs_bfs.cpp - PBBS BFS on LVars ------------------------------===//
//
// The PBBS breadth-first-search port (src/pbbs/Bfs.h): sequential queue
// reference vs the LVar frontier-round port (bfsLevels) and the
// handler-fixpoint port (bfsReach), swept over input sizes, both graph
// distributions, and worker counts. The golden matrix
// (tests/PbbsGoldenTest.cpp) pins the outputs equal; this measures what
// that determinism costs.
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
  bench::BenchHarness H("pbbs_bfs", bench::BenchConfig::fromArgs(argc, argv));
  const uint32_t BaseN = H.config().pick<uint32_t>(50'000, 1'000);
  const uint32_t AvgDegree = 8;
  constexpr uint64_t Seed = 42;
  H.noteConfig("base_vertices", uint64_t{BaseN});
  H.noteConfig("avg_degree", uint64_t{AvgDegree});
  H.noteConfig("input_seed", Seed);

  SchedulerStats Total;
  for (uint32_t N : {BaseN, 4 * BaseN}) { // Input-size sweep.
    for (bool PowerLaw : {false, true}) {
      Graph G = PowerLaw ? makePowerLawGraph(N, AvgDegree, Seed)
                         : makeUniformGraph(N, AvgDegree, Seed);
      std::string Tag = std::string(PowerLaw ? "powerlaw" : "uniform") +
                        "_n" + std::to_string(N);
      bench::Series &Seq = H.measure(Tag + "_seq", [&] {
        Sink = Sink + bfsSeq(G, 0).size();
      });
      Seq.config("vertices", N);
      double SeqSec = Seq.medianSec();
      for (unsigned W : {1u, 2u, 4u, 8u}) {
        bench::Series &S =
            H.measure(Tag + "_levels_w" + std::to_string(W), [&] {
              SchedulerStats Stats;
              RunOptions Opts = RunOptions::CollectStats(Stats);
              Opts.Config.NumWorkers = W;
              Sink = Sink + bfsLevels(G, 0, Opts).size();
              Total += Stats;
            });
        S.config("vertices", N);
        S.config("workers", W);
        if (S.medianSec() > 0)
          S.metric("speedup_vs_seq", SeqSec / S.medianSec());
      }
      // The one-LVar fixpoint port, base size only: its handler cascade
      // is the paper's idiom, not a scaling story. Handlers are plain
      // calls that each worker batches into flush tasks, so w1 against
      // seq is what the LVar layer costs, and w4 is the parallel run.
      if (N == BaseN) {
        for (unsigned W : {1u, 4u}) {
          bench::Series &R =
              H.measure(Tag + "_reach_w" + std::to_string(W), [&] {
                SchedulerStats Stats;
                RunOptions Opts = RunOptions::CollectStats(Stats);
                Opts.Config.NumWorkers = W;
                Sink = Sink + bfsReach(G, 0, Opts).size();
                Total += Stats;
              });
          R.config("vertices", N);
          R.config("workers", W);
          if (W == 1 && SeqSec > 0)
            R.metric("w1_over_seq", R.medianSec() / SeqSec);
        }
      }
    }
  }
  H.recordStats(Total);
  return H.finish();
}
