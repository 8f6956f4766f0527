//===- Pbbs.cpp - The pbbs_fixpoint and pbbs_rounds workloads -------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A PBBS job is a fixed bundle of kernel calls on inputs generated once
/// from the workload seed. The same job runs three ways - the sequential
/// references, the LVar versions at one worker, and the LVar versions at
/// every hardware thread - in interleaved rounds, and every LVar output is
/// compared with the reference computed during set-up.
///
/// pbbs_fixpoint is the handler-driven workload (componentsLVar on uniform
/// and power-law graphs, bfsReach on uniform graphs); its inputs fit in
/// L2. pbbs_rounds is put-heavy and handler-free (bfsLevels,
/// histogramLVar, removeDuplicatesLVar, spanningForestLVar); its key
/// stream is larger than L2.
///
//===----------------------------------------------------------------------===//

#include "lvperf/Common.h"

#include "src/pbbs/Pbbs.h"

#include <array>
#include <functional>

using namespace lvperf;
using namespace lvish;
using namespace lvish::pbbs;

namespace {

/// One kernel of a job, called once per input instance. Seq runs the
/// sequential reference on an instance and reports whether it reproduced
/// the set-up answer; Par does the same for the LVar version under the
/// given options. The comparison is timed with the call; it is a linear
/// scan, well under 1% of either.
struct Kernel {
  const char *Name;
  unsigned Instances;
  std::function<bool(unsigned)> Seq;
  std::function<bool(unsigned, const RunOptions &)> Par;
};

/// Sequential samples repeat the reference this many times so one timed
/// sample lasts milliseconds, not microseconds.
struct JobShape {
  std::vector<Kernel> Kernels;
  int SeqRepeat = 1;
};

enum class Mode { Seq, W1, Wmax };

class PbbsDriver {
public:
  PbbsDriver(Result &R, Tracer &Tr, const JobShape &Shape)
      : R(R), Tr(Tr), Shape(Shape), PerKernel(Shape.Kernels.size()) {}

  /// Runs one job in \p M and returns its wall time in seconds: the sum
  /// of its timed kernel calls (per repetition, for Mode::Seq).
  double job(Mode M) {
    static const char *const JobName[] = {"job_seq", "job_w1", "job_wmax"};
    uint32_t Id = ++Jobs;
    Span JobSpan(Tr, "bench", JobName[static_cast<int>(M)], Id);
    SchedulerStats Stats;
    RunOptions Opts = RunOptions::CollectStats(Stats);
    Opts.Config.NumWorkers = M == Mode::W1 ? 1 : hardwareWorkers();
    JobCounters C;
    double Total = 0;
    for (size_t K = 0; K < Shape.Kernels.size(); ++K) {
      const Kernel &Kn = Shape.Kernels[K];
      bool Ok = true;
      double T = 0;
      if (M == Mode::Seq) {
        for (int Rep = 0; Rep < Shape.SeqRepeat; ++Rep)
          for (unsigned In = 0; In < Kn.Instances; ++In) {
            Span S(Tr, "pbbs", Kn.Name, Id);
            WallTimer W;
            Ok &= Kn.Seq(In);
            T += W.elapsedSeconds();
          }
        T /= Shape.SeqRepeat;
      } else {
        for (unsigned In = 0; In < Kn.Instances; ++In) {
          TelemetryWindow Tw;
          {
            Span S(Tr, "pbbs", Kn.Name, Id);
            WallTimer W;
            Ok &= Kn.Par(In, Opts);
            T += W.elapsedSeconds();
          }
          Tw.finishInto(C);
          C.addSched(Stats);
        }
      }
      R.Gate.check(Ok, std::string(Kn.Name) + " output differs from its "
                                              "sequential reference");
      PerKernel[K][static_cast<int>(M)].push_back(T);
      Total += T;
    }
    if (M == Mode::W1)
      R.Counters.addW1(C);
    else if (M == Mode::Wmax)
      R.Counters.addWmax(C);
    return Total;
  }

  void reportKernels() {
    static const char *const Suffix[] = {"_seq_s", "_w1_s", "_wmax_s"};
    for (size_t K = 0; K < Shape.Kernels.size(); ++K)
      for (int M = 0; M < 3; ++M)
        R.note(std::string("pbbs.") + Shape.Kernels[K].Name + Suffix[M],
               median(PerKernel[K][M]));
  }

private:
  Result &R;
  Tracer &Tr;
  const JobShape &Shape;
  uint32_t Jobs = 0;
  std::vector<std::array<std::vector<double>, 3>> PerKernel;
};

Result runPbbs(const Options &O, Tracer &Tr,
               const std::function<void(JobShape &, Result &)> &Setup) {
  Result R;
  JobShape Shape;
  double SetupS = timedSetup(SetupReps, [&] {
    Shape = JobShape();
    R.Record.clear();
    Setup(Shape, R);
  });
  R.e2e("setup_s", SetupS, "s");
  R.note("seq_repeat", Shape.SeqRepeat);

  PbbsDriver D(R, Tr, Shape);
  JobSamples S = interleave(
      Tr, O.Seconds, [&] { return D.job(Mode::Seq); },
      [&] { return D.job(Mode::W1); }, [&] { return D.job(Mode::Wmax); },
      [] {});
  reportJobs(R, S);
  reportCounters(R);
  D.reportKernels();
  // Every LVar kernel call is one runPar session.
  double Calls = 0;
  for (const Kernel &K : Shape.Kernels)
    Calls += K.Instances;
  R.note("sessions_per_s", Calls / median(S.Wmax));
  return R;
}

/// Input seeds: one stream per input, all derived from the workload seed.
uint64_t inputSeed(uint64_t Seed, uint64_t Which) {
  return Seed * 0x9e3779b97f4a7c15ULL + Which;
}

} // namespace

// --- pbbs_fixpoint -------------------------------------------------------
// Sizes put a w1 job at a few hundred milliseconds: componentsLVar is
// label-correcting churn and bfsReach pays one handler task per reached
// vertex, so both grow faster than linearly. Each kernel runs on
// FixInstances graphs so one seed's luck in graph shape moves the job less.
constexpr uint32_t FixInstances = 3;
constexpr uint32_t FixComponentsN = 2000, FixReachN = 2500;
constexpr uint32_t FixDegree = 8;

Result lvperf::runPbbsFixpoint(const Options &O, Tracer &Tr) {
  struct Inputs {
    std::vector<Graph> Uniform, PowerLaw, Reach;
    std::vector<std::vector<uint32_t>> UniformCC, PowerLawCC, Reached;
  };
  Inputs In;
  return runPbbs(O, Tr, [&](JobShape &Shape, Result &R) {
    In = Inputs();
    for (uint32_t K = 0; K < FixInstances; ++K) {
      In.Uniform.push_back(makeUniformGraph(FixComponentsN, FixDegree,
                                            inputSeed(O.Seed, 10 + K)));
      In.PowerLaw.push_back(makePowerLawGraph(FixComponentsN, FixDegree,
                                              inputSeed(O.Seed, 20 + K)));
      In.Reach.push_back(
          makeUniformGraph(FixReachN, FixDegree, inputSeed(O.Seed, 30 + K)));
      In.UniformCC.push_back(componentsSeq(In.Uniform.back()));
      In.PowerLawCC.push_back(componentsSeq(In.PowerLaw.back()));
      In.Reached.push_back(bfsReachSeq(In.Reach.back(), 0));
    }
    const Inputs *I = &In;
    Shape.SeqRepeat = 40;
    Shape.Kernels = {
        {"components_uniform", FixInstances,
         [I](unsigned K) {
           return componentsSeq(I->Uniform[K]) == I->UniformCC[K];
         },
         [I](unsigned K, const RunOptions &Op) {
           return componentsLVar(I->Uniform[K], Op) == I->UniformCC[K];
         }},
        {"components_powerlaw", FixInstances,
         [I](unsigned K) {
           return componentsSeq(I->PowerLaw[K]) == I->PowerLawCC[K];
         },
         [I](unsigned K, const RunOptions &Op) {
           return componentsLVar(I->PowerLaw[K], Op) == I->PowerLawCC[K];
         }},
        {"bfs_reach", FixInstances,
         [I](unsigned K) {
           return bfsReachSeq(I->Reach[K], 0) == I->Reached[K];
         },
         [I](unsigned K, const RunOptions &Op) {
           return bfsReach(I->Reach[K], 0, Op) == I->Reached[K];
         }},
    };
    R.note("input.instances_per_kernel", FixInstances);
    R.note("input.components_vertices", FixComponentsN);
    R.note("input.bfs_reach_vertices", FixReachN);
    R.note("input.avg_degree", FixDegree);
  });
}

// --- pbbs_rounds ---------------------------------------------------------
constexpr uint32_t RoundsBfsN = 20000, RoundsForestN = 20000;
constexpr uint32_t RoundsDegree = 8;
constexpr size_t RoundsKeys = 200000;
constexpr uint64_t RoundsUniverse = 1 << 16, RoundsBuckets = 512;

Result lvperf::runPbbsRounds(const Options &O, Tracer &Tr) {
  struct Inputs {
    Graph Bfs;
    EdgeList Forest;
    std::vector<uint64_t> Keys;
    std::vector<uint32_t> Levels;
    std::vector<uint64_t> Hist, Distinct, ForestEdges;
  };
  Inputs In;
  return runPbbs(O, Tr, [&](JobShape &Shape, Result &R) {
    In.Bfs = makeUniformGraph(RoundsBfsN, RoundsDegree, inputSeed(O.Seed, 11));
    In.Forest = toEdgeList(
        makeUniformGraph(RoundsForestN, RoundsDegree, inputSeed(O.Seed, 12)));
    In.Keys = makeSkewedKeys(RoundsKeys, RoundsUniverse, inputSeed(O.Seed, 13));
    In.Levels = bfsSeq(In.Bfs, 0);
    In.Hist = histogramSeq(In.Keys, RoundsBuckets);
    In.Distinct = removeDuplicatesSeq(In.Keys);
    In.ForestEdges = spanningForestSeq(In.Forest);
    const Inputs *I = &In;
    Shape.SeqRepeat = 2;
    Shape.Kernels = {
        {"bfs_levels", 1,
         [I](unsigned) { return bfsSeq(I->Bfs, 0) == I->Levels; },
         [I](unsigned, const RunOptions &Op) {
           return bfsLevels(I->Bfs, 0, Op) == I->Levels;
         }},
        {"histogram", 1,
         [I](unsigned) {
           return histogramSeq(I->Keys, RoundsBuckets) == I->Hist;
         },
         [I](unsigned, const RunOptions &Op) {
           return histogramLVar(I->Keys, RoundsBuckets, Op) == I->Hist;
         }},
        {"remove_duplicates", 1,
         [I](unsigned) { return removeDuplicatesSeq(I->Keys) == I->Distinct; },
         [I](unsigned, const RunOptions &Op) {
           return removeDuplicatesLVar(I->Keys, Op) == I->Distinct;
         }},
        {"spanning_forest", 1,
         [I](unsigned) {
           return spanningForestSeq(I->Forest) == I->ForestEdges;
         },
         [I](unsigned, const RunOptions &Op) {
           return spanningForestLVar(I->Forest, Op) == I->ForestEdges;
         }},
    };
    R.note("input.bfs_levels_vertices", RoundsBfsN);
    R.note("input.spanning_forest_vertices", RoundsForestN);
    R.note("input.spanning_forest_edges",
           static_cast<double>(In.Forest.Edges.size()));
    R.note("input.avg_degree", RoundsDegree);
    R.note("input.keys", static_cast<double>(RoundsKeys));
    R.note("input.key_universe", static_cast<double>(RoundsUniverse));
    R.note("input.histogram_buckets", static_cast<double>(RoundsBuckets));
  });
}
