//===- main.cpp - lvperf: the repository benchmark ------------------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
///   lvperf --workload pbbs_fixpoint|pbbs_rounds|service_mix --seed N
///          --seconds S --trace 0|1 [--out DIR]
///
/// Prints a run record (one JSON line) and, as the last line, the result:
/// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
/// metrics are the end-to-end ones; with --trace 1 the run records spans,
/// adds the unit-cost probes, and the metrics are the per-layer ones (the
/// span file goes to DIR). Exits 1 when any job's output was wrong or a
/// w1 counter drifted, 2 on a usage error. See README.md for the metrics.
///
//===----------------------------------------------------------------------===//

#include "lvperf/Common.h"

#include "src/obs/Json.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/resource.h>

using namespace lvperf;

namespace {

/// The seed later performance claims are confirmed on; never used while
/// a change is being written.
constexpr uint64_t HeldOutSeed = 20140609;

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    const char *Flag = Argv[I], *Val = Argv[I + 1];
    char *End = nullptr;
    if (!std::strcmp(Flag, "--workload")) {
      O.Workload = Val;
    } else if (!std::strcmp(Flag, "--seed")) {
      O.Seed = std::strtoull(Val, &End, 10);
      if (*End)
        return false;
    } else if (!std::strcmp(Flag, "--seconds")) {
      O.Seconds = std::strtod(Val, &End);
      if (*End || !(O.Seconds > 0 && O.Seconds <= 600))
        return false;
    } else if (!std::strcmp(Flag, "--trace")) {
      if (std::strcmp(Val, "0") && std::strcmp(Val, "1"))
        return false;
      O.Trace = Val[0] == '1';
    } else if (!std::strcmp(Flag, "--out")) {
      O.OutDir = Val;
    } else {
      return false;
    }
  }
  return Argc % 2 == 1 && !O.Workload.empty();
}

double maxRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

void writeMetrics(lvish::obs::JsonWriter &W, const std::vector<Metric> &Ms) {
  W.beginObject();
  for (const Metric &M : Ms) {
    W.key(M.Name);
    W.beginObject();
    W.key("value");
    W.value(M.Value);
    W.key("unit");
    W.value(M.Unit);
    W.endObject();
  }
  W.endObject();
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr, "usage: lvperf --workload NAME --seed N --seconds S "
                         "--trace 0|1 [--out DIR]\n");
    return 2;
  }
  Result (*Run)(const Options &, Tracer &) = nullptr;
  if (O.Workload == "pbbs_fixpoint")
    Run = runPbbsFixpoint;
  else if (O.Workload == "pbbs_rounds")
    Run = runPbbsRounds;
  else if (O.Workload == "service_mix")
    Run = runServiceMix;
  if (!Run) {
    std::fprintf(stderr, "lvperf: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }

  double CapacityBefore = hostParallelCapacity();
  Tracer Tr(O.Trace);
  Tr.setRecording(true);
  Result R = Run(O, Tr);
  R.note("host.parallel_capacity_before", CapacityBefore);
  R.note("host.parallel_capacity_after", hostParallelCapacity());
  R.e2e("max_rss_mb", maxRssMb(), "MB");
  std::string TraceFile;
  if (O.Trace) {
    runProbes(R, Tr);
    for (const auto &[Layer, Secs] : Tr.selfSeconds())
      R.note("trace.self_s." + Layer, Secs);
    R.note("trace.spans", static_cast<double>(Tr.size()));
    TraceFile = O.OutDir + "/trace_" + O.Workload + "_seed" +
                std::to_string(O.Seed) + ".json";
    if (!Tr.write(TraceFile))
      R.Gate.check(false, "cannot write span file " + TraceFile);
  }
  bool Correct = R.Gate.Failed == 0 && !R.Counters.drifted();

  lvish::obs::JsonWriter Rec;
  Rec.beginObject();
  Rec.key("run_record");
  Rec.beginObject();
  Rec.key("workload");
  Rec.value(O.Workload);
  Rec.key("seed");
  Rec.value(O.Seed);
  Rec.key("held_out_seed");
  Rec.value(HeldOutSeed);
  Rec.key("seconds");
  Rec.value(O.Seconds);
  Rec.key("traced");
  Rec.value(O.Trace);
  Rec.key("git_rev");
  Rec.value(lvish::obs::gitRevision());
  Rec.key("nproc");
  Rec.value(hardwareWorkers());
  Rec.key("w1_workers");
  Rec.value(1u);
  if (!TraceFile.empty()) {
    Rec.key("trace_file");
    Rec.value(TraceFile);
  }
  Rec.key("first_failure");
  Rec.value(R.Gate.FirstFailure);
  Rec.key("counter_drift");
  Rec.value(R.Counters.drift());
  for (const auto &[Name, V] : R.Record) {
    Rec.key(Name);
    Rec.value(V);
  }
  Rec.key("end_to_end");
  writeMetrics(Rec, R.EndToEnd);
  Rec.endObject();
  Rec.endObject();
  std::printf("%s\n", Rec.str().c_str());

  if (!R.Gate.FirstFailure.empty())
    std::fprintf(stderr, "lvperf: FAILED: %s\n", R.Gate.FirstFailure.c_str());
  if (R.Counters.drifted())
    std::fprintf(stderr, "lvperf: FAILED: %s\n", R.Counters.drift().c_str());

  lvish::obs::JsonWriter W;
  W.beginObject();
  W.key("correct");
  W.value(Correct);
  W.key("attempted");
  W.value(R.Gate.Attempted);
  W.key("failed");
  W.value(R.Gate.Failed);
  W.key("metrics");
  writeMetrics(W, O.Trace ? R.PerLayer : R.EndToEnd);
  W.endObject();
  std::printf("%s\n", W.str().c_str());
  return Correct ? 0 : 1;
}
