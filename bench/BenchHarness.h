//===- BenchHarness.h - Shared benchmark harness ----------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one harness every bench/ executable measures through (enforced by
/// lvish-lint's bench-harness rule). It standardizes:
///
///  * the flag surface: `--reps N`, `--warmup N`, `--smoke` (tiny problem
///    sizes + 1 rep, for CI), `--json PATH`;
///  * methodology: per-series warmup runs, then N timed reps with median,
///    min and stddev derived from the same samples;
///  * the machine-readable result: `--json` writes an `lvish-bench-v1`
///    document - bench name, git revision, config, every series with its
///    raw per-rep times, the final SchedulerStats snapshot, and the
///    process-wide telemetry snapshot.
///
/// Typical shape:
///
///   int main(int argc, char **argv) {
///     bench::BenchHarness H("micro_lvar",
///                           bench::BenchConfig::fromArgs(argc, argv));
///     size_t N = H.config().pick<size_t>(1'000'000, 10'000);
///     H.measure("ivar_roundtrip", [&] { ... });
///     H.recordStats(Sched.stats());
///     return H.finish();
///   }
///
/// `tools/bench-report` validates and diffs the emitted JSON.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_BENCH_BENCHHARNESS_H
#define LVISH_BENCH_BENCHHARNESS_H

#include "src/obs/Json.h"
#include "src/obs/SchedulerStats.h"
#include "src/obs/Telemetry.h"
#include "src/support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace lvish {
namespace bench {

/// Parsed command-line surface shared by every bench executable.
struct BenchConfig {
  int Reps = 5;
  int Warmup = 1;
  bool Smoke = false;
  std::string JsonPath; ///< Empty: no JSON output.

  /// Problem-size selector: the full size normally, the tiny size under
  /// `--smoke` (CI runs every bench end-to-end without the wait).
  template <typename T> T pick(T Full, T SmokeSize) const {
    return Smoke ? SmokeSize : Full;
  }

  /// Parses `--reps N --warmup N --smoke --json PATH`; unknown flags are
  /// reported and rejected so typos fail loudly in CI.
  static BenchConfig fromArgs(int Argc, char **Argv) {
    BenchConfig C;
    bool RepsSet = false, WarmupSet = false;
    for (int I = 1; I < Argc; ++I) {
      auto TakesValue = [&](const char *Flag, const char *&Val) {
        if (std::strcmp(Argv[I], Flag) != 0)
          return false;
        if (I + 1 >= Argc) {
          std::fprintf(stderr, "%s: %s requires a value\n", Argv[0], Flag);
          std::exit(2);
        }
        Val = Argv[++I];
        return true;
      };
      const char *Val = nullptr;
      if (TakesValue("--reps", Val)) {
        C.Reps = std::atoi(Val);
        RepsSet = true;
      } else if (TakesValue("--warmup", Val)) {
        C.Warmup = std::atoi(Val);
        WarmupSet = true;
      } else if (TakesValue("--json", Val)) {
        C.JsonPath = Val;
      } else if (std::strcmp(Argv[I], "--smoke") == 0) {
        C.Smoke = true;
      } else {
        std::fprintf(stderr,
                     "%s: unknown flag '%s' (expected --reps N, --warmup N, "
                     "--smoke, --json PATH)\n",
                     Argv[0], Argv[I]);
        std::exit(2);
      }
    }
    if (C.Smoke) {
      // Smoke mode checks the plumbing, not the numbers.
      if (!RepsSet)
        C.Reps = 1;
      if (!WarmupSet)
        C.Warmup = 0;
    }
    C.Reps = std::max(1, std::min(C.Reps, 64));
    C.Warmup = std::max(0, std::min(C.Warmup, 64));
    return C;
  }
};

/// One measured configuration: raw per-rep times plus derived statistics
/// and any bench-specific scalar metrics (counts, ratios, bytes).
struct Series {
  std::string Name;
  std::vector<std::pair<std::string, std::string>> Config;
  std::vector<double> TimesSec;
  std::vector<std::pair<std::string, double>> Metrics;

  Series &config(std::string Key, std::string Value) {
    Config.emplace_back(std::move(Key), std::move(Value));
    return *this;
  }
  Series &config(std::string Key, uint64_t Value) {
    return config(std::move(Key), std::to_string(Value));
  }
  Series &metric(std::string Key, double Value) {
    Metrics.emplace_back(std::move(Key), Value);
    return *this;
  }

  double minSec() const {
    double M = TimesSec.empty() ? 0 : TimesSec[0];
    for (double T : TimesSec)
      M = std::min(M, T);
    return M;
  }
  double medianSec() const {
    if (TimesSec.empty())
      return 0;
    std::vector<double> S = TimesSec;
    std::sort(S.begin(), S.end());
    return S[S.size() / 2];
  }
  double stddevSec() const {
    if (TimesSec.size() < 2)
      return 0;
    double Mean = 0;
    for (double T : TimesSec)
      Mean += T;
    Mean /= static_cast<double>(TimesSec.size());
    double Var = 0;
    for (double T : TimesSec)
      Var += (T - Mean) * (T - Mean);
    return std::sqrt(Var / static_cast<double>(TimesSec.size() - 1));
  }
};

/// Collects series, scheduler stats and telemetry for one bench run and
/// writes the `lvish-bench-v1` JSON document on finish().
class BenchHarness {
public:
  BenchHarness(std::string Name, BenchConfig C)
      : Name(std::move(Name)), Cfg(std::move(C)) {}

  const BenchConfig &config() const { return Cfg; }

  /// Top-level config recorded into the JSON (problem sizes, worker
  /// counts - whatever makes the run reproducible).
  void noteConfig(std::string Key, std::string Value) {
    TopConfig.emplace_back(std::move(Key), std::move(Value));
  }
  void noteConfig(std::string Key, uint64_t Value) {
    noteConfig(std::move(Key), std::to_string(Value));
  }

  /// Times \p Fn: Warmup unrecorded runs, then Reps recorded ones.
  /// Returns the series for attaching config/metrics.
  template <typename F> Series &measure(std::string SeriesName, F &&Fn) {
    Series S;
    S.Name = std::move(SeriesName);
    for (int I = 0; I < Cfg.Warmup; ++I)
      Fn();
    for (int I = 0; I < Cfg.Reps; ++I) {
      WallTimer T;
      Fn();
      S.TimesSec.push_back(T.elapsedSeconds());
    }
    SeriesList.push_back(std::move(S));
    Series &Out = SeriesList.back();
    std::printf("  [%s/%s] median %.6fs  min %.6fs  stddev %.2e  (%d reps)\n",
                Name.c_str(), Out.Name.c_str(), Out.medianSec(),
                Out.minSec(), Out.stddevSec(), Cfg.Reps);
    return Out;
  }

  /// For benches whose timing loop lives elsewhere (e.g. the kernel DAG
  /// capture): append a series with externally measured times.
  Series &addSeries(std::string SeriesName, std::vector<double> TimesSec) {
    Series S;
    S.Name = std::move(SeriesName);
    S.TimesSec = std::move(TimesSec);
    SeriesList.push_back(std::move(S));
    return SeriesList.back();
  }

  /// Snapshot of the scheduler that did the measured work. Call at least
  /// once (typically last); later calls overwrite.
  void recordStats(const SchedulerStats &S) { Stats = S; }

  /// Writes the JSON document (when `--json` was given) and returns
  /// \p ExitCode, so `return H.finish();` closes out main().
  int finish(int ExitCode = 0) {
    if (Cfg.JsonPath.empty())
      return ExitCode;
    std::string Doc = toJson();
    std::FILE *F = std::fopen(Cfg.JsonPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "bench %s: cannot write %s\n", Name.c_str(),
                   Cfg.JsonPath.c_str());
      return ExitCode ? ExitCode : 1;
    }
    std::fwrite(Doc.data(), 1, Doc.size(), F);
    std::fputc('\n', F);
    std::fclose(F);
    std::printf("  [%s] wrote %s\n", Name.c_str(), Cfg.JsonPath.c_str());
    return ExitCode;
  }

  /// The lvish-bench-v1 document as a string (exposed for tests).
  std::string toJson() const {
    obs::JsonWriter W;
    W.beginObject();
    W.key("schema");
    W.value("lvish-bench-v1");
    W.key("name");
    W.value(Name);
    W.key("git_rev");
    W.value(obs::gitRevision());
    W.key("smoke");
    W.value(Cfg.Smoke);
    W.key("config");
    W.beginObject();
    for (const auto &[K, V] : TopConfig) {
      W.key(K);
      W.value(V);
    }
    W.endObject();
    W.key("series");
    W.beginArray();
    for (const Series &S : SeriesList) {
      W.beginObject();
      W.key("name");
      W.value(S.Name);
      W.key("config");
      W.beginObject();
      for (const auto &[K, V] : S.Config) {
        W.key(K);
        W.value(V);
      }
      W.endObject();
      W.key("times_sec");
      W.beginArray();
      for (double T : S.TimesSec)
        W.value(T);
      W.endArray();
      W.key("median_sec");
      W.value(S.medianSec());
      W.key("min_sec");
      W.value(S.minSec());
      W.key("stddev_sec");
      W.value(S.stddevSec());
      W.key("metrics");
      W.beginObject();
      for (const auto &[K, V] : S.Metrics) {
        W.key(K);
        W.value(V);
      }
      W.endObject();
      W.endObject();
    }
    W.endArray();
    W.key("scheduler_stats");
    W.beginObject();
    W.key("tasks_created");
    W.value(Stats.TasksCreated);
    W.key("tasks_executed");
    W.value(Stats.TasksExecuted);
    W.key("local_pops");
    W.value(Stats.LocalPops);
    W.key("steal_attempts");
    W.value(Stats.StealAttempts);
    W.key("steals");
    W.value(Stats.Steals);
    W.key("parks");
    W.value(Stats.Parks);
    W.key("wakes");
    W.value(Stats.Wakes);
    W.key("max_deque_depth");
    W.value(Stats.MaxDequeDepth);
    W.key("num_workers");
    W.value(static_cast<uint64_t>(Stats.NumWorkers));
    W.endObject();
    W.key("telemetry");
    W.beginObject();
    obs::TelemetrySnapshot T = obs::telemetrySnapshot();
    for (unsigned I = 0; I < obs::NumEvents; ++I) {
      W.key(obs::eventName(static_cast<obs::Event>(I)));
      W.value(T.Counts[I]);
    }
    W.key("quiesce_wait_nanos");
    W.value(T.QuiesceWaitNanos);
    W.key("session_latency_nanos");
    W.value(T.SessionLatencyNanos);
    W.endObject();
    W.endObject();
    return W.take();
  }

private:
  std::string Name;
  BenchConfig Cfg;
  std::vector<std::pair<std::string, std::string>> TopConfig;
  std::vector<Series> SeriesList;
  SchedulerStats Stats;
};

} // namespace bench
} // namespace lvish

#endif // LVISH_BENCH_BENCHHARNESS_H
