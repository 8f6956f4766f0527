//===- Common.h - Shared pieces of the lvperf benchmark ---------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every lvperf workload shares: the command line, order statistics,
/// the per-job layer counters read from the public stats APIs, the output
/// gate's tally, and the result a workload hands back to main().
///
//===----------------------------------------------------------------------===//

#ifndef LVPERF_COMMON_H
#define LVPERF_COMMON_H

#include "lvperf/Trace.h"
#include "src/obs/SchedulerStats.h"
#include "src/obs/Telemetry.h"
#include "src/support/Timer.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lvperf {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory the traced run writes its span file into.
  std::string OutDir = ".";
};

/// Worker count of the "wmax" configuration: every hardware thread.
unsigned hardwareWorkers();

/// How many CPUs' worth of a plain compute loop the host delivers right
/// now to hardwareWorkers() threads (1 to hardwareWorkers()). Recorded with
/// every run: on a shared host it explains swings of the wmax numbers.
double hostParallelCapacity();

/// Median (mean of the two middle values for an even count); 0 if empty.
double median(std::vector<double> V);
/// Linear-interpolation quantile, \p P in [0, 1]; 0 if empty.
double quantile(std::vector<double> V, double P);
/// The highest of p90/p99/p99.9 that leaves at least ten samples above it
/// (the median when there are too few samples for any of them).
std::pair<double, double> tailQuantile(const std::vector<double> &V);

/// One job's layer counters: the scheduler-stats delta (RunOptions::StatsOut
/// or Scheduler::stats()) plus the process-wide LVar telemetry delta.
struct JobCounters {
  uint64_t Tasks = 0;
  uint64_t Steals = 0;
  uint64_t StealAttempts = 0;
  uint64_t Parks = 0;
  uint64_t Wakes = 0;
  uint64_t MaxDequeDepth = 0;
  uint64_t Puts = 0;
  uint64_t NoOpJoins = 0;
  uint64_t HandlerInvocations = 0;
  uint64_t HandlerFlushes = 0;
  uint64_t ThresholdWakeups = 0;

  void addSched(const lvish::SchedulerStats &S);

  using Field = uint64_t JobCounters::*;
  /// Every field with its name, in a fixed order, for the exact-count
  /// check and the run record.
  static const std::vector<std::pair<const char *, Field>> &fields();
};

/// Brackets a job: telemetry snapshot at construction, delta on finish().
class TelemetryWindow {
public:
  TelemetryWindow() : Start(lvish::obs::telemetrySnapshot()) {}
  void finishInto(JobCounters &C) const;

private:
  lvish::obs::TelemetrySnapshot Start;
};

/// The exact-count check and the wmax counter summary. At one worker a
/// job's counters are a pure function of its input, so every w1 job of a
/// run must repeat the first one bit for bit; at nproc workers they are
/// schedule-dependent and only summarised.
class CounterLog {
public:
  void addW1(const JobCounters &C);
  void addWmax(const JobCounters &C) { Wmax.push_back(C); }
  bool drifted() const { return !Drift.empty(); }
  const std::string &drift() const { return Drift; }
  const JobCounters &w1() const { return W1; }
  /// Median and interquartile range over the wmax jobs of one field.
  double wmaxMedian(JobCounters::Field F) const;
  double wmaxSpread(JobCounters::Field F) const;

private:
  std::vector<double> wmaxValues(JobCounters::Field F) const;

  bool HaveW1 = false;
  JobCounters W1;
  std::vector<JobCounters> Wmax;
  std::string Drift;
};

/// The output gate's bookkeeping: units (jobs or sessions) attempted and
/// those whose result was wrong or a Fault.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::string FirstFailure;
  void check(bool Ok, const std::string &What);
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What a workload hands back: gated metrics, layer metrics (traced run
/// only), and the run record's extra fields.
struct Result {
  Tally Gate;
  CounterLog Counters;
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  /// Extra run-record fields: (name, value) pairs printed before the
  /// final line, never gated.
  std::vector<std::pair<std::string, double>> Record;
  void e2e(std::string N, double V, std::string U) {
    EndToEnd.push_back({std::move(N), V, std::move(U)});
  }
  void layer(std::string N, double V, std::string U) {
    PerLayer.push_back({std::move(N), V, std::move(U)});
  }
  void note(std::string N, double V) { Record.emplace_back(std::move(N), V); }
};

/// Interleaved seq / w1 / wmax job samples, in seconds per job, from
/// untraced rounds; TracedWmax holds the wmax samples of traced rounds.
struct JobSamples {
  std::vector<double> Seq, W1, Wmax, TracedWmax;
};

/// Runs one untimed warm-up round, then rounds of the three
/// configurations - rotating which goes first so machine phases hit all
/// three alike - until \p Seconds have passed (and at least five rounds).
/// Each callable runs one job and returns its wall time in seconds;
/// \p EndRound runs untimed after each round. In a traced run every other
/// round records no spans; comparing the two kinds of round gives the
/// tracing overhead.
template <typename SeqF, typename W1F, typename WmaxF, typename EndF>
JobSamples interleave(Tracer &Tr, double Seconds, SeqF Seq, W1F W1,
                      WmaxF Wmax, EndF EndRound) {
  constexpr int MinRounds = 5;
  Seq();
  W1();
  Wmax();
  EndRound();
  JobSamples S;
  lvish::WallTimer T;
  for (int Round = 0; Round < MinRounds || T.elapsedSeconds() < Seconds;
       ++Round) {
    bool Traced = Tr.enabled() && Round % 2 == 1;
    Tr.setRecording(Traced);
    for (int K = 0; K < 3; ++K) {
      switch ((Round + K) % 3) {
      case 0: {
        double V = Seq();
        if (!Traced)
          S.Seq.push_back(V);
        break;
      }
      case 1: {
        double V = W1();
        if (!Traced)
          S.W1.push_back(V);
        break;
      }
      default:
        (Traced ? S.TracedWmax : S.Wmax).push_back(Wmax());
        break;
      }
    }
    EndRound();
  }
  Tr.setRecording(true);
  return S;
}

/// Reports the three end-to-end job metrics every workload shares, the
/// job-level layer sums and the sample counts.
void reportJobs(Result &R, const JobSamples &S);

/// Reports the per-job counter layers (sched.*, core.*).
void reportCounters(Result &R);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int SetupReps = 11;

/// Runs \p Setup \p Reps times and returns the median wall time; the state
/// of the last repetition is the one the run keeps.
template <typename F> double timedSetup(int Reps, F Setup) {
  std::vector<double> T;
  for (int I = 0; I < Reps; ++I) {
    lvish::WallTimer W;
    Setup();
    T.push_back(W.elapsedSeconds());
  }
  return median(T);
}

Result runPbbsFixpoint(const Options &O, Tracer &Tr);
Result runPbbsRounds(const Options &O, Tracer &Tr);
Result runServiceMix(const Options &O, Tracer &Tr);

/// The unit-cost probes of the traced run (service.*, sched.fork_join_ns,
/// core.*_ns, data.*), each timed through public functions at one worker.
void runProbes(Result &R, Tracer &Tr);

} // namespace lvperf

#endif // LVPERF_COMMON_H
