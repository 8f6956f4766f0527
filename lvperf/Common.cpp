//===- Common.cpp - Shared pieces of the lvperf benchmark -----------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "lvperf/Common.h"

#include <algorithm>
#include <thread>

using namespace lvperf;
using lvish::WallTimer;
namespace obs = lvish::obs;

unsigned lvperf::hardwareWorkers() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

double lvperf::hostParallelCapacity() {
  auto Spin = [] {
    volatile uint64_t X = 0;
    for (uint64_t I = 0; I < 10'000'000; ++I)
      X = X + I;
  };
  unsigned N = hardwareWorkers();
  // Best of three of each: interference only ever adds time.
  double T1 = 1e9, TN = 1e9;
  for (int Trial = 0; Trial < 3; ++Trial) {
    WallTimer One;
    Spin();
    T1 = std::min(T1, One.elapsedSeconds());
    WallTimer All;
    std::vector<std::thread> Threads;
    for (unsigned I = 0; I < N; ++I)
      Threads.emplace_back(Spin);
    for (std::thread &T : Threads)
      T.join();
    TN = std::min(TN, All.elapsedSeconds());
  }
  return std::min<double>(N, N * T1 / TN);
}

double lvperf::median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double lvperf::quantile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

std::pair<double, double> lvperf::tailQuantile(const std::vector<double> &V) {
  double Best = 0.5;
  for (double P : {0.9, 0.99, 0.999})
    if (static_cast<double>(V.size()) * (1.0 - P) >= 10.0)
      Best = P;
  return {Best, quantile(V, Best)};
}

void JobCounters::addSched(const lvish::SchedulerStats &S) {
  Tasks += S.TasksCreated;
  Steals += S.Steals;
  StealAttempts += S.StealAttempts;
  Parks += S.Parks;
  Wakes += S.Wakes;
  MaxDequeDepth = std::max(MaxDequeDepth, S.MaxDequeDepth);
}

const std::vector<std::pair<const char *, JobCounters::Field>> &
JobCounters::fields() {
  static const std::vector<std::pair<const char *, Field>> Fields = {
      {"tasks", &JobCounters::Tasks},
      {"steals", &JobCounters::Steals},
      {"steal_attempts", &JobCounters::StealAttempts},
      {"parks", &JobCounters::Parks},
      {"wakes", &JobCounters::Wakes},
      {"max_deque_depth", &JobCounters::MaxDequeDepth},
      {"puts", &JobCounters::Puts},
      {"noop_joins", &JobCounters::NoOpJoins},
      {"handler_invocations", &JobCounters::HandlerInvocations},
      {"handler_flushes", &JobCounters::HandlerFlushes},
      {"threshold_wakeups", &JobCounters::ThresholdWakeups}};
  return Fields;
}

void TelemetryWindow::finishInto(JobCounters &C) const {
  obs::TelemetrySnapshot End = obs::telemetrySnapshot();
  auto Delta = [&](obs::Event E) { return End.count(E) - Start.count(E); };
  C.Puts += Delta(obs::Event::Puts);
  C.NoOpJoins += Delta(obs::Event::NoOpJoins);
  C.HandlerInvocations += Delta(obs::Event::HandlerInvocations);
  C.HandlerFlushes += Delta(obs::Event::HandlerBatchFlushes);
  C.ThresholdWakeups += Delta(obs::Event::ThresholdWakeups);
}

void CounterLog::addW1(const JobCounters &C) {
  if (!HaveW1) {
    HaveW1 = true;
    W1 = C;
    return;
  }
  for (const auto &[Name, F] : JobCounters::fields()) {
    // A lone worker probes for steals while it idles, so the attempt count
    // follows OS timing; the deque depth is a high-water mark that a
    // long-lived pool carries from job to job, not a count. Every other
    // field is a function of the job's input.
    if (F == &JobCounters::StealAttempts || F == &JobCounters::MaxDequeDepth)
      continue;
    std::string What = std::string("w1 counter ") + Name + " drifted";
    if (W1.*F != C.*F && Drift.find(What) == std::string::npos)
      Drift += (Drift.empty() ? "" : "; ") + What + ": " +
               std::to_string(W1.*F) + " then " + std::to_string(C.*F);
  }
}

std::vector<double> CounterLog::wmaxValues(JobCounters::Field F) const {
  std::vector<double> V;
  for (const JobCounters &C : Wmax)
    V.push_back(static_cast<double>(C.*F));
  return V;
}

double CounterLog::wmaxMedian(JobCounters::Field F) const {
  return median(wmaxValues(F));
}

double CounterLog::wmaxSpread(JobCounters::Field F) const {
  std::vector<double> V = wmaxValues(F);
  return quantile(V, 0.75) - quantile(V, 0.25);
}

void Tally::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (FirstFailure.empty())
    FirstFailure = What;
}

void lvperf::reportJobs(Result &R, const JobSamples &S) {
  double Seq = median(S.Seq), W1 = median(S.W1), Wmax = median(S.Wmax);
  R.e2e("overhead_w1", W1 / Seq, "x");
  R.note("speedup_wmax", Seq / Wmax);
  R.layer("job.seq_ms", Seq * 1e3, "ms");
  R.layer("job.w1_ms", W1 * 1e3, "ms");
  R.layer("job.wmax_ms", Wmax * 1e3, "ms");
  R.note("jobs_seq", static_cast<double>(S.Seq.size()));
  R.note("jobs_w1", static_cast<double>(S.W1.size()));
  R.note("jobs_wmax", static_cast<double>(S.Wmax.size()));
  const std::pair<const char *, const std::vector<double> *> Sets[] = {
      {"seq", &S.Seq}, {"w1", &S.W1}, {"wmax", &S.Wmax}};
  for (const auto &[Name, V] : Sets) {
    R.note(std::string("job_") + Name + "_s", median(*V));
    R.note(std::string("job_") + Name + "_q1_s", quantile(*V, 0.25));
    R.note(std::string("job_") + Name + "_q3_s", quantile(*V, 0.75));
  }
  if (!S.TracedWmax.empty())
    R.layer("trace.overhead_ratio", median(S.TracedWmax) / Wmax, "x");
  auto [P, Tail] = tailQuantile(S.Wmax);
  R.note("job_wmax_tail_quantile", P);
  R.note("job_wmax_tail_s", Tail);
}

void lvperf::reportCounters(Result &R) {
  const CounterLog &L = R.Counters;
  const JobCounters &W = L.w1();
  auto D = [](uint64_t N) { return static_cast<double>(N); };
  R.layer("sched.tasks_per_job", D(W.Tasks), "count");
  R.layer("sched.parks_per_job", D(W.Parks), "count");
  R.layer("sched.wakes_per_job", D(W.Wakes), "count");
  R.layer("sched.max_deque_depth", D(W.MaxDequeDepth), "count");
  R.layer("core.puts_per_job", D(W.Puts), "count");
  R.layer("core.useful_put_ratio",
          W.Puts ? D(W.Puts - W.NoOpJoins) / D(W.Puts) : 1.0, "ratio");
  R.layer("core.handler_invocations_per_job", D(W.HandlerInvocations),
          "count");
  R.layer("core.handler_flushes_per_job", D(W.HandlerFlushes), "count");
  R.layer("core.threshold_wakeups_per_job", D(W.ThresholdWakeups), "count");
  for (const auto &[Name, F] : JobCounters::fields()) {
    R.note(std::string("w1.") + Name, D(W.*F));
    R.note(std::string("wmax_median.") + Name, L.wmaxMedian(F));
    R.note(std::string("wmax_iqr.") + Name, L.wmaxSpread(F));
  }
  double Steals = L.wmaxMedian(&JobCounters::Steals);
  double Attempts = L.wmaxMedian(&JobCounters::StealAttempts);
  R.layer("sched.steals_per_job", Steals, "count");
  R.layer("sched.steal_success_ratio", Attempts ? Steals / Attempts : 0.0,
          "ratio");
}
