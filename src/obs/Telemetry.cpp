//===- Telemetry.cpp - LVar/session event counters ------------------------===//

#include "src/obs/Telemetry.h"

using namespace lvish;
using namespace lvish::obs;

const char *obs::eventName(Event E) {
  switch (E) {
  case Event::Puts:
    return "puts";
  case Event::NoOpJoins:
    return "noop_joins";
  case Event::ThresholdWakeups:
    return "threshold_wakeups";
  case Event::HandlerInvocations:
    return "handler_invocations";
  case Event::QuiesceWaits:
    return "quiesce_waits";
  case Event::Cancellations:
    return "cancellations";
  case Event::MemoHits:
    return "memo_hits";
  case Event::MemoMisses:
    return "memo_misses";
  case Event::FaultsRaised:
    return "faults_raised";
  case Event::FaultsContained:
    return "faults_contained";
  case Event::InjectedFaults:
    return "injected_faults";
  case Event::ExploreSchedules:
    return "explore_schedules";
  case Event::ExploreSteps:
    return "explore_steps";
  case Event::ExploreShrinkRuns:
    return "explore_shrink_runs";
  case Event::BucketScans:
    return "bucket_scans";
  case Event::HandlerBatchFlushes:
    return "handler_batch_flushes";
  case Event::NotifySkips:
    return "notify_skips";
  case Event::SessionsSubmitted:
    return "sessions_submitted";
  case Event::SessionsCompleted:
    return "sessions_completed";
  case Event::SessionsRejected:
    return "sessions_rejected";
  case Event::SessionsShed:
    return "sessions_shed";
  case Event::DeadlineFaults:
    return "deadline_faults";
  case Event::BudgetFaults:
    return "budget_faults";
  case Event::DrainWaits:
    return "drain_waits";
  case Event::StreamAppends:
    return "stream_appends";
  case Event::PrefixWakeups:
    return "prefix_wakeups";
  case Event::BackpressureParks:
    return "backpressure_parks";
  }
  return "unknown";
}

#ifndef LVISH_GIT_REV
#define LVISH_GIT_REV "unknown"
#endif

const char *obs::gitRevision() { return LVISH_GIT_REV; }

#if LVISH_TELEMETRY

obs::detail::TelemetryStripe obs::detail::Stripes[NumStripes];
std::atomic<uint64_t> obs::detail::QuiesceWaitNanosTotal{0};
std::atomic<uint64_t> obs::detail::SessionLatencyNanosTotal{0};

unsigned obs::detail::assignStripe() {
  static std::atomic<unsigned> Next{0};
  return Next.fetch_add(1, std::memory_order_relaxed) % NumStripes;
}

TelemetrySnapshot obs::telemetrySnapshot() {
  TelemetrySnapshot S;
  for (const detail::TelemetryStripe &Stripe : detail::Stripes)
    for (unsigned E = 0; E < NumEvents; ++E)
      S.Counts[E] += Stripe.Counts[E].load(std::memory_order_relaxed);
  S.QuiesceWaitNanos =
      detail::QuiesceWaitNanosTotal.load(std::memory_order_relaxed);
  S.SessionLatencyNanos =
      detail::SessionLatencyNanosTotal.load(std::memory_order_relaxed);
  return S;
}

void obs::resetTelemetry() {
  for (detail::TelemetryStripe &Stripe : detail::Stripes)
    for (unsigned E = 0; E < NumEvents; ++E)
      Stripe.Counts[E].store(0, std::memory_order_relaxed);
  detail::QuiesceWaitNanosTotal.store(0, std::memory_order_relaxed);
  detail::SessionLatencyNanosTotal.store(0, std::memory_order_relaxed);
}

#endif // LVISH_TELEMETRY
