//===- Telemetry.cpp - LVar/session event counters ------------------------===//

#include "src/obs/Telemetry.h"

#include <mutex>
#include <type_traits>

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

thread_local constinit obs::detail::CounterBlock *obs::detail::MyBlock =
    nullptr;
std::atomic<uint64_t> obs::detail::QuiesceWaitNanosTotal{0};
std::atomic<uint64_t> obs::detail::SessionLatencyNanosTotal{0};

namespace {

using obs::detail::CounterBlock;

/// Blocks come from static storage, not from the malloc arena of the
/// thread that claims them: a block outlives its thread, and one parked in
/// a short-lived worker's arena would keep memory freed below it resident.
/// Once PoolBlocks threads count at the same time, further blocks come
/// from new.
constexpr size_t PoolBlocks = 256;
CounterBlock Pool[PoolBlocks];

/// Every block ever made, and the blocks whose threads have exited, as
/// intrusive lists.
struct Registry {
  std::mutex Mu;
  CounterBlock *All = nullptr;
  CounterBlock *Free = nullptr;
  size_t Made = 0;

  CounterBlock *claim() {
    std::lock_guard<std::mutex> L(Mu);
    if (CounterBlock *B = Free) {
      Free = B->NextFree;
      return B;
    }
    CounterBlock *B = Made < PoolBlocks ? &Pool[Made] : new CounterBlock;
    ++Made;
    B->NextAll = All;
    All = B;
    return B;
  }

  void release(CounterBlock *B) {
    std::lock_guard<std::mutex> L(Mu);
    B->NextFree = Free;
    Free = B;
  }

  template <typename F> void forEach(F Fn) {
    std::lock_guard<std::mutex> L(Mu);
    for (CounterBlock *B = All; B; B = B->NextAll)
      Fn(*B);
  }
};

/// Threads may still count while static destructors run, so the registry
/// must have none.
Registry Blocks;
static_assert(std::is_trivially_destructible_v<Registry>);

/// Counts made by a thread after it released its block, during its own
/// thread-exit teardown. Shared, so added to with fetch_add.
CounterBlock ExitedThreads;

/// Hands this thread's block back when the thread exits. Constructed on
/// the claim path only, so the count() fast path never touches an object
/// with a destructor.
thread_local bool Released = false;
struct BlockReleaser {
  ~BlockReleaser() {
    CounterBlock *B = obs::detail::MyBlock;
    obs::detail::MyBlock = nullptr;
    Released = true;
    Blocks.release(B);
  }
};

} // namespace

void obs::detail::countSlow(Event E, uint64_t N) {
  unsigned I = static_cast<unsigned>(E);
  if (Released) {
    ExitedThreads.Counts[I].fetch_add(N, std::memory_order_relaxed);
    return;
  }
  thread_local BlockReleaser Releaser;
  MyBlock = Blocks.claim();
  count(E, N);
}

TelemetrySnapshot obs::telemetrySnapshot() {
  TelemetrySnapshot S;
  auto Add = [&S](const CounterBlock &B) {
    for (unsigned E = 0; E < NumEvents; ++E)
      S.Counts[E] += B.Counts[E].load(std::memory_order_relaxed);
  };
  Blocks.forEach(Add);
  Add(ExitedThreads);
  S.QuiesceWaitNanos =
      detail::QuiesceWaitNanosTotal.load(std::memory_order_relaxed);
  S.SessionLatencyNanos =
      detail::SessionLatencyNanosTotal.load(std::memory_order_relaxed);
  return S;
}

void obs::resetTelemetry() {
  auto Zero = [](CounterBlock &B) {
    for (unsigned E = 0; E < NumEvents; ++E)
      B.Counts[E].store(0, std::memory_order_relaxed);
  };
  Blocks.forEach(Zero);
  Zero(ExitedThreads);
  detail::QuiesceWaitNanosTotal.store(0, std::memory_order_relaxed);
  detail::SessionLatencyNanosTotal.store(0, std::memory_order_relaxed);
}

#endif // LVISH_TELEMETRY
