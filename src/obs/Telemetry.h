//===- Telemetry.h - LVar/session event counters ----------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Library-level telemetry behind the LVISH_TELEMETRY switch (ON by
/// default; -DLVISH_TELEMETRY=OFF compiles every hook down to an empty
/// inline function and an empty snapshot struct).
///
/// Event counters: process-wide counts of the semantic events the paper's
/// effect zoo is made of: puts, no-op joins (a put that did not change
/// the lattice value), threshold wakeups, handler invocations, quiescence
/// waits (plus their summed latency), cancellations, and memo hits/misses.
/// Counters are striped across cache-line-padded blocks indexed per
/// thread, so the hot-path cost is one relaxed fetch_add with no
/// cross-thread contention. Timelines come from the scheduler's
/// TraceRecorder instead (src/obs/ChromeTrace.h exports them).
///
/// Counting is process-wide rather than per-scheduler because the hooks
/// fire inside LVar operations, which deliberately know nothing about the
/// scheduler that runs them. Snapshot before/after a region and subtract.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_OBS_TELEMETRY_H
#define LVISH_OBS_TELEMETRY_H

#include <atomic>
#include <cstdint>

#ifndef LVISH_TELEMETRY
#define LVISH_TELEMETRY 0
#endif

namespace lvish {
namespace obs {

/// The LVar/session event kinds counted under LVISH_TELEMETRY.
enum class Event : unsigned {
  Puts = 0,           ///< LVar writes (put/insert/bump) that reached the
                      ///< store, including no-op joins.
  NoOpJoins,          ///< Puts whose join left the value unchanged.
  ThresholdWakeups,   ///< Parked readers released by a put or freeze.
  HandlerInvocations, ///< Handler-pool callback tasks spawned.
  QuiesceWaits,       ///< quiesce() calls that actually had to park.
  Cancellations,      ///< cancel() requests delivered to a CancelNode.
  MemoHits,           ///< getMemo calls whose key was already requested.
  MemoMisses,         ///< getMemo calls that requested a fresh key.
  FaultsRaised,       ///< Contract violations recorded as session Faults.
  FaultsContained,    ///< Sessions that returned a Fault instead of a value.
  InjectedFaults,     ///< Failures raised by the LVISH_FAULTS harness.
  ExploreSchedules,   ///< Explorer sessions started (one per Engine run).
  ExploreSteps,       ///< Tasks resumed under a controlled schedule.
  ExploreShrinkRuns,  ///< Candidate replays executed while shrinking.
  BucketScans,        ///< Waiter buckets a notify actually locked/scanned.
  HandlerBatchFlushes,///< Batched handler flush tasks spawned (one per
                      ///< armed (pool, worker) batch, not per delta).
  NotifySkips,        ///< Notifies that found no occupied bucket to scan,
                      ///< plus no-op joins that skipped notify entirely.
  SessionsSubmitted,  ///< Sessions launched on a scheduler (blocking runs
                      ///< and async submissions alike).
  SessionsCompleted,  ///< Sessions finalized with an outcome (value or
                      ///< contained Fault).
  SessionsRejected,   ///< Sessions refused by Runtime admission (e.g.
                      ///< explore-mode sessions on a busy shared pool).
                      ///< Counted for every refusal, including the three
                      ///< specialized refusals below.
  SessionsShed,       ///< Submissions refused because the admission queue
                      ///< was at RuntimeConfig::MaxQueuedSessions.
  DeadlineFaults,     ///< Sessions resolved with DeadlineExceeded because
                      ///< no slot freed within SubmitDeadlineNanos.
  BudgetFaults,       ///< Sessions killed by their deterministic step
                      ///< budget (FaultCode::BudgetExceeded).
  DrainWaits,         ///< Runtime::drain() calls that actually had to
                      ///< wait for in-flight sessions to finish.
  StreamAppends,      ///< Stream cells filled (one per accepted put; no-op
                      ///< duplicate joins count NoOpJoins instead).
  PrefixWakeups,      ///< Stream prefix readers (get/waitSize) that parked
                      ///< and were later released by an append.
  BackpressureParks,  ///< BoundedStream producers that parked waiting for
                      ///< a consumer advance() capacity credit.
};

inline constexpr unsigned NumEvents = 27;

/// Stable lower-snake-case name, used as the JSON key in BENCH_*.json.
const char *eventName(Event E);

/// The commit the binary was built from (CMake bakes it in; "unknown"
/// outside a git checkout). Lives here so every BENCH_*.json is
/// attributable to a revision even with telemetry compiled out.
const char *gitRevision();

#if LVISH_TELEMETRY

inline constexpr bool TelemetryEnabled = true;

/// Event totals plus summed quiescence-wait latency. With telemetry
/// compiled out this struct is empty (see the #else branch) - that is
/// what TelemetryTest's static_assert pins down.
struct TelemetrySnapshot {
  uint64_t Counts[NumEvents] = {};
  uint64_t QuiesceWaitNanos = 0;
  /// Summed submit-to-outcome latency over SessionsCompleted sessions
  /// (divide for the mean; benches report full percentiles themselves).
  uint64_t SessionLatencyNanos = 0;

  uint64_t count(Event E) const { return Counts[static_cast<unsigned>(E)]; }
};

namespace detail {

/// One cache line of event counters; threads are striped across a small
/// fixed pool of these so concurrent puts on different threads do not
/// bounce a shared line.
struct alignas(64) TelemetryStripe {
  std::atomic<uint64_t> Counts[NumEvents] = {};
};

inline constexpr unsigned NumStripes = 16;
extern TelemetryStripe Stripes[NumStripes];
extern std::atomic<uint64_t> QuiesceWaitNanosTotal;
extern std::atomic<uint64_t> SessionLatencyNanosTotal;

/// Round-robin stripe assignment, cached per thread.
unsigned assignStripe();

inline unsigned myStripe() {
  thread_local unsigned Stripe = assignStripe();
  return Stripe;
}

} // namespace detail

/// Records \p N occurrences of \p E. One relaxed fetch_add on this
/// thread's stripe.
inline void count(Event E, uint64_t N = 1) {
  detail::Stripes[detail::myStripe()]
      .Counts[static_cast<unsigned>(E)]
      .fetch_add(N, std::memory_order_relaxed);
}

/// Accumulates measured quiescence-wait latency (paired with a
/// QuiesceWaits count bump at the park site).
inline void addQuiesceWaitNanos(uint64_t Nanos) {
  detail::QuiesceWaitNanosTotal.fetch_add(Nanos, std::memory_order_relaxed);
}

/// Accumulates one session's submit-to-outcome latency (paired with a
/// SessionsCompleted count bump at finalization).
inline void addSessionLatencyNanos(uint64_t Nanos) {
  detail::SessionLatencyNanosTotal.fetch_add(Nanos,
                                             std::memory_order_relaxed);
}

/// Sums all stripes into one snapshot. Relaxed reads: exact once the
/// counted activity has quiesced, approximate while it runs.
TelemetrySnapshot telemetrySnapshot();

/// Zeroes every counter (test isolation; do not call concurrently with
/// counted work).
void resetTelemetry();

#else // !LVISH_TELEMETRY

inline constexpr bool TelemetryEnabled = false;

/// Empty fallback: with telemetry compiled out the snapshot carries no
/// data and every hook below is a no-op the optimizer deletes.
struct TelemetrySnapshot {};

inline void count(Event, uint64_t = 1) {}
inline void addQuiesceWaitNanos(uint64_t) {}
inline void addSessionLatencyNanos(uint64_t) {}
inline TelemetrySnapshot telemetrySnapshot() { return {}; }
inline void resetTelemetry() {}

#endif // LVISH_TELEMETRY

} // namespace obs
} // namespace lvish

#endif // LVISH_OBS_TELEMETRY_H
