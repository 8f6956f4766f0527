//===- Simulator.h - Multi-worker replay of recorded task DAGs --*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hardware-substitution substrate for the paper's thread-scaling
/// figures (see DESIGN.md): the evaluation machine was a dual-socket
/// 12-core Xeon X5660. The host this repository is measured on has 4
/// vCPUs shared with other tenants, so its wall-clock multi-worker numbers
/// are limited by what the host delivers (lvperf/README.md, "Reported, not
/// gated"). We therefore record a program's dynamic slice DAG during a
/// real one-worker run (src/sched/Trace.h) and replay it here under P
/// virtual workers:
///
///  * greedy (list) scheduling: a worker picks the lowest-id ready slice -
///    deterministic, and within the classic 2x bound of optimal (Graham);
///  * a memory-bandwidth contention model: each slice carries measured CPU
///    nanoseconds plus announced bytes; when concurrently running slices
///    collectively demand more bandwidth than the machine sustains, their
///    memory-bound fractions stretch (processor-sharing, recomputed at
///    every start/finish event).
///
/// The bandwidth model is what reproduces the *shape* of Figure 4/5: the
/// copying functional merge sort "reads the entire input memory at least
/// log2(N) times, greatly increasing memory traffic" and so "completely
/// stops scaling", while the in-place ParST sort keeps scaling. Compute-
/// bound kernels (sumeuler, nbody, blackscholes) are insensitive to the
/// model and scale until the DAG's critical path dominates.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_SIM_SIMULATOR_H
#define LVISH_SIM_SIMULATOR_H

#include "src/sched/Trace.h"

#include <cstdint>
#include <vector>

namespace lvish {
namespace sim {

/// An immutable replay DAG built from a TraceRecorder.
class TaskGraph {
public:
  TaskGraph() = default;

  /// Builds the graph from a completed trace. Validates that edges are
  /// in-range; duplicate edges are coalesced.
  static TaskGraph fromTrace(const TraceRecorder &Trace);

  size_t numSlices() const { return DurationNs.size(); }
  uint64_t duration(size_t I) const { return DurationNs[I]; }
  uint64_t bytes(size_t I) const { return BytesOf[I]; }
  const std::vector<uint32_t> &successors(size_t I) const {
    return Succ[I];
  }
  uint32_t indegree(size_t I) const { return Indegree[I]; }

  /// Sum of all slice durations (the work term of Brent's bound).
  uint64_t totalWorkNanos() const;
  /// Longest dependency chain (the span term of Brent's bound).
  uint64_t criticalPathNanos() const;
  /// Sum of all announced bytes.
  uint64_t totalBytes() const;

private:
  std::vector<uint64_t> DurationNs;
  std::vector<uint64_t> BytesOf;
  std::vector<std::vector<uint32_t>> Succ;
  std::vector<uint32_t> Indegree;
};

/// Machine model for the replay.
struct MachineModel {
  /// Sustained bandwidth of one stream, bytes/second. Calibrated to the
  /// recording machine so that a fully memory-bound slice's announced
  /// bytes take about as long as its measured duration.
  double StreamBandwidth = 8e9;
  /// Aggregate bandwidth the machine sustains across all cores, as a
  /// multiple of StreamBandwidth. Real multicores saturate well below
  /// NumWorkers x single-stream (e.g. ~3x on the paper's 2009-era Xeon).
  double AggregateFactor = 3.0;
  /// Per-task scheduling overhead added to each slice, nanoseconds.
  double PerSliceOverheadNs = 0;
};

/// Result of one replay.
struct SimResult {
  double MakespanSeconds = 0;
  double BusySeconds = 0; ///< Total worker-busy time (utilization probe).
};

/// Replays \p Graph on \p Workers virtual workers; deterministic.
SimResult simulate(const TaskGraph &Graph, unsigned Workers,
                   const MachineModel &Model = MachineModel());

/// Convenience: simulated speedup curve relative to one worker.
std::vector<double> speedupSeries(const TaskGraph &Graph,
                                  const std::vector<unsigned> &WorkerCounts,
                                  const MachineModel &Model = MachineModel());

} // namespace sim
} // namespace lvish

#endif // LVISH_SIM_SIMULATOR_H
