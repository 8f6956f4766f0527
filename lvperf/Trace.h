//===- Trace.h - In-memory spans around calls into each layer ---*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span log. Spans are recorded by the benchmark's own
/// code around each call into a library layer (Runtime construction,
/// submit, future wait, each pbbs kernel call, each unit-cost probe) -
/// nothing inside the library is instrumented. All spans come from the
/// benchmark's driving thread, so they nest as a stack and need no lock.
/// They stay in memory until the run ends and are then written once as a
/// chrome://tracing file.
///
//===----------------------------------------------------------------------===//

#ifndef LVPERF_TRACE_H
#define LVPERF_TRACE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lvperf {

struct SpanRecord {
  const char *Layer = "";
  const char *Name = "";
  uint64_t StartNanos = 0;
  uint64_t EndNanos = 0;
  uint32_t Parent = 0; ///< Index + 1 of the enclosing span; 0 at top level.
  uint32_t Job = 0;    ///< Job (or session) id shared by a job's spans.
};

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  bool enabled() const { return Enabled; }
  /// Pauses or resumes recording (the traced run interleaves untraced
  /// rounds to measure the tracing overhead). Ignored when disabled.
  void setRecording(bool On) { Recording = Enabled && On; }

  /// Opens a span; returns its handle for end() (0 when not recording).
  /// \p Layer and \p Name must be string literals.
  uint32_t begin(const char *Layer, const char *Name, uint32_t Job);
  void end(uint32_t Handle);

  size_t size() const { return Spans.size(); }
  /// Self time per layer in seconds: each span's duration minus what its
  /// direct children cover, summed by layer (first-seen layer order).
  std::vector<std::pair<std::string, double>> selfSeconds() const;
  /// Writes every span as a chrome://tracing "X" event with its layer,
  /// parent and job as args. False on I/O failure.
  bool write(const std::string &Path) const;

private:
  bool Enabled;
  bool Recording = false;
  std::vector<SpanRecord> Spans;
  std::vector<uint32_t> Open;
};

/// Scoped span.
class Span {
public:
  Span(Tracer &T, const char *Layer, const char *Name, uint32_t Job = 0)
      : T(T), Handle(T.begin(Layer, Name, Job)) {}
  ~Span() { T.end(Handle); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer &T;
  uint32_t Handle;
};

} // namespace lvperf

#endif // LVPERF_TRACE_H
