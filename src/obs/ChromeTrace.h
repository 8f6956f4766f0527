//===- ChromeTrace.h - chrome://tracing exporter ----------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exports scheduler activity as a Chrome trace-event JSON file (load it
/// at chrome://tracing or https://ui.perfetto.dev). Every TraceRecorder
/// slice becomes a complete ("ph":"X") event on its task's lane, using the
/// slice's wall-clock start timestamp (TraceSlice::StartNanos) and
/// measured duration. The recorder is the one trace channel: the
/// parallelism simulator (src/sim) reads the same slices.
///
/// Timestamps are normalized so the earliest event starts at t=0.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_OBS_CHROMETRACE_H
#define LVISH_OBS_CHROMETRACE_H

#include <string>

namespace lvish {

class TraceRecorder;

namespace obs {

/// Renders \p Rec's slices as a JSON string. \p Rec may be null (an
/// empty trace). Call after the traced run has quiesced.
std::string chromeTraceJson(const TraceRecorder *Rec);

/// Writes chromeTraceJson() to \p Path; false if the file cannot be
/// opened.
bool writeChromeTrace(const std::string &Path, const TraceRecorder *Rec);

} // namespace obs
} // namespace lvish

#endif // LVISH_OBS_CHROMETRACE_H
