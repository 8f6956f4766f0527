//===- ChromeTrace.cpp - chrome://tracing exporter ------------------------===//

#include "src/obs/ChromeTrace.h"

#include "src/obs/Json.h"
#include "src/sched/Trace.h"

#include <algorithm>
#include <cstdio>
#include <limits>

using namespace lvish;
using namespace lvish::obs;

namespace {

// Chrome's trace format takes microseconds; keep fractional precision so
// sub-microsecond slices stay visible.
double micros(uint64_t Nanos) { return static_cast<double>(Nanos) * 1e-3; }

void emitEvent(JsonWriter &W, std::string_view Name, uint64_t StartNanos,
               uint64_t DurNanos, uint64_t Base, uint64_t Tid) {
  W.beginObject();
  W.key("name");
  W.value(Name);
  W.key("ph");
  W.value("X");
  W.key("pid");
  W.value(uint64_t(0));
  W.key("tid");
  W.value(Tid);
  W.key("ts");
  W.value(micros(StartNanos - Base));
  W.key("dur");
  W.value(micros(DurNanos));
  W.endObject();
}

} // namespace

std::string obs::chromeTraceJson(const TraceRecorder *Rec) {
  // Normalize to the earliest slice. Slices recorded without a start
  // timestamp (hand-built traces) are skipped: they have no place on a
  // wall-clock timeline.
  uint64_t Base = std::numeric_limits<uint64_t>::max();
  if (Rec)
    for (const TraceSlice &S : Rec->slices())
      if (S.StartNanos)
        Base = std::min(Base, S.StartNanos);

  JsonWriter W;
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  if (Rec) {
    char Name[32];
    for (const TraceSlice &S : Rec->slices()) {
      if (!S.StartNanos)
        continue;
      // One lane per task.
      std::snprintf(Name, sizeof(Name), "task %u", S.Task);
      emitEvent(W, Name, S.StartNanos, S.DurationNanos, Base, S.Task);
    }
  }
  W.endArray();
  W.key("displayTimeUnit");
  W.value("ms");
  W.endObject();
  return W.take();
}

bool obs::writeChromeTrace(const std::string &Path, const TraceRecorder *Rec) {
  std::string Json = chromeTraceJson(Rec);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fwrite(Json.data(), 1, Json.size(), F);
  std::fclose(F);
  return true;
}
