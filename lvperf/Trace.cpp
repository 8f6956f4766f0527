//===- Trace.cpp - In-memory spans around calls into each layer -----------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "lvperf/Trace.h"

#include "src/obs/Json.h"
#include "src/support/Timer.h"

#include <cstdio>

using namespace lvperf;

uint32_t Tracer::begin(const char *Layer, const char *Name, uint32_t Job) {
  if (!Recording)
    return 0;
  SpanRecord S;
  S.Layer = Layer;
  S.Name = Name;
  S.Parent = Open.empty() ? 0 : Open.back();
  S.Job = Job;
  S.StartNanos = lvish::nowNanos();
  Spans.push_back(S);
  uint32_t Handle = static_cast<uint32_t>(Spans.size());
  Open.push_back(Handle);
  return Handle;
}

void Tracer::end(uint32_t Handle) {
  if (Handle == 0)
    return;
  Spans[Handle - 1].EndNanos = lvish::nowNanos();
  // Spans close in stack order; a handle opened while recording is always
  // the innermost open one.
  Open.pop_back();
}

std::vector<std::pair<std::string, double>> Tracer::selfSeconds() const {
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].EndNanos - Spans[I].StartNanos;
  for (const SpanRecord &S : Spans)
    if (S.Parent)
      Self[S.Parent - 1] -= S.EndNanos - S.StartNanos;
  std::vector<std::pair<std::string, double>> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    size_t At = 0;
    while (At < Out.size() && Out[At].first != Spans[I].Layer)
      ++At;
    if (At == Out.size())
      Out.emplace_back(Spans[I].Layer, 0.0);
    Out[At].second += static_cast<double>(Self[I]) * 1e-9;
  }
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNanos;
  std::fputs("{\"traceEvents\":[\n", F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    lvish::obs::JsonWriter W;
    W.beginObject();
    W.key("name");
    W.value(S.Name);
    W.key("cat");
    W.value(S.Layer);
    W.key("ph");
    W.value("X");
    W.key("ts");
    W.value(static_cast<double>(S.StartNanos - Base) * 1e-3);
    W.key("dur");
    W.value(static_cast<double>(S.EndNanos - S.StartNanos) * 1e-3);
    W.key("pid");
    W.value(uint64_t{1});
    W.key("tid");
    W.value(uint64_t{1});
    W.key("args");
    W.beginObject();
    W.key("id");
    W.value(static_cast<uint64_t>(I + 1));
    W.key("parent");
    W.value(static_cast<uint64_t>(S.Parent));
    W.key("job");
    W.value(static_cast<uint64_t>(S.Job));
    W.endObject();
    W.endObject();
    std::fputs(W.str().c_str(), F);
    std::fputs(I + 1 < Spans.size() ? ",\n" : "\n", F);
  }
  std::fputs("]}\n", F);
  return std::fclose(F) == 0;
}
