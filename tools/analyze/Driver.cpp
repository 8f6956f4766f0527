//===- Driver.cpp - Pass driver, baseline, and JSON output ----------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "tools/analyze/Analyzer.h"

#include "src/obs/Json.h"

#include <algorithm>

namespace lvish {
namespace analyze {

std::vector<Finding> analyzeContents(const std::string &Path,
                                     const std::string &Contents) {
  FileModel M = buildFileModel(Path, Contents);
  std::vector<Finding> Out;
  runTokenRules(M, Out);
  runCtxEscape(M, Out);
  runHandlerCycle(M, Out);
  runParkUnderLock(M, Out);
  runCoAwaitTemporary(M, Out);
  std::stable_sort(Out.begin(), Out.end(),
                   [](const Finding &A, const Finding &B) {
                     return A.Line < B.Line;
                   });
  return Out;
}

std::map<std::string, int> loadBaseline(const std::string &Text,
                                        std::string &Err) {
  std::map<std::string, int> Baseline;
  obs::JsonValue Doc;
  if (!obs::JsonValue::parse(Text, Doc, &Err))
    return Baseline;
  const obs::JsonValue *Schema = Doc.find("schema");
  if (!Schema || !Schema->isString() ||
      Schema->Str != "lvish-analyze-baseline-v1") {
    Err = "baseline: missing or unknown schema (want "
          "lvish-analyze-baseline-v1)";
    return Baseline;
  }
  const obs::JsonValue *Findings = Doc.find("findings");
  if (!Findings || !Findings->isObject()) {
    Err = "baseline: missing findings object";
    return Baseline;
  }
  for (const auto &[Key, Count] : Findings->Obj)
    if (Count.isNumber())
      Baseline[Key] = static_cast<int>(Count.Num);
  return Baseline;
}

std::string baselineToJson(const std::vector<Finding> &Findings) {
  std::map<std::string, int> Counts;
  for (const Finding &F : Findings)
    ++Counts[F.key()];
  obs::JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value("lvish-analyze-baseline-v1");
  W.key("findings");
  W.beginObject();
  for (const auto &[Key, Count] : Counts) {
    W.key(Key);
    W.value(Count);
  }
  W.endObject();
  W.endObject();
  return W.take() + "\n";
}

std::string findingsToJson(const std::vector<Finding> &Findings,
                           int BaselinedCount) {
  obs::JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value("lvish-analyze-v1");
  W.key("findings");
  W.beginArray();
  for (const Finding &F : Findings) {
    W.beginObject();
    W.key("rule");
    W.value(F.Rule);
    W.key("severity");
    W.value("error");
    W.key("file");
    W.value(F.File);
    W.key("line");
    W.value(static_cast<uint64_t>(F.Line));
    W.key("message");
    W.value(F.Message);
    W.key("key");
    W.value(F.key());
    W.endObject();
  }
  W.endArray();
  W.key("errors");
  W.value(static_cast<uint64_t>(Findings.size()));
  W.key("baselined");
  W.value(static_cast<uint64_t>(BaselinedCount < 0 ? 0 : BaselinedCount));
  W.endObject();
  return W.take() + "\n";
}

} // namespace analyze
} // namespace lvish
