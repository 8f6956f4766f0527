//===- SelfTest.cpp - Built-in checks for lvish-analyze -------------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analyzer's built-in checks, run by CTest (LvishAnalyzeSelfTest) and
/// by `lvish-analyze --self-test`. Every expectation of the retired
/// lvish-lint's self-test is preserved verbatim (the ported rules must not
/// regress), followed by the scope-aware additions: multi-line matches the
/// line regexes could not see, and one violating + one clean shape per new
/// pass. tests/AnalyzeTest.cpp drives the same passes through on-disk
/// fixture files; this layer covers the in-memory engine.
///
//===----------------------------------------------------------------------===//

#include "tools/analyze/Analyzer.h"

#include "src/obs/Json.h"

#include <cstdio>

namespace lvish {
namespace analyze {

int selfTest() {
  int Failures = 0;
  auto Expect = [&](int Got, int Want, const char *What) {
    if (Got != Want) {
      std::fprintf(stderr, "self-test FAILED: %s (got %d, want %d)\n", What,
                   Got, Want);
      ++Failures;
    }
  };
  auto Errors = [](const std::string &Path, const std::string &Contents) {
    return static_cast<int>(analyzeContents(Path, Contents).size());
  };

  // ---- Ported lvish-lint expectations (must not regress). ----
  Expect(Errors("src/sim/X.cpp", "std::mutex M;\n"), 1,
         "raw-sync fires outside trusted dirs");
  Expect(Errors("src/sched/X.cpp", "std::mutex M;\n"), 0,
         "raw-sync allows the scheduler");
  Expect(Errors("src/sim/X.cpp", "// std::mutex in a comment\n"), 0,
         "comments are stripped");
  Expect(Errors("src/sim/X.cpp", "auto S = \"std::mutex\";\n"), 0,
         "string literals are stripped");
  Expect(Errors("src/sim/X.cpp",
                "std::mutex M; // lvish-lint: allow(raw-sync)\n"),
         0, "suppression comment silences the rule");
  Expect(Errors("src/sim/X.cpp",
                "// lvish-lint: allow(raw-sync)\nstd::mutex M;\n"),
         0, "previous-line suppression silences the rule");
  Expect(Errors("src/sim/X.cpp",
                "// lvish-lint: allow(no-throw)\nstd::mutex M;\n"),
         1, "suppression is rule-specific");
  Expect(Errors("src/sim/X.cpp", "throw Foo();\n"), 1,
         "no-throw fires on throw");
  Expect(Errors("src/sim/X.cpp", "int throwaway = 0;\n"), 0,
         "identifier boundaries respected");
  Expect(Errors("src/sim/X.cpp",
                "auto C = detail::CtxAccess::make<Full>(T);\n"),
         1, "ctx-forge fires outside core/trans");
  Expect(Errors("src/trans/X.h",
                "auto C = detail::CtxAccess::make<Full>(T);\n"),
         0, "ctx-forge allows transformers");
  Expect(Errors("src/sim/X.cpp", "IV.putValue(1, T);\n"), 1,
         "state-bypass fires on direct putValue");
  Expect(Errors("src/pbbs/X.cpp",
                "M->joinKey(K, 1, T);\nV.joinAt(0, 1, T);\n"
                "S.appendAt(0, X, T);\nB->advanceTo(4, T);\n"
                "auto View = S.freezeNow(T);\n"),
         5, "state-bypass fires on the MinMap/MinVec/Stream entry points");
  Expect(Errors("src/pbbs/X.cpp",
                "UF->mergeClasses(0, 1, T);\nP.mergeClasses(2, 3, T);\n"),
         2, "state-bypass fires on the raw UnionFind union");
  Expect(Errors("src/sim/X.cpp", "put(Ctx, IV, 1);\n"), 0,
         "ParCtx wrapper put is clean");
  Expect(Errors("src/sim/X.cpp", "C.bumper();\n"), 0,
         ".bump does not match longer identifiers");
  Expect(Errors("src/sim/X.cpp", "fatalError(\"boom\");\n"), 1,
         "fatal fires on direct fatalError outside support");
  Expect(Errors("src/support/Fault.h", "fatalError(Msg);\n"), 0,
         "fatal allows the support layer");
  Expect(Errors("src/core/X.h",
                "// lvish-lint: allow(fatal)\nfatalError(\"boom\");\n"),
         0, "fatal suppression works");
  Expect(Errors("src/core/X.h", "myFatalErrorCount++;\n"), 0,
         "fatal respects identifier boundaries");
  Expect(Errors("bench/bench_x.cpp", "int main() { return 0; }\n"), 1,
         "bench-harness fires on a harness-less bench main");
  Expect(Errors("bench/bench_x.cpp",
                "int main(int C, char **V) {\n"
                "  lvish::bench::BenchHarness H(C, V, \"x\");\n"
                "}\n"),
         0, "bench-harness accepts a BenchHarness user");
  Expect(Errors("tools/x.cpp", "int main() { return 0; }\n"), 0,
         "bench-harness only looks under bench/");
  Expect(Errors("bench/bench_x.cpp",
                "// lvish-lint: allow(bench-harness)\n"
                "int main() { return 0; }\n"),
         0, "bench-harness suppression works");
  Expect(Errors("src/trans/X.h", "int V = co_await get(Ctx, *M, K);\n"), 0,
         "unified get spelling is clean");
  Expect(Errors("src/explore/X.cpp", "std::mt19937 G(Seed);\n"), 1,
         "explore-rng fires on raw RNG inside src/explore/");
  Expect(Errors("src/explore/X.cpp", "int V = rand();\n"), 1,
         "explore-rng fires on C rand inside src/explore/");
  Expect(Errors("src/sim/X.cpp", "std::mt19937 G(Seed);\n"), 0,
         "explore-rng is scoped to /explore/ only");
  Expect(Errors("src/explore/X.cpp", "SplitMix64 Rng(Seed);\n"), 0,
         "explore-rng allows the seeded SplitMix64 stream");
  Expect(Errors("src/explore/X.cpp", "int Operand = 1;\n"), 0,
         "explore-rng respects identifier boundaries (rand( in operand)");
  Expect(Errors("src/explore/X.cpp",
                "// lvish-lint: allow(explore-rng)\n"
                "std::mt19937 G(Seed);\n"),
         0, "explore-rng suppression works");

  // ---- Multi-line matches (the per-line regexes' false negatives). ----
  Expect(Errors("src/sim/X.cpp", "std::\n    mutex M;\n"), 1,
         "raw-sync matches a declaration split across lines");
  Expect(Errors("src/sim/X.cpp", "IV\n    .putValue(1, T);\n"), 1,
         "state-bypass matches member access split across lines");

  // ---- Rule-scoping changes vs the retired lint. ----
  Expect(Errors("tests/X.cpp", "std::mutex M;\n"), 0,
         "raw-sync exempts tests/ (test scaffolding)");
  Expect(Errors("examples/x.cpp", "Table->modifyKey(K, F);\n"), 0,
         "state-bypass exempts examples/");

  // ---- ctx-escape. ----
  const char *HandlerEscape =
      "Par<void> f(ParCtx<Eff::Det> Ctx) {\n"
      "  addHandler(Ctx, Pool, *S,\n"
      "             [Ctx](ParCtx<Eff::Det> C, const int &D) -> Par<void> {\n"
      "               co_return;\n"
      "             });\n"
      "}\n";
  Expect(Errors("src/sim/X.cpp", HandlerEscape), 1,
         "ctx-escape: handler callback capturing the registering ctx");
  Expect(Errors("src/core/X.h", HandlerEscape), 0,
         "ctx-escape exempts trusted core internals");
  Expect(Errors("src/sim/X.cpp",
                "Par<void> f(ParCtx<Eff::Det> Ctx) {\n"
                "  addHandler(Ctx, Pool, *S,\n"
                "             [G, SRaw](ParCtx<Eff::Det> C, const int &D) "
                "-> Par<void> {\n"
                "               insert(C, *SRaw, 1);\n"
                "               co_return;\n"
                "             });\n"
                "}\n"),
         0, "ctx-escape: handler with clean captures passes");
  Expect(Errors("src/sim/X.cpp",
                "Par<void> f(ParCtx<Eff::Det> Ctx) {\n"
                "  addHandler(Ctx, Pool, *S,\n"
                "             [&](ParCtx<Eff::Det> C, const int &D) -> "
                "Par<void> {\n"
                "               co_await put(Ctx, IV, 1);\n"
                "               co_return;\n"
                "             });\n"
                "}\n"),
         1, "ctx-escape: default-capture smuggling the ctx is caught");
  Expect(Errors("src/sim/X.cpp",
                "Par<void> f(ParCtx<Eff::Det> Ctx) {\n"
                "  static auto Saved = [Ctx]() { return Ctx; };\n"
                "}\n"),
         1, "ctx-escape: static-storage lambda capturing the ctx");
  Expect(Errors("src/sim/X.cpp",
                "Par<void> f(ParCtx<Eff::Det> Ctx) {\n"
                "  auto Local = [Ctx]() { return Ctx; };\n"
                "  Local();\n"
                "}\n"),
         0, "ctx-escape: a task-scoped helper lambda is fine");

  // ---- handler-cycle. ----
  Expect(Errors("src/sim/X.cpp",
                "Par<void> f(ParCtx<Eff::Det> Ctx) {\n"
                "  addHandler(Ctx, Pool, *Seen,\n"
                "             [Seen](ParCtx<Eff::Det> C, const int &D) -> "
                "Par<void> {\n"
                "               co_return;\n"
                "             });\n"
                "}\n"),
         1, "handler-cycle: by-value capture of the owning shared_ptr");
  Expect(Errors("src/sim/X.cpp",
                "Par<void> f(ParCtx<Eff::Det> Ctx) {\n"
                "  ISet<int> *SeenRaw = Seen.get();\n"
                "  addHandler(Ctx, Pool, *Seen,\n"
                "             [SeenRaw](ParCtx<Eff::Det> C, const int &D) "
                "-> Par<void> {\n"
                "               insert(C, *SeenRaw, 1);\n"
                "               co_return;\n"
                "             });\n"
                "}\n"),
         0, "handler-cycle: raw-pointer capture is the sanctioned idiom");
  Expect(Errors("src/sim/X.cpp",
                "Par<void> f(ParCtx<Eff::Det> Ctx) {\n"
                "  addHandler(Ctx, Pool, *Seen,\n"
                "             [&Seen](ParCtx<Eff::Det> C, const int &D) -> "
                "Par<void> {\n"
                "               co_return;\n"
                "             });\n"
                "}\n"),
         0, "handler-cycle: by-reference capture adds no refcount");

  // ---- park-under-lock. ----
  Expect(Errors("src/sched/X.cpp",
                "Par<void> f(ParCtx<Eff::Det> Ctx) {\n"
                "  std::lock_guard<std::mutex> G(M);\n"
                "  co_await get(Ctx, IV);\n"
                "}\n"),
         1, "park-under-lock: co_await under a lock guard");
  Expect(Errors("src/sched/X.cpp",
                "Par<void> f(ParCtx<Eff::Det> Ctx) {\n"
                "  {\n"
                "    std::lock_guard<std::mutex> G(M);\n"
                "    Shared.push_back(1);\n"
                "  }\n"
                "  co_await get(Ctx, IV);\n"
                "}\n"),
         0, "park-under-lock: suspension after the guard scope is fine");
  Expect(Errors("src/sched/X.cpp",
                "void f() {\n"
                "  std::unique_lock<std::mutex> G(M);\n"
                "  auto Deferred = [](ParCtx<Eff::Det> C) -> Par<void> {\n"
                "    co_await get(C, IV);\n"
                "    co_return;\n"
                "  };\n"
                "}\n"),
         0, "park-under-lock: nested lambda bodies are deferred work");

  // ---- co-await-temporary. ----
  Expect(Errors("src/pbbs/X.cpp",
                "Par<void> f(ParCtx<Eff::Det> Ctx) {\n"
                "  co_await parallelFor(Ctx, 0, N, 1,\n"
                "                       [UF](ParCtx<Eff::Det> C, size_t I) {\n"
                "                         use(UF);\n"
                "                       });\n"
                "}\n"),
         1, "co-await-temporary: by-value capture as an awaited argument");
  Expect(Errors("src/pbbs/X.cpp",
                "Par<void> f(ParCtx<Eff::Det> Ctx) {\n"
                "  co_await lvish::forEach<Eff::Det>(Ctx, [=](int I) {});\n"
                "}\n"),
         1, "co-await-temporary: [=] through a qualified template callee");
  Expect(Errors("src/pbbs/X.cpp",
                "Par<void> f(ParCtx<Eff::Det> Ctx) {\n"
                "  auto Body = [UF](ParCtx<Eff::Det> C, size_t I) {};\n"
                "  co_await parallelFor(Ctx, 0, N, 1, Body);\n"
                "}\n"),
         0, "co-await-temporary: a named local is the sanctioned idiom");
  Expect(Errors("src/pbbs/X.cpp",
                "Par<void> f(ParCtx<Eff::Det> Ctx) {\n"
                "  co_await parallelFor(Ctx, 0, N, 1,\n"
                "                       [&](ParCtx<Eff::Det> C, size_t I) {});\n"
                "}\n"),
         0, "co-await-temporary: reference captures own nothing");
  Expect(Errors("src/pbbs/X.cpp",
                "Par<void> f(ParCtx<Eff::Det> Ctx) {\n"
                "  auto P = parallelFor(Ctx, 0, N, 1, [UF](size_t I) {});\n"
                "  co_await fork(Ctx, [&](ParCtx<Eff::Det> C) -> Par<void> {\n"
                "    auto G = [UF]() {};\n"
                "    co_return;\n"
                "  });\n"
                "}\n"),
         0, "co-await-temporary: unawaited calls and nested bodies pass");

  // ---- Baseline round-trip and JSON output. ----
  {
    std::vector<Finding> Fs =
        analyzeContents("src/sim/X.cpp", "std::mutex A;\nthrow B;\n");
    Expect(static_cast<int>(Fs.size()), 2, "baseline: two seed findings");
    std::string Err;
    std::map<std::string, int> Base = loadBaseline(baselineToJson(Fs), Err);
    Expect(Err.empty() ? 0 : 1, 0, "baseline: round-trip parses");
    Expect(static_cast<int>(Base.size()), 2, "baseline: two distinct keys");
    int Covered = 0;
    for (const Finding &F : Fs)
      Covered += Base.count(F.key()) ? 1 : 0;
    Expect(Covered, 2, "baseline: keys match the findings they came from");
    std::string Doc = findingsToJson(Fs, 1);
    obs::JsonValue V;
    Expect(obs::JsonValue::parse(Doc, V, &Err) ? 0 : 1, 0,
           "json: findings document parses");
    const obs::JsonValue *Schema = V.find("schema");
    Expect(Schema && Schema->isString() && Schema->Str == "lvish-analyze-v1"
               ? 0
               : 1,
           0, "json: schema tag present");
    const obs::JsonValue *List = V.find("findings");
    Expect(List && List->isArray() ? static_cast<int>(List->Arr.size()) : -1,
           2, "json: all findings serialized");
  }

  if (Failures == 0)
    std::printf("lvish-analyze self-test: all checks passed\n");
  return Failures;
}

} // namespace analyze
} // namespace lvish
