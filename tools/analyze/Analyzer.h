//===- Analyzer.h - lvish-analyze passes and driver API ---------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pass layer of lvish-analyze. Passes run over the FileModel built by
/// SourceModel.h:
///
///  * ported token rules - every rule of the retired per-line lvish-lint
///    (raw-sync, no-throw, ctx-forge, state-bypass, fatal, bench-harness,
///    explore-rng), re-expressed as token
///    sequences over the stripped token stream so constructs split across
///    lines still match;
///  * ctx-escape - a ParCtx name captured into a lambda whose storage
///    outlives the task scope (handler bodies, class members, globals);
///  * handler-cycle - an addHandler/addHandlerRef callback capturing a
///    shared_ptr to the LVar it is attached to (DESIGN.md footgun: the
///    handler pool keeps the callback alive, the callback keeps the LVar
///    alive, the LVar keeps its pool alive);
///  * park-under-lock - a lock-guard scope containing a suspension point
///    (co_await / awaited get / waitSize): parking a coroutine while
///    holding a mutex deadlocks the worker that later resumes it;
///  * co-await-temporary - a lambda capturing by value written directly
///    as an argument of a `co_await`ed call. GCC 12 destroys such a
///    temporary twice when the callee suspends (tools/
///    gcc12_coawait_temp_bug.cpp), silently; bind it to a named local.
///
/// Every pass looks for something the compiler cannot see. Effect levels
/// are not re-checked here: the `requires(has...(E))` clause on every
/// public operation is the static effect check, pinned by the probe table
/// in tests/DataStructuresTest.cpp.
///
/// Every finding is an error. Findings carry a rule id, file:line, and a
/// stable key used by the committed baseline file for grandfathered
/// findings.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_TOOLS_ANALYZE_ANALYZER_H
#define LVISH_TOOLS_ANALYZE_ANALYZER_H

#include "tools/analyze/SourceModel.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lvish {
namespace analyze {

/// One diagnostic produced by a pass.
struct Finding {
  std::string Rule;
  std::string File;
  uint32_t Line = 0; ///< 1-based.
  std::string Message;
  /// Short machine-stable detail (the offending token / op / name); part
  /// of the baseline key so line-number churn does not invalidate it.
  std::string Detail;

  /// Baseline identity: rule|file|detail (line numbers excluded so code
  /// motion above a grandfathered finding does not un-baseline it).
  std::string key() const { return Rule + "|" + File + "|" + Detail; }
};

/// The passes (Rules.cpp, ScopePasses.cpp), each appending its findings.
void runTokenRules(const FileModel &M, std::vector<Finding> &Out);
void runCtxEscape(const FileModel &M, std::vector<Finding> &Out);
void runHandlerCycle(const FileModel &M, std::vector<Finding> &Out);
void runParkUnderLock(const FileModel &M, std::vector<Finding> &Out);
void runCoAwaitTemporary(const FileModel &M, std::vector<Finding> &Out);

/// Models \p Contents as the file at \p Path and runs every pass over it,
/// returning the findings in line order.
std::vector<Finding> analyzeContents(const std::string &Path,
                                     const std::string &Contents);

/// Baseline document (lvish-analyze-baseline-v1): JSON mapping finding
/// keys to counts. Findings already present (up to their count) are
/// reported as baselined, not fatal. \p Text is the file contents; on
/// parse failure \p Err is set and the result is empty.
std::map<std::string, int> loadBaseline(const std::string &Text,
                                        std::string &Err);
std::string baselineToJson(const std::vector<Finding> &Findings);

/// Serializes findings as a machine-readable lvish-analyze-v1 document.
std::string findingsToJson(const std::vector<Finding> &Findings,
                           int BaselinedCount);

/// The ported self-test (every retired lvish-lint expectation plus the
/// scope-aware and pass-specific checks). Returns the failure count.
int selfTest();

} // namespace analyze
} // namespace lvish

#endif // LVISH_TOOLS_ANALYZE_ANALYZER_H
