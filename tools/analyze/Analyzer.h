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
///  * effect-consistency - at every scope holding a concretely-resolvable
///    ParCtx<E> (a task lambda, runPar body, or plain function), compare
///    the declared EffectSet bits against the LVish operations the scope
///    calls on that context - the static dual of check::EffectAuditor,
///    driven by the shared src/check/EffectOps.h tables;
///  * ctx-escape - a ParCtx name captured into a lambda whose storage
///    outlives the task scope (handler bodies, class members, globals);
///  * handler-cycle - an addHandler/addHandlerRef callback capturing a
///    shared_ptr to the LVar it is attached to (DESIGN.md footgun: the
///    handler pool keeps the callback alive, the callback keeps the LVar
///    alive, the LVar keeps its pool alive);
///  * park-under-lock - a lock-guard scope containing a suspension point
///    (co_await / awaited get / waitSize): parking a coroutine while
///    holding a mutex deadlocks the worker that later resumes it.
///
/// Findings carry a rule id, severity, file:line, and a stable key used by
/// the committed baseline file for grandfathered findings.
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
  enum Severity : uint8_t { Error, Note };
  std::string Rule;
  Severity Sev = Error;
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

struct AnalyzerConfig {
  /// Also report *surplus* declared effect bits (declared but never used
  /// by any reachable op) as notes. Off by default: Eff::Det is the bland
  /// ubiquitous level and most Det scopes only fork.
  bool ReportSurplus = false;
};

/// Resolved effect-alias table: `constexpr EffectSet Name = ...;`
/// definitions found across the analyzed tree, reduced to Fx masks, plus
/// the built-in Eff:: levels.
struct EffectAliasTable {
  std::map<std::string, uint8_t> Masks;

  /// Resolves an effect template-argument text (e.g. "Eff::Det",
  /// "PhyBinEff", "Eff::Det | Eff::ReadOnly") to a mask. Returns false
  /// when any component is unknown (template parameter, computed
  /// expression) - callers must then skip the scope, conservatively.
  bool resolve(const std::string &EffectText, uint8_t &Mask) const;
};

/// Scans \p M for `constexpr EffectSet Name = <expr>;` definitions and
/// records their raw right-hand-side text into \p Raw (pre-resolution).
void collectEffectAliases(const FileModel &M,
                          std::map<std::string, std::string> &Raw);

/// Builds the final table from raw definitions: seeds the Eff:: levels,
/// then iteratively resolves name references, `|` unions, and
/// `EffectSet{...}` brace literals until a fixed point.
EffectAliasTable resolveEffectAliases(
    const std::map<std::string, std::string> &Raw);

/// Specializes the cross-file table for one file: `template <EffectSet E>`
/// parameters shadow (and un-resolve) any same-named alias - a generic
/// function's E must never accidentally bind to some other file's
/// `constexpr EffectSet E` - and the file's own definitions override
/// conflicting cross-file ones.
EffectAliasTable fileAliasTable(const FileModel &M,
                                const EffectAliasTable &Global);

/// Runs every pass over one file. \p Aliases must already contain the
/// cross-file alias table.
std::vector<Finding> analyzeFile(const FileModel &M,
                                 const AnalyzerConfig &Cfg,
                                 const EffectAliasTable &Aliases);

/// Individual passes (exposed for the self-test).
void runTokenRules(const FileModel &M, std::vector<Finding> &Out);
void runEffectConsistency(const FileModel &M, const AnalyzerConfig &Cfg,
                          const EffectAliasTable &Aliases,
                          std::vector<Finding> &Out);
void runCtxEscape(const FileModel &M, std::vector<Finding> &Out);
void runHandlerCycle(const FileModel &M, std::vector<Finding> &Out);
void runParkUnderLock(const FileModel &M, std::vector<Finding> &Out);

/// Convenience for tests: model + all passes over in-memory contents,
/// with a single-file alias table.
std::vector<Finding> analyzeContents(const std::string &Path,
                                     const std::string &Contents,
                                     const AnalyzerConfig &Cfg = {});

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
