//===- CheckBase.h - Dynamic determinism-checker substrate ------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared substrate of the dynamic determinism checkers (src/check/). The
/// Haskell original enforces its disciplines statically (`HasPut e`-style
/// constraints, higher-rank types for ParST); C++ cannot express all of
/// them, so this layer provides the runtime analyses that stand in for the
/// lost static guarantees:
///
///  * \c LatticeChecker.h      - join laws + threshold-set incompatibility
///                               (paper Section 2/3 proof obligations);
///  * \c DisjointnessChecker.h - shadow interval map of live VecView
///                               extents (Section 5's disjointness);
///  * \c EffectAuditor.h       - per-task performed-vs-declared effect
///                               comparison (Section 3 / Section 6.1).
///
/// Everything here is compiled behind \c LVISH_CHECK (defined to 0/1 by
/// CMake: on by default in Debug, off - and zero-cost - in Release and
/// RelWithDebInfo). Call sites in the core library are additionally wrapped
/// in `#if LVISH_CHECK` where argument evaluation would otherwise cost.
///
/// Violations report through \c reportViolation: by default a violation is
/// a deterministic fatal error (matching the library's never-throw abort
/// discipline); tests install a handler with \c setViolationHandler to
/// record the diagnostic and let execution continue.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_CHECK_CHECKBASE_H
#define LVISH_CHECK_CHECKBASE_H

#include <cstdint>

// CMake defines LVISH_CHECK=0/1 on every target; default off for ad-hoc
// compiles that bypass the build system.
#ifndef LVISH_CHECK
#define LVISH_CHECK 0
#endif

namespace lvish {
namespace check {

/// Checker families, for per-family violation counters and test filtering.
enum class ViolationKind : unsigned {
  LatticeLaw = 0,   ///< Join-law breach (commutativity, assoc., ...).
  ThresholdSet = 1, ///< Trigger sets not pairwise incompatible.
  Disjointness = 2, ///< Overlapping or stale ParST extent/access.
  EffectDiscipline = 3, ///< Task performed an effect it never declared.
  NumKinds = 4
};

/// One detected discipline violation, handed to the installed handler.
struct ViolationReport {
  ViolationKind Kind;
  const char *Checker; ///< "LatticeChecker", "DisjointnessChecker", ...
  const char *Message; ///< Formatted diagnostic (valid during the call).
};

/// Handler signature; see \c setViolationHandler.
using ViolationHandler = void (*)(const ViolationReport &);

/// Without a violation handler, \c sampleHit admits one call in this many.
inline constexpr uint64_t SamplePeriod = 64;

#if LVISH_CHECK

/// Installs a violation handler (tests only) and returns the previous one.
/// With a handler installed, \c reportViolation records and *returns*
/// instead of aborting, so a test can observe the diagnostic, and
/// \c sampleHit admits every call, so the test observes every violation.
/// Pass null to restore the default abort behavior and sampling.
ViolationHandler setViolationHandler(ViolationHandler H);

/// Reports a discipline violation: formats printf-style, bumps the
/// per-kind counter, then either invokes the installed handler (and
/// returns) or aborts via fatalError.
void reportViolation(ViolationKind Kind, const char *Checker,
                     const char *Fmt, ...)
    __attribute__((format(printf, 3, 4)));

/// Violations observed so far for \p Kind (test assertions).
uint64_t violationCount(ViolationKind Kind);

/// Total violations across all kinds.
uint64_t violationCountTotal();

/// Resets all violation counters (test fixtures).
void resetViolationCounts();

/// True on every \c SamplePeriod-th call process-wide (on every call while
/// a violation handler is installed), cheap enough for hot put and
/// VecView-access paths. Sampling keeps the Debug-mode overhead of the
/// law/shadow checks bounded while still catching systematic violations.
bool sampleHit();

#else // !LVISH_CHECK - inline no-op stubs so call sites need no guards.

inline ViolationHandler setViolationHandler(ViolationHandler) {
  return nullptr;
}
inline void reportViolation(ViolationKind, const char *, const char *, ...) {}
inline uint64_t violationCount(ViolationKind) { return 0; }
inline uint64_t violationCountTotal() { return 0; }
inline void resetViolationCounts() {}
inline bool sampleHit() { return false; }

#endif // LVISH_CHECK

} // namespace check
} // namespace lvish

#endif // LVISH_CHECK_CHECKBASE_H
