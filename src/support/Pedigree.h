//===- Pedigree.h - Widened fork-tree pedigree ------------------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The task's deterministic identity: its position in the session's fork
/// tree, one bit per branch (0 = Left, a forked child; 1 = Right, the
/// parent's continuation). The original single-uint64_t packing silently
/// stopped recording bits past depth 64, so two distinct tasks deeper than
/// 64 forks could share a pedigree - which breaks the least-fault winner
/// rule and fault-injection targeting. This type widens storage to 256
/// recorded bits (4 inline words, no heap), which covers every fork chain
/// the repo's stress tests produce with a wide margin; beyond that the
/// path *explicitly* saturates: depth keeps counting, \c overflowed()
/// reports it, and \c render() appends a "+N" suffix so saturated
/// pedigrees are at least visibly distinct from exact ones.
///
/// Lives in src/support/ (not src/sched/Task.h) so the fault layer's plan
/// decisions (src/fault/FaultPlan.h, which may not include scheduler
/// headers) and the support-only unit tests can use it directly.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_SUPPORT_PEDIGREE_H
#define LVISH_SUPPORT_PEDIGREE_H

#include "src/support/Hashing.h"

#include <cstdint>
#include <string>

namespace lvish {

/// Fork-tree position; see file comment. Value type, trivially copyable,
/// empty path = the session root.
class Pedigree {
public:
  /// Recorded-bit capacity. Appends past this saturate (depth still
  /// counts) instead of silently wrapping into earlier bits.
  static constexpr uint32_t Capacity = 256;
  static constexpr uint32_t NumWords = Capacity / 64;

  /// Appends one branch (0 = Left, 1 = Right).
  void append(unsigned Bit) {
    if (Depth < Capacity && Bit)
      Words[Depth / 64] |= (uint64_t{1} << (Depth % 64));
    ++Depth;
  }

  /// Total branches taken from the session root (may exceed Capacity).
  uint32_t depth() const { return Depth; }

  /// True when appends were dropped: two overflowed pedigrees with equal
  /// recorded prefixes and depths may denote different tasks.
  bool overflowed() const { return Depth > Capacity; }

  /// Recorded branch \p I (must be < min(depth, Capacity)).
  bool bit(uint32_t I) const { return (Words[I / 64] >> (I % 64)) & 1; }

  /// L/R string rendering ("" = session root); saturated depths append
  /// "+N" for the N unrecorded branches. This string is the fault model's
  /// canonical pedigree form (Fault::Pedigree, FaultPlan::FailPedigree).
  std::string render() const {
    std::string S;
    uint32_t N = Depth < Capacity ? Depth : Capacity;
    S.reserve(N);
    for (uint32_t I = 0; I < N; ++I)
      S.push_back(bit(I) ? 'R' : 'L');
    if (Depth > Capacity) {
      S += '+';
      S += std::to_string(Depth - Capacity);
    }
    return S;
  }

  /// Stable, platform-independent hash of (recorded path, depth).
  uint64_t hash() const {
    uint64_t H = Depth;
    for (uint32_t W = 0; W < NumWords; ++W)
      H = hashCombine(H, Words[W]);
    return mix64(H);
  }

  friend bool operator==(const Pedigree &A, const Pedigree &B) {
    if (A.Depth != B.Depth)
      return false;
    for (uint32_t W = 0; W < NumWords; ++W)
      if (A.Words[W] != B.Words[W])
        return false;
    return true;
  }
  friend bool operator!=(const Pedigree &A, const Pedigree &B) {
    return !(A == B);
  }

private:
  uint64_t Words[NumWords] = {};
  uint32_t Depth = 0;
};

} // namespace lvish

#endif // LVISH_SUPPORT_PEDIGREE_H
