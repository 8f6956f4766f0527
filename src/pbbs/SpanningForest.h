//===- SpanningForest.h - PBBS spanning forest on ParST + LVars -*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PBBS spanning forest by deterministic reservations (Blelloch, Fineman,
/// Gibbons, Shun, PPoPP 2012; the PBBS loop of SNIPPETS.md snippet 1),
/// combining the two halves of the paper's Section 5 story (DESIGN.md
/// Section 17). Each round takes a prefix of at most 4,096 undecided
/// edges in index order (last round's retries first) and makes two
/// passes over it:
///
///  * Reserve. \c forkSTSplit partitions the prefix's records, and each
///    leaf *mutates its own disjoint slice in place*: an edge stores the
///    current roots of its endpoints (\c UnionFind::rootOf), is dropped if
///    they agree, and otherwise min-writes its key into both roots' cells
///    of one \c MinVec (putMinAt, a commuting lub). Round r's key is
///    ((2^32 - 1 - r) << 32) | index, so later rounds' keys are smaller
///    and one MinVec serves the whole session without a reset.
///
///  * Commit. After the barrier an edge that holds *either* reservation
///    unites its two roots (the \c UnionFind partition, another lub) and
///    is accepted; every other reserving edge is retried next round.
///
/// Determinism does not come from luck: edge *indices* are the weights,
/// all distinct. An edge holding the reservation of root v is the lowest
/// undecided edge touching v's class, so the sequential Kruskal-by-index
/// reference (\c spanningForestSeq, the golden test's oracle) would
/// accept it too; the round's lowest key holds both its cells, so every
/// round decides at least one edge. Requiring both reservations would
/// give the same answer, but decide one edge per round on a star. Reads
/// of the MinVec and the partition happen only after a fork-join
/// barrier, so nothing is frozen: the kernel runs at \c Eff::DetST, and
/// the answer is one scan of per-edge accepted flags, already sorted.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_PBBS_SPANNINGFOREST_H
#define LVISH_PBBS_SPANNINGFOREST_H

#include "src/core/RunPar.h"
#include "src/pbbs/Input.h"

#include <cstdint>
#include <vector>

namespace lvish {
namespace pbbs {

/// Sequential reference: union-find scan in index order (Kruskal with
/// index-as-weight); returns the sorted accepted edge indices.
std::vector<uint64_t> spanningForestSeq(const EdgeList &EL);

/// Deterministic reservations over ParST edge partitions; equals
/// \c spanningForestSeq on every schedule.
std::vector<uint64_t>
spanningForestLVar(const EdgeList &EL,
                   const RunOptions &Opts = RunOptions());

} // namespace pbbs
} // namespace lvish

#endif // LVISH_PBBS_SPANNINGFOREST_H
