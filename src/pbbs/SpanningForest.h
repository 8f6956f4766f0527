//===- SpanningForest.h - PBBS spanning forest by BulkRetryT ----*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PBBS spanning forest as the paper's Section 6 \c BulkRetryT story:
/// deterministic reservations (Blelloch, Fineman, Gibbons, Shun, PPoPP
/// 2012) run by \c forSpeculative (src/trans/BulkRetry.h), with one edge
/// per iteration and the edge's endpoint roots as its slot state. Each
/// round takes the lowest undecided edges in index order and makes two
/// passes over them:
///
///  * Reserve. An edge stores the current roots of its endpoints
///    (\c UnionFind::rootOf), is dropped if they agree, and otherwise
///    min-writes its key into both roots' cells of one \c MinVec
///    (putMinAt, a commuting lub). Round r's key is
///    ((2^32 - 1 - r) << 32) | index, so later rounds' keys are smaller
///    and one MinVec serves the whole session without a reset.
///
///  * Commit. After the barrier an edge that holds *either* reservation
///    unites its two roots (the \c UnionFind partition, another lub) and
///    commits; every other reserving edge is retried next round.
///
/// Determinism does not come from luck: edge *indices* are the weights,
/// all distinct. An edge holding the reservation of root v is the lowest
/// undecided edge touching v's class, so the sequential Kruskal-by-index
/// reference (\c spanningForestSeq, the golden test's oracle) would
/// accept it too; the round's lowest key holds both its cells, so every
/// round decides at least one edge. Requiring both reservations would
/// give the same answer, but decide one edge per round on a star. Reads
/// of the MinVec and the partition happen only after a fork-join
/// barrier, so nothing is frozen: the kernel runs at \c Eff::Det, and
/// the answer is one scan of \c forSpeculative's committed flags,
/// already sorted. Retried edges hold no Bump effect, which is the
/// idempotence the paper's Section 6 asks of a bulk-retried body.
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

/// Deterministic reservations through \c forSpeculative; equals
/// \c spanningForestSeq on every schedule.
std::vector<uint64_t>
spanningForestLVar(const EdgeList &EL,
                   const RunOptions &Opts = RunOptions());

} // namespace pbbs
} // namespace lvish

#endif // LVISH_PBBS_SPANNINGFOREST_H
