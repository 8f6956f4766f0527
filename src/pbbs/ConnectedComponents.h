//===- ConnectedComponents.h - PBBS connectivity on LVars -------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PBBS connected components, two ways:
///
///  * \c componentsLVar - union-find, the shape PBBS itself uses: one
///    \c parallelForPar over the vertices unites every edge once (from its
///    smaller endpoint) into a \c UnionFind partition LVar
///    (src/data/UnionFind.h), frozen on the way out of the session. Roots
///    are class minima by construction, so label[v] is the smallest vertex
///    id of v's component on every schedule. O(V + E) puts, no handlers.
///
///  * \c componentsLabelProp - min-label propagation, kept as the handler
///    stress case: a \c MinMap (src/data/MinMap.h) seeded with each local
///    minimum's own id, and a put-only handler that relaxes each winning
///    label decrease across the vertex's edges through the HandlerPool's
///    batched flush path. Labels only fall, min-joins commute, and
///    \c quiesce detects the fixpoint, so it returns the same labels - at
///    the cost of label-correcting churn that grows faster than the input.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_PBBS_CONNECTEDCOMPONENTS_H
#define LVISH_PBBS_CONNECTEDCOMPONENTS_H

#include "src/core/RunPar.h"
#include "src/pbbs/Input.h"

#include <cstdint>
#include <vector>

namespace lvish {
namespace pbbs {

/// Sequential reference: label[v] = min vertex id in v's component.
std::vector<uint32_t> componentsSeq(const Graph &G);

/// Union-find on a partition LVar; equals \c componentsSeq on every
/// schedule.
std::vector<uint32_t> componentsLVar(const Graph &G,
                                     const RunOptions &Opts = RunOptions());

/// Min-label propagation through a handler fixpoint; equals
/// \c componentsSeq on every schedule.
std::vector<uint32_t> componentsLabelProp(const Graph &G,
                                          const RunOptions &Opts = RunOptions());

} // namespace pbbs
} // namespace lvish

#endif // LVISH_PBBS_CONNECTEDCOMPONENTS_H
