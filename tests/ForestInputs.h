//===- ForestInputs.h - Edge lists that stress reservations -----*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Edge lists shaped against spanningForestLVar's deterministic
/// reservations, shared by the golden and complexity tests. Each puts
/// many edges of one round on one root: a star's edges all reserve its
/// hub, a path's neighbours share a vertex, and a complete (or complete
/// bipartite) graph's edges contend on few roots. A commit rule that
/// needs both reservations decides one star or path edge per round.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_TESTS_FORESTINPUTS_H
#define LVISH_TESTS_FORESTINPUTS_H

#include "src/pbbs/Input.h"

#include <cstdint>
#include <vector>

namespace lvish {
namespace pbbs {

struct NamedEdgeList {
  const char *Name;
  EdgeList EL;
};

/// Edges (Hub, k) for every k != Hub, in ascending k.
inline EdgeList starEdges(uint32_t N, uint32_t Hub) {
  EdgeList EL{N, {}};
  for (uint32_t K = 0; K < N; ++K)
    if (K != Hub)
      EL.Edges.push_back({Hub, K});
  return EL;
}

/// The path 0 - 1 - ... - N-1, its edges listed from vertex 0 up or
/// from vertex N-1 down.
inline EdgeList pathEdges(uint32_t N, bool Descending) {
  EdgeList EL{N, {}};
  for (uint32_t K = 0; K + 1 < N; ++K) {
    uint32_t Lo = Descending ? N - 2 - K : K;
    EL.Edges.push_back({Lo, Lo + 1});
  }
  return EL;
}

/// K_N, edges (i, j) with i < j in lexicographic order.
inline EdgeList completeEdges(uint32_t N) {
  EdgeList EL{N, {}};
  for (uint32_t I = 0; I < N; ++I)
    for (uint32_t J = I + 1; J < N; ++J)
      EL.Edges.push_back({I, J});
  return EL;
}

/// K_{2,N}: vertices 0 and 1 against 2 .. N+1, the two edges of each
/// right vertex listed together.
inline EdgeList completeBipartite2(uint32_t N) {
  EdgeList EL{N + 2, {}};
  for (uint32_t K = 2; K < N + 2; ++K) {
    EL.Edges.push_back({0, K});
    EL.Edges.push_back({1, K});
  }
  return EL;
}

/// Stars on either end, paths in both index orders, K_64 and K_{2,N}.
inline std::vector<NamedEdgeList> adversarialForests(uint32_t N) {
  return {{"star-hub-0", starEdges(N, 0)},
          {"star-hub-last", starEdges(N, N - 1)},
          {"path-ascending", pathEdges(N, false)},
          {"path-descending", pathEdges(N, true)},
          {"complete-64", completeEdges(64)},
          {"complete-bipartite-2", completeBipartite2(N)}};
}

} // namespace pbbs
} // namespace lvish

#endif // LVISH_TESTS_FORESTINPUTS_H
