//===- graph_traversal.cpp - Handler-driven BFS (Appendix A) ---------------===//
//
// The paper's second appendix example: a breadth-first reachability
// traversal where "handlers ... are callbacks run every time the contents
// of an LVar change" drive the fixpoint, and runParThenFreeze reads the
// exact result deterministically on the way out:
//
//   traverse g startNode = do
//     seen <- newEmptySet
//     h <- newHandler seen (\node -> mapM (\v -> insert v seen)
//                                         (neighbors g node))
//     insert startNode seen   -- Kick things off
//     return seen
//   main = print (runParThenFreeze (traverse myGraph 0))
//
// Run: build/examples/graph_traversal
//
//===----------------------------------------------------------------------===//

#include "src/lvish/All.h"
#include "src/support/SplitMix.h"

#include <cstdio>
#include <memory>
#include <vector>

using namespace lvish;

namespace {

constexpr EffectSet D = Eff::Det;

/// Simple adjacency-list graph.
struct Graph {
  std::vector<std::vector<int>> Adj;

  const std::vector<int> &neighbors(int V) const {
    return Adj[static_cast<size_t>(V)];
  }
};

/// A deterministic random graph with two components, so reachability is
/// interesting: vertices [0, Half) and [Half, N) never connect.
Graph makeTwoComponentGraph(int N, int EdgesPerSide, uint64_t Seed) {
  Graph G;
  G.Adj.resize(static_cast<size_t>(N));
  SplitMix64 Rng(Seed);
  int Half = N / 2;
  auto AddEdges = [&](int Lo, int Hi, int Count) {
    for (int E = 0; E < Count; ++E) {
      int U = Lo + static_cast<int>(Rng.nextBounded(
                       static_cast<uint64_t>(Hi - Lo)));
      int V = Lo + static_cast<int>(Rng.nextBounded(
                       static_cast<uint64_t>(Hi - Lo)));
      G.Adj[static_cast<size_t>(U)].push_back(V);
      G.Adj[static_cast<size_t>(V)].push_back(U);
    }
    // A spanning chain so the side is connected.
    for (int V = Lo + 1; V < Hi; ++V) {
      G.Adj[static_cast<size_t>(V - 1)].push_back(V);
      G.Adj[static_cast<size_t>(V)].push_back(V - 1);
    }
  };
  AddEdges(0, Half, EdgesPerSide);
  AddEdges(Half, N, EdgesPerSide);
  return G;
}

/// The paper's traverse: each newly seen node's handler inserts its
/// neighbors; the monotone set reaches the reachability fixpoint, and
/// quiescence tells us the cascade has drained.
Par<std::shared_ptr<ISet<int>>> traverse(ParCtx<D> Ctx, const Graph *G,
                                         int StartNode) {
  auto Seen = newISet<int>(Ctx);
  auto Pool = newPool(Ctx);
  ISet<int> *SeenRaw = Seen.get(); // Non-owning: handler lives inside Seen.
  [[maybe_unused]] HandlerHandle H =
      addHandler(Ctx, Pool, *Seen,
                 [G, SeenRaw](ParCtx<D> C, const int &Node) {
                   for (int V : G->neighbors(Node))
                     insert(C, *SeenRaw, V);
                 });
  insert(Ctx, *Seen, StartNode); // Kick things off.
  co_await quiesce(Ctx, Pool);
  co_return Seen;
}

} // namespace

int main() {
  constexpr int N = 1000;
  Graph G = makeTwoComponentGraph(N, 2000, 7);

  // runParThenFreeze: freeze the set on the way out, then read exactly.
  auto Seen = runParThenFreeze<D>(
      [&G](ParCtx<D> Ctx) -> Par<std::shared_ptr<ISet<int>>> {
        co_return co_await traverse(Ctx, &G, 0);
      },
      SchedulerConfig{4});

  std::vector<int> Reachable = Seen->toSortedVector();
  std::printf("reachable from node 0: %zu of %d vertices\n",
              Reachable.size(), N);
  std::printf("first few: ");
  for (size_t I = 0; I < Reachable.size() && I < 8; ++I)
    std::printf("%d ", Reachable[I]);
  std::printf("\n");

  // Exactly the first component (vertices 0..N/2-1) is reachable.
  bool Correct = Reachable.size() == static_cast<size_t>(N / 2) &&
                 Reachable.front() == 0 && Reachable.back() == N / 2 - 1;
  std::printf("deterministic reachability %s\n",
              Correct ? "verified" : "WRONG");
  return Correct ? 0 : 1;
}
