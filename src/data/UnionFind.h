//===- UnionFind.h - Partition LVar over a dense vertex range ---*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A union-find LVar: its state is a partition of the vertices [0, N),
/// ordered by coarsening (bottom = all singletons). The put is
/// \c unite(a, b), the join with the partition whose only non-singleton
/// class is {a, b}; it is commutative, idempotent and inflationary, so
/// any order of any multiset of unions reaches the same partition. That
/// is the shape PBBS itself uses for connectivity (SNIPPETS.md snippet 1).
///
/// Representation: a parent forest in one array of atomics, with the
/// invariant \c parent[x] <= x. Linking always hangs the larger of two
/// roots under the smaller (one CAS on the larger root, which fails if a
/// racing union got there first), and \c find halves paths by CAS onto a
/// grandparent - an ancestor, so never above x. Every class's root is
/// therefore its minimum vertex, and the frozen labels (root of each
/// vertex) are the same on every schedule: exactly the "smallest vertex
/// id of the component" labelling of \c pbbs::componentsSeq.
///
/// A union of two vertices already in one class changes nothing: it is a
/// no-op put (counted as a NoOpJoin) and is allowed after a freeze. Only a
/// union that would merge two classes of a frozen partition is the
/// put-after-freeze error. There are no handlers or threshold reads: the
/// partition is read through freeze (mid-session, or on the way out of
/// runParThenFreeze via \c labels), or, once the writers have joined, one
/// vertex at a time through \c rootOf.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_DATA_UNIONFIND_H
#define LVISH_DATA_UNIONFIND_H

#include "src/core/LVarBase.h"
#include "src/core/Par.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace lvish {

/// Partition LVar over [0, N); construct via \c newUnionFind.
class UnionFind : public LVarBase {
public:
  UnionFind(uint64_t SessionId, uint32_t N)
      : LVarBase(SessionId), Parent(N) {
    for (uint32_t V = 0; V < N; ++V)
      Parent[V].store(V, std::memory_order_relaxed);
  }

  /// Lub write: merges the classes of \p A and \p B.
  void mergeClasses(uint32_t A, uint32_t B, Task *Writer) {
    enterPut(Writer, check::FxPut, "UnionFind unite");
    assert(A < Parent.size() && B < Parent.size() &&
           "UnionFind vertex out of range");
    for (;;) {
      A = find(A);
      B = find(B);
      if (A == B) {
        noOpPut();
        return; // Already one class.
      }
      if (A > B)
        std::swap(A, B);
      if (isFrozen())
        putAfterFreezeError(Writer, this);
      // Hang the larger root under the smaller; fails only if B stopped
      // being a root meanwhile, and then the retry finds its new root.
      uint32_t Expected = B;
      if (Parent[B].compare_exchange_strong(Expected, A,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire))
        return;
    }
  }

  /// The root (minimum vertex) of \p V's class. Deterministic once the
  /// writers have joined (a fork-join barrier) or after freezing, like
  /// \c MinVec::peekAt. Not a put: it may halve paths on the way, as
  /// \c unite does, which moves no vertex to another class.
  uint32_t rootOf(uint32_t V) {
    assert(V < Parent.size() && "UnionFind vertex out of range");
    return find(V);
  }

  /// label[v] = the minimum vertex of v's class; call after freezing. One
  /// ascending pass: parent[v] < v for a non-root, so its label is ready.
  std::vector<uint32_t> labels() const {
    assert(isFrozen() && "reading an unfrozen UnionFind is nondeterministic");
    std::vector<uint32_t> Out(Parent.size());
    for (uint32_t V = 0; V < Out.size(); ++V) {
      uint32_t P = Parent[V].load(std::memory_order_acquire);
      Out[V] = P == V ? V : Out[P];
    }
    return Out;
  }

private:
  /// Root of \p X's class as of now, with path halving. A root is its
  /// class's minimum vertex; which class X is in can still grow until the
  /// partition is frozen or the writers have quiesced.
  uint32_t find(uint32_t X) {
    for (;;) {
      uint32_t P = Parent[X].load(std::memory_order_acquire);
      if (P == X)
        return X;
      uint32_t G = Parent[P].load(std::memory_order_acquire);
      // Point X at its grandparent. A failed CAS means a racing find
      // already moved X at least as far up; both keep parent[x] <= x.
      if (G != P)
        Parent[X].compare_exchange_weak(P, G, std::memory_order_acq_rel,
                                        std::memory_order_relaxed);
      X = G;
    }
  }

  std::vector<std::atomic<uint32_t>> Parent;
};

/// Allocates the all-singletons partition of [0, N).
template <EffectSet E>
std::shared_ptr<UnionFind> newUnionFind(ParCtx<E> Ctx, uint32_t N) {
  return std::make_shared<UnionFind>(Ctx.sessionId(), N);
}

/// `unite :: HasPut e => Int -> Int -> UnionFind s -> Par e s ()`
template <EffectSet E>
  requires(hasPut(E))
void unite(ParCtx<E> Ctx, UnionFind &UF, uint32_t A, uint32_t B) {
  UF.mergeClasses(A, B, Ctx.task());
}

/// Freezes (quasi-deterministic mid-session; deterministic after the
/// writers quiesce) and returns each vertex's class label.
template <EffectSet E>
  requires(hasFreeze(E))
std::vector<uint32_t> freezeUnionFind(ParCtx<E> Ctx, UnionFind &UF) {
  UF.freezeFor(Ctx.task(), "UnionFind freeze");
  return UF.labels();
}

} // namespace lvish

#endif // LVISH_DATA_UNIONFIND_H
