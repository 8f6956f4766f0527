//===- Pedigree.h - Fork-tree pedigrees as a transformer --------*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// \c PedigreeT (Section 4): "keeps the index in the binary control-flow
/// tree as implicit state, e.g. 'LRRLL' ... In this case the split action
/// is to add 'L' or 'R' for each branch of the fork, respectively.
/// Pedigrees can then be augmented with counters that increase with certain
/// sequential actions, thus providing a form of parallel program counter."
/// Intel modified the Cilk runtime to support this (Leiserson et al.,
/// PPoPP 2012); in LVish it is just a state layer.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_TRANS_PEDIGREE_H
#define LVISH_TRANS_PEDIGREE_H

#include "src/trans/StateLayer.h"

#include <algorithm>
#include <string>

namespace lvish {

/// The pedigree layer's state. The path itself is the task's own
/// fork-tree pedigree (Task::Ped, which every fork already extends with
/// 'L' for the child and 'R' for the parent's continuation), so the layer
/// keeps where that path stood when withPedigree began, plus the
/// sequential counter: a fork copies no string. Task::Ped records only
/// Pedigree::Capacity branches; the layer spells out the branches past
/// that in \c Past, so a pedigree stays exact at any depth.
struct PedigreeState {
  uint32_t Base = 0;     ///< Task::Ped depth at withPedigree entry.
  uint32_t Forks = 0;    ///< Forks on this task's path since entry.
  uint64_t SeqCount = 0; ///< Bumped by \c pedigreeTick.
  std::string Past;      ///< 'L'/'R' per fork past Pedigree::Capacity.

  /// Fork split: the child descends Left, the parent continues Right; the
  /// counter restarts on each.
  PedigreeState splitForChild() {
    PedigreeState Child{Base, Forks + 1, 0, Past};
    if (Base + Forks >= Pedigree::Capacity) {
      Child.Past += 'L';
      Past += 'R';
    }
    ++Forks;
    SeqCount = 0;
    return Child;
  }
};

struct PedigreeTag {};

/// Runs \p Body with pedigree tracking; forks inside extend the path.
template <EffectSet E, typename F>
auto withPedigree(ParCtx<E> Ctx, F Body) {
  return withState<PedigreeState, PedigreeTag>(
      Ctx, PedigreeState{Ctx.task()->Ped.depth(), 0, 0, {}}, Body);
}

/// The current task's pedigree path below the withPedigree entry point
/// (requires withPedigree in scope).
template <EffectSet E> std::string pedigree(ParCtx<E> Ctx) {
  const PedigreeState &S = stateRef<PedigreeState, PedigreeTag>(Ctx);
  const Pedigree &Ped = Ctx.task()->Ped;
  std::string Path;
  for (uint32_t I = S.Base; I < std::min(Ped.depth(), Pedigree::Capacity);
       ++I)
    Path.push_back(Ped.bit(I) ? 'R' : 'L');
  return Path + S.Past;
}

/// Advances the sequential component of the pedigree "program counter".
template <EffectSet E> void pedigreeTick(ParCtx<E> Ctx) {
  ++stateRef<PedigreeState, PedigreeTag>(Ctx).SeqCount;
}

/// Full pedigree including the sequential counter, e.g. "LRL#3".
template <EffectSet E> std::string pedigreeFull(ParCtx<E> Ctx) {
  return pedigree(Ctx) + "#" +
         std::to_string(stateRef<PedigreeState, PedigreeTag>(Ctx).SeqCount);
}

/// Answers "could A have happened before B?" for two pedigrees: true iff
/// A is a proper prefix of B on the Right spine... conservatively, two
/// pedigrees are concurrent unless one is an ancestor of the other in the
/// fork tree. Examining pedigrees at runtime "can answer happens-before or
/// happens-in-parallel questions" (Section 4).
inline bool pedigreesConcurrent(const std::string &A, const std::string &B) {
  size_t N = std::min(A.size(), B.size());
  size_t I = 0;
  while (I < N && A[I] == B[I])
    ++I;
  if (I == A.size() || I == B.size())
    return false; // One is an ancestor of (or equal to) the other.
  return true;    // They diverged at a fork: parallel branches.
}

} // namespace lvish

#endif // LVISH_TRANS_PEDIGREE_H
