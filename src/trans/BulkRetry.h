//===- BulkRetry.h - Deterministic reservations (BulkRetryT) ----*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// \c BulkRetryT (Section 6, after Blelloch et al.'s deterministic
/// reservations): "to efficiently execute a parallel for loop with a large
/// iteration space, it is often better to cheaply mark the iterations that
/// fail and retry them in bulk" instead of blocking each iteration on a
/// get. \c forSpeculative has the shape of PBBS's \c speculative_for
/// (Blelloch, Fineman, Gibbons, Shun, PPoPP 2012; SNIPPETS.md snippet 1).
/// Each round takes the at most 4,096 lowest-indexed undecided iterations,
/// in index order (last round's retries first), and makes two
/// \c parallelFor passes over one library-owned \c State slot each:
///
///  * Reserve. \c Reserve(C, Round, I, S) reads what earlier rounds
///    committed, records what it needs in \c S, and puts its reservations
///    (commuting lubs, such as a min-write of a round-keyed priority).
///    Returning false drops the iteration for good.
///  * Commit. After the barrier, \c Commit(C, Round, I, S) reads the
///    reservations' final values and, if it won, commits. Returning false
///    retries the iteration next round, with the same slot.
///
/// No reserve reads what another reserve of its pass writes, so the round
/// in which each iteration commits, and the round count, are the same on
/// every schedule. Retries are packed in index order, so nothing is
/// sorted; the bodies are plain calls in the leaves, so no iteration gets
/// a coroutine frame.
///
/// "The approach of aborting and retrying rather than blocking requires
/// that each iteration of computation have only idempotent effects" - so
/// the bodies' effect level must not contain Bump, which the requires
/// clause enforces statically (fine-grained effect tracking earning its
/// keep, as the paper's Section 6 closes by observing). ST is allowed.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_TRANS_BULKRETRY_H
#define LVISH_TRANS_BULKRETRY_H

#include "src/core/ParFor.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace lvish {

/// What \c forSpeculative did: the rounds it ran and, for each iteration
/// of [Begin, End) at offset I - Begin, 1 if it committed (0 if dropped).
struct SpecResult {
  size_t Rounds = 0;
  std::vector<uint8_t> Committed;
};

namespace detail {

/// Undecided iterations per round, and the grain of each pass (capped by
/// \c pickGrain on short rounds).
constexpr size_t SpecPrefix = 4096;
constexpr size_t SpecGrain = 512;

} // namespace detail

/// Deterministic reservations over [Begin, End): rounds of a reserve pass
/// and a commit pass (see the file comment) until every iteration has
/// committed or been dropped. A fresh iteration's slot starts as
/// \c State{}; a retried one keeps its slot. The bodies must be idempotent
/// (no Bump effects - statically enforced - and no non-monotonic external
/// side effects). If an iteration can never commit the loop diverges,
/// exactly like a blocked get would.
template <typename State, EffectSet E, typename ReserveF, typename CommitF>
  requires(hasPut(E) && hasGet(E) && !hasBump(E))
Par<SpecResult> forSpeculative(ParCtx<E> Ctx, size_t Begin, size_t End,
                               ReserveF Reserve, CommitF Commit) {
  static_assert(
      std::is_invocable_r_v<bool, ReserveF &, ParCtx<E>, uint64_t, size_t,
                            State &> &&
          std::is_invocable_r_v<bool, CommitF &, ParCtx<E>, uint64_t, size_t,
                                State &>,
      "bodies must be bool(ParCtx<E>, uint64_t Round, size_t I, State &)");
  enum class Outcome : uint8_t { Dropped, Pending, Committed };
  struct Slot {
    size_t Idx;
    State S;
    Outcome Out;
  };
  SpecResult Res{0, std::vector<uint8_t>(End - Begin, 0)};
  std::vector<Slot> Prefix(std::min(End - Begin, detail::SpecPrefix));
  Slot *P = Prefix.data();
  uint64_t Round = 0;
  // Named pass bodies: GCC 12 co_await temporary discipline (see Par.h).
  auto ReservePass = [P, &Round, &Reserve](ParCtx<E> C, size_t J) {
    C.noteBytes(2 * sizeof(Slot));
    P[J].Out = Reserve(C, Round, P[J].Idx, P[J].S) ? Outcome::Pending
                                                   : Outcome::Dropped;
  };
  auto CommitPass = [P, &Round, &Commit](ParCtx<E> C, size_t J) {
    C.noteBytes(2 * sizeof(Slot));
    if (P[J].Out == Outcome::Pending && Commit(C, Round, P[J].Idx, P[J].S))
      P[J].Out = Outcome::Committed;
  };
  size_t Retries = 0, Next = Begin;
  for (; Retries > 0 || Next < End; ++Round) {
    size_t Len = Retries;
    for (; Len < Prefix.size() && Next < End; ++Len)
      P[Len] = Slot{Next++, State{}, Outcome::Dropped};
    const size_t Grain = pickGrain(detail::SpecGrain, Len);
    co_await parallelFor(Ctx, 0, Len, Grain, ReservePass);
    co_await parallelFor(Ctx, 0, Len, Grain, CommitPass);
    Retries = 0;
    for (size_t J = 0; J < Len; ++J) {
      if (P[J].Out == Outcome::Committed)
        Res.Committed[P[J].Idx - Begin] = 1;
      else if (P[J].Out == Outcome::Pending)
        P[Retries++] = P[J];
    }
  }
  Res.Rounds = Round;
  co_return Res;
}

} // namespace lvish

#endif // LVISH_TRANS_BULKRETRY_H
