//===- LatticeLawsTest.cpp - Lattice and bump laws, property style ---------===//
//
// The paper's proof obligations for data-structure authors, checked as
// executable properties: joins must be associative, commutative,
// idempotent, and inflationary, with bottom as identity; bump families
// must commute and be inflationary; threshold trigger sets must be
// pairwise incompatible. Parameterized (TEST_P) across random seeds so
// each law is exercised on many generated states.
//
//===----------------------------------------------------------------------===//

#include "src/core/Lattice.h"
#include "src/core/RunPar.h"
#include "src/data/AndLV.h"
#include "src/data/DenseSet.h"
#include "src/data/InsertOnlyTable.h"
#include "src/data/PureMap.h"
#include "src/support/DenseBitset.h"
#include "src/support/SplitMix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

using namespace lvish;

namespace {

// -- Generic law checkers --------------------------------------------------

template <typename L>
void checkJoinLaws(const std::vector<typename L::ValueType> &States) {
  for (const auto &A : States) {
    EXPECT_EQ(L::join(A, L::bottom()), A) << "bottom not an identity";
    EXPECT_EQ(L::join(A, A), A) << "join not idempotent";
    for (const auto &B : States) {
      EXPECT_EQ(L::join(A, B), L::join(B, A)) << "join not commutative";
      auto J = L::join(A, B);
      EXPECT_EQ(L::join(A, J), J) << "join not inflationary";
      for (const auto &C : States)
        EXPECT_EQ(L::join(A, L::join(B, C)), L::join(L::join(A, B), C))
            << "join not associative";
    }
  }
}

// A set-union lattice over DenseBitset, used by ISet semantically; here
// we check the laws on the value type directly.
struct BitsetUnionLattice {
  using ValueType = DenseBitset;
  static constexpr size_t Universe = 48;
  static ValueType bottom() { return DenseBitset(Universe); }
  static ValueType join(const ValueType &A, const ValueType &B) {
    ValueType R = A;
    R |= B;
    return R;
  }
};

// The DenseSet lattice (src/data/DenseSet.h), checked through the
// structure itself: a state is a frozen set's contents, and join(A, B) is
// a fresh set fed A's elements and then B's, one bit-OR per new element.
// The universe spans three words, so states straddle word boundaries.
struct DenseSetLattice {
  using ValueType = std::vector<uint32_t>;
  static constexpr uint32_t Universe = 150;
  static ValueType bottom() { return {}; }
  static ValueType join(const ValueType &A, const ValueType &B) {
    const ValueType *AP = &A, *BP = &B;
    auto S = runParThenFreeze<Eff::Det>(
        [AP, BP](ParCtx<Eff::Det> Ctx) -> Par<std::shared_ptr<DenseSet>> {
          auto Set = newDenseSet(Ctx, Universe);
          for (const ValueType *Part : {AP, BP})
            for (uint32_t V : *Part)
              insert(Ctx, *Set, V);
          co_return Set;
        },
        SchedulerConfig{1});
    return S->toSortedVector();
  }
};

class LatticeLawsP : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LatticeLawsP, MaxUint64JoinLaws) {
  SplitMix64 Rng(GetParam());
  std::vector<unsigned long long> States{0, 1,
                                         ~0ULL}; // Edge states always in.
  for (int I = 0; I < 6; ++I)
    States.push_back(Rng.next() >> (Rng.nextBounded(40)));
  checkJoinLaws<MaxUint64Lattice>(States);
}

TEST_P(LatticeLawsP, BitsetUnionJoinLaws) {
  SplitMix64 Rng(GetParam());
  std::vector<DenseBitset> States{BitsetUnionLattice::bottom()};
  for (int I = 0; I < 6; ++I) {
    DenseBitset B(BitsetUnionLattice::Universe);
    for (int K = 0; K < 10; ++K)
      B.set(Rng.nextBounded(BitsetUnionLattice::Universe));
    States.push_back(B);
  }
  checkJoinLaws<BitsetUnionLattice>(States);
}

TEST_P(LatticeLawsP, DenseSetBitOrJoinLaws) {
  SplitMix64 Rng(GetParam());
  constexpr uint32_t U = DenseSetLattice::Universe;
  std::vector<std::vector<uint32_t>> States{DenseSetLattice::bottom(),
                                            {0, 63, 64, U - 1}};
  for (int I = 0; I < 2; ++I) {
    std::set<uint32_t> Elems;
    for (int K = 0; K < 12; ++K)
      Elems.insert(static_cast<uint32_t>(Rng.nextBounded(U)));
    States.emplace_back(Elems.begin(), Elems.end());
  }
  checkJoinLaws<DenseSetLattice>(States);
}

TEST_P(LatticeLawsP, MinUint64JoinLaws) {
  // The PBBS connected-components label lattice (src/data/MinMap.h):
  // ordered by >=, bottom is +infinity, join is min.
  SplitMix64 Rng(GetParam());
  std::vector<unsigned long long> States{0, 1, ~0ULL};
  for (int I = 0; I < 6; ++I)
    States.push_back(Rng.next() >> (Rng.nextBounded(40)));
  checkJoinLaws<MinUint64Lattice>(States);
  // The derived order is the REVERSE of the numeric one: a lower label is
  // "more information". Thresholds of the form "label <= T" are therefore
  // upward-closed - once they fire they can never unfire, the monotone
  // read guarantee MinMap's get(Ctx, Map, K, Bound) leans on.
  for (const auto &A : States)
    for (const auto &B : States) {
      EXPECT_EQ(latticeLeq<MinUint64Lattice>(A, B), A >= B);
      for (const auto &T : States)
        if (A <= T) { // Threshold fired at A...
          EXPECT_LE(MinUint64Lattice::join(A, B), T)
              << "...so it must stay fired at every later state";
        }
    }
}

// Key-wise min over partial label maps: the full MinMap state lattice
// (vertex -> component label), modeled on std::map. Absent keys are
// bottom (+infinity), so key union with per-key min IS the join.
struct MinLabelMapLattice {
  using ValueType = std::map<uint32_t, unsigned long long>;
  static ValueType bottom() { return {}; }
  static ValueType join(const ValueType &A, const ValueType &B) {
    ValueType R = A;
    for (const auto &[K, V] : B) {
      auto [It, Inserted] = R.insert({K, V});
      if (!Inserted)
        It->second = MinUint64Lattice::join(It->second, V);
    }
    return R;
  }
};

TEST_P(LatticeLawsP, MinLabelMapJoinLaws) {
  SplitMix64 Rng(GetParam());
  std::vector<MinLabelMapLattice::ValueType> States{
      MinLabelMapLattice::bottom()};
  for (int I = 0; I < 6; ++I) {
    MinLabelMapLattice::ValueType M;
    int N = 1 + static_cast<int>(Rng.nextBounded(5));
    for (int K = 0; K < N; ++K)
      M[static_cast<uint32_t>(Rng.nextBounded(6))] = Rng.nextBounded(8);
    States.push_back(std::move(M));
  }
  checkJoinLaws<MinLabelMapLattice>(States);
}

// A grow-only set of accepted edge indices (operationally an
// ISet<uint64_t>), join = union.
struct EdgeSetUnionLattice {
  using ValueType = std::set<uint64_t>;
  static ValueType bottom() { return {}; }
  static ValueType join(const ValueType &A, const ValueType &B) {
    ValueType R = A;
    R.insert(B.begin(), B.end());
    return R;
  }
};

TEST_P(LatticeLawsP, EdgeSetUnionJoinLaws) {
  SplitMix64 Rng(GetParam());
  std::vector<EdgeSetUnionLattice::ValueType> States{
      EdgeSetUnionLattice::bottom()};
  for (int I = 0; I < 6; ++I) {
    EdgeSetUnionLattice::ValueType S;
    int N = static_cast<int>(Rng.nextBounded(8));
    for (int K = 0; K < N; ++K)
      S.insert(Rng.nextBounded(20));
    States.push_back(std::move(S));
  }
  checkJoinLaws<EdgeSetUnionLattice>(States);
  // Threshold shape: "edge I is accepted" is a one-element lower set.
  // Distinct singletons are compatible (their join is fine), so such a set
  // cannot answer "edge I was rejected" by a threshold read; a reader of
  // rejections waits for a global freeze or a fork-join barrier.
  for (const auto &A : States)
    for (const auto &B : States) {
      auto J = EdgeSetUnionLattice::join(A, B);
      for (uint64_t E : A)
        EXPECT_TRUE(J.count(E)) << "union lost an accepted edge";
    }
}

TEST_P(LatticeLawsP, MinLabelMapInsertOrderIndependence) {
  // Operational cousin of the law check: a fixed SET of (key, label)
  // min-writes lands on the same map whatever the arrival order - the
  // schedule-independence MinMap::joinKey inherits.
  SplitMix64 Rng(GetParam());
  std::vector<std::pair<uint32_t, unsigned long long>> Writes;
  for (int I = 0; I < 40; ++I)
    Writes.push_back({static_cast<uint32_t>(Rng.nextBounded(8)),
                      Rng.nextBounded(100)});
  std::vector<std::pair<uint32_t, unsigned long long>> Shuffled = Writes;
  for (size_t I = Shuffled.size(); I > 1; --I)
    std::swap(Shuffled[I - 1], Shuffled[Rng.nextBounded(I)]);
  auto Apply = [](const auto &Ws) {
    MinLabelMapLattice::ValueType M;
    for (const auto &[K, V] : Ws)
      M = MinLabelMapLattice::join(M, {{K, V}});
    return M;
  };
  EXPECT_EQ(Apply(Writes), Apply(Shuffled));
}

TEST_P(LatticeLawsP, BoolOrJoinLaws) {
  checkJoinLaws<BoolOrLattice>({false, true});
  (void)GetParam();
}

TEST_P(LatticeLawsP, AndLatticeJoinLawsExhaustive) {
  checkJoinLaws<AndLattice>(AndLattice::allStates());
  (void)GetParam();
}

TEST_P(LatticeLawsP, MapUnionJoinLaws) {
  // The PureMap lattice: key-wise union with a designated top for
  // conflicting rebinds. Random small maps over a tight key range so the
  // sweep hits both disjoint unions and genuine conflicts.
  using L = MapUnionLattice<int, int>;
  SplitMix64 Rng(GetParam());
  std::vector<L::ValueType> States{L::bottom(), std::nullopt /* top */};
  for (int I = 0; I < 6; ++I) {
    std::map<int, int> M;
    int N = 1 + static_cast<int>(Rng.nextBounded(4));
    for (int K = 0; K < N; ++K)
      M[static_cast<int>(Rng.nextBounded(5))] =
          static_cast<int>(Rng.nextBounded(3));
    States.push_back(std::move(M));
  }
  checkJoinLaws<L>(States);
  // Conflict is top, equal rebind is idempotent.
  L::ValueType A = std::map<int, int>{{1, 10}};
  L::ValueType B = std::map<int, int>{{1, 20}};
  EXPECT_TRUE(L::isTop(L::join(A, B)));
  EXPECT_EQ(L::join(A, A), A);
}

// The Stream state lattice (src/data/Stream.h), modeled: a partial map
// from index to value with a designated top for conflicting rebinds of
// one cell - exactly MapUnionLattice over (index, value). The stream's
// observable "filled prefix length" is a DERIVED quantity, so the model
// checks both the join laws and that the derivation is monotone.
using StreamCellLattice = MapUnionLattice<int, int>;

/// Length of the contiguous bound prefix of a model state (top => the
/// question is moot; the session has already faulted).
static size_t prefixLenOf(const StreamCellLattice::ValueType &V) {
  if (StreamCellLattice::isTop(V))
    return 0;
  size_t N = 0;
  while (V->count(static_cast<int>(N)))
    ++N;
  return N;
}

TEST_P(LatticeLawsP, StreamPrefixMapJoinLaws) {
  SplitMix64 Rng(GetParam());
  std::vector<StreamCellLattice::ValueType> States{
      StreamCellLattice::bottom(), std::nullopt /* top */};
  for (int I = 0; I < 6; ++I) {
    std::map<int, int> M;
    int N = 1 + static_cast<int>(Rng.nextBounded(5));
    for (int K = 0; K < N; ++K) {
      // Value is a function of the index, as the monotone discipline
      // requires of non-conflicting producers; the conflict case is
      // exercised separately below.
      int Idx = static_cast<int>(Rng.nextBounded(6));
      M[Idx] = Idx * 7 + 1;
    }
    States.push_back(std::move(M));
  }
  checkJoinLaws<StreamCellLattice>(States);
  // The derived prefix length is monotone under join: joining in more
  // cells can only extend (never shrink) the contiguous filled prefix.
  for (const auto &A : States)
    for (const auto &B : States) {
      auto J = StreamCellLattice::join(A, B);
      if (!StreamCellLattice::isTop(J)) {
        EXPECT_GE(prefixLenOf(J), std::max(prefixLenOf(A), prefixLenOf(B)))
            << "filled prefix shrank under join";
      }
    }
  // Conflicting rebind of one index is the cell's top; equal rebind is a
  // no-op - the exact pair of behaviors Stream::appendAt implements as
  // (session fault, NoOpJoins skip).
  StreamCellLattice::ValueType A = std::map<int, int>{{0, 10}};
  StreamCellLattice::ValueType B = std::map<int, int>{{0, 20}};
  EXPECT_TRUE(StreamCellLattice::isTop(StreamCellLattice::join(A, B)));
  EXPECT_EQ(StreamCellLattice::join(A, A), A);
}

TEST_P(LatticeLawsP, StreamHoleThenFillOrderIndependence) {
  // Operational cousin: a fixed SET of (index, value) appends - holes
  // deliberately included, so some arrival orders fill cell 3 before
  // cell 1 exists - lands on the same state AND the same filled prefix
  // whatever the arrival order. This is the schedule-independence the
  // explored pipeline sweeps check end-to-end on the real structure.
  SplitMix64 Rng(GetParam());
  std::vector<std::pair<int, int>> Writes;
  for (int I = 0; I < 24; ++I) {
    int Idx = static_cast<int>(Rng.nextBounded(10));
    Writes.push_back({Idx, Idx * 7 + 1}); // Equal-on-duplicate values.
  }
  std::vector<std::pair<int, int>> Shuffled = Writes;
  for (size_t I = Shuffled.size(); I > 1; --I)
    std::swap(Shuffled[I - 1], Shuffled[Rng.nextBounded(I)]);
  auto Apply = [](const auto &Ws) {
    StreamCellLattice::ValueType S = StreamCellLattice::bottom();
    for (const auto &[Idx, V] : Ws)
      S = StreamCellLattice::join(S, std::map<int, int>{{Idx, V}});
    return S;
  };
  auto S1 = Apply(Writes), S2 = Apply(Shuffled);
  EXPECT_EQ(S1, S2);
  EXPECT_FALSE(StreamCellLattice::isTop(S1));
  EXPECT_EQ(prefixLenOf(S1), prefixLenOf(S2));
}

TEST_P(LatticeLawsP, AndLatticeSeededTripleSweep) {
  // Beyond the exhaustive pairwise pass above: seeded random TRIPLES so
  // associativity is hit on many (A, B, C) combinations per seed.
  SplitMix64 Rng(GetParam());
  const auto All = AndLattice::allStates();
  for (int I = 0; I < 32; ++I) {
    const auto &A = All[Rng.nextBounded(All.size())];
    const auto &B = All[Rng.nextBounded(All.size())];
    const auto &C = All[Rng.nextBounded(All.size())];
    EXPECT_EQ(AndLattice::join(A, AndLattice::join(B, C)),
              AndLattice::join(AndLattice::join(A, B), C));
    EXPECT_EQ(AndLattice::join(A, B), AndLattice::join(B, A));
    EXPECT_EQ(AndLattice::join(A, A), A);
  }
}

TEST_P(LatticeLawsP, InsertOnlyTableInsertOrderIndependence) {
  // The concurrent substrate under ISet/IMap/MinMap, checked as a lattice: a
  // fixed SET of insertions must produce the same table regardless of
  // arrival order (join commutativity, operationally), first value wins
  // on duplicate keys only when values agree with the monotone discipline
  // (here: duplicates carry equal values, as LVar semantics require).
  SplitMix64 Rng(GetParam());
  std::vector<std::pair<int, int>> Inserts;
  for (int I = 0; I < 40; ++I) {
    int K = static_cast<int>(Rng.nextBounded(16));
    Inserts.push_back({K, K * 7 + 1}); // Value is a function of the key.
  }
  // Seeded Fisher-Yates for the second arrival order.
  std::vector<std::pair<int, int>> Shuffled = Inserts;
  for (size_t I = Shuffled.size(); I > 1; --I)
    std::swap(Shuffled[I - 1], Shuffled[Rng.nextBounded(I)]);

  InsertOnlyTable<int, int> M1, M2;
  AsymmetricGate Gate;
  auto Insert = [&Gate](InsertOnlyTable<int, int> &M, int K, int V) {
    return M.insertUnder(
        Gate, K, [V] { return V; }, [](const int &Stored, bool Inserted) {
          return std::pair<const int *, bool>(&Stored, Inserted);
        });
  };
  for (const auto &[K, V] : Inserts)
    Insert(M1, K, V);
  for (const auto &[K, V] : Shuffled)
    Insert(M2, K, V);
  auto Sorted = [](const InsertOnlyTable<int, int> &M) {
    return M.sorted([](int K, int V) { return std::pair(K, V); });
  };
  EXPECT_EQ(Sorted(M1), Sorted(M2));
  EXPECT_EQ(M1.size(), M2.size());

  // Idempotence: re-inserting everything changes nothing.
  size_t Before = M1.size();
  for (const auto &[K, V] : Inserts) {
    auto [Ptr, Inserted] = Insert(M1, K, V);
    EXPECT_FALSE(Inserted);
    EXPECT_EQ(*Ptr, V);
  }
  EXPECT_EQ(M1.size(), Before);
}

// -- Bump laws (Section 3) -------------------------------------------------
//
//   forall a, i:      a <= bump_i(a)
//   forall a, i, j:   bump_i(bump_j(a)) == bump_j(bump_i(a))

TEST_P(LatticeLawsP, CounterBumpFamilyCommutesAndInflates) {
  SplitMix64 Rng(GetParam());
  std::vector<uint64_t> Amounts{1, 2, 3, Rng.nextBounded(1000) + 1,
                                Rng.nextBounded(1000000) + 1};
  std::vector<uint64_t> States{0, 1, Rng.next() >> 20};
  auto Leq = [](uint64_t A, uint64_t B) { return A <= B; };
  for (uint64_t A : States)
    for (uint64_t I : Amounts) {
      EXPECT_TRUE(Leq(A, A + I)) << "bump not inflationary";
      for (uint64_t J : Amounts) {
        EXPECT_EQ((A + I) + J, (A + J) + I) << "bump family not commuting";
      }
    }
}

// The paper's cautionary example: put and bump do NOT commute, which is
// exactly why the library forbids mixing them on one LVar.
TEST_P(LatticeLawsP, PutAndBumpDoNotCommute) {
  // max(0, 4) then +1 gives 5; +1 then max(1, 4) gives 4 (Section 3).
  uint64_t PutFirst = MaxUint64Lattice::join(0, 4) + 1;
  uint64_t BumpFirst = MaxUint64Lattice::join(0 + 1, 4);
  EXPECT_NE(PutFirst, BumpFirst);
  (void)GetParam();
}

// -- Threshold-set incompatibility -------------------------------------

TEST_P(LatticeLawsP, RandomCompatibleTriggersAreRejectedByCheck) {
  // For MaxUint64, any two distinct thresholds are COMPATIBLE (their join
  // is just the max, never a designated top) - so a lattice without a top
  // cannot verify incompatibility and the check must be vacuous; whereas
  // AndLattice's designated top lets the check bite (verified in
  // AndLVTest). Here: derived leq is a partial order on random states.
  SplitMix64 Rng(GetParam());
  for (int I = 0; I < 8; ++I) {
    uint64_t A = Rng.next(), B = Rng.next();
    bool AB = latticeLeq<MaxUint64Lattice>(A, B);
    bool BA = latticeLeq<MaxUint64Lattice>(B, A);
    EXPECT_TRUE(AB || BA) << "max lattice is a total order";
    if (AB && BA) {
      EXPECT_EQ(A, B) << "antisymmetry";
    }
    EXPECT_TRUE(latticeLeq<MaxUint64Lattice>(A, A)) << "reflexivity";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticeLawsP,
                         ::testing::Values(1ull, 7ull, 42ull, 1234ull,
                                           99991ull, 31337ull, 2026ull,
                                           777ull));

} // namespace
