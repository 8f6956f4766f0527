//===- Kernels.cpp - Traditional parallel benchmark kernels ----------------===//

#include "src/kernels/Kernels.h"

#include "src/core/ParFor.h"
#include "src/support/SplitMix.h"
#include "src/trans/ParST.h"
#include "src/trans/StateLayer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

using namespace lvish;
using namespace lvish::kernels;

namespace {

/// Runs \p Body under the requested unneeded transformer (Figure 2).
template <typename BodyT>
Par<void> withLayering(ParCtx<KernelEff> Ctx, Layering Layers, BodyT Body) {
  switch (Layers) {
  case Layering::None:
    co_await Body(Ctx);
    co_return;
  case Layering::UnusedState: {
    auto Wrapped = [Body](ParCtx<KernelEff> C) -> Par<void> {
      co_await Body(C);
    };
    co_await withState(Ctx, Duplicated<uint64_t>{0}, Wrapped);
    co_return;
  }
  case Layering::UnusedST: {
    auto Wrapped = [Body](ParCtx<Eff::DetST> C,
                          VecView<int> View) -> Par<void> {
      (void)View;
      co_await Body(C); // Subsumption: DetST context where Det suffices.
    };
    co_await runParVec(Ctx, 1, 0, Wrapped);
    co_return;
  }
  }
}

} // namespace

// -- blackscholes ------------------------------------------------------

std::vector<Option> kernels::makeOptions(size_t N, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::vector<Option> Opts(N);
  for (Option &O : Opts) {
    O.Spot = 10 + 90 * Rng.nextDouble();
    O.Strike = 10 + 90 * Rng.nextDouble();
    O.Years = 0.1 + 2 * Rng.nextDouble();
    O.Rate = 0.01 + 0.05 * Rng.nextDouble();
    O.Volatility = 0.05 + 0.5 * Rng.nextDouble();
    O.IsCall = (Rng.next() & 1) != 0;
  }
  return Opts;
}

namespace {

/// Cumulative normal distribution (Abramowitz & Stegun 26.2.17), the
/// standard PARSEC blackscholes kernel formula.
double cndf(double X) {
  bool Negative = X < 0;
  if (Negative)
    X = -X;
  double K = 1.0 / (1.0 + 0.2316419 * X);
  double Poly =
      K *
      (0.319381530 +
       K * (-0.356563782 +
            K * (1.781477937 + K * (-1.821255978 + K * 1.330274429))));
  double N = 1.0 - (1.0 / std::sqrt(2 * M_PI)) * std::exp(-X * X / 2) * Poly;
  return Negative ? 1.0 - N : N;
}

double priceOne(const Option &O) {
  double SqrtT = std::sqrt(O.Years);
  double D1 = (std::log(O.Spot / O.Strike) +
               (O.Rate + O.Volatility * O.Volatility / 2) * O.Years) /
              (O.Volatility * SqrtT);
  double D2 = D1 - O.Volatility * SqrtT;
  double Disc = std::exp(-O.Rate * O.Years) * O.Strike;
  if (O.IsCall)
    return O.Spot * cndf(D1) - Disc * cndf(D2);
  return Disc * cndf(-D2) - O.Spot * cndf(-D1);
}

} // namespace

std::vector<double>
kernels::blackScholesSeq(const std::vector<Option> &Opts) {
  std::vector<double> Prices(Opts.size());
  for (size_t I = 0; I < Opts.size(); ++I)
    Prices[I] = priceOne(Opts[I]);
  return Prices;
}

std::vector<double> kernels::blackScholesPar(service::Runtime &RT,
                                             const std::vector<Option> &Opts,
                                             size_t Grain, Layering Layers) {
  std::vector<double> Prices(Opts.size());
  const Option *In = Opts.data();
  double *Out = Prices.data();
  size_t N = Opts.size();
  RT.run<KernelEff>(
      [In, Out, N, Grain, Layers](ParCtx<KernelEff> Ctx) -> Par<void> {
        auto Work = [In, Out, N, Grain](ParCtx<KernelEff> C) -> Par<void> {
          auto Body = [In, Out](ParCtx<KernelEff>, size_t I) {
            Out[I] = priceOne(In[I]);
          };
          co_await parallelFor(C, 0, N, Grain, Body);
        };
        co_await withLayering(Ctx, Layers, Work);
      }).valueOrAbort();
  return Prices;
}

// -- sumeuler ----------------------------------------------------------

namespace {

uint32_t gcdU32(uint32_t A, uint32_t B) {
  while (B) {
    uint32_t T = A % B;
    A = B;
    B = T;
  }
  return A;
}

/// Euler's totient by naive coprime counting: deliberately compute-heavy,
/// matching the classic sumeuler benchmark.
uint64_t totient(uint32_t N) {
  if (N == 1)
    return 1;
  uint64_t Count = 0;
  for (uint32_t I = 1; I < N; ++I)
    if (gcdU32(I, N) == 1)
      ++Count;
  return Count;
}

} // namespace

uint64_t kernels::sumEulerSeq(uint32_t N) {
  uint64_t Sum = 0;
  for (uint32_t I = 1; I <= N; ++I)
    Sum += totient(I);
  return Sum;
}

uint64_t kernels::sumEulerPar(service::Runtime &RT, uint32_t N, size_t Grain,
                              Layering Layers) {
  uint64_t Result = 0;
  uint64_t *Out = &Result;
  RT.run<KernelEff>(
      [N, Grain, Layers, Out](ParCtx<KernelEff> Ctx) -> Par<void> {
        auto Work = [N, Grain, Out](ParCtx<KernelEff> C) -> Par<void> {
          auto Leaf = [](size_t I) {
            return totient(static_cast<uint32_t>(I));
          };
          auto Combine = [](uint64_t A, uint64_t B) { return A + B; };
          *Out = co_await parallelReduce<uint64_t>(
              C, 1, static_cast<size_t>(N) + 1, Grain, Leaf, Combine,
              uint64_t(0));
        };
        co_await withLayering(Ctx, Layers, Work);
      }).valueOrAbort();
  return Result;
}

// -- matmult -----------------------------------------------------------

std::vector<double> kernels::makeMatrix(size_t N, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::vector<double> M(N * N);
  for (double &V : M)
    V = Rng.nextDouble() - 0.5;
  return M;
}

namespace {

/// One row block of C = A x B (ikj order for locality).
void matMultRows(const double *A, const double *B, double *C, size_t N,
                 size_t RowBegin, size_t RowEnd) {
  for (size_t I = RowBegin; I < RowEnd; ++I) {
    double *CRow = C + I * N;
    for (size_t J = 0; J < N; ++J)
      CRow[J] = 0;
    for (size_t K = 0; K < N; ++K) {
      double AIK = A[I * N + K];
      const double *BRow = B + K * N;
      for (size_t J = 0; J < N; ++J)
        CRow[J] += AIK * BRow[J];
    }
  }
}

} // namespace

std::vector<double> kernels::matMultSeq(const std::vector<double> &A,
                                        const std::vector<double> &B,
                                        size_t N) {
  std::vector<double> C(N * N);
  matMultRows(A.data(), B.data(), C.data(), N, 0, N);
  return C;
}

std::vector<double> kernels::matMultPar(service::Runtime &RT,
                                        const std::vector<double> &A,
                                        const std::vector<double> &B,
                                        size_t N, size_t RowGrain,
                                        Layering Layers) {
  std::vector<double> C(N * N);
  const double *AP = A.data();
  const double *BP = B.data();
  double *CP = C.data();
  RT.run<KernelEff>(
      [AP, BP, CP, N, RowGrain, Layers](ParCtx<KernelEff> Ctx) -> Par<void> {
        auto Work = [AP, BP, CP, N, RowGrain](ParCtx<KernelEff> C1)
            -> Par<void> {
          auto Body = [AP, BP, CP, N](ParCtx<KernelEff> C2, size_t Row) {
            matMultRows(AP, BP, CP, N, Row, Row + 1);
            // Traffic per row: A's row, C's row written, plus B amortized
            // (largely cache-resident across the K loop). The kernel is
            // compute-bound (2N^3 flops over N^2 data), so traffic stays
            // small - that is why matmult scales in Figure 4.
            C2.noteBytes(5 * N * sizeof(double));
          };
          co_await parallelFor(C1, 0, N, RowGrain, Body);
        };
        co_await withLayering(Ctx, Layers, Work);
      }).valueOrAbort();
  return C;
}

// -- nbody -------------------------------------------------------------

std::vector<Body> kernels::makeBodies(size_t N, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::vector<Body> Bodies(N);
  for (Body &B : Bodies) {
    B.X = Rng.nextDouble() * 2 - 1;
    B.Y = Rng.nextDouble() * 2 - 1;
    B.Z = Rng.nextDouble() * 2 - 1;
    B.VX = B.VY = B.VZ = 0;
    B.Mass = 0.5 + Rng.nextDouble();
  }
  return Bodies;
}

namespace {

constexpr double Softening = 1e-6;

void accumulateForces(const Body *Bodies, size_t N, size_t I, double &AX,
                      double &AY, double &AZ) {
  AX = AY = AZ = 0;
  const Body &Me = Bodies[I];
  for (size_t J = 0; J < N; ++J) {
    if (J == I)
      continue;
    double DX = Bodies[J].X - Me.X;
    double DY = Bodies[J].Y - Me.Y;
    double DZ = Bodies[J].Z - Me.Z;
    double R2 = DX * DX + DY * DY + DZ * DZ + Softening;
    double Inv = 1.0 / std::sqrt(R2);
    double F = Bodies[J].Mass * Inv * Inv * Inv;
    AX += F * DX;
    AY += F * DY;
    AZ += F * DZ;
  }
}

void integrate(Body *Bodies, const double *Acc, size_t N, double Dt) {
  for (size_t I = 0; I < N; ++I) {
    Bodies[I].VX += Acc[3 * I + 0] * Dt;
    Bodies[I].VY += Acc[3 * I + 1] * Dt;
    Bodies[I].VZ += Acc[3 * I + 2] * Dt;
    Bodies[I].X += Bodies[I].VX * Dt;
    Bodies[I].Y += Bodies[I].VY * Dt;
    Bodies[I].Z += Bodies[I].VZ * Dt;
  }
}

} // namespace

void kernels::nBodySeq(std::vector<Body> &Bodies, int Steps, double Dt) {
  size_t N = Bodies.size();
  std::vector<double> Acc(3 * N);
  for (int S = 0; S < Steps; ++S) {
    for (size_t I = 0; I < N; ++I)
      accumulateForces(Bodies.data(), N, I, Acc[3 * I], Acc[3 * I + 1],
                       Acc[3 * I + 2]);
    integrate(Bodies.data(), Acc.data(), N, Dt);
  }
}

void kernels::nBodyPar(service::Runtime &RT, std::vector<Body> &Bodies,
                       int Steps, double Dt, size_t Grain, Layering Layers) {
  size_t N = Bodies.size();
  std::vector<double> Acc(3 * N);
  Body *BP = Bodies.data();
  double *AP = Acc.data();
  for (int S = 0; S < Steps; ++S) {
    RT.run<KernelEff>(
        [BP, AP, N, Grain, Layers](ParCtx<KernelEff> Ctx) -> Par<void> {
          auto Work = [BP, AP, N, Grain](ParCtx<KernelEff> C) -> Par<void> {
            // Force phase: reads all bodies, writes a disjoint slot each.
            auto Body = [BP, AP, N](ParCtx<KernelEff>, size_t I) {
              accumulateForces(BP, N, I, AP[3 * I], AP[3 * I + 1],
                               AP[3 * I + 2]);
            };
            co_await parallelFor(C, 0, N, Grain, Body);
          };
          co_await withLayering(Ctx, Layers, Work);
        }).valueOrAbort();
    integrate(BP, AP, N, Dt);
  }
}

// -- merge sorts ---------------------------------------------------------

std::vector<int64_t> kernels::makeKeys(size_t N, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::vector<int64_t> Keys(N);
  for (int64_t &K : Keys)
    K = static_cast<int64_t>(Rng.next());
  return Keys;
}

namespace {

/// Hand-written bottom-up merge sort (the "all-Haskell leaf" stand-in).
void seqMergeSort(int64_t *Data, int64_t *Scratch, size_t N) {
  for (size_t Width = 1; Width < N; Width *= 2) {
    for (size_t Lo = 0; Lo < N; Lo += 2 * Width) {
      size_t Mid = std::min(Lo + Width, N);
      size_t Hi = std::min(Lo + 2 * Width, N);
      std::merge(Data + Lo, Data + Mid, Data + Mid, Data + Hi,
                 Scratch + Lo);
    }
    std::copy(Scratch, Scratch + N, Data);
  }
}

} // namespace

void kernels::mergeSortSeq(std::vector<int64_t> &Keys) {
  std::vector<int64_t> Scratch(Keys.size());
  seqMergeSort(Keys.data(), Scratch.data(), Keys.size());
}

namespace {

/// Copying functional sort: every level allocates fresh vectors. The
/// byte annotations charge the copies (split + merge), which is what
/// makes this kernel memory-bound in the simulator - as on real hardware.
Par<std::vector<int64_t>> msFP(ParCtx<KernelEff> Ctx,
                               std::vector<int64_t> Keys, size_t LeafSize) {
  size_t N = Keys.size();
  if (N <= LeafSize) {
    std::vector<int64_t> Scratch(N);
    seqMergeSort(Keys.data(), Scratch.data(), N);
    Ctx.noteBytes(2 * N * sizeof(int64_t));
    co_return Keys;
  }
  size_t Mid = N / 2;
  std::vector<int64_t> Left(Keys.begin(),
                            Keys.begin() + static_cast<long>(Mid));
  std::vector<int64_t> Right(Keys.begin() + static_cast<long>(Mid),
                             Keys.end());
  Keys.clear();
  Keys.shrink_to_fit();
  Ctx.noteBytes(2 * N * sizeof(int64_t)); // The split copies.

  auto LeftFuture = newIVar<std::vector<int64_t>>(Ctx);
  // Named bodies: GCC 12 co_await temporary discipline (see Par.h).
  auto LeftBody = [LeftFuture, L = std::move(Left),
                   LeafSize](ParCtx<KernelEff> C) mutable -> Par<void> {
    std::vector<int64_t> Sorted = co_await msFP(C, std::move(L), LeafSize);
    put(C, *LeftFuture, Sorted);
  };
  fork(Ctx, std::move(LeftBody));
  std::vector<int64_t> RightSorted =
      co_await msFP(Ctx, std::move(Right), LeafSize);
  std::vector<int64_t> LeftSorted = co_await get(Ctx, *LeftFuture);

  std::vector<int64_t> Out(N);
  std::merge(LeftSorted.begin(), LeftSorted.end(), RightSorted.begin(),
             RightSorted.end(), Out.begin());
  Ctx.noteBytes(3 * N * sizeof(int64_t)); // Read both halves, write out.
  co_return Out;
}

} // namespace

std::vector<int64_t> kernels::mergeSortFP(service::Runtime &RT,
                                          std::vector<int64_t> Keys,
                                          size_t LeafSize, Layering Layers) {
  auto KeysPtr = std::make_shared<std::vector<int64_t>>(std::move(Keys));
  auto OutPtr = std::make_shared<std::vector<int64_t>>();
  RT.run<KernelEff>(
      [KeysPtr, OutPtr, LeafSize,
       Layers](ParCtx<KernelEff> Ctx) -> Par<void> {
        auto Work = [KeysPtr, OutPtr,
                     LeafSize](ParCtx<KernelEff> C) -> Par<void> {
          *OutPtr = co_await msFP(C, std::move(*KeysPtr), LeafSize);
        };
        co_await withLayering(Ctx, Layers, Work);
      }).valueOrAbort();
  return std::move(*OutPtr);
}

namespace {

constexpr EffectSet SortEff = Eff::DetST;

void leafSort(int64_t *Data, size_t N, bool UseStdSortLeaf) {
  if (UseStdSortLeaf) {
    std::sort(Data, Data + N);
    return;
  }
  std::vector<int64_t> Scratch(N);
  seqMergeSort(Data, Scratch.data(), N);
}

/// Parallel merge of the two sorted runs In[0,Mid) and In[Mid,N) into
/// Out[0,N): the output is split at a rank found by binary search, and
/// the two sub-merges run as disjoint ParST children - the refinement the
/// paper's footnote anticipates ("performing a multi-way merge sort could
/// reduce the impact" of merge-dominated spans). The four sub-views are
/// provably disjoint, so fresh ownership cells are created directly
/// (trusted kernel code, same discipline as forkSTSplit itself).
Par<void> parMerge(ParCtx<SortEff> C, const int64_t *A, size_t An,
                   const int64_t *B, size_t Bn, int64_t *Out,
                   size_t SeqThreshold) {
  if (An + Bn <= SeqThreshold) {
    std::merge(A, A + An, B, B + Bn, Out);
    C.noteBytes(2 * (An + Bn) * sizeof(int64_t));
    co_return;
  }
  // Split the larger run at its midpoint; binary-search the partner rank.
  size_t I, J;
  if (An >= Bn) {
    I = An / 2;
    J = static_cast<size_t>(std::lower_bound(B, B + Bn, A[I]) - B);
  } else {
    J = Bn / 2;
    I = static_cast<size_t>(std::lower_bound(A, A + An, B[J]) - A);
  }
  size_t K = I + J;
  auto Done = newIVar<bool>(C);
  auto LeftBody = [A, I, B, J, Out, SeqThreshold,
                   Done](ParCtx<SortEff> C2) -> Par<void> {
    co_await parMerge(C2, A, I, B, J, Out, SeqThreshold);
    put(C2, *Done, true);
  };
  fork(C, LeftBody);
  co_await parMerge(C, A + I, An - I, B + J, Bn - J, Out + K,
                    SeqThreshold);
  co_await get(C, *Done);
  co_return;
}

/// Sorts Data in place using Buf as scratch; both views are the same
/// length. The recursion is unrolled twice (quarter splits), so "after
/// each round the output ends up back in the original buffer" (Section
/// 7.3): quarters sort into Data, the inner merges go Data -> Buf, the
/// outer merge goes Buf -> Data. Merges above 64k elements run as
/// parallel merges (see parMerge).
Par<void> msST(ParCtx<SortEff> C, VecView<int64_t> Data,
               VecView<int64_t> Buf, size_t LeafSize, bool StdLeaf) {
  size_t N = Data.size();
  if (N <= LeafSize || N < 4) {
    leafSort(Data.raw(), N, StdLeaf);
    C.noteBytes(2 * N * sizeof(int64_t));
    co_return;
  }
  size_t Half = N / 2;
  auto SortHalf = [LeafSize, StdLeaf](ParCtx<SortEff> C2,
                                      VecView<int64_t> D,
                                      VecView<int64_t> B) -> Par<void> {
    size_t Quarter = D.size() / 2;
    auto SortQuarter = [LeafSize, StdLeaf](ParCtx<SortEff> C3,
                                           VecView<int64_t> QD,
                                           VecView<int64_t> QB) -> Par<void> {
      co_await msST(C3, QD, QB, LeafSize, StdLeaf);
    };
    co_await forkSTSplit2(C2, D, Quarter, B, Quarter, SortQuarter,
                          SortQuarter);
    // mergeL2R: the sorted quarters of D merge into B.
    constexpr size_t ParMergeMin = 1 << 16;
    if (D.size() >= ParMergeMin)
      co_await parMerge(C2, D.raw(), Quarter, D.raw() + Quarter,
                        D.size() - Quarter, B.raw(), ParMergeMin / 2);
    else {
      std::merge(D.raw(), D.raw() + Quarter, D.raw() + Quarter,
                 D.raw() + D.size(), B.raw());
      C2.noteBytes(2 * D.size() * sizeof(int64_t));
    }
    co_return;
  };
  co_await forkSTSplit2(C, Data, Half, Buf, Half, SortHalf, SortHalf);
  // mergeR2L: the sorted halves now in Buf merge back into Data.
  constexpr size_t ParMergeMin = 1 << 16;
  if (N >= ParMergeMin)
    co_await parMerge(C, Buf.raw(), Half, Buf.raw() + Half, N - Half,
                      Data.raw(), ParMergeMin / 2);
  else {
    std::merge(Buf.raw(), Buf.raw() + Half, Buf.raw() + Half,
               Buf.raw() + Buf.size(), Data.raw());
    C.noteBytes(2 * N * sizeof(int64_t));
  }
  co_return;
}

} // namespace

void kernels::mergeSortParST(service::Runtime &RT, std::vector<int64_t> &Keys,
                             size_t LeafSize, bool UseStdSortLeaf) {
  int64_t *Raw = Keys.data();
  size_t N = Keys.size();
  RT.run<KernelEff>([Raw, N, LeafSize, UseStdSortLeaf](
                        ParCtx<KernelEff> Ctx) -> Par<void> {
    // Zoom out: pair the caller's storage with a scratch buffer. The
    // caller's vector is the "recipe-created" state: we wrap it in a view
    // directly since runParVec would copy.
    auto Gen = detail::newGenCell();
    VecView<int64_t> Data(Raw, N, Gen, 0);
    auto Body = [Data, LeafSize,
                 UseStdSortLeaf](ParCtx<SortEff> C,
                                 VecView<int64_t> Dummy,
                                 VecView<int64_t> Buf) -> Par<void> {
      (void)Dummy;
      co_await msST(C, Data, Buf, LeafSize, UseStdSortLeaf);
    };
    // lvish-lint: allow(ctx-forge) - trusted in-place runParVec analogue.
    ParCtx<SortEff> STCtx = detail::CtxAccess::make<SortEff>(Ctx.task());
    // In-place grant of the ST capability over caller-owned storage: widen
    // the declared mask and register the root extent, as runParVec would.
    check::RaiseDeclaredScope Raise(Ctx.task(),
                                    check::effectMask(SortEff));
    auto &DC = check::DisjointnessChecker::instance();
    DC.registerExtent(Raw, Raw + N, Gen.get(), 0, "mergeSortParST root");
    co_await withTempBuffer(STCtx, Data, N, Body);
    DC.releaseExtent(Raw, Gen.get());
    Gen->fetch_add(1, std::memory_order_acq_rel);
    co_return;
  }).valueOrAbort();
}
