//===- bench_micro_lvar.cpp - LVar primitive micro-benchmarks --------------===//
//
// Micro-measurements of the primitives the paper's engineering notes
// discuss: lub puts, threshold gets, non-idempotent bumps (Section 3's
// single-memory-location counter), insert-only hash-table inserts, and the
// footnote-6 asymmetric gate versus a plain mutex on the put fast path,
// and Section 6's bulk-retry loop against a plain parallel for.
//
// Measured through bench/BenchHarness.h like every other bench: each
// series times `Ops` operations per rep and reports ns/op as a metric.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchHarness.h"
#include "src/core/HandlerPool.h"
#include "src/core/LVish.h"
#include "src/core/ParFor.h"
#include "src/service/Runtime.h"
#include "src/data/Counter.h"
#include "src/data/IMap.h"
#include "src/data/ISet.h"
#include "src/data/InsertOnlyTable.h"
#include "src/trans/BulkRetry.h"
#include "src/support/AsymmetricGate.h"

#include <atomic>
#include <mutex> // lvish-lint: allow(raw-sync)

using namespace lvish;

namespace {

constexpr EffectSet D = Eff::Det;
constexpr EffectSet IOE = Eff::FullIO;

volatile uint64_t Sink; // Defeats dead-code elimination of results.

/// Sink for values produced by concurrent tasks (plain volatile writes
/// from two workers would be a data race).
std::atomic<uint64_t> ParSink{0};

/// Attaches ns/op to the series the harness just measured.
void perOp(bench::Series &S, uint64_t OpsPerRep) {
  S.config("ops_per_rep", OpsPerRep);
  if (OpsPerRep)
    S.metric("ns_per_op", S.medianSec() * 1e9 /
                              static_cast<double>(OpsPerRep));
}

} // namespace

int main(int argc, char **argv) {
  bench::BenchHarness H("micro_lvar",
                        bench::BenchConfig::fromArgs(argc, argv));
  // Session-level series run this many sessions per rep; tight loops run
  // this many raw iterations.
  const uint64_t Sessions = H.config().pick<uint64_t>(500, 10);
  const uint64_t Tight = H.config().pick<uint64_t>(1'000'000, 10'000);
  H.noteConfig("sessions_per_rep", Sessions);
  H.noteConfig("tight_iters_per_rep", Tight);
  H.noteConfig("workers", uint64_t{1});

  service::Runtime RT({.Sched = {.NumWorkers = 1}});

  perOp(H.measure("ivar_put_get_roundtrip",
                  [&] {
                    for (uint64_t N = 0; N < Sessions; ++N)
                      Sink = static_cast<uint64_t>(
                          RT.run<D>([](ParCtx<D> Ctx) -> Par<int> {
                              auto IV = newIVar<int>(Ctx);
                              put(Ctx, *IV, 1);
                              int V = co_await get(Ctx, *IV);
                              co_return V;
                            }).valueOrAbort());
                  }),
        Sessions);

  perOp(H.measure("fork_join",
                  [&] {
                    for (uint64_t N = 0; N < Sessions; ++N)
                      RT.run<D>([](ParCtx<D> Ctx) -> Par<void> {
                          auto IV = newIVar<int>(Ctx);
                          fork(Ctx, [IV](ParCtx<D> C) -> Par<void> {
                            put(C, *IV, 1);
                            co_return;
                          });
                          int V = co_await get(Ctx, *IV);
                          Sink = static_cast<uint64_t>(V);
                          co_return;
                        }).valueOrAbort();
                  }),
        Sessions);

  // The two series above time a whole session per operation, mostly its
  // start. These run many operations in one session, the shape of
  // lvperf's sched.fork_join_ns probe: the per-fork cost itself.
  const uint64_t Loop = H.config().pick<uint64_t>(20'000, 200);
  H.noteConfig("loop_iters_per_session", Loop);
  perOp(H.measure("fork_join_loop",
                  [&] {
                    RT.run<D>([Loop](ParCtx<D> Ctx) -> Par<void> {
                        for (uint64_t I = 0; I < Loop; ++I) {
                          auto IV = newIVar<uint64_t>(Ctx);
                          fork(Ctx, [IV, I](ParCtx<D> C) -> Par<void> {
                            put(C, *IV, I);
                            co_return;
                          });
                          uint64_t V = co_await get(Ctx, *IV);
                          Sink = V;
                        }
                      }).valueOrAbort();
                  }),
        Loop);

  // newIVar alone: one make_shared and its release.
  perOp(H.measure("ivar_alloc",
                  [&] {
                    RT.run<D>([Loop](ParCtx<D> Ctx) -> Par<void> {
                        for (uint64_t I = 0; I < Loop; ++I) {
                          auto IV = newIVar<uint64_t>(Ctx);
                          Sink = reinterpret_cast<uintptr_t>(IV.get());
                        }
                        co_return;
                      }).valueOrAbort();
                  }),
        Loop);

  // forSpeculative's own cost per iteration, with bodies that do nothing:
  // its two passes and the retry pack, next to one parallelFor over the
  // same range at the same grain.
  const auto EmptyLoop = [](ParCtx<D>, size_t I) { Sink = I; };
  perOp(H.measure("parallel_for_iter",
                  [&] {
                    RT.run<D>([Tight, EmptyLoop](ParCtx<D> Ctx) -> Par<void> {
                        co_await parallelFor(Ctx, 0, Tight, 512, EmptyLoop);
                      }).valueOrAbort();
                  }),
        Tight);
  const auto Accept = [](ParCtx<D>, uint64_t, size_t, uint8_t &) {
    return true;
  };
  perOp(H.measure("for_speculative_iter",
                  [&] {
                    RT.run<D>([Tight, Accept](ParCtx<D> Ctx) -> Par<void> {
                        SpecResult R = co_await forSpeculative<uint8_t>(
                            Ctx, 0, Tight, Accept, Accept);
                        Sink = R.Rounds;
                      }).valueOrAbort();
                  }),
        Tight);

  perOp(H.measure("counter_bump",
                  [&] {
                    for (uint64_t N = 0; N < Sessions; ++N)
                      Sink = RT.runIO<Eff::FullIO>(
                                   [](ParCtx<Eff::FullIO> Ctx) -> Par<uint64_t> {
                                     auto C = newCounter(Ctx);
                                     for (int I = 0; I < 1000; ++I)
                                       incrCounter(Ctx, *C);
                                     co_return freezeCounter(Ctx, *C);
                                   })
                                 .valueOrAbort();
                  }),
        Sessions * 1000);

  perOp(H.measure("iset_insert_fresh",
                  [&] {
                    for (uint64_t N = 0; N < Sessions; ++N)
                      RT.run<D>([](ParCtx<D> Ctx) -> Par<void> {
                          auto S = newISet<int>(Ctx);
                          for (int I = 0; I < 1000; ++I)
                            insert(Ctx, *S, I);
                          co_return;
                        }).valueOrAbort();
                  }),
        Sessions * 1000);

  // Idempotent re-put: the lub fast path.
  perOp(H.measure("iset_insert_duplicate",
                  [&] {
                    for (uint64_t N = 0; N < Sessions; ++N)
                      RT.run<D>([](ParCtx<D> Ctx) -> Par<void> {
                          auto S = newISet<int>(Ctx);
                          insert(Ctx, *S, 7);
                          for (int I = 0; I < 1000; ++I)
                            insert(Ctx, *S, 7);
                          co_return;
                        }).valueOrAbort();
                  }),
        Sessions * 1000);

  perOp(H.measure("pure_lvar_put",
                  [&] {
                    for (uint64_t N = 0; N < Sessions; ++N)
                      RT.run<D>([](ParCtx<D> Ctx) -> Par<void> {
                          auto LV = newPureLVar<MaxUint64Lattice>(Ctx);
                          for (unsigned long long I = 0; I < 1000; ++I)
                            putPureLVar(Ctx, *LV, I);
                          co_return;
                        }).valueOrAbort();
                  }),
        Sessions * 1000);

  // Cost of an empty session on a persistent service runtime.
  perOp(H.measure("session_startup",
                  [&] {
                    for (uint64_t N = 0; N < Sessions; ++N)
                      RT.run<D>([](ParCtx<D> Ctx) -> Par<void> { co_return; })
                          .valueOrAbort();
                  }),
        Sessions);

  // The insert-only table under ISet/IMap/MinMap, through its put path
  // with a private gate (growth included). The series keep the names of
  // the striped table they replaced, so older baselines still diff.
  AsymmetricGate TableGate;
  auto TableInsert = [&TableGate](InsertOnlyTable<int, int> &M, int I) {
    return M.insertUnder(
        TableGate, I, [I] { return I; },
        [](const int &, bool Inserted) { return Inserted; });
  };
  perOp(H.measure("monotone_hashmap_insert",
                  [&] {
                    for (uint64_t N = 0; N < Tight / 1000; ++N) {
                      InsertOnlyTable<int, int> M;
                      for (int I = 0; I < 1000; ++I)
                        Sink = TableInsert(M, I);
                    }
                  }),
        (Tight / 1000) * 1000);

  {
    InsertOnlyTable<int, int> M;
    for (int I = 0; I < 1000; ++I)
      TableInsert(M, I);
    perOp(H.measure("monotone_hashmap_find",
                    [&] {
                      for (uint64_t I = 0; I < Tight; ++I)
                        Sink = reinterpret_cast<uintptr_t>(
                            M.find(static_cast<int>(I % 1000)));
                    }),
          Tight);
  }

  // Footnote 6: the asymmetric gate's put fast path vs. a plain mutex.
  {
    AsymmetricGate Gate;
    perOp(H.measure("asymmetric_gate_fast_path",
                    [&] {
                      for (uint64_t I = 0; I < Tight; ++I) {
                        AsymmetricGate::FastGuard Guard(Gate);
                        Sink = I;
                      }
                    }),
          Tight);
  }
  {
    std::mutex Mu; // lvish-lint: allow(raw-sync)
    perOp(H.measure("plain_mutex_baseline",
                    [&] {
                      for (uint64_t I = 0; I < Tight; ++I) {
                        // lvish-lint: allow(raw-sync)
                        std::lock_guard<std::mutex> Lock(Mu);
                        Sink = I;
                      }
                    }),
          Tight);
  }

  // Multi-key put/wake contention: 8 workers, one parked getter per key,
  // disjoint-key putter shards, and a put-only handler echoing every delta
  // into an ISet the root size-waits on. Every insert hits the waiter
  // table while hundreds of threshold reads are parked on *other* keys -
  // the hot path the sharded waiter buckets are for.
  {
    const uint64_t Keys = H.config().pick<uint64_t>(256, 32);
    const uint64_t Rounds = H.config().pick<uint64_t>(20, 2);
    const int Putters = 8;
    service::Runtime Contended({.Sched = {.NumWorkers = 8}});
    bench::Series &S = H.measure("contended_put_wake_8w", [&] {
      for (uint64_t R = 0; R < Rounds; ++R)
        Sink = Contended
                   .runIO<IOE>([Keys, Putters](
                                   ParCtx<IOE> Ctx) -> Par<uint64_t> {
              const int KeysI = static_cast<int>(Keys);
              auto Map = newEmptyMap<int, int>(Ctx);
              auto Echo = newISet<int>(Ctx);
              auto Ready = newCounter(Ctx);
              auto Pool = newPool(Ctx);
              // Plain put-only handler: echoes each delta's key (the
              // cascade). Echo is a different LVar than the one the
              // handler watches, so owning capture is cycle-free (see
              // HandlerPool.h).
              ParCtx<Eff::WriteOnly> WCtx = Ctx;
              auto Handler = [Echo](ParCtx<Eff::WriteOnly> C,
                                    const std::pair<int, int> &D) {
                insert(C, *Echo, D.first);
              };
              [[maybe_unused]] HandlerHandle H = addHandler(WCtx, Pool, *Map, Handler);
              // One parked getter per key; each announces readiness first
              // so the putters release only once the waiter table is full.
              // Owning captures: forked tasks may outlive the root frame.
              for (int K = 0; K < KeysI; ++K) {
                auto Getter = [Map, Ready, K](ParCtx<IOE> C) -> Par<void> {
                  incrCounter(C, *Ready);
                  int V = co_await get(C, *Map, K);
                  ParSink.store(static_cast<uint64_t>(V),
                                std::memory_order_relaxed);
                };
                fork(Ctx, Getter);
              }
              // Disjoint-key putter shards, gated on full registration.
              for (int P = 0; P < Putters; ++P) {
                auto Putter = [Map, Ready, P, Putters,
                               KeysI](ParCtx<IOE> C) -> Par<void> {
                  co_await get(C, *Ready, static_cast<uint64_t>(KeysI));
                  for (int K = P; K < KeysI; K += Putters)
                    insert(C, *Map, K, K * 2);
                };
                fork(Ctx, Putter);
              }
              co_await waitSize(Ctx, *Echo, Keys);
              co_await quiesce(Ctx, Pool);
              co_return Keys;
                   })
                   .valueOrAbort();
    });
    S.config("keys", Keys);
    S.config("putters", static_cast<uint64_t>(Putters));
    S.config("workers", uint64_t{8});
    perOp(S, Rounds * Keys);
  }

  H.recordStats(RT.scheduler().stats());
  return H.finish();
}
