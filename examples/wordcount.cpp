//===- wordcount.cpp - Composing put-only and bump-only LVars --------------===//
//
// Section 3's composition claim as a program: "an LVar could represent a
// monotonically growing collection (which supports put) of counter LVars,
// where each counter is itself monotonically increasing and supports only
// bump. Indeed, the PhyBin application ... uses just such a collection of
// counters."
//
// A parallel word-frequency count: chunks of a document are processed in
// parallel; each word's counter is created monotonically in an IMap
// (get-or-create is a lub) and bumped non-idempotently. The result is
// deterministic although neither insertion order nor bump interleaving
// is.
//
// Run: build/examples/wordcount
//
//===----------------------------------------------------------------------===//

#include "src/lvish/All.h"
#include "src/support/SplitMix.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace lvish;

namespace {

// Bumps require the HasBump switch; map inserts require HasPut.
constexpr EffectSet E{/*Put=*/true, /*Get=*/true, /*Bump=*/true,
                      /*Freeze=*/false, /*IO=*/false, /*ST=*/false};

/// A synthetic "document": Zipf-ish draws from a small vocabulary.
std::vector<std::string> makeDocument(size_t Words, uint64_t Seed) {
  static const char *Vocab[] = {"the",  "lattice", "grows", "up",
                                "never", "down",   "joins", "commute",
                                "reads", "threshold"};
  SplitMix64 Rng(Seed);
  std::vector<std::string> Doc;
  Doc.reserve(Words);
  for (size_t I = 0; I < Words; ++I) {
    // Skewed: word k with weight ~ 1/(k+1).
    uint64_t R = Rng.nextBounded(100);
    size_t K = R < 35   ? 0
               : R < 55 ? 1
               : R < 68 ? 2
               : R < 78 ? 3
               : R < 85 ? 4
               : R < 91 ? 5
               : R < 95 ? 6
               : R < 97 ? 7
               : R < 99 ? 8
                        : 9;
    Doc.push_back(Vocab[K]);
  }
  return Doc;
}

using Freq = IMap<std::string, std::shared_ptr<Counter>>;

} // namespace

int main() {
  constexpr size_t NumWords = 200000;
  std::vector<std::string> Doc = makeDocument(NumWords, 7);
  const std::vector<std::string> *DocP = &Doc;

  // The collection-of-counters pattern, exactly as in PhyBin's distmat.
  auto Counts = runParIO<E>(
      [DocP](ParCtx<E> Ctx) -> Par<std::vector<std::pair<std::string,
                                                         uint64_t>>> {
        auto Table = std::make_shared<Freq>(Ctx.sessionId());
        uint64_t Session = Ctx.sessionId();
        auto Chunk = [Table, DocP, Session](ParCtx<E> C, size_t I) {
          const std::string &Word = (*DocP)[I];
          // Monotone get-or-create (a put), then a non-idempotent bump:
          // the two update families live on DIFFERENT LVars, as Section 3
          // requires.
          const std::shared_ptr<Counter> &Ctr = Table->modifyKey(
              Word, [Session] { return std::make_shared<Counter>(Session); },
              C.task());
          incrCounter(C, *Ctr);
        };
        co_await parallelFor(Ctx, 0, DocP->size(), 4096, Chunk);
        // Quiescent after the join: exact reads are deterministic.
        Table->markFrozen();
        std::vector<std::pair<std::string, uint64_t>> Out;
        for (auto &[Word, Ctr] : Table->toSortedVector())
          Out.emplace_back(Word, Ctr->peek());
        co_return Out;
      },
      SchedulerConfig{4});

  uint64_t Total = 0;
  std::printf("word frequencies over %zu words:\n", NumWords);
  for (auto &[Word, N] : Counts) {
    std::printf("  %-10s %8llu\n", Word.c_str(),
                static_cast<unsigned long long>(N));
    Total += N;
  }
  std::printf("total: %llu (must equal %zu)\n",
              static_cast<unsigned long long>(Total), NumWords);
  return Total == NumWords ? 0 : 1;
}
