//===- SchedulePlan.cpp - Schedule decision engines -----------------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "src/explore/SchedulePlan.h"

#include "src/obs/Telemetry.h"
#include "src/support/Assert.h"

#include <cassert>
#include <cstdio>

using namespace lvish;
using namespace lvish::explore;

std::string explore::encodeReplay(const ReplaySpec &Spec) {
  char Head[64];
  std::snprintf(Head, sizeof(Head), "lvx1:w%u:h%016llx:", Spec.VirtualWorkers,
                static_cast<unsigned long long>(Spec.PedHash));
  std::string S = Head;
  for (size_t I = 0; I < Spec.Decisions.size(); ++I) {
    if (I)
      S += '.';
    S += std::to_string(Spec.Decisions[I]);
  }
  return S;
}

std::optional<ReplaySpec> explore::decodeReplay(const std::string &S) {
  ReplaySpec Spec;
  unsigned long long Hash = 0;
  int Consumed = 0;
  if (std::sscanf(S.c_str(), "lvx1:w%u:h%16llx:%n", &Spec.VirtualWorkers,
                  &Hash, &Consumed) < 2 ||
      Consumed <= 0 || Spec.VirtualWorkers == 0)
    return std::nullopt;
  Spec.PedHash = Hash;
  size_t Pos = static_cast<size_t>(Consumed);
  while (Pos < S.size()) {
    size_t Dot = S.find('.', Pos);
    size_t End = Dot == std::string::npos ? S.size() : Dot;
    if (End == Pos)
      return std::nullopt; // Empty segment ("1..2").
    uint32_t V = 0;
    for (size_t I = Pos; I < End; ++I) {
      char C = S[I];
      if (C < '0' || C > '9')
        return std::nullopt;
      uint32_t Digit = static_cast<uint32_t>(C - '0');
      if (V > (UINT32_MAX - Digit) / 10)
        return std::nullopt; // Decision overflows uint32_t: corrupt string.
      V = V * 10 + Digit;
    }
    Spec.Decisions.push_back(V);
    Pos = End + (Dot == std::string::npos ? 0 : 1);
    if (Dot != std::string::npos && Pos == S.size())
      return std::nullopt; // Trailing dot.
    if (Dot == std::string::npos)
      break;
  }
  return Spec;
}

Engine::Engine(Mode M, uint64_t Seed, unsigned VirtualWorkers)
    : EngineMode(M), Workers(VirtualWorkers), Rng(Seed) {
  assert(Workers > 0 && "an engine needs at least one virtual worker");
  obs::count(obs::Event::ExploreSchedules);
}

Engine Engine::random(uint64_t Seed, unsigned VirtualWorkers) {
  return Engine(Mode::Random, Seed, VirtualWorkers);
}

Engine Engine::pct(uint64_t Seed, unsigned VirtualWorkers,
                   unsigned ChangePoints) {
  Engine E(Mode::Pct, Seed, VirtualWorkers);
  E.ChangeBudget = ChangePoints;
  // Distinct seeded starting priorities, all far above the demotion range
  // so a demoted worker stays demoted until every worker has been.
  E.Priorities.resize(VirtualWorkers);
  for (unsigned W = 0; W < VirtualWorkers; ++W)
    E.Priorities[W] = (uint64_t{1} << 32) + E.Rng.next() % (uint64_t{1} << 31);
  return E;
}

Engine Engine::replay(std::vector<uint32_t> Decisions,
                      unsigned VirtualWorkers) {
  Engine E(Mode::Replay, 0, VirtualWorkers);
  E.Input = std::move(Decisions);
  return E;
}

Engine Engine::replay(const ReplaySpec &Spec) {
  return replay(Spec.Decisions, Spec.VirtualWorkers);
}

Engine Engine::enumerate(std::vector<uint32_t> Prefix,
                         unsigned VirtualWorkers) {
  Engine E(Mode::Enumerate, 0, VirtualWorkers);
  E.Input = std::move(Prefix);
  return E;
}

unsigned Engine::pickPct(const StepOption *Options, unsigned N) {
  // Seeded change point: demote the running worker to the bottom of the
  // priority range, forcing someone else ahead of it (the "d change
  // points" of PCT). The demotion schedule is a pure hash of the seed
  // stream, so the whole run stays a function of (seed, program).
  if (ChangeBudget > 0 && LastWorker >= 0 &&
      Rng.nextBounded(8) == 0) {
    Priorities[static_cast<unsigned>(LastWorker)] = DemoteCounter++;
    --ChangeBudget;
  }
  // Highest-priority worker that has an option wins; among that worker's
  // own options (inject vs steal victims) draw from the seeded stream so
  // different seeds explore different acquisition paths.
  unsigned BestWorker = Options[0].Worker;
  for (unsigned I = 1; I < N; ++I)
    if (Priorities[Options[I].Worker] > Priorities[BestWorker])
      BestWorker = Options[I].Worker;
  unsigned First = N, Count = 0;
  for (unsigned I = 0; I < N; ++I)
    if (Options[I].Worker == BestWorker) {
      if (First == N)
        First = I;
      ++Count;
    }
  // A worker's options are contiguous in the scheduler's enumeration.
  return First + static_cast<unsigned>(Count > 1 ? Rng.nextBounded(Count) : 0);
}

unsigned Engine::decide(unsigned N, DecisionKind Kind, uint32_t ContinueIdx,
                        const StepOption *Options) {
  // Set on every path below; the switch covers every Mode without a
  // default, so -Wswitch still flags a new one.
  unsigned Chosen = 0;
  size_t Slot = Log.size();
  if (Slot < Input.size()) {
    Chosen = Input[Slot];
    if (Chosen >= N) {
      // The input log no longer matches this program point (possible
      // mid-shrink); clamp so the run stays deterministic and flag it.
      Chosen = N - 1;
      Clamped = true;
    }
  } else {
    switch (EngineMode) {
    case Mode::Random:
      Chosen = static_cast<unsigned>(Rng.nextBounded(N));
      break;
    case Mode::Pct:
      Chosen = (Kind == DecisionKind::Step && Options)
                   ? pickPct(Options, N)
                   : static_cast<unsigned>(Rng.nextBounded(N));
      break;
    case Mode::Replay:
      Chosen = 0;
      break;
    case Mode::Enumerate:
      Chosen = ContinueIdx != ~0u ? ContinueIdx : 0;
      break;
    }
  }
  Log.push_back({Chosen, N, Kind, ContinueIdx});
  if (Kind == DecisionKind::Step) {
    if (ContinueIdx != ~0u && Chosen != ContinueIdx)
      ++Preemptions;
    if (Options)
      LastWorker = static_cast<int>(Options[Chosen].Worker);
  }
  return Chosen;
}

unsigned Engine::onStep(const StepOption *Options, unsigned N) {
  assert(N >= 1);
  // The non-preempting default: the worker that ran the previous slice
  // continues with its own pop. (If it has a pop option, that is its only
  // option - the scheduler forces own-work-first per worker.)
  uint32_t ContinueIdx = ~0u;
  if (LastWorker >= 0)
    for (unsigned I = 0; I < N; ++I)
      if (Options[I].Worker == static_cast<uint16_t>(LastWorker) &&
          Options[I].Kind == StepKind::Pop) {
        ContinueIdx = I;
        break;
      }
  return decide(N, DecisionKind::Step, ContinueIdx, Options);
}

unsigned Engine::onPick(unsigned N) {
  assert(N >= 2);
  return decide(N, DecisionKind::Pick, ~0u, nullptr);
}

unsigned Engine::onBackpressure(unsigned N) {
  assert(N >= 2);
  return decide(N, DecisionKind::Backpressure, ~0u, nullptr);
}

void Engine::onResume(const Pedigree &Ped) {
  PedHash = hashCombine(PedHash, Ped.hash());
  ++Steps;
  obs::count(obs::Event::ExploreSteps);
}

std::vector<uint32_t> Engine::chosen() const {
  std::vector<uint32_t> Out;
  Out.reserve(Log.size());
  for (const Decision &D : Log)
    Out.push_back(D.Chosen);
  return Out;
}

std::string Engine::replayString() const {
  ReplaySpec Spec;
  Spec.VirtualWorkers = Workers;
  Spec.Decisions = chosen();
  Spec.PedHash = PedHash;
  return encodeReplay(Spec);
}
