// lvish-analyze-fixture-path: src/sim/multiline_violation.cpp
//
// The retired per-line lint's false negatives, locked in as seeded
// violations: a raw-sync declaration split across lines and a direct
// state-changing call whose object sits on the previous line. Scanned,
// never compiled.

namespace lvish {

std::
    mutex SplitAcrossLines; // raw-sync must still fire

void wrappedDirectPut(Task *T, IVar<int> &IV) {
  IV
      .putValue(3, T); // state-bypass must still fire
}

} // namespace lvish
