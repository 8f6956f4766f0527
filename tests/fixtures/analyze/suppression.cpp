// lvish-analyze-fixture-path: src/sim/suppression.cpp
//
// Suppression-comment fixture: each seeded violation carries the matching
// `lvish-lint: allow(<rule>)` marker (same-line and previous-line forms),
// so the whole file must analyze clean. Scanned, never compiled.

namespace lvish {

std::mutex Allowed; // lvish-lint: allow(raw-sync)

Par<void> blessedEscape(ParCtx<Eff::Det> Ctx) {
  // lvish-lint: allow(ctx-escape)
  static auto Saved = [Ctx]() { return Ctx; };
  co_return;
}

} // namespace lvish
