// lvish-analyze-fixture-path: src/pbbs/co_await_temporary_clean.cpp
//
// Clean fixture for the co-await-temporary pass: the capturing lambda is
// bound to a named local before the await, a reference-capturing lambda
// owns nothing to destroy, an unawaited call's temporary is not a
// coroutine argument, and a lambda inside another lambda's body is not an
// argument of the outer call. Scanned, never compiled.

namespace lvish {

Par<void> labelRoots(ParCtx<Eff::DetST> Ctx, std::shared_ptr<UnionFind> UF,
                     std::vector<uint32_t> &Labels) {
  auto Body = [UF, &Labels](ParCtx<Eff::DetST> C, size_t I) {
    Labels[I] = UF->rootOf(I);
  };
  co_await parallelFor(Ctx, 0, Labels.size(), 4, Body);
  co_await parallelFor(Ctx, 0, Labels.size(), 4,
                       [&](ParCtx<Eff::DetST> C, size_t I) { Labels[I] = 0; });
  std::sort(Labels.begin(), Labels.end(), [UF](uint32_t A, uint32_t B) {
    return UF->rootOf(A) < UF->rootOf(B);
  });
  co_await fork(Ctx, [&](ParCtx<Eff::DetST> C) -> Par<void> {
    auto Probe = [UF](uint32_t V) { return UF->rootOf(V); };
    Labels[0] = Probe(0);
    co_return;
  });
}

} // namespace lvish
