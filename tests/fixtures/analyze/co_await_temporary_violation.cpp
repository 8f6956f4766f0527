// lvish-analyze-fixture-path: src/pbbs/co_await_temporary_violation.cpp
//
// Seeded violations for the co-await-temporary pass: a lambda that
// captures by value is written directly as an argument of an awaited
// call. GCC 12 destroys that temporary twice when the callee suspends, so
// the body reads freed captures with no diagnostic. Scanned, never
// compiled.

namespace lvish {

Par<void> labelRoots(ParCtx<Eff::DetST> Ctx, std::shared_ptr<UnionFind> UF,
                     std::vector<uint32_t> &Labels) {
  // A by-value capture list.
  co_await parallelFor(Ctx, 0, Labels.size(), 4,
                       [UF, &Labels](ParCtx<Eff::DetST> C, size_t I) {
                         Labels[I] = UF->rootOf(I);
                       });
  // A [=] default, through a qualified template callee.
  co_await lvish::parallelForPar<Eff::DetST>(
      Ctx, 0, Labels.size(), 4,
      [=](ParCtx<Eff::DetST> C, size_t I) -> Par<void> { co_return; });
}

} // namespace lvish
