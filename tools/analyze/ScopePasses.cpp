//===- ScopePasses.cpp - Capture, lifetime and suspension passes ----------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scope/lifetime passes - the analyses that were structurally
/// impossible for the retired per-line lint because they relate a lambda's
/// capture list to declarations in enclosing scopes:
///
///  * ctx-escape: a ParCtx name captured into a lambda whose body outlives
///    the task scope the context was issued for - a handler callback
///    (handlers receive their own context; the registering one must not
///    leak in), a static-storage lambda, or a member-stored lambda.
///  * handler-cycle: an addHandler/addHandlerRef callback capturing, by
///    value, the shared_ptr that owns the LVar it is attached to. The LVar
///    stores the callback for its whole lifetime, so the capture is a
///    reference cycle C++ cannot collect (the HandlerPool.h ownership
///    note; Haskell's GC made this a non-issue in the original).
///  * park-under-lock: a lock-guard scope containing a co_await. Parking
///    a coroutine while holding a mutex keeps the lock across an
///    arbitrary suspension and can deadlock the worker that resumes it.
///  * co-await-temporary: a lambda that captures by value ([x], [x = e],
///    [=]) written directly as an argument of a co_await-ed call. GCC 12
///    destroys such a temporary twice when the callee suspends, and the
///    program runs on with freed captures and no diagnostic.
///
//===----------------------------------------------------------------------===//

#include "tools/analyze/Analyzer.h"

#include <algorithm>

namespace lvish {
namespace analyze {

namespace {

/// Ctx names visible at token \p I: ParCtx-typed decls whose scope covers
/// it plus enclosing lambdas' own ParCtx parameters.
std::vector<std::string> visibleCtxNames(const FileModel &M, size_t I) {
  std::vector<std::string> Names;
  for (const CtxDecl &D : M.CtxDecls) {
    if (D.Name.empty() || D.DeclTok >= I)
      continue;
    bool Covers = D.ScopeOpen == Npos ||
                  (D.ScopeOpen < I && (D.ScopeClose == Npos ||
                                       I < D.ScopeClose));
    if (Covers)
      Names.push_back(D.Name);
  }
  for (const Lambda &L : M.Lambdas)
    if (!L.CtxParam.empty() && L.BodyOpen != Npos && L.BodyClose != Npos &&
        L.BodyOpen < I && I < L.BodyClose)
      Names.push_back(L.CtxParam);
  return Names;
}

bool bodyMentions(const FileModel &M, const Lambda &L,
                  const std::string &Name) {
  if (L.BodyOpen == Npos || L.BodyClose == Npos)
    return false;
  for (size_t I = L.BodyOpen + 1; I < L.BodyClose; ++I)
    if (M.Toks[I].K == Token::Ident && M.Toks[I].Text == Name)
      return true;
  return false;
}

/// Names the call this lambda is a direct argument of ("" when it is not
/// a call argument).
std::string argOfCall(const FileModel &M, const Lambda &L) {
  size_t Paren = M.EnclosingParen[L.IntroTok];
  if (Paren == Npos || Paren == 0)
    return "";
  const Token &Callee = M.Toks[Paren - 1];
  return Callee.K == Token::Ident ? Callee.Text : "";
}

/// True when the statement introducing the lambda starts with `static`
/// or assigns into a member (`this->X = [...]`). Scans back a bounded
/// distance to the previous statement/brace boundary.
bool storedBeyondScope(const FileModel &M, const Lambda &L) {
  size_t Seen = 0;
  bool SawAssign = false;
  for (size_t I = L.IntroTok; I > 0 && Seen < 24; ++Seen) {
    --I;
    const std::string &T = M.Toks[I].Text;
    if (T == ";" || T == "{" || T == "}")
      break;
    if (T == "static")
      return true;
    if (T == "=")
      SawAssign = true;
    if (SawAssign && T == "this")
      return true;
  }
  return false;
}

/// Splits the top-level comma-separated argument ranges of the call whose
/// '(' is at \p Open. Each range is [first, last) in token indices.
std::vector<std::pair<size_t, size_t>> callArgs(const FileModel &M,
                                                size_t Open) {
  std::vector<std::pair<size_t, size_t>> Args;
  size_t Close = M.ParenMatch[Open];
  if (Close == Npos)
    return Args;
  size_t Start = Open + 1;
  int Depth = 0;
  for (size_t I = Open + 1; I < Close; ++I) {
    const std::string &T = M.Toks[I].Text;
    if (T == "(" || T == "{" || T == "[" || T == "<")
      ++Depth;
    else if (T == ")" || T == "}" || T == "]" || T == ">")
      --Depth;
    else if (T == "," && Depth == 0) {
      Args.push_back({Start, I});
      Start = I + 1;
    }
  }
  if (Start < Close)
    Args.push_back({Start, Close});
  return Args;
}

/// When the call whose '(' is at \p Open is the operand of a co_await -
/// its callee (a name, optionally qualified, reached through `.`/`->`, or
/// followed by template arguments) directly follows one - the index of
/// the callee's last name; else Npos.
size_t awaitedCallee(const FileModel &M, size_t Open) {
  const std::vector<Token> &T = M.Toks;
  size_t Callee = Npos;
  size_t I = Open;
  for (;;) {
    if (I > 0 && T[I - 1].Text == ">") {
      int Depth = 0;
      do {
        --I;
        Depth += T[I].Text == ">" ? 1 : T[I].Text == "<" ? -1 : 0;
      } while (I > 0 && Depth > 0);
    }
    if (I == 0 || T[I - 1].K != Token::Ident)
      return Npos;
    --I;
    if (Callee == Npos)
      Callee = I;
    if (I == 0)
      return Npos;
    const std::string &Prev = T[I - 1].Text;
    if (Prev != "::" && Prev != "." && Prev != "->")
      return Prev == "co_await" ? Callee : Npos;
    --I;
  }
}

} // namespace

void runCtxEscape(const FileModel &M, std::vector<Finding> &Out) {
  // Trusted transformer internals may shuttle contexts (the same layers
  // ctx-forge exempts).
  if (M.Path.find("/core/") != std::string::npos ||
      M.Path.find("/trans/") != std::string::npos)
    return;
  for (const Lambda &L : M.Lambdas) {
    std::vector<std::string> Visible = visibleCtxNames(M, L.IntroTok);
    if (Visible.empty())
      continue;
    std::string Captured;
    for (const std::string &Name : Visible) {
      bool Explicit =
          std::find(L.ValCaptures.begin(), L.ValCaptures.end(), Name) !=
              L.ValCaptures.end() ||
          std::find(L.RefCaptures.begin(), L.RefCaptures.end(), Name) !=
              L.RefCaptures.end() ||
          std::find(L.CaptureUses.begin(), L.CaptureUses.end(), Name) !=
              L.CaptureUses.end();
      bool Implicit =
          (L.DefaultCopy || L.DefaultRef) && bodyMentions(M, L, Name);
      if (Explicit || Implicit) {
        Captured = Name;
        break;
      }
    }
    if (Captured.empty())
      continue;
    std::string Callee = argOfCall(M, L);
    bool Handler = Callee == "addHandler" || Callee == "addHandlerRef";
    bool Stored = storedBeyondScope(M, L);
    if (!Handler && !Stored)
      continue;
    uint32_t Line = M.Toks[L.IntroTok].Line;
    if (M.suppressed(Line - 1, "ctx-escape"))
      continue;
    Finding F;
    F.Rule = "ctx-escape";
    F.File = M.Path;
    F.Line = Line;
    F.Detail = Captured + (Handler ? ":handler" : ":stored");
    F.Message =
        Handler
            ? "handler callback captures the context `" + Captured +
                  "`; handlers receive their own ParCtx parameter, and the "
                  "registering context's capability must not leak into a "
                  "body that runs for the LVar's whole lifetime"
            : "lambda stored beyond task scope captures the context `" +
                  Captured +
                  "`; a ParCtx is a per-task capability and must not "
                  "outlive the scope it was issued for";
    Out.push_back(std::move(F));
  }
}

void runHandlerCycle(const FileModel &M, std::vector<Finding> &Out) {
  const std::vector<Token> &T = M.Toks;
  for (size_t I = 0; I + 1 < T.size(); ++I) {
    if (T[I].K != Token::Ident ||
        (T[I].Text != "addHandler" && T[I].Text != "addHandlerRef"))
      continue;
    if (I > 0 && (T[I - 1].Text == "." || T[I - 1].Text == "->"))
      continue;
    if (T[I + 1].Text != "(")
      continue;
    auto Args = callArgs(M, I + 1);
    // addHandler(Ctx, Pool, LV, Callback): need the LVar and the callback.
    if (Args.size() < 4)
      continue;
    auto [LvBegin, LvEnd] = Args[2];
    std::string Owner;
    if (LvEnd - LvBegin == 2 && T[LvBegin].Text == "*" &&
        T[LvBegin + 1].K == Token::Ident)
      Owner = T[LvBegin + 1].Text; // `*SharedPtr` deref form.
    else if (LvEnd - LvBegin == 1 && T[LvBegin].K == Token::Ident)
      Owner = T[LvBegin].Text;
    if (Owner.empty())
      continue;
    auto [CbBegin, CbEnd] = Args.back();
    (void)CbEnd;
    size_t LIdx = M.lambdaAt(CbBegin);
    if (LIdx == Npos)
      continue;
    const Lambda &L = M.Lambdas[LIdx];
    // Only *by-value* capture of the owner copies the shared_ptr into the
    // callback (which the LVar then stores forever).
    bool ByValue =
        std::find(L.ValCaptures.begin(), L.ValCaptures.end(), Owner) !=
            L.ValCaptures.end() ||
        std::find(L.CaptureUses.begin(), L.CaptureUses.end(), Owner) !=
            L.CaptureUses.end() ||
        (L.DefaultCopy && bodyMentions(M, L, Owner));
    if (!ByValue)
      continue;
    uint32_t Line = T[L.IntroTok].Line;
    if (M.suppressed(Line - 1, "handler-cycle"))
      continue;
    Finding F;
    F.Rule = "handler-cycle";
    F.File = M.Path;
    F.Line = Line;
    F.Detail = Owner;
    F.Message =
        "handler callback captures `" + Owner +
        "` by value - the shared_ptr owning the LVar it is attached to. "
        "The LVar stores the callback for its whole lifetime, so this is "
        "a reference cycle C++ cannot collect; capture a raw pointer or "
        "use addHandlerRef";
    Out.push_back(std::move(F));
  }
}

void runParkUnderLock(const FileModel &M, std::vector<Finding> &Out) {
  const std::vector<Token> &T = M.Toks;
  static const std::vector<std::vector<std::string>> Guards = {
      {"std", "::", "lock_guard"},
      {"std", "::", "unique_lock"},
      {"std", "::", "scoped_lock"},
      {"std", "::", "shared_lock"},
  };
  for (size_t I = 0; I < T.size(); ++I) {
    bool IsGuard = false;
    for (const auto &G : Guards)
      IsGuard |= matchSeq(T, I, G);
    if (!IsGuard)
      continue;
    size_t Brace = M.EnclosingBrace[I];
    size_t End = Brace == Npos ? T.size() : M.BraceMatch[Brace];
    if (End == Npos)
      End = T.size();
    for (size_t J = I; J < End; ++J) {
      // A nested lambda's body is deferred work - the guard is not held
      // when it eventually runs.
      size_t Skip = M.lambdaBodySkip(J);
      if (Skip != Npos) {
        J = Skip;
        continue;
      }
      if (T[J].K != Token::Ident || T[J].Text != "co_await")
        continue;
      uint32_t Line = T[J].Line;
      if (M.suppressed(Line - 1, "park-under-lock"))
        continue;
      Finding F;
      F.Rule = "park-under-lock";
      F.File = M.Path;
      F.Line = Line;
      F.Detail = "co_await@guard";
      F.Message =
          "suspension point while the lock guard acquired at line " +
          std::to_string(T[I].Line) +
          " is held: parking a coroutine under a mutex keeps the lock "
          "across an arbitrary suspension and can deadlock the worker "
          "that resumes it";
      Out.push_back(std::move(F));
      break; // One finding per guard scope.
    }
  }
}

void runCoAwaitTemporary(const FileModel &M, std::vector<Finding> &Out) {
  for (const Lambda &L : M.Lambdas) {
    if (!L.DefaultCopy && L.ValCaptures.empty())
      continue;
    // Directly an argument: the innermost '(' around the lambda is the
    // call's, with no brace (another lambda's body) opened in between.
    size_t Paren = M.EnclosingParen[L.IntroTok];
    if (Paren == Npos ||
        M.EnclosingBrace[L.IntroTok] != M.EnclosingBrace[Paren])
      continue;
    size_t CalleeTok = awaitedCallee(M, Paren);
    if (CalleeTok == Npos)
      continue;
    uint32_t Line = M.Toks[L.IntroTok].Line;
    if (M.suppressed(Line - 1, "co-await-temporary"))
      continue;
    const std::string &Callee = M.Toks[CalleeTok].Text;
    Finding F;
    F.Rule = "co-await-temporary";
    F.File = M.Path;
    F.Line = Line;
    F.Detail = Callee;
    F.Message = "lambda capturing by value is a temporary argument of the "
                "co_await-ed call `" +
                Callee +
                "`: GCC 12 destroys it twice when the callee suspends "
                "(tools/gcc12_coawait_temp_bug.cpp); bind it to a named "
                "local and pass that";
    Out.push_back(std::move(F));
  }
}

} // namespace analyze
} // namespace lvish
