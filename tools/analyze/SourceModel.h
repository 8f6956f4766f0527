//===- SourceModel.h - Lexing and scope model for lvish-analyze -*- C++ -*-===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared lexing layer of lvish-analyze: the string/comment stripper
/// (inherited from the retired per-line lvish-lint), a token stream with
/// line numbers, and a balanced-brace/paren scope model with extracted
/// lambda expressions and their parsed capture lists. Every pass works on
/// this model instead of raw lines, which is what lets rules match
/// constructs split across lines and reason about scope extent.
///
//===----------------------------------------------------------------------===//

#ifndef LVISH_TOOLS_ANALYZE_SOURCEMODEL_H
#define LVISH_TOOLS_ANALYZE_SOURCEMODEL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lvish {
namespace analyze {

inline constexpr size_t Npos = static_cast<size_t>(-1);

/// Blanks comments and string/character literals (including raw strings),
/// preserving newlines and column positions, so rule tokens inside them
/// never match. Suppression markers are read from the *original* text
/// (they live in comments).
std::string stripCommentsAndStrings(const std::string &In);

/// Splits \p S on newlines (no trailing empty line).
std::vector<std::string> splitLines(const std::string &S);

/// One lexical token of the stripped source.
struct Token {
  enum Kind : uint8_t { Ident, Number, Punct } K = Punct;
  std::string Text;
  uint32_t Line = 0; ///< 1-based.
};

/// A lambda expression: capture list, optional ParCtx parameter, body.
struct Lambda {
  size_t IntroTok = Npos;   ///< Index of the '[' opening the capture list.
  size_t CaptureEnd = Npos; ///< Index of the matching ']'.
  size_t ParamOpen = Npos;  ///< '(' of the parameter list (Npos if none).
  size_t ParamClose = Npos; ///< Matching ')'.
  size_t BodyOpen = Npos;   ///< '{' of the body (Npos if never found).
  size_t BodyClose = Npos;  ///< Matching '}'.
  bool DefaultCopy = false; ///< [=] present.
  bool DefaultRef = false;  ///< [&] present.
  /// Names captured by value ([x] and the name introduced by [x = ...]).
  std::vector<std::string> ValCaptures;
  /// Names captured by reference ([&x]).
  std::vector<std::string> RefCaptures;
  /// Identifiers appearing anywhere in the capture list without a leading
  /// '&' (covers init-capture right-hand sides like [p = Owner]).
  std::vector<std::string> CaptureUses;
  /// Name of the lambda's ParCtx<...> parameter ("" when none): a lambda
  /// with a ParCtx parameter is a task body candidate.
  std::string CtxParam;
};

/// A ParCtx-typed name declaration outside lambda parameter lists: a
/// function parameter or a local variable. Visible from its declaration to
/// the end of \c ScopeClose.
struct CtxDecl {
  std::string Name;
  size_t DeclTok = Npos;
  size_t ScopeOpen = Npos;  ///< '{' of the visibility scope (Npos = file).
  size_t ScopeClose = Npos; ///< Matching '}' (Npos = end of file).
};

/// Classifies what a '{' opens, for the escape heuristics.
enum class BraceKind : uint8_t { Other, Namespace, Class, Function };

/// The per-file analysis model.
struct FileModel {
  std::string Path;
  std::vector<std::string> OrigLines; ///< For suppression markers.
  std::vector<Token> Toks;            ///< Tokens of the stripped source.

  /// For an open '(' / '{' token, the index of its match (Npos if
  /// unbalanced); identity elsewhere is Npos.
  std::vector<size_t> ParenMatch;
  std::vector<size_t> BraceMatch;
  /// For every token, the index of the innermost enclosing '(' / '{'
  /// (Npos at top level).
  std::vector<size_t> EnclosingParen;
  std::vector<size_t> EnclosingBrace;
  /// For open-brace tokens, what the brace opens.
  std::vector<BraceKind> BraceKinds;

  std::vector<Lambda> Lambdas;   ///< Sorted by IntroTok.
  std::vector<CtxDecl> CtxDecls; ///< ParCtx-typed names outside lambdas.

  /// Lambda lookup by intro token ('[' index); Npos when none.
  size_t lambdaAt(size_t IntroTok) const;
  /// Innermost lambda whose body token range contains \p TokIdx (Npos
  /// when not inside any lambda body).
  size_t enclosingLambdaBody(size_t TokIdx) const;
  /// True if token \p I is the first token of some lambda's capture list,
  /// parameter list, or body (used to skip nested lambda extents).
  size_t lambdaBodySkip(size_t TokIdx) const;

  /// True when \p OrigLine (0-based) or the line above carries the
  /// `lvish-lint: allow(<RuleName>)` marker.
  bool suppressed(size_t OrigLine0, const char *RuleName) const;
};

/// Lexes stripped text into tokens. Multi-character punctuation kept as
/// single tokens: "::", "->", "co_await" is an identifier anyway.
std::vector<Token> tokenize(const std::string &Stripped);

/// Builds the full model (strip, lex, scope, lambdas, ctx decls).
FileModel buildFileModel(const std::string &Path, const std::string &Text);

/// True if tokens starting at \p I match \p Seq exactly.
bool matchSeq(const std::vector<Token> &Toks, size_t I,
              const std::vector<std::string> &Seq);

} // namespace analyze
} // namespace lvish

#endif // LVISH_TOOLS_ANALYZE_SOURCEMODEL_H
