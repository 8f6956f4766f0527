//===- SourceModel.cpp - Lexing and scope model ---------------------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "tools/analyze/SourceModel.h"

#include <algorithm>
#include <cctype>
#include <cstring>

namespace lvish {
namespace analyze {

namespace {

bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

bool isIdentStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
}

} // namespace

std::string stripCommentsAndStrings(const std::string &In) {
  std::string Out = In;
  enum class St { Code, Line, Block, Str, Chr, Raw } S = St::Code;
  std::string RawEnd; // )delim" terminator of the active raw string.
  for (size_t I = 0; I < In.size(); ++I) {
    char C = In[I];
    char N = I + 1 < In.size() ? In[I + 1] : '\0';
    switch (S) {
    case St::Code:
      if (C == '/' && N == '/') {
        S = St::Line;
        Out[I] = ' ';
      } else if (C == '/' && N == '*') {
        S = St::Block;
        Out[I] = ' ';
      } else if (C == 'R' && N == '"' &&
                 (I == 0 || !isIdentChar(In[I - 1]))) {
        // Raw string literal R"delim( ... )delim".
        size_t P = In.find('(', I + 2);
        if (P != std::string::npos && P - I - 2 <= 16) {
          RawEnd = ")" + In.substr(I + 2, P - I - 2) + "\"";
          for (size_t J = I; J <= P; ++J)
            Out[J] = ' ';
          I = P;
          S = St::Raw;
        }
      } else if (C == '"') {
        S = St::Str;
        Out[I] = ' ';
      } else if (C == '\'' && (I == 0 || !isIdentChar(In[I - 1]))) {
        // Identifier-boundary check keeps C++14 digit separators (1'000)
        // from opening a bogus character literal.
        S = St::Chr;
        Out[I] = ' ';
      }
      break;
    case St::Line:
      if (C == '\n')
        S = St::Code;
      else
        Out[I] = ' ';
      break;
    case St::Block:
      if (C == '*' && N == '/') {
        Out[I] = ' ';
        Out[I + 1] = ' ';
        ++I;
        S = St::Code;
      } else if (C != '\n')
        Out[I] = ' ';
      break;
    case St::Str:
      if (C == '\\' && I + 1 < In.size()) {
        Out[I] = ' ';
        if (N != '\n')
          Out[I + 1] = ' ';
        ++I;
      } else if (C == '"')
        S = St::Code;
      else if (C != '\n')
        Out[I] = ' ';
      break;
    case St::Chr:
      if (C == '\\' && I + 1 < In.size()) {
        Out[I] = ' ';
        if (N != '\n')
          Out[I + 1] = ' ';
        ++I;
      } else if (C == '\'')
        S = St::Code;
      else if (C != '\n')
        Out[I] = ' ';
      break;
    case St::Raw:
      if (In.compare(I, RawEnd.size(), RawEnd) == 0) {
        for (size_t J = 0; J < RawEnd.size(); ++J)
          if (In[I + J] != '\n')
            Out[I + J] = ' ';
        I += RawEnd.size() - 1;
        S = St::Code;
      } else if (C != '\n')
        Out[I] = ' ';
      break;
    }
  }
  return Out;
}

std::vector<std::string> splitLines(const std::string &S) {
  std::vector<std::string> Lines;
  size_t Start = 0;
  while (Start <= S.size()) {
    size_t End = S.find('\n', Start);
    if (End == std::string::npos) {
      if (Start < S.size())
        Lines.push_back(S.substr(Start));
      break;
    }
    Lines.push_back(S.substr(Start, End - Start));
    Start = End + 1;
  }
  return Lines;
}

std::vector<Token> tokenize(const std::string &Stripped) {
  std::vector<Token> Toks;
  uint32_t Line = 1;
  for (size_t I = 0; I < Stripped.size();) {
    char C = Stripped[I];
    if (C == '\n') {
      ++Line;
      ++I;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++I;
      continue;
    }
    Token T;
    T.Line = Line;
    if (isIdentStart(C)) {
      size_t J = I + 1;
      while (J < Stripped.size() && isIdentChar(Stripped[J]))
        ++J;
      T.K = Token::Ident;
      T.Text = Stripped.substr(I, J - I);
      I = J;
    } else if (std::isdigit(static_cast<unsigned char>(C))) {
      size_t J = I + 1;
      while (J < Stripped.size() &&
             (isIdentChar(Stripped[J]) || Stripped[J] == '.'))
        ++J;
      T.K = Token::Number;
      T.Text = Stripped.substr(I, J - I);
      I = J;
    } else {
      char N = I + 1 < Stripped.size() ? Stripped[I + 1] : '\0';
      T.K = Token::Punct;
      if ((C == ':' && N == ':') || (C == '-' && N == '>')) {
        T.Text = Stripped.substr(I, 2);
        I += 2;
      } else {
        T.Text = std::string(1, C);
        ++I;
      }
    }
    Toks.push_back(std::move(T));
  }
  return Toks;
}

bool matchSeq(const std::vector<Token> &Toks, size_t I,
              const std::vector<std::string> &Seq) {
  if (I + Seq.size() > Toks.size())
    return false;
  for (size_t J = 0; J < Seq.size(); ++J)
    if (Toks[I + J].Text != Seq[J])
      return false;
  return true;
}

namespace {

/// Finds the matching closer for the opener at \p I over \p Open/ \p Close
/// characters ("[ ]", "( )", "{ }", or "< >" with no shift awareness).
size_t findMatch(const std::vector<Token> &Toks, size_t I, const char *Open,
                 const char *Close) {
  int Depth = 0;
  for (size_t J = I; J < Toks.size(); ++J) {
    if (Toks[J].Text == Open)
      ++Depth;
    else if (Toks[J].Text == Close) {
      if (--Depth == 0)
        return J;
    }
  }
  return Npos;
}

/// True when the '[' at \p I starts a lambda introducer (vs. a subscript
/// or an attribute).
bool isLambdaIntro(const std::vector<Token> &Toks, size_t I) {
  if (I + 1 < Toks.size() && Toks[I + 1].Text == "[")
    return false; // [[attribute]]
  if (I == 0)
    return true;
  const Token &P = Toks[I - 1];
  if (P.K == Token::Ident) {
    // `delete[] p`, `int x[]`... an identifier directly before '[' means
    // subscript/array except after keywords that can precede a lambda.
    static const char *PreKw[] = {"return",   "co_return", "co_await",
                                  "co_yield", "mutable",   "else",
                                  "do",       "in"};
    for (const char *K : PreKw)
      if (P.Text == K)
        return true;
    return false;
  }
  if (P.K == Token::Number)
    return false;
  const std::string &T = P.Text;
  return !(T == ")" || T == "]" || T == "}"); // }' before [ : subscript-ish.
}

/// Parses the capture list of \p L (tokens (IntroTok, CaptureEnd)).
void parseCaptures(const std::vector<Token> &Toks, Lambda &L) {
  size_t I = L.IntroTok + 1;
  bool AtCaptureStart = true;
  int Depth = 0; // Nesting inside an init-capture expression.
  std::string PendingName;
  bool PendingRef = false;
  auto Flush = [&]() {
    if (!PendingName.empty()) {
      if (PendingRef)
        L.RefCaptures.push_back(PendingName);
      else
        L.ValCaptures.push_back(PendingName);
    }
    PendingName.clear();
    PendingRef = false;
    AtCaptureStart = true;
  };
  for (; I < L.CaptureEnd; ++I) {
    const Token &T = Toks[I];
    if (T.Text == "(" || T.Text == "[" || T.Text == "{") {
      ++Depth;
      continue;
    }
    if (T.Text == ")" || T.Text == "]" || T.Text == "}") {
      --Depth;
      continue;
    }
    if (Depth > 0) {
      if (T.K == Token::Ident)
        L.CaptureUses.push_back(T.Text);
      continue;
    }
    if (T.Text == ",") {
      Flush();
      continue;
    }
    if (T.Text == "&") {
      if (I + 1 >= L.CaptureEnd || Toks[I + 1].Text == ",")
        L.DefaultRef = true;
      else if (AtCaptureStart)
        PendingRef = true;
      continue;
    }
    if (T.Text == "=") {
      if (AtCaptureStart && PendingName.empty())
        L.DefaultCopy = true;
      // else: init-capture; right-hand side idents recorded below.
      AtCaptureStart = false;
      continue;
    }
    if (T.Text == "*" || T.Text == "this") {
      AtCaptureStart = false;
      continue;
    }
    if (T.K == Token::Ident) {
      if (AtCaptureStart && PendingName.empty())
        PendingName = T.Text;
      else
        L.CaptureUses.push_back(T.Text); // init-capture RHS use.
      AtCaptureStart = false;
    }
  }
  Flush();
}

/// Scans a parameter-list token range for the first `ParCtx < ... >` and
/// returns the name it binds ("" when the parameter is unnamed or absent).
std::string findCtxParam(const std::vector<Token> &Toks, size_t Begin,
                         size_t End) {
  for (size_t I = Begin; I < End; ++I) {
    if (Toks[I].Text != "ParCtx" || I + 1 >= End || Toks[I + 1].Text != "<")
      continue;
    size_t Close = findMatch(Toks, I + 1, "<", ">");
    if (Close == Npos || Close >= End)
      continue;
    if (Close + 1 < End && Toks[Close + 1].K == Token::Ident)
      return Toks[Close + 1].Text;
    return "";
  }
  return "";
}

/// Classifies the '{' at \p I by looking back a bounded number of tokens.
BraceKind classifyBrace(const std::vector<Token> &Toks, size_t I) {
  size_t J = I;
  for (size_t Seen = 0; J > 0 && Seen < 40; ++Seen) {
    --J;
    const std::string &T = Toks[J].Text;
    if (T == ";" || T == "}" || T == "{")
      break;
    if (T == "namespace")
      return BraceKind::Namespace;
    if (T == "class" || T == "struct" || T == "union" || T == "enum")
      return BraceKind::Class;
    if (T == ")")
      return BraceKind::Function;
  }
  return BraceKind::Other;
}

} // namespace

size_t FileModel::lambdaAt(size_t IntroTok) const {
  for (size_t I = 0; I < Lambdas.size(); ++I)
    if (Lambdas[I].IntroTok == IntroTok)
      return I;
  return Npos;
}

size_t FileModel::enclosingLambdaBody(size_t TokIdx) const {
  size_t Best = Npos, BestSpan = Npos;
  for (size_t I = 0; I < Lambdas.size(); ++I) {
    const Lambda &L = Lambdas[I];
    if (L.BodyOpen == Npos || L.BodyClose == Npos)
      continue;
    if (L.BodyOpen < TokIdx && TokIdx < L.BodyClose) {
      size_t Span = L.BodyClose - L.BodyOpen;
      if (Span < BestSpan) {
        Best = I;
        BestSpan = Span;
      }
    }
  }
  return Best;
}

size_t FileModel::lambdaBodySkip(size_t TokIdx) const {
  for (const Lambda &L : Lambdas)
    if (L.IntroTok == TokIdx && L.BodyClose != Npos)
      return L.BodyClose;
  return Npos;
}

bool FileModel::suppressed(size_t OrigLine0, const char *RuleName) const {
  std::string Marker = std::string("lvish-lint: allow(") + RuleName + ")";
  if (OrigLine0 < OrigLines.size() &&
      OrigLines[OrigLine0].find(Marker) != std::string::npos)
    return true;
  return OrigLine0 > 0 && OrigLine0 - 1 < OrigLines.size() &&
         OrigLines[OrigLine0 - 1].find(Marker) != std::string::npos;
}

FileModel buildFileModel(const std::string &Path, const std::string &Text) {
  FileModel M;
  M.Path = Path;
  M.OrigLines = splitLines(Text);
  M.Toks = tokenize(stripCommentsAndStrings(Text));

  size_t N = M.Toks.size();
  M.ParenMatch.assign(N, Npos);
  M.BraceMatch.assign(N, Npos);
  M.EnclosingParen.assign(N, Npos);
  M.EnclosingBrace.assign(N, Npos);
  M.BraceKinds.assign(N, BraceKind::Other);

  std::vector<size_t> PStack, BStack;
  for (size_t I = 0; I < N; ++I) {
    M.EnclosingParen[I] = PStack.empty() ? Npos : PStack.back();
    M.EnclosingBrace[I] = BStack.empty() ? Npos : BStack.back();
    const std::string &T = M.Toks[I].Text;
    if (T == "(")
      PStack.push_back(I);
    else if (T == ")") {
      if (!PStack.empty()) {
        M.ParenMatch[PStack.back()] = I;
        PStack.pop_back();
      }
    } else if (T == "{") {
      M.BraceKinds[I] = classifyBrace(M.Toks, I);
      BStack.push_back(I);
    } else if (T == "}") {
      if (!BStack.empty()) {
        M.BraceMatch[BStack.back()] = I;
        BStack.pop_back();
      }
    }
  }

  // Lambda extraction.
  for (size_t I = 0; I < N; ++I) {
    if (M.Toks[I].Text != "[" || !isLambdaIntro(M.Toks, I))
      continue;
    size_t CapEnd = findMatch(M.Toks, I, "[", "]");
    if (CapEnd == Npos)
      continue;
    Lambda L;
    L.IntroTok = I;
    L.CaptureEnd = CapEnd;
    parseCaptures(M.Toks, L);
    size_t J = CapEnd + 1;
    if (J < N && M.Toks[J].Text == "(") {
      L.ParamOpen = J;
      L.ParamClose = M.ParenMatch[J];
      if (L.ParamClose == Npos)
        continue;
      L.CtxParam = findCtxParam(M.Toks, L.ParamOpen + 1, L.ParamClose);
      J = L.ParamClose + 1;
    }
    // Skip trailing return type / specifiers up to the body brace; stop at
    // tokens that prove this was not a lambda after all.
    while (J < N && M.Toks[J].Text != "{" && M.Toks[J].Text != ";" &&
           M.Toks[J].Text != ")" && M.Toks[J].Text != ",")
      ++J;
    if (J < N && M.Toks[J].Text == "{") {
      L.BodyOpen = J;
      L.BodyClose = M.BraceMatch[J];
    }
    if (L.BodyOpen != Npos && L.BodyClose != Npos)
      M.Lambdas.push_back(std::move(L));
  }

  // ParCtx-typed declarations outside lambda parameter lists: function
  // parameters and locals.
  auto InLambdaParams = [&](size_t I) {
    for (const Lambda &L : M.Lambdas)
      if (L.ParamOpen != Npos && L.ParamOpen < I && I < L.ParamClose)
        return true;
    return false;
  };
  for (size_t I = 0; I + 1 < N; ++I) {
    if (M.Toks[I].Text != "ParCtx" || M.Toks[I + 1].Text != "<")
      continue;
    if (InLambdaParams(I))
      continue;
    // `operator ParCtx<E2>() const` conversions and `class ParCtx` decls
    // have no bound name; findCtxParam-style scan below just fails.
    size_t Close = findMatch(M.Toks, I + 1, "<", ">");
    if (Close == Npos || Close + 1 >= N ||
        M.Toks[Close + 1].K != Token::Ident)
      continue;
    CtxDecl D;
    D.Name = M.Toks[Close + 1].Text;
    D.DeclTok = I;
    // Visibility: a function parameter's scope is the body brace after the
    // parameter list; a local's is its enclosing brace.
    size_t EncParen = M.EnclosingParen[I];
    if (EncParen != Npos) {
      size_t CloseParen = M.ParenMatch[EncParen];
      size_t J = CloseParen == Npos ? Npos : CloseParen + 1;
      while (J != Npos && J < N && M.Toks[J].Text != "{" &&
             M.Toks[J].Text != ";" && M.Toks[J].Text != ")")
        ++J;
      if (J != Npos && J < N && M.Toks[J].Text == "{") {
        D.ScopeOpen = J;
        D.ScopeClose = M.BraceMatch[J];
      } else {
        continue; // Declaration-only signature: no visible body.
      }
    } else {
      D.ScopeOpen = M.EnclosingBrace[I];
      D.ScopeClose = D.ScopeOpen == Npos ? Npos : M.BraceMatch[D.ScopeOpen];
    }
    M.CtxDecls.push_back(std::move(D));
  }

  return M;
}

} // namespace analyze
} // namespace lvish
