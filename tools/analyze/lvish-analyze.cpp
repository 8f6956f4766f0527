//===- lvish-analyze.cpp - Scope-aware static analyzer CLI ----------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver for the scope-aware static analyzer (successor of
/// the per-line lvish-lint). Builds a FileModel per translation unit and
/// runs every pass over it.
///
/// Usage:
///   lvish-analyze [options] <file-or-dir>...
///     --self-test            run the built-in engine checks and exit
///     --json FILE            also write a lvish-analyze-v1 findings doc
///     --baseline FILE        treat findings listed there as grandfathered
///     --write-baseline FILE  write the current findings as a new baseline
///
/// Exit status: 0 when no new (non-baselined) errors, 1 otherwise, 2 on
/// usage/IO problems. Fixture trees (any path containing "/fixtures/")
/// are skipped so the analyzer can scan tests/ without tripping over its
/// own seeded-violation files.
///
//===----------------------------------------------------------------------===//

#include "tools/analyze/Analyzer.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;
using namespace lvish::analyze;

namespace {

bool isSourceFile(const fs::path &P) {
  auto Ext = P.extension().string();
  return Ext == ".h" || Ext == ".cpp" || Ext == ".cc" || Ext == ".hpp";
}

bool readFile(const fs::path &P, std::string &Out) {
  std::ifstream In(P, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath, BaselinePath, WriteBaselinePath;
  std::vector<fs::path> Roots;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto NeedsValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "lvish-analyze: %s needs a value\n", Flag);
        std::exit(2);
      }
      return Argv[++I];
    };
    if (A == "--self-test")
      return selfTest() == 0 ? 0 : 1;
    else if (A == "--json")
      JsonPath = NeedsValue("--json");
    else if (A == "--baseline")
      BaselinePath = NeedsValue("--baseline");
    else if (A == "--write-baseline")
      WriteBaselinePath = NeedsValue("--write-baseline");
    else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "lvish-analyze: unknown option %s\n", A.c_str());
      return 2;
    } else
      Roots.push_back(A);
  }
  if (Roots.empty()) {
    std::fprintf(stderr,
                 "usage: lvish-analyze [--self-test] [--json FILE] "
                 "[--baseline FILE] [--write-baseline FILE] "
                 "<file-or-dir>...\n");
    return 2;
  }

  std::vector<fs::path> Files;
  for (const fs::path &Root : Roots) {
    std::error_code EC;
    if (fs::is_directory(Root, EC)) {
      for (auto It = fs::recursive_directory_iterator(Root, EC);
           It != fs::recursive_directory_iterator(); ++It)
        if (It->is_regular_file(EC) && isSourceFile(It->path()) &&
            It->path().generic_string().find("/fixtures/") ==
                std::string::npos)
          Files.push_back(It->path());
    } else if (fs::exists(Root, EC)) {
      Files.push_back(Root);
    } else {
      std::fprintf(stderr, "lvish-analyze: no such path: %s\n",
                   Root.c_str());
      return 2;
    }
  }

  std::vector<Finding> All;
  for (const fs::path &P : Files) {
    std::string Text;
    if (!readFile(P, Text)) {
      std::fprintf(stderr, "lvish-analyze: cannot read %s\n", P.c_str());
      return 2;
    }
    for (Finding &F : analyzeContents(P.generic_string(), Text))
      All.push_back(std::move(F));
  }

  std::map<std::string, int> Baseline;
  if (!BaselinePath.empty()) {
    std::string Text, Err;
    if (!readFile(BaselinePath, Text)) {
      std::fprintf(stderr, "lvish-analyze: cannot read baseline %s\n",
                   BaselinePath.c_str());
      return 2;
    }
    Baseline = loadBaseline(Text, Err);
    if (!Err.empty()) {
      std::fprintf(stderr, "lvish-analyze: %s\n", Err.c_str());
      return 2;
    }
  }

  int NewErrors = 0, Baselined = 0;
  for (const Finding &F : All) {
    bool Grandfathered = false;
    auto It = Baseline.find(F.key());
    if (It != Baseline.end() && It->second > 0) {
      --It->second;
      Grandfathered = true;
      ++Baselined;
    }
    if (!Grandfathered)
      ++NewErrors;
    std::fprintf(stderr, "%s:%u: %s[%s] %s\n", F.File.c_str(), F.Line,
                 Grandfathered ? "(baselined) " : "", F.Rule.c_str(),
                 F.Message.c_str());
  }

  if (!WriteBaselinePath.empty()) {
    std::ofstream Out(WriteBaselinePath, std::ios::binary);
    if (!Out) {
      std::fprintf(stderr, "lvish-analyze: cannot write %s\n",
                   WriteBaselinePath.c_str());
      return 2;
    }
    Out << baselineToJson(All);
  }
  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath, std::ios::binary);
    if (!Out) {
      std::fprintf(stderr, "lvish-analyze: cannot write %s\n",
                   JsonPath.c_str());
      return 2;
    }
    Out << findingsToJson(All, Baselined);
  }

  if (NewErrors > 0) {
    std::fprintf(stderr,
                 "lvish-analyze: %d new error(s) (%d baselined) across "
                 "%zu file(s)\n",
                 NewErrors, Baselined, Files.size());
    return 1;
  }
  return 0;
}
