//===- bench-report.cpp - Validate and diff lvish-bench-v1 JSON ------------===//
//
// Part of lvish-cpp, a C++ reproduction of the LVish deterministic
// parallelism library (Kuper et al., PLDI 2014).
//
// Companion to bench/BenchHarness.h:
//
//   bench-report validate FILE.json...
//       Checks each file against the lvish-bench-v1 schema (required
//       keys, types, per-series statistics consistent with the raw
//       samples, non-empty scheduler_stats, every telemetry counter).
//       Exit 1 on any failure - this is the CI bench smoke stage's
//       oracle.
//
//   bench-report diff OLD.json NEW.json [--threshold PCT]
//       Prints a per-series regression table (old/new median, delta).
//       With --threshold, exits 1 if any series regressed by more than
//       PCT percent.
//
//   bench-report --self-test
//       In-process unit tests (run by ctest).
//
//===----------------------------------------------------------------------===//

#include "src/obs/Json.h"
#include "src/obs/Telemetry.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using lvish::obs::JsonValue;

namespace {

/// Appends a problem description; the validator reports all of them.
struct Problems {
  std::vector<std::string> List;
  void add(const std::string &Msg) { List.push_back(Msg); }
  bool empty() const { return List.empty(); }
};

bool isNonNegNumber(const JsonValue *V) {
  return V && V->isNumber() && V->Num >= 0 && std::isfinite(V->Num);
}

/// The keys of the telemetry object: every obs::eventName, then the two
/// latency sums.
std::vector<std::string> telemetryKeys() {
  std::vector<std::string> Keys;
  for (unsigned I = 0; I < lvish::obs::NumEvents; ++I)
    Keys.push_back(lvish::obs::eventName(static_cast<lvish::obs::Event>(I)));
  Keys.push_back("quiesce_wait_nanos");
  Keys.push_back("session_latency_nanos");
  return Keys;
}

/// Validates one parsed document against lvish-bench-v1. Collects every
/// violation rather than stopping at the first.
void validateDoc(const JsonValue &Doc, Problems &P) {
  if (!Doc.isObject()) {
    P.add("top level is not an object");
    return;
  }
  const JsonValue *Schema = Doc.find("schema");
  if (!Schema || !Schema->isString() || Schema->Str != "lvish-bench-v1")
    P.add("schema key missing or not 'lvish-bench-v1'");
  const JsonValue *Name = Doc.find("name");
  if (!Name || !Name->isString() || Name->Str.empty())
    P.add("name missing or empty");
  const JsonValue *Rev = Doc.find("git_rev");
  if (!Rev || !Rev->isString() || Rev->Str.empty())
    P.add("git_rev missing or empty");
  const JsonValue *Config = Doc.find("config");
  if (!Config || !Config->isObject())
    P.add("config missing or not an object");

  const JsonValue *SeriesArr = Doc.find("series");
  if (!SeriesArr || !SeriesArr->isArray() || SeriesArr->Arr.empty()) {
    P.add("series missing, not an array, or empty");
  } else {
    for (size_t I = 0; I < SeriesArr->Arr.size(); ++I) {
      const JsonValue &S = SeriesArr->Arr[I];
      std::string Tag = "series[" + std::to_string(I) + "]";
      if (!S.isObject()) {
        P.add(Tag + " is not an object");
        continue;
      }
      const JsonValue *SName = S.find("name");
      if (!SName || !SName->isString() || SName->Str.empty())
        P.add(Tag + ".name missing or empty");
      else
        Tag += " (" + SName->Str + ")";
      const JsonValue *Times = S.find("times_sec");
      if (!Times || !Times->isArray() || Times->Arr.empty()) {
        P.add(Tag + ".times_sec missing or empty");
        continue;
      }
      double Min = 0;
      bool First = true;
      for (const JsonValue &T : Times->Arr) {
        if (!isNonNegNumber(&T)) {
          P.add(Tag + ".times_sec has a non-numeric/negative entry");
          break;
        }
        Min = First ? T.Num : std::min(Min, T.Num);
        First = false;
      }
      const JsonValue *Med = S.find("median_sec");
      const JsonValue *MinV = S.find("min_sec");
      const JsonValue *Std = S.find("stddev_sec");
      if (!isNonNegNumber(Med))
        P.add(Tag + ".median_sec missing or invalid");
      if (!isNonNegNumber(MinV))
        P.add(Tag + ".min_sec missing or invalid");
      else if (std::fabs(MinV->Num - Min) > 1e-12 + 1e-9 * Min)
        P.add(Tag + ".min_sec disagrees with times_sec");
      if (!isNonNegNumber(Std))
        P.add(Tag + ".stddev_sec missing or invalid");
      const JsonValue *Metrics = S.find("metrics");
      if (!Metrics || !Metrics->isObject())
        P.add(Tag + ".metrics missing or not an object");
    }
  }

  const JsonValue *Stats = Doc.find("scheduler_stats");
  if (!Stats || !Stats->isObject()) {
    P.add("scheduler_stats missing or not an object");
  } else {
    for (const char *Key :
         {"tasks_created", "tasks_executed", "local_pops", "steal_attempts",
          "steals", "parks", "wakes", "max_deque_depth", "num_workers"})
      if (!isNonNegNumber(Stats->find(Key)))
        P.add(std::string("scheduler_stats.") + Key +
              " missing or invalid");
    const JsonValue *Created = Stats->find("tasks_created");
    if (isNonNegNumber(Created) && Created->Num == 0)
      P.add("scheduler_stats is empty (tasks_created == 0): the bench did "
            "not record the scheduler that did the work");
  }

  // telemetry carries every event counter plus the two latency sums.
  const JsonValue *Telemetry = Doc.find("telemetry");
  if (!Telemetry || !Telemetry->isObject()) {
    P.add("telemetry missing or not an object");
  } else {
    for (const std::string &Key : telemetryKeys())
      if (!isNonNegNumber(Telemetry->find(Key)))
        P.add("telemetry." + Key + " missing or invalid");
  }
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool loadDoc(const std::string &Path, JsonValue &Doc) {
  std::string Text, Err;
  if (!readFile(Path, Text)) {
    std::fprintf(stderr, "bench-report: cannot read %s\n", Path.c_str());
    return false;
  }
  if (!JsonValue::parse(Text, Doc, &Err)) {
    std::fprintf(stderr, "bench-report: %s: parse error: %s\n", Path.c_str(),
                 Err.c_str());
    return false;
  }
  return true;
}

int cmdValidate(const std::vector<std::string> &Files) {
  int Failures = 0;
  for (const std::string &Path : Files) {
    JsonValue Doc;
    if (!loadDoc(Path, Doc)) {
      ++Failures;
      continue;
    }
    Problems P;
    validateDoc(Doc, P);
    if (P.empty()) {
      std::printf("bench-report: %s: OK\n", Path.c_str());
    } else {
      ++Failures;
      std::fprintf(stderr, "bench-report: %s: INVALID\n", Path.c_str());
      for (const std::string &Msg : P.List)
        std::fprintf(stderr, "  - %s\n", Msg.c_str());
    }
  }
  return Failures ? 1 : 0;
}

/// One series' old/new medians, joined by name. A series may exist on
/// only one side: a NEW suite diffed against an old baseline (or vice
/// versa) is a report to render, not an input error.
struct DiffRow {
  std::string Name;
  double OldMed = 0;
  double NewMed = 0;
  bool InOld = false;
  bool InNew = false;
};

/// Joins the two documents' series by name: rows appear in NEW document
/// order, then any old-only series in OLD order. Tolerates a missing or
/// empty series array on either side (the rows are simply one-sided).
std::vector<DiffRow> buildDiff(const JsonValue &Old, const JsonValue &New) {
  std::vector<DiffRow> Rows;
  auto Collect = [&Rows](const JsonValue &Doc, bool IsNew) {
    const JsonValue *Series = Doc.find("series");
    if (!Series || !Series->isArray())
      return;
    for (const JsonValue &S : Series->Arr) {
      const JsonValue *N = S.find("name");
      const JsonValue *M = S.find("median_sec");
      if (!N || !N->isString() || !M || !M->isNumber())
        continue;
      DiffRow *Row = nullptr;
      for (DiffRow &R : Rows)
        if (R.Name == N->Str) {
          Row = &R;
          break;
        }
      if (!Row) {
        Rows.push_back({N->Str, 0, 0, false, false});
        Row = &Rows.back();
      }
      (IsNew ? Row->InNew : Row->InOld) = true;
      (IsNew ? Row->NewMed : Row->OldMed) = M->Num;
    }
  };
  Collect(New, /*IsNew=*/true);
  Collect(Old, /*IsNew=*/false);
  return Rows;
}

/// Regressions = rows present on BOTH sides whose median grew by more
/// than \p ThresholdPct percent. One-sided rows never regress.
int countRegressions(const std::vector<DiffRow> &Rows, double ThresholdPct) {
  int Regressions = 0;
  for (const DiffRow &R : Rows)
    if (R.InOld && R.InNew && R.OldMed > 0 &&
        100.0 * (R.NewMed - R.OldMed) / R.OldMed > ThresholdPct)
      ++Regressions;
  return Regressions;
}

int cmdDiff(const std::string &OldPath, const std::string &NewPath,
            double ThresholdPct, bool HaveThreshold) {
  JsonValue Old, New;
  if (!loadDoc(OldPath, Old) || !loadDoc(NewPath, New))
    return 1;
  auto Str = [](const JsonValue &D, const char *K) {
    const JsonValue *V = D.find(K);
    return V && V->isString() ? V->Str : std::string("?");
  };
  std::printf("bench-report diff: %s (%s) -> %s (%s)\n", OldPath.c_str(),
              Str(Old, "git_rev").c_str(), NewPath.c_str(),
              Str(New, "git_rev").c_str());
  std::printf("%-32s %14s %14s %9s\n", "series", "old median(s)",
              "new median(s)", "delta");
  std::vector<DiffRow> Rows = buildDiff(Old, New);
  if (Rows.empty())
    std::printf("(no comparable series on either side)\n");
  int Regressions = 0;
  for (const DiffRow &R : Rows) {
    if (!R.InOld) {
      std::printf("%-32s %14s %14.6f %9s\n", R.Name.c_str(), "-", R.NewMed,
                  "new");
      continue;
    }
    if (!R.InNew) {
      std::printf("%-32s %14.6f %14s %9s\n", R.Name.c_str(), R.OldMed, "-",
                  "old-only");
      continue;
    }
    double DeltaPct =
        R.OldMed > 0 ? 100.0 * (R.NewMed - R.OldMed) / R.OldMed : 0.0;
    const char *Mark = "";
    if (HaveThreshold && DeltaPct > ThresholdPct) {
      Mark = "  << REGRESSION";
      ++Regressions;
    }
    std::printf("%-32s %14.6f %14.6f %+8.1f%%%s\n", R.Name.c_str(), R.OldMed,
                R.NewMed, DeltaPct, Mark);
  }
  if (Regressions)
    std::fprintf(stderr,
                 "bench-report: %d series regressed beyond %.1f%%\n",
                 Regressions, ThresholdPct);
  return Regressions ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// Self-test
//===----------------------------------------------------------------------===//

int Failures = 0;

void Expect(bool Cond, const char *What) {
  if (!Cond) {
    std::fprintf(stderr, "FAIL: %s\n", What);
    ++Failures;
  }
}

/// A minimal valid document for mutation tests.
std::string validDoc() {
  std::string Telemetry;
  for (const std::string &Key : telemetryKeys())
    Telemetry += (Telemetry.empty() ? "\"" : ",\"") + Key + "\":0";
  return R"({"schema":"lvish-bench-v1","name":"t","git_rev":"abc",)"
         R"("config":{},"series":[{"name":"s","config":{},)"
         R"("times_sec":[0.5,0.25],"median_sec":0.5,"min_sec":0.25,)"
         R"("stddev_sec":0.1,"metrics":{}}],)"
         R"("scheduler_stats":{"tasks_created":3,"tasks_executed":3,)"
         R"("local_pops":1,"steal_attempts":0,"steals":0,"parks":0,)"
         R"("wakes":0,"max_deque_depth":1,"num_workers":1},)"
         R"("telemetry":{)" +
         Telemetry + "}}";
}

int problemCount(const std::string &Text) {
  JsonValue Doc;
  if (!JsonValue::parse(Text, Doc))
    return -1;
  Problems P;
  validateDoc(Doc, P);
  return static_cast<int>(P.List.size());
}

int selfTest() {
  Expect(problemCount(validDoc()) == 0, "valid document passes");
  {
    std::string Bad = validDoc();
    Bad.replace(Bad.find("lvish-bench-v1"), 14, "lvish-bench-v9");
    Expect(problemCount(Bad) > 0, "wrong schema tag is rejected");
  }
  {
    std::string Bad = validDoc();
    Bad.replace(Bad.find("\"tasks_created\":3"), 17, "\"tasks_created\":0");
    Expect(problemCount(Bad) > 0, "empty scheduler stats are rejected");
  }
  {
    std::string Bad = validDoc();
    Bad.replace(Bad.find("\"min_sec\":0.25"), 14, "\"min_sec\":0.75");
    Expect(problemCount(Bad) > 0, "min_sec must match times_sec");
  }
  {
    std::string Bad = validDoc();
    Bad.replace(Bad.find("\"series\":["), 10, "\"series2\":[");
    Expect(problemCount(Bad) > 0, "missing series is rejected");
  }
  {
    std::string Bad = validDoc();
    Bad.replace(Bad.find("\"puts\":0"), 8, "\"putz\":0");
    Expect(problemCount(Bad) > 0, "a missing telemetry counter is rejected");
  }
  Expect(problemCount("[1,2]") > 0, "non-object top level is rejected");
  Expect(problemCount("{") == -1, "parse failure is reported");

  // -- diff join semantics -------------------------------------------------
  auto MakeDoc = [](const std::string &SeriesJson) {
    JsonValue Doc;
    std::string Text = R"({"schema":"lvish-bench-v1","series":)" +
                       SeriesJson + "}";
    Expect(JsonValue::parse(Text, Doc), "diff fixture parses");
    return Doc;
  };
  {
    // Overlap + one-sided rows: a new suite diffed against an older
    // baseline must produce rows (not an error) for both directions.
    JsonValue Old = MakeDoc(
        R"([{"name":"shared","median_sec":1.0},)"
        R"({"name":"retired","median_sec":2.0}])");
    JsonValue New = MakeDoc(
        R"([{"name":"shared","median_sec":1.5},)"
        R"({"name":"fresh","median_sec":3.0}])");
    std::vector<DiffRow> Rows = buildDiff(Old, New);
    Expect(Rows.size() == 3, "diff joins to shared + new-only + old-only");
    int Shared = 0, NewOnly = 0, OldOnly = 0;
    for (const DiffRow &R : Rows) {
      if (R.InOld && R.InNew)
        ++Shared;
      else if (R.InNew)
        ++NewOnly;
      else
        ++OldOnly;
    }
    Expect(Shared == 1 && NewOnly == 1 && OldOnly == 1,
           "diff classifies one-sided rows");
    Expect(countRegressions(Rows, 10.0) == 1,
           "shared row regressed beyond threshold");
    Expect(countRegressions(Rows, 60.0) == 0,
           "one-sided rows never count as regressions");
  }
  {
    // Fully disjoint scenario sets: every row one-sided, zero
    // regressions - the "new suite vs old baseline" shape.
    JsonValue Old = MakeDoc(R"([{"name":"a","median_sec":1.0}])");
    JsonValue New = MakeDoc(R"([{"name":"b","median_sec":9.0}])");
    std::vector<DiffRow> Rows = buildDiff(Old, New);
    Expect(Rows.size() == 2, "disjoint sets keep both rows");
    Expect(countRegressions(Rows, 0.0) == 0, "disjoint sets cannot regress");
  }
  {
    // Missing series arrays on either side are tolerated, not errors.
    JsonValue Empty = MakeDoc("[]");
    JsonValue None;
    Expect(JsonValue::parse(R"({"schema":"lvish-bench-v1"})", None),
           "no-series fixture parses");
    Expect(buildDiff(Empty, None).empty(), "empty vs missing series is empty");
    JsonValue Some = MakeDoc(R"([{"name":"a","median_sec":1.0}])");
    Expect(buildDiff(None, Some).size() == 1,
           "missing old series still lists new rows");
    Expect(buildDiff(Some, None).size() == 1,
           "missing new series still lists old rows");
  }

  if (Failures) {
    std::fprintf(stderr, "bench-report --self-test: %d failure(s)\n",
                 Failures);
    return 1;
  }
  std::printf("bench-report --self-test: all tests passed\n");
  return 0;
}

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s validate FILE.json...\n"
               "       %s diff OLD.json NEW.json [--threshold PCT]\n"
               "       %s --self-test\n",
               Argv0, Argv0, Argv0);
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 2 && std::strcmp(Argv[1], "--self-test") == 0)
    return selfTest();
  if (Argc >= 3 && std::strcmp(Argv[1], "validate") == 0) {
    std::vector<std::string> Files;
    for (int I = 2; I < Argc; ++I)
      Files.push_back(Argv[I]);
    return cmdValidate(Files);
  }
  if (Argc >= 4 && std::strcmp(Argv[1], "diff") == 0) {
    double Threshold = 0;
    bool HaveThreshold = false;
    for (int I = 4; I < Argc; ++I) {
      if (std::strcmp(Argv[I], "--threshold") == 0 && I + 1 < Argc) {
        Threshold = std::atof(Argv[++I]);
        HaveThreshold = true;
      } else {
        usage(Argv[0]);
        return 2;
      }
    }
    return cmdDiff(Argv[2], Argv[3], Threshold, HaveThreshold);
  }
  usage(Argv[0]);
  return 2;
}
