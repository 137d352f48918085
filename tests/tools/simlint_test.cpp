// Tests for the simlint static analysis pass: each rule class must catch
// its deliberate violation (negative fixtures + inline snippets), waivers
// and baselines must behave, and clean code must stay clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "tools/simlint/driver.hpp"
#include "tools/simlint/lexer.hpp"
#include "tools/simlint/rules.hpp"

#ifndef TFSIM_SOURCE_DIR
#error "TFSIM_SOURCE_DIR must point at the repo root"
#endif

namespace tfsim::simlint {
namespace {

constexpr RuleScope kAllRules{true, true, true, true, true};

std::vector<Finding> lint_snippet(const std::string& code) {
  const LexedFile lf = lex(code);
  AnalysisContext ctx = default_context();
  collect(lf, ctx);
  collect(lf, ctx);  // second sweep resolves aliases declared after use
  return analyze("snippet.cpp", lf, kAllRules, ctx);
}

bool has_rule(const std::vector<Finding>& fs, const std::string& rule) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

std::vector<Finding> lint_fixture(const std::string& name) {
  DriverConfig cfg;
  cfg.root = TFSIM_SOURCE_DIR;
  cfg.extra_files = {"tools/simlint/testdata/" + name};
  const RunResult r = run(cfg);
  std::vector<Finding> out;
  for (const Finding& f : r.findings) {
    if (f.file.find("testdata/" + name) != std::string::npos) {
      out.push_back(f);
    }
  }
  return out;
}

// ---- lexer -------------------------------------------------------------

TEST(SimlintLexerTest, TokenizesAndStripsComments) {
  const LexedFile lf = lex("int x = 42; // comment\n/* block */ y();\n");
  std::vector<std::string> texts;
  for (const Token& t : lf.tokens) texts.push_back(t.text);
  EXPECT_EQ(texts, (std::vector<std::string>{"int", "x", "=", "42", ";", "y",
                                             "(", ")", ";"}));
}

TEST(SimlintLexerTest, RawStringsAndCharLiteralsDoNotConfuse) {
  const LexedFile lf = lex(
      "auto s = R\"x(rand() \"quote)x\";\n"
      "char c = '\\'';\n"
      "auto t = \"time(nullptr)\";\n");
  // Banned calls inside literals must not produce identifier tokens.
  for (const Token& t : lf.tokens) {
    EXPECT_NE(t.kind == TokKind::kIdent && t.text == "rand", true);
    EXPECT_NE(t.kind == TokKind::kIdent && t.text == "time", true);
  }
}

TEST(SimlintLexerTest, SuppressionCommentsAreRecorded) {
  const LexedFile lf = lex(
      "// simlint: allow(R3): reasoned waiver\n"
      "int g = 0;\n"
      "// simlint: allow-file(R2): whole-file waiver\n");
  ASSERT_EQ(lf.suppressions.size(), 2u);
  EXPECT_EQ(lf.suppressions[0].rule, "R3");
  EXPECT_EQ(lf.suppressions[0].line, 1);
  EXPECT_FALSE(lf.suppressions[0].whole_file);
  EXPECT_EQ(lf.suppressions[1].rule, "R2");
  EXPECT_TRUE(lf.suppressions[1].whole_file);
}

// ---- rule classes on inline snippets -----------------------------------

TEST(SimlintRulesTest, R1CatchesWallClockAndAmbientRandomness) {
  EXPECT_TRUE(has_rule(lint_snippet("#include <chrono>\n"), "R1"));
  EXPECT_TRUE(has_rule(
      lint_snippet("auto t0 = std::chrono::steady_clock::now();\n"), "R1"));
  EXPECT_TRUE(has_rule(lint_snippet("int r = rand() % 7;\n"), "R1"));
  EXPECT_TRUE(has_rule(lint_snippet("std::random_device rd;\n"), "R1"));
  EXPECT_TRUE(has_rule(lint_snippet("long t = time(nullptr);\n"), "R1"));
}

TEST(SimlintRulesTest, R1IgnoresMethodsAndMembersNamedLikeBannedCalls) {
  // obj.time(), Clock::time(), and fields named `time` are not libc time().
  EXPECT_FALSE(has_rule(lint_snippet("auto v = obj.time();\n"), "R1"));
  EXPECT_FALSE(has_rule(lint_snippet("auto v = sim::Clock::time();\n"), "R1"));
  EXPECT_FALSE(has_rule(lint_snippet("double time = 0.5;\n"), "R1"));
  EXPECT_FALSE(has_rule(lint_snippet("stats.record(t.time);\n"), "R1"));
}

TEST(SimlintRulesTest, R2CatchesUnorderedIterationIncludingAliases) {
  EXPECT_TRUE(has_rule(
      lint_snippet("std::unordered_map<int, int> m;\n"
                   "void f() { for (const auto& [k, v] : m) use(k, v); }\n"),
      "R2"));
  EXPECT_TRUE(has_rule(
      lint_snippet("std::unordered_set<int> s;\n"
                   "void f() { for (auto it = s.begin(); it != s.end(); ++it)"
                   " use(*it); }\n"),
      "R2"));
  // Alias laundering must not help.
  EXPECT_TRUE(has_rule(
      lint_snippet("using Index = std::unordered_map<int, int>;\n"
                   "Index idx;\n"
                   "void f() { for (const auto& [k, v] : idx) use(k, v); }\n"),
      "R2"));
}

TEST(SimlintRulesTest, R2AllowsOrderedIterationAndKeyedLookup) {
  EXPECT_FALSE(has_rule(
      lint_snippet("std::map<int, int> m;\n"
                   "void f() { for (const auto& [k, v] : m) use(k, v); }\n"),
      "R2"));
  EXPECT_FALSE(has_rule(
      lint_snippet("std::unordered_map<int, int> m;\n"
                   "int f(int k) { return m.count(k) ? m.at(k) : 0; }\n"),
      "R2"));
}

TEST(SimlintRulesTest, R3CatchesMutableGlobalsAndStatics) {
  EXPECT_TRUE(has_rule(lint_snippet("namespace x {\nint g_count = 0;\n}\n"),
                       "R3"));
  EXPECT_TRUE(has_rule(
      lint_snippet("struct S {\n  static int live;\n};\n"), "R3"));
  EXPECT_TRUE(has_rule(
      lint_snippet("int f() {\n  static int calls = 0;\n  return ++calls;\n}\n"),
      "R3"));
}

TEST(SimlintRulesTest, R3AllowsImmutableGlobals) {
  EXPECT_FALSE(has_rule(lint_snippet("constexpr int kMax = 4;\n"), "R3"));
  EXPECT_FALSE(has_rule(
      lint_snippet("const std::string kName = \"x\";\n"), "R3"));
  EXPECT_FALSE(has_rule(
      lint_snippet("constexpr const char* kNames[] = {\"a\", \"b\"};\n"),
      "R3"));
}

TEST(SimlintRulesTest, R4CatchesPointerKeysAndPointerToIntCasts) {
  EXPECT_TRUE(has_rule(
      lint_snippet("std::map<Node*, int> owners;\n"), "R4"));
  EXPECT_TRUE(has_rule(
      lint_snippet("std::unordered_set<const Wire*> seen;\n"), "R4"));
  EXPECT_TRUE(has_rule(
      lint_snippet("auto h = reinterpret_cast<std::uintptr_t>(p);\n"), "R4"));
}

TEST(SimlintRulesTest, R4AllowsPointerValuesAndIdKeys) {
  EXPECT_FALSE(has_rule(
      lint_snippet("std::map<std::uint32_t, Node*> by_id;\n"), "R4"));
  EXPECT_FALSE(has_rule(
      lint_snippet("auto* p = reinterpret_cast<Node*>(storage);\n"), "R4"));
}

TEST(SimlintRulesTest, R5RequiresAnnotationOnOwnedClasses) {
  EXPECT_TRUE(has_rule(
      lint_snippet("class Dram {\n public:\n  void access();\n};\n"), "R5"));
  EXPECT_FALSE(has_rule(
      lint_snippet("class Dram {\n public:\n  void access();\n"
                   "  TFSIM_DOMAIN_OWNED\n};\n"),
      "R5"));
  // Classes outside the ownership set need no annotation.
  EXPECT_FALSE(has_rule(
      lint_snippet("class Helper {\n public:\n  void run();\n};\n"), "R5"));
}

TEST(SimlintRulesTest, R5ForbidsPublicMutableMembersOnAnnotatedClasses) {
  EXPECT_TRUE(has_rule(
      lint_snippet("class Dram {\n public:\n  int hits = 0;\n"
                   "  TFSIM_DOMAIN_OWNED\n};\n"),
      "R5"));
  EXPECT_FALSE(has_rule(
      lint_snippet("class Dram {\n public:\n  void access();\n"
                   "  TFSIM_DOMAIN_OWNED\n private:\n  int hits_ = 0;\n};\n"),
      "R5"));
}

TEST(SimlintRulesTest, WaiversSuppressOnExactAndPreviousLine) {
  EXPECT_FALSE(has_rule(
      lint_snippet("// simlint: allow(R3): test waiver\nint g_state = 0;\n"),
      "R3"));
  EXPECT_FALSE(has_rule(
      lint_snippet("int g_state = 0;  // simlint: allow(R3): same line\n"),
      "R3"));
  EXPECT_TRUE(has_rule(
      lint_snippet("// simlint: allow(R1): wrong rule\nint g_state = 0;\n"),
      "R3"))
      << "a waiver names one rule; others still fire";
  EXPECT_FALSE(has_rule(
      lint_snippet("// simlint: allow-file(R3): whole file\n"
                   "int g_a = 0;\nint g_b = 0;\n"),
      "R3"));
}

// ---- negative fixtures through the driver ------------------------------

TEST(SimlintDriverTest, EachRuleClassFailsItsFixture) {
  const std::pair<const char*, const char*> cases[] = {
      {"R1", "bad_r1.cpp"}, {"R2", "bad_r2.cpp"}, {"R3", "bad_r3.cpp"},
      {"R4", "bad_r4.cpp"}, {"R5", "bad_r5.cpp"}};
  for (const auto& [rule, name] : cases) {
    const std::vector<Finding> fs = lint_fixture(name);
    EXPECT_TRUE(has_rule(fs, rule)) << name << " must trigger " << rule;
    for (const Finding& f : fs) {
      EXPECT_EQ(f.rule, rule) << name << " triggered a foreign rule: "
                              << f.to_string();
    }
  }
}

TEST(SimlintDriverTest, CleanFixtureStaysClean) {
  EXPECT_TRUE(lint_fixture("clean.cpp").empty());
}

TEST(SimlintDriverTest, RepoTreeIsCleanAgainstBaseline) {
  DriverConfig cfg;
  cfg.root = TFSIM_SOURCE_DIR;
  cfg.baseline_path = std::string(TFSIM_SOURCE_DIR) +
                      "/tools/simlint/baseline.txt";
  const RunResult r = run(cfg);
  EXPECT_TRUE(r.ok()) << render_report(r);
  EXPECT_GT(r.files_scanned, 100u) << "tree sweep must actually scan";
  EXPECT_TRUE(r.stale_baseline.empty()) << render_report(r);
}

TEST(SimlintDriverTest, BaselineAbsorbsKnownFindingsAndReportsStale) {
  const std::string dir = ::testing::TempDir();
  const std::string baseline = dir + "/simlint_baseline_test.txt";
  // First run without a baseline to learn the fixture's keys.
  DriverConfig cfg;
  cfg.root = TFSIM_SOURCE_DIR;
  cfg.extra_files = {"tools/simlint/testdata/bad_r3.cpp"};
  const RunResult before = run(cfg);
  ASSERT_FALSE(before.ok());

  {
    std::ofstream out(baseline);
    out << "# test baseline\n";
    for (const Finding& f : before.new_findings) out << f.key() << "\n";
    out << "R9 gone/file.cpp global:never_existed\n";  // stale entry
  }
  cfg.baseline_path = baseline;
  const RunResult after = run(cfg);
  EXPECT_TRUE(after.ok()) << "baselined findings must not fail the run";
  ASSERT_EQ(after.stale_baseline.size(), 1u);
  EXPECT_EQ(after.stale_baseline.front(),
            "R9 gone/file.cpp global:never_existed");
  std::remove(baseline.c_str());
}

TEST(SimlintDriverTest, FindingKeysAreLineFree) {
  const std::vector<Finding> fs = lint_fixture("bad_r3.cpp");
  ASSERT_FALSE(fs.empty());
  for (const Finding& f : fs) {
    EXPECT_EQ(f.key().find(std::to_string(f.line) + ":"), std::string::npos)
        << "keys must survive line drift: " << f.key();
    EXPECT_NE(f.line, 0) << "the report itself still carries the line";
  }
}

TEST(SimlintDriverTest, ScopeForGatesRulesByPath) {
  EXPECT_TRUE(scope_for("src/sim/engine.cpp").r5);
  EXPECT_TRUE(scope_for("src/sim/engine.cpp").r1);
  EXPECT_FALSE(scope_for("tools/golden_runs.cpp").r5)
      << "tools hold no per-node sim state";
  EXPECT_TRUE(scope_for("tools/golden_runs.cpp").r2);
  EXPECT_FALSE(scope_for("tools/simlint/testdata/bad_r1.cpp").any())
      << "fixtures are only linted as explicit extra files";
  EXPECT_FALSE(scope_for("tests/sim/engine_test.cpp").any());
  EXPECT_FALSE(scope_for("bench/delay_bench.cpp").any());
}

}  // namespace
}  // namespace tfsim::simlint
