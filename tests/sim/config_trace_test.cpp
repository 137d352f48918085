#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>

#include "sim/config.hpp"
#include "sim/trace.hpp"

namespace tfsim::sim {
namespace {

ArgParser make_parser() {
  ArgParser p("test program");
  p.add_flag("verbose", "enable verbosity");
  p.add_string("name", "default", "a name");
  p.add_int("count", 7, "a count");
  p.add_double("rate", 2.5, "a rate");
  p.add_int_list("list", "1,2,3", "a list");
  p.add_double_list("reals", "1,2,3", "a list of reals");
  return p;
}

TEST(ArgParserTest, DefaultsApply) {
  auto p = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_FALSE(p.flag("verbose"));
  EXPECT_EQ(p.str("name"), "default");
  EXPECT_EQ(p.integer("count"), 7);
  EXPECT_DOUBLE_EQ(p.real("rate"), 2.5);
}

TEST(ArgParserTest, EqualsSyntax) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--name=foo", "--count=42", "--rate=0.125",
                        "--verbose"};
  ASSERT_TRUE(p.parse(5, argv));
  EXPECT_TRUE(p.flag("verbose"));
  EXPECT_EQ(p.str("name"), "foo");
  EXPECT_EQ(p.integer("count"), 42);
  EXPECT_DOUBLE_EQ(p.real("rate"), 0.125);
}

TEST(ArgParserTest, SpaceSeparatedValue) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--count", "99"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.integer("count"), 99);
}

TEST(ArgParserTest, IntListParsing) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--list=10,20,30"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_EQ(p.int_list("list"), (std::vector<std::int64_t>{10, 20, 30}));
}

TEST(ArgParserTest, DefaultListUsedWhenAbsent) {
  auto p = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.int_list("list"), (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(ArgParserTest, DoubleListParsing) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--reals=0.5,2,12.25"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_EQ(p.double_list("reals"), (std::vector<double>{0.5, 2.0, 12.25}));
}

TEST(ArgParserTest, DoubleListDefaultAndEmptyEntries) {
  auto p = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.double_list("reals"), (std::vector<double>{1.0, 2.0, 3.0}));

  auto q = make_parser();
  const char* argv2[] = {"prog", "--reals=,1.5,,2.5,"};
  ASSERT_TRUE(q.parse(2, argv2));
  EXPECT_EQ(q.double_list("reals"), (std::vector<double>{1.5, 2.5}));
}

TEST(ArgParserTest, UnknownOptionRejected) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(p.parse(2, argv));
}

/// parse()'s verdict on one argument, with what it printed to stderr.
bool parse_one(const char* arg, std::string& err) {
  auto p = make_parser();
  const char* argv[] = {"prog", arg};
  testing::internal::CaptureStderr();
  const bool ok = p.parse(2, argv);
  err = testing::internal::GetCapturedStderr();
  return ok;
}

TEST(ArgParserTest, MalformedNumbersRejectedWithOptionAndToken) {
  struct Case {
    const char* arg;
    const char* option;
    const char* token;
  };
  for (const Case& c : {Case{"--count=abc", "--count", "'abc'"},
                        Case{"--count=2000x", "--count", "'2000x'"},
                        Case{"--count=1.5", "--count", "'1.5'"},
                        Case{"--count=", "--count", "''"},
                        Case{"--rate=0.5q", "--rate", "'0.5q'"},
                        Case{"--list=1,x", "--list", "'x'"},
                        Case{"--list=10,20z,30", "--list", "'20z'"},
                        Case{"--reals=0.5,abc", "--reals", "'abc'"}}) {
    std::string err;
    EXPECT_FALSE(parse_one(c.arg, err)) << c.arg;
    EXPECT_NE(err.find(c.option), std::string::npos) << c.arg << ": " << err;
    EXPECT_NE(err.find(c.token), std::string::npos) << c.arg << ": " << err;
  }
}

TEST(ArgParserTest, WellFormedNumbersAccepted) {
  for (const char* arg : {"--count=-3", "--rate=1e-3", "--list=", "--reals=-1"}) {
    std::string err;
    EXPECT_TRUE(parse_one(arg, err)) << arg << ": " << err;
  }
}

TEST(ArgParserTest, MalformedDefaultThrowsOnAccess) {
  ArgParser p("test program");
  p.add_int_list("list", "1,two", "a list");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_THROW(p.int_list("list"), std::logic_error);
}

TEST(ArgParserTest, HelpReturnsFalse) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParserTest, PositionalRejected) {
  auto p = make_parser();
  const char* argv[] = {"prog", "stray"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParserTest, MissingValueRejected) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--count"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParserTest, UnregisteredLookupThrows) {
  auto p = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_THROW(p.str("nope"), std::logic_error);
  EXPECT_THROW(p.flag("name"), std::logic_error);  // type mismatch
  EXPECT_THROW(p.int_list("reals"), std::logic_error);
}

TEST(ArgParserTest, UsageMentionsAllOptions) {
  auto p = make_parser();
  const auto u = p.usage();
  EXPECT_NE(u.find("--verbose"), std::string::npos);
  EXPECT_NE(u.find("--count"), std::string::npos);
}

// --- CSV -------------------------------------------------------------

TEST(CsvWriterTest, BasicRows) {
  CsvWriter csv;
  csv.header({"a", "b", "c"});
  csv.row().col(std::string("x")).col(1.5).col(std::uint64_t{42});
  EXPECT_EQ(csv.str(), "a,b,c\nx,1.5,42\n");
  EXPECT_EQ(csv.rows_written(), 1u);
}

TEST(CsvWriterTest, QuotingSpecialCharacters) {
  CsvWriter csv;
  csv.header({"v"});
  csv.row().col(std::string("has,comma"));
  csv.row().col(std::string("has\"quote"));
  EXPECT_EQ(csv.str(), "v\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST(CsvWriterTest, FileModeWritesToDisk) {
  const std::string path = ::testing::TempDir() + "/tfsim_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.header({"x"});
    csv.row().col(std::int64_t{-3});
  }
  std::ifstream in(path);
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "x\n-3\n");
}

TEST(CsvWriterTest, BadPathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"), std::runtime_error);
}

}  // namespace
}  // namespace tfsim::sim
