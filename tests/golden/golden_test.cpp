// Golden digest table: every reference run (golden::reference_runs) must
// reproduce its row of tests/golden/digests.txt exactly -- the FNV-1a
// digest of its canonical serialization, the events it executed and the
// lookahead windows it opened.  Each run executes twice in this process
// before the comparison: two rows that differ expose nondeterminism (pointer
// order, padding, unordered iteration) that one run per process could pin
// by accident.  A run that moved (a deliberate model change or a
// regression) fails with the replacement row printed, so an intended change
// lands as a reviewed diff of the table.
#include <gtest/gtest.h>

#include <exception>
#include <map>
#include <set>
#include <string>

#include "golden_runs.hpp"

namespace tfsim::golden {
namespace {

TEST(GoldenTableTest, EveryReferenceRunMatchesItsRow) {
  const std::map<std::string, Row> table = read_table();
  std::set<std::string> seen;
  for (const auto& [name, produce] : reference_runs()) {
    seen.insert(name);
    Row actual;
    Row again;
    try {
      actual = produce();
      again = produce();
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << " failed: " << e.what();
      continue;
    }
    if (!(actual == again)) {
      ADD_FAILURE() << "two runs of " << name << " diverged:\n  first:  "
                    << format_row(name, actual)
                    << "\n  second: " << format_row(name, again);
      continue;
    }
    const auto it = table.find(name);
    if (it == table.end()) {
      ADD_FAILURE() << "no golden row for " << name << "; add:\n"
                    << format_row(name, actual);
    } else if (!(it->second == actual)) {
      ADD_FAILURE() << "golden row moved:\n  table:  "
                    << format_row(name, it->second)
                    << "\n  replace with:\n" << format_row(name, actual);
    }
  }
  for (const auto& [name, row] : table) {
    EXPECT_TRUE(seen.count(name) != 0)
        << "stale golden row (no reference run): " << format_row(name, row);
  }
}

}  // namespace
}  // namespace tfsim::golden
