// simlint rule catalog: simulator-safety invariants checked at the source
// level, clearing the runway for PDES (ROADMAP item 2).  A partitioned
// engine is only correct if no sim-path code depends on wall-clock time,
// ambient RNG, pointer values, unordered-container iteration order, or
// state shared across node partitions -- the properties the golden
// table's run-twice check can only probe end-to-end.  simlint makes
// them build-time errors:
//
//   R1  no wall-clock / ambient randomness in sim paths: std::chrono,
//       <ctime>/<random> includes, time()/clock()/rand()/srand(),
//       std::random_device, std:: engines and distributions.  Only the
//       seeded sim::Rng / SplitMix64 are legal randomness sources.
//   R2  no iteration over std::unordered_{map,set,multimap,multiset}
//       (range-for or .begin()): iteration order is hash-seed dependent
//       and must never feed event ordering, metrics digests, or
//       serialized output.  Use std::map or sort before iterating.
//   R3  no mutable namespace-scope globals, class statics, or
//       function-local statics: hidden shared state breaks partition
//       isolation and replay.  constexpr/constinit/const are fine.
//   R4  no pointer-valued keys in maps/sets/hashes and no
//       pointer-to-integer casts (reinterpret_cast/bit_cast to
//       [u]intptr_t): pointer values are ASLR-dependent and must never
//       feed hashing or ordering.
//   R5  domain-ownership discipline: the classes holding per-node sim
//       state (the configured "owned" set) must carry the
//       TFSIM_DOMAIN_OWNED annotation (sim/domain.hpp), and annotated
//       classes must not expose public mutable data members -- all
//       mutation has to flow through methods the runtime DomainChecker
//       can audit.
//
// Waivers: `// simlint: allow(R3): reason` on the finding's line or the
// line above; `// simlint: allow-file(R2): reason` anywhere in the file.
// Pre-existing findings live in tools/simlint/baseline.txt (burned down
// explicitly); anything new fails the build.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace tfsim::simlint {

struct Finding {
  std::string rule;    ///< "R1".."R5"
  std::string file;    ///< root-relative path
  int line = 0;
  std::string symbol;  ///< stable identifier (survives line drift)
  std::string message;

  /// Baseline key: deliberately line-free so refactors that move a
  /// baselined violation do not churn the baseline.
  std::string key() const { return rule + " " + file + " " + symbol; }
  std::string to_string() const;
};

/// Which rules apply to a file (the driver derives this from its path).
struct RuleScope {
  bool r1 = false, r2 = false, r3 = false, r4 = false, r5 = false;
  bool any() const { return r1 || r2 || r3 || r4 || r5; }
};

/// Cross-file knowledge assembled in a first pass over every file.
struct AnalysisContext {
  /// Variables (incl. members) declared with an unordered container type
  /// anywhere in the tree: a header may declare what a .cpp iterates.
  std::set<std::string> unordered_vars;
  /// Type aliases that resolve to unordered containers.
  std::set<std::string> unordered_types;
  /// Classes that must carry TFSIM_DOMAIN_OWNED (R5).
  std::set<std::string> domain_required;
};

/// Default R5 ownership set: the classes holding per-node mutable sim
/// state, kept in sync with the runtime annotations in src/.
AnalysisContext default_context();

/// Pass 1: harvest declarations from one file into `ctx`.
void collect(const LexedFile& lexed, AnalysisContext& ctx);

/// Pass 2: run every rule in `scope` over one file.  Suppressions recorded
/// by the lexer are already honoured; returned findings are real.
std::vector<Finding> analyze(const std::string& file, const LexedFile& lexed,
                             const RuleScope& scope,
                             const AnalysisContext& ctx);

}  // namespace tfsim::simlint
