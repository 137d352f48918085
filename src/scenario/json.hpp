// Minimal JSON value + recursive-descent parser for scenario files.
//
// Deliberately tiny and dependency-free: scenario files are small,
// hand-written configuration documents, so the parser favours precise
// error messages (line/column in every exception) over speed.  Supports
// the full JSON grammar except \uXXXX escapes beyond Latin-1; numbers are
// held as double plus the raw token so integers survive a round trip.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace tfsim::scenario {

/// Thrown on malformed input; .what() includes line:column.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Object members keep insertion order so a dump() round-trips a file in
  /// the author's order (and deterministically).
  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  Json() = default;
  static Json null() { return Json(); }
  static Json boolean(bool b);
  static Json number(double v);
  static Json string(std::string s);
  static Json array();
  static Json object();

  /// Parse a complete document; throws JsonError on any syntax error,
  /// trailing garbage, or nesting deeper than 64 arrays and objects.
  static Json parse(const std::string& text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw JsonError (with the member path unknown to the
  /// caller, so include context yourself) on kind mismatch.
  bool as_bool() const;
  double as_double() const;
  const std::string& as_string() const;
  const Array& items() const;
  const Object& members() const;

  // --- object helpers ---------------------------------------------------
  /// Member lookup; nullptr when absent (or not an object).
  const Json* find(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }
  /// Insert or replace a member (builder API).
  Json& set(const std::string& key, Json value);

  // --- array helpers ----------------------------------------------------
  Json& push(Json value);

  /// Serialize.  indent < 0: compact one-liner; otherwise pretty-printed
  /// with that many spaces per level.  Deterministic (insertion order).
  std::string dump(int indent = 2) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string raw_num_;  ///< original token (or canonical form) for dump()
  std::string str_;
  Array arr_;
  Object obj_;

  void dump_to(std::string& out, int indent, int depth) const;
};

}  // namespace tfsim::scenario
