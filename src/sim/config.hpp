// Command-line configuration for benches and examples.
//
// Flags take the form --key=value or --key value; bare --key is a boolean.
// Every option is registered with a default and a help string, so each
// binary prints a self-describing --help.  Numeric and list options are
// checked when parsed: a value that is not wholly a number (or a
// comma-separated list of them) is rejected, naming the option and token.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tfsim::sim {

class ArgParser {
 public:
  explicit ArgParser(std::string program_description);

  /// Register options (call before parse()).
  void add_flag(const std::string& name, const std::string& help);
  void add_string(const std::string& name, const std::string& def,
                  const std::string& help);
  void add_int(const std::string& name, std::int64_t def, const std::string& help);
  void add_double(const std::string& name, double def, const std::string& help);
  /// Comma-separated lists; empty entries are skipped.
  void add_int_list(const std::string& name, const std::string& def,
                    const std::string& help);
  void add_double_list(const std::string& name, const std::string& def,
                       const std::string& help);

  /// Parse argv.  Returns false (after printing usage or the offending
  /// option and token) on --help, on an unknown option, or on a malformed
  /// int, real or list value.
  bool parse(int argc, const char* const* argv);

  bool flag(const std::string& name) const;
  std::string str(const std::string& name) const;
  std::int64_t integer(const std::string& name) const;
  double real(const std::string& name) const;

  /// An add_int_list option (e.g. --periods=1,10,100).
  std::vector<std::int64_t> int_list(const std::string& name) const;

  /// An add_double_list option (e.g. --delays-us=0.5,1,2.5).
  std::vector<double> double_list(const std::string& name) const;

  std::string usage() const;

 private:
  struct Option {
    enum class Kind { Flag, String, Int, Double, IntList, DoubleList } kind;
    std::string def;
    std::string help;
    std::optional<std::string> value;
  };
  const Option& lookup(const std::string& name, Option::Kind kind) const;

  std::string description_;
  std::string program_;
  std::map<std::string, Option> options_;
};

}  // namespace tfsim::sim
