#include "sim/config.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace tfsim::sim {

namespace {

/// Parses the whole of `tok`: no sign-only, trailing or empty input.
template <typename T>
bool parse_number(const std::string& tok, T& out) {
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Parses `raw` as one T, or as a comma-separated list of them (empty
/// entries skipped).  On a malformed token returns false with it in `bad`.
template <typename T>
bool parse_numbers(const std::string& raw, bool list, std::vector<T>& out,
                   std::string& bad) {
  std::vector<std::string> tokens;
  if (list) {
    std::istringstream is(raw);
    std::string tok;
    while (std::getline(is, tok, ',')) {
      if (!tok.empty()) tokens.push_back(tok);
    }
  } else {
    tokens.push_back(raw);
  }
  for (const std::string& tok : tokens) {
    T v{};
    if (!parse_number(tok, v)) {
      bad = tok;
      return false;
    }
    out.push_back(v);
  }
  return true;
}

/// parse() has checked every value given on the command line, so a
/// malformed token here comes from a registered default.
template <typename T>
std::vector<T> numbers_of(const std::string& name, const std::string& raw,
                          bool list) {
  std::vector<T> out;
  std::string bad;
  if (!parse_numbers(raw, list, out, bad)) {
    throw std::logic_error("ArgParser: malformed default of --" + name +
                           ": '" + bad + "'");
  }
  return out;
}

}  // namespace

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description)) {}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  options_[name] = Option{Option::Kind::Flag, "false", help, std::nullopt};
}

void ArgParser::add_string(const std::string& name, const std::string& def,
                           const std::string& help) {
  options_[name] = Option{Option::Kind::String, def, help, std::nullopt};
}

void ArgParser::add_int(const std::string& name, std::int64_t def,
                        const std::string& help) {
  options_[name] = Option{Option::Kind::Int, std::to_string(def), help, std::nullopt};
}

void ArgParser::add_double(const std::string& name, double def,
                           const std::string& help) {
  std::ostringstream os;
  os << def;
  options_[name] = Option{Option::Kind::Double, os.str(), help, std::nullopt};
}

void ArgParser::add_int_list(const std::string& name, const std::string& def,
                             const std::string& help) {
  options_[name] = Option{Option::Kind::IntList, def, help, std::nullopt};
}

void ArgParser::add_double_list(const std::string& name,
                                const std::string& def,
                                const std::string& help) {
  options_[name] = Option{Option::Kind::DoubleList, def, help, std::nullopt};
}

bool ArgParser::parse(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "tfsim";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n%s", arg.c_str(),
                   usage().c_str());
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto it = options_.find(arg);
    if (it == options_.end()) {
      std::fprintf(stderr, "unknown option: --%s\n%s", arg.c_str(), usage().c_str());
      return false;
    }
    Option& opt = it->second;
    if (opt.kind == Option::Kind::Flag) {
      opt.value = has_value ? value : "true";
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "option --%s requires a value\n", arg.c_str());
        return false;
      }
      value = argv[++i];
    }
    std::vector<std::int64_t> ints;
    std::vector<double> reals;
    std::string bad;
    bool ok = true;
    switch (opt.kind) {
      case Option::Kind::Int:
        ok = parse_numbers(value, /*list=*/false, ints, bad);
        break;
      case Option::Kind::Double:
        ok = parse_numbers(value, /*list=*/false, reals, bad);
        break;
      case Option::Kind::IntList:
        ok = parse_numbers(value, /*list=*/true, ints, bad);
        break;
      case Option::Kind::DoubleList:
        ok = parse_numbers(value, /*list=*/true, reals, bad);
        break;
      case Option::Kind::Flag:
      case Option::Kind::String:
        break;
    }
    if (!ok) {
      std::fprintf(stderr, "option --%s: malformed value '%s'\n", arg.c_str(),
                   bad.c_str());
      return false;
    }
    opt.value = value;
  }
  return true;
}

const ArgParser::Option& ArgParser::lookup(const std::string& name,
                                           Option::Kind kind) const {
  auto it = options_.find(name);
  if (it == options_.end()) {
    throw std::logic_error("ArgParser: option not registered: " + name);
  }
  if (it->second.kind != kind) {
    throw std::logic_error("ArgParser: option type mismatch: " + name);
  }
  return it->second;
}

bool ArgParser::flag(const std::string& name) const {
  const auto& opt = lookup(name, Option::Kind::Flag);
  return opt.value.value_or(opt.def) == "true";
}

std::string ArgParser::str(const std::string& name) const {
  const auto& opt = lookup(name, Option::Kind::String);
  return opt.value.value_or(opt.def);
}

std::int64_t ArgParser::integer(const std::string& name) const {
  const auto& opt = lookup(name, Option::Kind::Int);
  return numbers_of<std::int64_t>(name, opt.value.value_or(opt.def), false)
      .front();
}

double ArgParser::real(const std::string& name) const {
  const auto& opt = lookup(name, Option::Kind::Double);
  return numbers_of<double>(name, opt.value.value_or(opt.def), false).front();
}

std::vector<std::int64_t> ArgParser::int_list(const std::string& name) const {
  const auto& opt = lookup(name, Option::Kind::IntList);
  return numbers_of<std::int64_t>(name, opt.value.value_or(opt.def), true);
}

std::vector<double> ArgParser::double_list(const std::string& name) const {
  const auto& opt = lookup(name, Option::Kind::DoubleList);
  return numbers_of<double>(name, opt.value.value_or(opt.def), true);
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << description_ << "\n\nOptions:\n";
  for (const auto& [name, opt] : options_) {
    os << "  --" << name;
    if (opt.kind != Option::Kind::Flag) os << "=<" << opt.def << ">";
    os << "\n      " << opt.help << "\n";
  }
  return os.str();
}

}  // namespace tfsim::sim
