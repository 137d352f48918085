#include "scenario/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace tfsim::scenario {

namespace {

/// Canonical number rendering: integers without a decimal point, floats
/// with enough digits to round-trip.
std::string render_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest representation that round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char trial[40];
    std::snprintf(trial, sizeof(trial), "%.*g", prec, v);
    if (std::strtod(trial, nullptr) == v) return trial;
  }
  return buf;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw JsonError("json: " + msg + " at line " + std::to_string(line) +
                    ":" + std::to_string(col));
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char take() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        // Allow // line comments: scenario files are hand-edited configs.
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  void expect_literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        fail(std::string("expected '") + lit + "'");
      }
      ++pos_;
    }
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        // Scenario files nest about five levels deep; the cap keeps a
        // hostile document from overflowing this recursive descent.
        if (++depth_ > kMaxDepth) fail("nesting deeper than 64 levels");
        Json v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Json::string(parse_string());
      case 't': expect_literal("true"); return Json::boolean(true);
      case 'f': expect_literal("false"); return Json::boolean(false);
      case 'n': expect_literal("null"); return Json::null();
      default: return parse_number();
    }
  }

  std::string parse_string() {
    if (take() != '"') fail("expected '\"'");
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char e = take();
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode (basic multilingual plane only; no surrogates).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("expected a value");
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("digit expected after '.'");
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("digit expected in exponent");
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    const std::string tok = text_.substr(start, pos_ - start);
    Json v = Json::number(std::strtod(tok.c_str(), nullptr));
    return v;
  }

  Json parse_array() {
    take();  // '['
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  Json parse_object() {
    take();  // '{'
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected string key in object");
      std::string key = parse_string();
      if (obj.has(key)) fail("duplicate key \"" + key + "\"");
      skip_ws();
      if (take() != ':') fail("expected ':' after object key");
      obj.set(key, parse_value());
      skip_ws();
      const char c = take();
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  static constexpr int kMaxDepth = 64;

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::boolean(bool b) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = b;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.num_ = v;
  j.raw_num_ = render_number(v);
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.kind_ = Kind::kString;
  j.str_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) throw JsonError("json: expected a boolean");
  return bool_;
}

double Json::as_double() const {
  if (kind_ != Kind::kNumber) throw JsonError("json: expected a number");
  return num_;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) throw JsonError("json: expected a string");
  return str_;
}

const Json::Array& Json::items() const {
  if (kind_ != Kind::kArray) throw JsonError("json: expected an array");
  return arr_;
}

const Json::Object& Json::members() const {
  if (kind_ != Kind::kObject) throw JsonError("json: expected an object");
  return obj_;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::set(const std::string& key, Json value) {
  if (kind_ != Kind::kObject) throw JsonError("json: set() on non-object");
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return v;
    }
  }
  obj_.emplace_back(key, std::move(value));
  return obj_.back().second;
}

Json& Json::push(Json value) {
  if (kind_ != Kind::kArray) throw JsonError("json: push() on non-array");
  arr_.push_back(std::move(value));
  return arr_.back();
}

namespace {
void dump_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}
}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const std::string pad = pretty ? std::string(static_cast<std::size_t>(indent) *
                                               (static_cast<std::size_t>(depth) + 1), ' ')
                                 : std::string();
  const std::string close_pad =
      pretty ? std::string(static_cast<std::size_t>(indent) *
                           static_cast<std::size_t>(depth), ' ')
             : std::string();
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: out += raw_num_.empty() ? render_number(num_) : raw_num_; break;
    case Kind::kString: dump_string(out, str_); break;
    case Kind::kArray: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      // Arrays of scalars stay on one line even in pretty mode.
      bool scalar = true;
      for (const auto& v : arr_) {
        if (v.is_array() || v.is_object()) scalar = false;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out.push_back(',');
        if (pretty && !scalar) {
          out.push_back('\n');
          out += pad;
        } else if (i > 0 && pretty) {
          out.push_back(' ');
        }
        arr_[i].dump_to(out, scalar ? -1 : indent, depth + 1);
      }
      if (pretty && !scalar) {
        out.push_back('\n');
        out += close_pad;
      }
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i > 0) out.push_back(',');
        if (pretty) {
          out.push_back('\n');
          out += pad;
        }
        dump_string(out, obj_[i].first);
        out += pretty ? ": " : ":";
        obj_[i].second.dump_to(out, indent, depth + 1);
      }
      if (pretty) {
        out.push_back('\n');
        out += close_pad;
      }
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

}  // namespace tfsim::scenario
