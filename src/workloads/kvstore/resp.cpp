#include "workloads/kvstore/resp.hpp"

#include <charconv>

namespace tfsim::workloads::kv {

namespace {
/// One RESP line: `type`, `body`, CRLF.  Appended piecewise: gcc 12 at -O3
/// flags `"x" + std::string` with a false -Wrestrict.
std::string resp_line(char type, const std::string& body) {
  std::string out(1, type);
  out.append(body).append("\r\n");
  return out;
}
}  // namespace

std::string resp_encode_command(const std::vector<std::string>& parts) {
  std::string out = resp_line('*', std::to_string(parts.size()));
  for (const auto& p : parts) out.append(resp_encode_bulk(p));
  return out;
}

std::string resp_encode_simple(const std::string& s) {
  return resp_line('+', s);
}
std::string resp_encode_error(const std::string& s) {
  return resp_line('-', s);
}
std::string resp_encode_bulk(const std::string& s) {
  std::string out = resp_line('$', std::to_string(s.size()));
  out.append(s).append("\r\n");
  return out;
}
std::string resp_encode_null() { return "$-1\r\n"; }
std::string resp_encode_integer(std::int64_t v) {
  return resp_line(':', std::to_string(v));
}

namespace {
/// Parse "<digits>\r\n" starting at pos; returns value and advances pos.
std::optional<std::int64_t> parse_int_line(const std::string& data,
                                           std::size_t& pos) {
  const std::size_t eol = data.find("\r\n", pos);
  if (eol == std::string::npos) return std::nullopt;
  std::int64_t value = 0;
  const char* begin = data.data() + pos;
  const char* end = data.data() + eol;
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  pos = eol + 2;
  return value;
}
}  // namespace

std::optional<ParsedCommand> resp_parse_command(const std::string& data,
                                                std::string* error) {
  const auto fail = [&](const char* msg) -> std::optional<ParsedCommand> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  if (data.empty()) return std::nullopt;
  if (data[0] != '*') return fail("expected array");
  std::size_t pos = 1;
  const auto count = parse_int_line(data, pos);
  if (!count.has_value()) return std::nullopt;
  if (*count < 0 || *count > 1024) return fail("bad array length");

  ParsedCommand cmd;
  for (std::int64_t i = 0; i < *count; ++i) {
    if (pos >= data.size()) return std::nullopt;
    if (data[pos] != '$') return fail("expected bulk string");
    ++pos;
    const auto len = parse_int_line(data, pos);
    if (!len.has_value()) return std::nullopt;
    if (*len < 0) return fail("negative bulk length");
    if (pos + static_cast<std::size_t>(*len) + 2 > data.size()) {
      return std::nullopt;  // incomplete
    }
    cmd.parts.push_back(data.substr(pos, static_cast<std::size_t>(*len)));
    pos += static_cast<std::size_t>(*len);
    if (data.compare(pos, 2, "\r\n") != 0) return fail("missing CRLF");
    pos += 2;
  }
  cmd.consumed = pos;
  return cmd;
}

}  // namespace tfsim::workloads::kv
