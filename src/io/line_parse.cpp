#include "io/line_parse.hpp"

#include <charconv>

namespace apc::io {

namespace {

/// The C locale's isspace set.
bool is_token_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Returns the next token of `line` at or after `pos` and advances `pos`
/// past it; an empty view at the end of the line or at a '#' token.
std::string_view next_token(std::string_view line, std::size_t& pos) {
  while (pos < line.size() && is_token_space(line[pos])) ++pos;
  const std::size_t first = pos;
  while (pos < line.size() && !is_token_space(line[pos])) ++pos;
  if (first == pos || line[first] == '#') {
    pos = line.size();  // end of line, or a comment that runs to it
    return {};
  }
  return line.substr(first, pos - first);
}

}  // namespace

void parse_fail(std::size_t line, const std::string& msg) {
  throw Error(ErrorCode::kParse, "line " + std::to_string(line) + ": " + msg);
}

bool valid_utf8(std::string_view s) {
  const auto* p = reinterpret_cast<const unsigned char*>(s.data());
  const std::size_t n = s.size();
  for (std::size_t i = 0; i < n;) {
    const unsigned char c = p[i];
    std::size_t len;
    std::uint32_t cp;
    if (c < 0x80) {
      ++i;
      continue;
    } else if ((c & 0xE0) == 0xC0) {
      len = 2;
      cp = c & 0x1F;
    } else if ((c & 0xF0) == 0xE0) {
      len = 3;
      cp = c & 0x0F;
    } else if ((c & 0xF8) == 0xF0) {
      len = 4;
      cp = c & 0x07;
    } else {
      return false;
    }
    if (i + len > n) return false;
    for (std::size_t k = 1; k < len; ++k) {
      if ((p[i + k] & 0xC0) != 0x80) return false;
      cp = (cp << 6) | (p[i + k] & 0x3F);
    }
    if ((len == 2 && cp < 0x80) || (len == 3 && cp < 0x800) ||
        (len == 4 && cp < 0x10000))
      return false;  // overlong encoding
    if (cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) return false;
    i += len;
  }
  return true;
}

void check_line(std::string_view line, std::size_t lineno) {
  if (line.size() > kMaxLineBytes)
    parse_fail(lineno,
               "line exceeds " + std::to_string(kMaxLineBytes) + " bytes");
  if (!valid_utf8(line)) parse_fail(lineno, "invalid UTF-8 (binary data?)");
}

std::size_t tokenize(std::string_view line, std::string_view* out, std::size_t max) {
  std::size_t n = 0;
  std::size_t pos = 0;
  for (std::string_view tok = next_token(line, pos); !tok.empty();
       tok = next_token(line, pos)) {
    if (n < max) out[n] = tok;
    ++n;
  }
  return n;
}

std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> out(tokenize(line, nullptr, 0));
  tokenize(line, out.data(), out.size());
  return out;
}

std::uint32_t parse_uint(std::string_view s, std::size_t line, const char* what,
                         std::uint64_t max) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc{} || ptr != s.data() + s.size())
    parse_fail(line, std::string("bad ") + what + ": " + std::string(s));
  if (v > max)
    parse_fail(line, std::string(what) + " out of range (max " +
                         std::to_string(max) + "): " + std::string(s));
  return static_cast<std::uint32_t>(v);
}

std::uint64_t parse_hex64(std::string_view s, std::size_t line, const char* what) {
  std::uint64_t v = 0;
  const char* const end = s.data() + s.size();
  if (s.empty() || s.size() > 16 || scan_hex64(s.data(), end, v) != end)
    parse_fail(line, std::string("bad ") + what + ": " + std::string(s));
  return v;
}

}  // namespace apc::io
