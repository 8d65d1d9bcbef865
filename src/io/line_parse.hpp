// Hardened helpers for line-oriented text protocols and file formats.
//
// Extracted from network_io.cpp so the TCP serving layer (src/server/) and
// the network-file reader parse with one set of rules: a 64 KiB line cap
// (anything longer is a binary blob or garbage, not a directive), structural
// UTF-8 validation, '#'-comment tokenization, and exception-free bounded
// integer parsing that rejects trailing garbage ("7abc") and out-of-range
// values instead of silently truncating.
//
// Everything works on std::string_view: tokens are views into the caller's
// line, so a well-formed line is parsed without touching the heap.
//
// Every failure is a typed apc::Error(kParse) carrying a line number.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace apc::io {

/// Maximum accepted length of one input line, in bytes.
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

/// Throws apc::Error(kParse, "line <line>: <msg>").
[[noreturn]] void parse_fail(std::size_t line, const std::string& msg);

/// Structural UTF-8 scan (RFC 3629: no overlongs, no surrogates,
/// <= U+10FFFF).  Inputs are ASCII by convention; this admits UTF-8 names
/// but rejects raw binary — the classic "loaded the wrong file" failure.
bool valid_utf8(std::string_view s);

/// Enforces the line cap and UTF-8 validity; throws kParse otherwise.
void check_line(std::string_view line, std::size_t lineno);

/// The tokenizer: splits `line` at the C locale's whitespace (space, \t,
/// \n, \v, \f, \r); a token starting with '#' ends the line.  Stores the
/// first `max` tokens, as views into `line`, in `out` and returns how many
/// the line holds, which may exceed `max` (the rest are counted, not
/// stored), so callers can reject a wrong arity exactly.
std::size_t tokenize(std::string_view line, std::string_view* out, std::size_t max);

/// Every token of `line`, as views into it.
std::vector<std::string_view> tokenize(std::string_view line);

/// Exception-free unsigned parse: the whole token must be digits and the
/// value must fit `max`.  Throws kParse with the line number otherwise.
std::uint32_t parse_uint(std::string_view s, std::size_t line, const char* what,
                         std::uint64_t max = 0xFFFFFFFFull);

/// Same contract for a full-width hexadecimal token (no "0x" prefix, 1-16
/// hex digits) — the wire form of packet-header words.
std::uint64_t parse_hex64(std::string_view s, std::size_t line, const char* what);

/// Value of each byte as a hex digit (either case), or 0xFF for a byte that
/// is not one.
inline constexpr std::array<std::uint8_t, 256> kHexDigitValue = [] {
  std::array<std::uint8_t, 256> t{};
  t.fill(0xFF);
  for (int c = 0; c < 10; ++c) t['0' + c] = static_cast<std::uint8_t>(c);
  for (int c = 0; c < 6; ++c) {
    t['a' + c] = static_cast<std::uint8_t>(10 + c);
    t['A' + c] = static_cast<std::uint8_t>(10 + c);
  }
  return t;
}();

/// The one hex conversion: reads the hex digits (either case, no prefix)
/// at the front of [p, end), at most 16 of them, into `v` and returns the
/// first byte it did not read.  Returns `p` when [p, end) starts with no
/// digit; a 17th digit is left unread, for the caller to reject.
inline const char* scan_hex64(const char* p, const char* end, std::uint64_t& v) {
  const char* const stop = end - p > 16 ? p + 16 : end;
  std::uint64_t x = 0;
  for (; p != stop; ++p) {
    const std::uint8_t d = kHexDigitValue[static_cast<unsigned char>(*p)];
    if (d > 0xF) break;
    x = x << 4 | d;
  }
  v = x;
  return p;
}

}  // namespace apc::io
