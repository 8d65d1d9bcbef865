#include "server/protocol.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "io/line_parse.hpp"

namespace apc::server {

namespace {

using io::parse_fail;
using io::parse_hex64;
using io::parse_uint;

/// The most tokens a well-formed request carries (Q: op, ingress, 5 words).
/// Longer lines are counted, not stored, and fail their arity check.
constexpr std::size_t kMaxTokens = 7;

/// Parses the 5 hex header words at toks[first..first+5) of an n-token line.
PacketHeader parse_header(const std::string_view* toks, std::size_t n,
                          std::size_t first, std::size_t lineno) {
  if (n != first + PacketHeader::kWords)
    parse_fail(lineno, "expected 5 header words");
  std::array<std::uint64_t, PacketHeader::kWords> w;
  for (std::uint32_t i = 0; i < PacketHeader::kWords; ++i)
    w[i] = parse_hex64(toks[first + i], lineno, "header word");
  return PacketHeader::from_words(w);
}

/// Parses "fib <box> <prefix> <port> [prio]" at toks[1..n).
RuleSpec parse_rule(const std::string_view* toks, std::size_t n, std::size_t lineno) {
  if (n < 5 || n > 6) parse_fail(lineno, "expected: fib <box> <prefix> <port> [prio]");
  if (toks[1] != "fib")
    parse_fail(lineno, "unknown rule table '" + std::string(toks[1]) + "' (only 'fib')");
  RuleSpec spec;
  spec.box = parse_uint(toks[2], lineno, "box id");
  try {
    spec.rule.dst = parse_prefix(toks[3]);
  } catch (const Error& e) {
    parse_fail(lineno, std::string("bad prefix: ") + e.what());
  }
  spec.rule.egress_port = parse_uint(toks[4], lineno, "egress port");
  if (n == 6)
    spec.rule.priority = static_cast<std::int32_t>(
        parse_uint(toks[5], lineno, "priority", 0x7FFFFFFFull));
  return spec;
}

/// The fast path: a canonical C/Q line, as format_classify and format_query
/// write it — "C" or "Q <ingress>", then five hex words, one space before
/// each field and nothing after the last.  The ingress takes 1-10 decimal
/// digits and at most 2^32-1, a word 1-16 hex digits in either case.  One
/// forward scan checks, splits and converts the bytes.  Returns false,
/// with `out` untouched, for any other line: the general parser below then
/// accepts it or rejects it with its message.  A canonical line is at most
/// 97 ASCII bytes, so it is within the line cap and valid UTF-8.
bool parse_canonical(std::string_view line, Request& out) {
  const char* p = line.data();
  const char* const end = p + line.size();
  if (p == end || (*p != 'C' && *p != 'Q')) return false;
  const bool query = *p++ == 'Q';
  std::uint64_t ingress = 0;
  if (query) {
    if (p == end || *p++ != ' ') return false;
    const char* const first = p;
    const char* const stop = end - p > 10 ? p + 10 : end;
    for (; p != stop && static_cast<unsigned char>(*p - '0') < 10; ++p)
      ingress = ingress * 10 + static_cast<std::uint64_t>(*p - '0');
    if (p == first || ingress > 0xFFFFFFFFull) return false;
  }
  std::array<std::uint64_t, PacketHeader::kWords> w;
  for (std::uint64_t& word : w) {
    if (p == end || *p++ != ' ') return false;
    const char* const first = p;
    p = io::scan_hex64(p, end, word);
    if (p == first) return false;
  }
  if (p != end) return false;
  out.header = PacketHeader::from_words(w);
  if (query) {
    out.kind = RequestKind::kQuery;
    out.ingress = static_cast<BoxId>(ingress);
  } else {
    out.kind = RequestKind::kClassify;
  }
  return true;
}

/// Writes the lower-case hex digits of `v` at `p`; returns the end.
char* put_hex(char* p, std::uint64_t v) { return std::to_chars(p, p + 16, v, 16).ptr; }
/// Writes the decimal digits of `v` at `p`; returns the end.
char* put_uint(char* p, std::uint64_t v) { return std::to_chars(p, p + 20, v).ptr; }

void append_words(std::string& out, const PacketHeader& h) {
  char buf[PacketHeader::kWords * 17];
  char* p = buf;
  for (const std::uint64_t w : h.words()) {
    *p++ = ' ';
    p = put_hex(p, w);
  }
  out.append(buf, p);
}

}  // namespace

bool parse_request(std::string_view line, std::size_t lineno, Request& out) {
  if (parse_canonical(line, out)) return true;
  io::check_line(line, lineno);
  std::string_view toks[kMaxTokens];
  const std::size_t n = io::tokenize(line, toks, kMaxTokens);
  if (n == 0) return false;  // blank / comment-only: nothing to do
  const std::string_view op = toks[0];
  if (op == "C") {
    out.kind = RequestKind::kClassify;
    out.header = parse_header(toks, n, 1, lineno);
  } else if (op == "Q") {
    if (n < 2) parse_fail(lineno, "Q needs an ingress box id");
    out.kind = RequestKind::kQuery;
    out.ingress = parse_uint(toks[1], lineno, "ingress box id");
    out.header = parse_header(toks, n, 2, lineno);
  } else if (op == "GO") {
    if (n != 1) parse_fail(lineno, "GO takes no arguments");
    out.kind = RequestKind::kGo;
  } else if (op == "A" || op == "R") {
    out.kind = op == "A" ? RequestKind::kAddRule : RequestKind::kRemoveRule;
    out.rule = parse_rule(toks, n, lineno);
  } else if (op == "STATS") {
    if (n != 1) parse_fail(lineno, "STATS takes no arguments");
    out.kind = RequestKind::kStats;
  } else if (op == "EPOCH") {
    if (n != 1) parse_fail(lineno, "EPOCH takes no arguments");
    out.kind = RequestKind::kEpoch;
  } else {
    parse_fail(lineno, "unknown directive '" + std::string(op) + "'");
  }
  return true;
}

std::string format_classify(const PacketHeader& h) {
  std::string out = "C";
  append_words(out, h);
  return out;
}

std::string format_query(BoxId ingress, const PacketHeader& h) {
  std::string out = "Q ";
  append_uint(out, ingress);
  append_words(out, h);
  return out;
}

std::string format_rule(bool add, const RuleSpec& spec) {
  std::string out = add ? "A fib " : "R fib ";
  append_uint(out, spec.box);
  out += ' ';
  out += format_prefix(spec.rule.dst);
  out += ' ';
  append_uint(out, spec.rule.egress_port);
  if (spec.rule.priority >= 0) {
    out += ' ';
    append_uint(out, static_cast<std::uint64_t>(spec.rule.priority));
  }
  return out;
}

BehaviorSummary BehaviorSummary::of(const Behavior& b) {
  BehaviorSummary s;
  s.edges = b.edges.size();
  s.deliveries = b.deliveries.size();
  s.drops = b.drops.size();
  s.loop = b.loop_detected;
  std::uint64_t x = 1469598103934665603ull;
  const auto mix = [&x](std::uint64_t v) {
    x ^= v;
    x *= 1099511628211ull;
  };
  for (const auto& e : b.edges) {
    mix(e.box);
    mix(e.out_port);
    mix(e.to ? *e.to + 1 : 0);
  }
  for (const auto& d : b.deliveries) {
    mix(d.box);
    mix(d.port);
  }
  for (const auto& d : b.drops) {
    mix(d.box);
    mix(static_cast<std::uint64_t>(d.reason));
  }
  s.digest = x;
  return s;
}

void append_behavior_summary(std::string& out, const BehaviorSummary& s) {
  char buf[96];  // "B " + 3 x (20 digits + ' ') + loop + ' ' + 16 hex digits
  char* p = buf;
  *p++ = 'B';
  for (const std::size_t v : {s.edges, s.deliveries, s.drops}) {
    *p++ = ' ';
    p = put_uint(p, v);
  }
  *p++ = ' ';
  *p++ = s.loop ? '1' : '0';
  *p++ = ' ';
  p = put_hex(p, s.digest);
  out.append(buf, p);
}

std::string format_behavior_summary(const Behavior& b) {
  std::string out;
  append_behavior_summary(out, BehaviorSummary::of(b));
  return out;
}

void append_classify_answer(std::string& out, AtomId atom) {
  out += "A ";
  append_uint(out, atom);
}

void append_uint(std::string& out, std::uint64_t v) {
  char buf[20];
  out.append(buf, put_uint(buf, v));
}

std::string format_stat_value(double v) {
  char buf[40];
  // Doubles hold every integer up to 2^53 exactly and every *representable*
  // integral value exactly; "%.0f" prints those digits verbatim, so a u64
  // counter that survived the double conversion round-trips.  The 2^63
  // bound keeps the output within a fixed digit count (and anything larger
  // has already lost integer precision on the way into the double).
  if (std::isfinite(v) && std::nearbyint(v) == v && std::fabs(v) < 9.2e18) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.10g", v);
  }
  return buf;
}

}  // namespace apc::server
