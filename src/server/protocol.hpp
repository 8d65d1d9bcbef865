// Wire protocol of the TCP serving layer (see docs/architecture.md,
// "Serving layer & sharding").
//
// The protocol is line-oriented text — one directive per '\n'-terminated
// line, Click/ChatterSocket style — so a shell, a test, and the closed-loop
// bench all speak it with no codec.  Requests:
//
//   C <w0> <w1> <w2> <w3> <w4>            stage-1 classify (5 hex words)
//   Q <ingress> <w0> <w1> <w2> <w3> <w4>  two-stage query from a box
//   GO                                    execute the batched C/Q lines
//   A fib <box> <prefix> <port> [prio]    install a FIB rule
//   R fib <box> <prefix> <port> [prio]    remove a FIB rule
//   STATS                                 metric snapshot
//   EPOCH                                 current cluster epoch
//
// C/Q lines buffer into the connection's pending batch; GO executes the
// whole batch against ONE pinned cluster epoch and streams the answers
// back.  A/R lines pipelined back to back form one update group, applied
// together (one WAL fsync and one publish per replica) before the next
// non-update line, at 64 lines, or once no further whole line has
// arrived; each line still gets its own reply and its own epoch, in line
// order.  Responses lead with a numeric status line:
//
//   201 <epoch> <n> [degraded=1]   batch executed; n answer lines follow, in
//                     order.  degraded=1 flags a batch that a replica
//                     failed and another replica answered: still correct
//                     and from the same epoch, but a replica is failing.
//   200 <epoch>       update applied (its own epoch) / EPOCH answer
//   202 <n>           STATS; n "name value" lines follow
//   400 <message>     parse error or a Q ingress out of range (this line
//                     only; the batch is kept), or a rejected update: box
//                     or egress port out of range, or a remove with no
//                     matching rule (never journaled)
//   408 <message>     idle/write deadline hit; the server closes the line
//   503 <message>     no replica could answer the batch / connection-cap
//                     shed / read-only shard / draining; retry later
//   500 <message>     internal error
//
// A canonical C/Q line — what format_classify and format_query write:
// single spaces, a decimal ingress of 1-10 digits, five hex words of 1-16
// digits, nothing after the last — is parsed in one forward scan that
// checks, splits and converts together (io::scan_hex64 per word).  Every
// other line takes the hardened io/line_parse helpers: 64 KiB line cap,
// structural UTF-8 validation, the tokenizer (any C-locale whitespace,
// '#' comments), bounded integer parses with typed apc::Error(kParse)
// failures.  That general path writes every error message, so a line the
// scan passes over fails exactly as it always did.  The request path does
// no heap work: a line is read in place from the caller's buffer, its
// header words land in the PacketHeader directly, and answers are appended
// to a caller's reused buffer (append_classify_answer,
// append_behavior_summary; the format_behavior_summary that returns a
// fresh string delegates).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "classifier/behavior.hpp"
#include "packet/header.hpp"
#include "rules/rules.hpp"

namespace apc::server {

enum class RequestKind : std::uint8_t {
  kClassify,    ///< C — buffer a stage-1 classify into the batch
  kQuery,       ///< Q — buffer a two-stage query into the batch
  kGo,          ///< GO — execute the pending batch
  kAddRule,     ///< A fib — install a forwarding rule
  kRemoveRule,  ///< R fib — remove a forwarding rule
  kStats,       ///< STATS — metric snapshot
  kEpoch,       ///< EPOCH — current cluster epoch
};

/// A FIB update carried by an A/R line.
struct RuleSpec {
  BoxId box = 0;
  ForwardingRule rule;
};

/// One parsed request line.  Only the fields of the active kind are
/// meaningful.
struct Request {
  RequestKind kind = RequestKind::kGo;
  PacketHeader header;   ///< kClassify / kQuery
  BoxId ingress = 0;     ///< kQuery
  RuleSpec rule;         ///< kAddRule / kRemoveRule
};

/// Parses one protocol line (without its terminator).  Blank and
/// comment-only lines have no request — callers skip them (returns false).
/// Malformed input throws apc::Error(kParse) with `lineno` in the message.
bool parse_request(std::string_view line, std::size_t lineno, Request& out);

/// Round-trip formatting (tests and the bench client build lines with
/// these; answers embed format_behavior_summary).
std::string format_classify(const PacketHeader& h);
std::string format_query(BoxId ingress, const PacketHeader& h);
std::string format_rule(bool add, const RuleSpec& spec);

/// What one Q answer line says about a Behavior: its shape plus a stable
/// 64-bit FNV-1a digest of every hop, delivery and drop, so two clients
/// comparing answer lines detect a *different* behavior, not just a
/// different shape.  Computed from the Behavior in place.
struct BehaviorSummary {
  std::size_t edges = 0;
  std::size_t deliveries = 0;
  std::size_t drops = 0;
  bool loop = false;
  std::uint64_t digest = 0;

  static BehaviorSummary of(const Behavior& b);
};
/// Appends "B <edges> <deliveries> <drops> <loop> <digest-hex>" (no
/// newline).
void append_behavior_summary(std::string& out, const BehaviorSummary& s);
/// One-line behavior digest, as a fresh string.
std::string format_behavior_summary(const Behavior& b);
/// Appends a C answer, "A <atom>" (no newline).
void append_classify_answer(std::string& out, AtomId atom);
/// Appends the decimal digits of `v`.
void append_uint(std::string& out, std::uint64_t v);

/// Formats one STATS row value.  Integral values (counters, epochs, byte
/// totals) print as exact integers — "%.10g" would silently round a u64
/// above 2^10 significant digits — while genuine reals keep the compact
/// 10-significant-digit form.
std::string format_stat_value(double v);

}  // namespace apc::server
