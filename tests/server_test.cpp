// Serving-layer tests: the wire protocol (parse/format round trips and
// hardened failure handling), the sharded cluster (replica equivalence with
// a single classifier, epoch-consistent publication under concurrent
// updates, WAL recovery), and the TCP front end (batched queries, malformed
// and partial input, clients dying mid-batch).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "classifier/classifier.hpp"
#include "datasets/datasets.hpp"
#include "datasets/traces.hpp"
#include "io/line_parse.hpp"
#include "io/wal.hpp"
#include "packet/ipv4.hpp"
#include "server/cluster.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "util/rng.hpp"

namespace apc::server {
namespace {

using datasets::Dataset;
using datasets::Scale;

// ---------------------------------------------------------------- protocol

PacketHeader sample_header() {
  return PacketHeader::from_five_tuple(0x0a000001, 0xc0a80001, 1234, 80, 6);
}

TEST(ServerProtocol, ClassifyRoundTrip) {
  const PacketHeader h = sample_header();
  Request req;
  ASSERT_TRUE(parse_request(format_classify(h), 1, req));
  EXPECT_EQ(req.kind, RequestKind::kClassify);
  EXPECT_EQ(req.header, h);
}

TEST(ServerProtocol, QueryRoundTrip) {
  const PacketHeader h = sample_header();
  Request req;
  ASSERT_TRUE(parse_request(format_query(7, h), 1, req));
  EXPECT_EQ(req.kind, RequestKind::kQuery);
  EXPECT_EQ(req.ingress, 7u);
  EXPECT_EQ(req.header, h);
}

TEST(ServerProtocol, RuleRoundTrip) {
  RuleSpec spec;
  spec.box = 3;
  spec.rule.dst = parse_prefix("10.1.2.0/24");
  spec.rule.egress_port = 2;
  spec.rule.priority = 40;
  Request req;
  ASSERT_TRUE(parse_request(format_rule(true, spec), 1, req));
  EXPECT_EQ(req.kind, RequestKind::kAddRule);
  EXPECT_EQ(req.rule.box, 3u);
  EXPECT_EQ(req.rule.rule.dst, spec.rule.dst);
  EXPECT_EQ(req.rule.rule.egress_port, 2u);
  EXPECT_EQ(req.rule.rule.priority, 40);
  ASSERT_TRUE(parse_request(format_rule(false, spec), 2, req));
  EXPECT_EQ(req.kind, RequestKind::kRemoveRule);
  // Default priority (-1) is omitted on the wire and parses back as -1.
  spec.rule.priority = -1;
  ASSERT_TRUE(parse_request(format_rule(true, spec), 3, req));
  EXPECT_EQ(req.rule.rule.priority, -1);
}

TEST(ServerProtocol, ControlDirectives) {
  Request req;
  ASSERT_TRUE(parse_request("GO", 1, req));
  EXPECT_EQ(req.kind, RequestKind::kGo);
  ASSERT_TRUE(parse_request("STATS", 2, req));
  EXPECT_EQ(req.kind, RequestKind::kStats);
  ASSERT_TRUE(parse_request("EPOCH", 3, req));
  EXPECT_EQ(req.kind, RequestKind::kEpoch);
}

TEST(ServerProtocol, BlankAndCommentLinesAreSkipped) {
  Request req;
  EXPECT_FALSE(parse_request("", 1, req));
  EXPECT_FALSE(parse_request("   ", 2, req));
  EXPECT_FALSE(parse_request("# a comment", 3, req));
}

void expect_parse_error(const std::string& line, const char* fragment) {
  Request req;
  try {
    parse_request(line, 9, req);
    FAIL() << "expected kParse for: " << line;
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParse) << line;
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 9"), std::string::npos) << msg;
    EXPECT_NE(msg.find(fragment), std::string::npos) << msg;
  }
}

TEST(ServerProtocol, MalformedLinesThrowTypedErrors) {
  expect_parse_error("FROB 1 2 3", "unknown directive");
  expect_parse_error("C 1 2 3 4", "expected 5 header words");
  expect_parse_error("C 1 2 3 4 5 6", "expected 5 header words");
  expect_parse_error("C 1 2 3 4 zz", "header word");
  expect_parse_error("Q", "ingress");
  expect_parse_error("Q notanumber 1 2 3 4 5", "ingress box id");
  expect_parse_error("Q 1 1 2 3 4", "expected 5 header words");
  expect_parse_error("GO now", "GO takes no arguments");
  expect_parse_error("A fib 1 10.0.0.0/33 2", "bad prefix");
  expect_parse_error("A fib 1 10.0.0.0/24", "expected: fib");
  expect_parse_error("A acl 1 10.0.0.0/24 2", "unknown rule table");
  expect_parse_error("R fib 99999999999 10.0.0.0/24 2", "box id");
  expect_parse_error("STATS verbose", "STATS takes no arguments");
}

TEST(ServerProtocol, OversizedAndBinaryLinesAreRejected) {
  const std::string oversized(io::kMaxLineBytes + 1, 'C');
  expect_parse_error(oversized, "exceeds");
  std::string binary = "C 1 2 3 4 5";
  binary += static_cast<char>(0xFF);
  expect_parse_error(binary, "UTF-8");
}

TEST(ServerProtocol, BehaviorSummaryDistinguishesContent) {
  Behavior a;
  a.edges.push_back({0, 1, BoxId{2}});
  a.deliveries.push_back({2, 3});
  Behavior b = a;
  b.edges[0].out_port = 9;  // same shape, different content
  EXPECT_NE(format_behavior_summary(a), format_behavior_summary(b));
  EXPECT_EQ(format_behavior_summary(a), format_behavior_summary(a));
}

Request parse_ok(const std::string& line) {
  Request req;
  EXPECT_TRUE(parse_request(line, 1, req)) << line;
  return req;
}

PacketHeader header_of_words(std::uint64_t w0, std::uint64_t w1, std::uint64_t w2,
                             std::uint64_t w3, std::uint64_t w4) {
  return PacketHeader::from_words({w0, w1, w2, w3, w4});
}

TEST(ServerProtocol, EveryWhitespaceCharacterSeparatesTokens) {
  const PacketHeader want = header_of_words(1, 2, 3, 4, 5);
  for (const char* line : {"C\t1\t2\t3\t4\t5", "C 1\v2\f3\r4 5", "\t C 1 2 3 4 5 \r",
                           "C\f\f1  2\v\v3\t 4\r\r5"}) {
    const Request req = parse_ok(line);
    EXPECT_EQ(req.kind, RequestKind::kClassify) << line;
    EXPECT_EQ(req.header, want) << line;
  }
  const Request q = parse_ok("Q\t9\v1\f2\r3 4\t5");
  EXPECT_EQ(q.kind, RequestKind::kQuery);
  EXPECT_EQ(q.ingress, 9u);
  EXPECT_EQ(q.header, want);
  EXPECT_EQ(parse_ok("GO\r").kind, RequestKind::kGo);
  Request req;
  EXPECT_FALSE(parse_request("\t\v\f\r ", 1, req));
}

TEST(ServerProtocol, HashTokenEndsTheLine) {
  EXPECT_EQ(parse_ok("C 1 2 3 4 5 # six seven").header, header_of_words(1, 2, 3, 4, 5));
  EXPECT_EQ(parse_ok("C 1 2 3 4 5 #6").header, header_of_words(1, 2, 3, 4, 5));
  EXPECT_EQ(parse_ok("Q 3 1 2 3 4 5\t#").ingress, 3u);
  EXPECT_EQ(parse_ok("GO # now").kind, RequestKind::kGo);
  EXPECT_EQ(parse_ok("A fib 1 10.0.0.0/24 2 #prio").rule.rule.priority, -1);
  // A '#' inside a token is not a comment.
  expect_parse_error("C 1 2 3 4 5#", "header word");
  // A comment that swallows a field leaves the line short.
  expect_parse_error("C 1 2 3 4 #5", "expected 5 header words");
  Request req;
  EXPECT_FALSE(parse_request("\t# only a comment", 1, req));
}

TEST(ServerProtocol, HexWordsTakeOneToSixteenDigitsInEitherCase) {
  EXPECT_EQ(parse_ok("C ffffffffffffffff 0 0 0 0").header.words()[0], ~std::uint64_t{0});
  EXPECT_EQ(parse_ok("C 0000000000000001 0 0 0 0").header.words()[0], 1u);
  expect_parse_error("C 00000000000000001 0 0 0 0", "header word");
  expect_parse_error("C 1ffffffffffffffff 0 0 0 0", "header word");
  EXPECT_EQ(parse_ok("C ABCDEF 0 0 0 DeadBeef").header,
            header_of_words(0xabcdef, 0, 0, 0, 0xdeadbeef));
}

TEST(ServerProtocol, PrefixesSignsAndTrailingGarbageAreRejected) {
  for (const char* word : {"0x1", "0X1", "+1", "-1", "1g", "12 z", "1.0", "1,", "\x01"}) {
    expect_parse_error(std::string("C 0 0 0 0 ") + word, "");
  }
  expect_parse_error("C 0x1 0 0 0 0", "header word");
  expect_parse_error("C +1 0 0 0 0", "header word");
  expect_parse_error("C 1 2 3 4 5z", "header word");
  expect_parse_error("Q +1 1 2 3 4 5", "ingress box id");
  expect_parse_error("Q -1 1 2 3 4 5", "ingress box id");
  expect_parse_error("Q 0x1 1 2 3 4 5", "ingress box id");
  expect_parse_error("Q 1x 1 2 3 4 5", "ingress box id");
  expect_parse_error("A fib +1 10.0.0.0/24 2", "box id");
  expect_parse_error("A fib 1 10.0.0.0/24 2x", "egress port");
  expect_parse_error("A fib 1 10.0.0.0/24 2 -5", "priority");
  expect_parse_error("A fib 1 10.0.0.0/24 2 2147483648", "priority");
  EXPECT_EQ(parse_ok("A fib 1 10.0.0.0/24 2 2147483647").rule.rule.priority, 2147483647);
}

TEST(ServerProtocol, IngressIsBoundedToThirtyTwoBits) {
  EXPECT_EQ(parse_ok("Q 4294967295 1 2 3 4 5").ingress, 4294967295u);
  expect_parse_error("Q 4294967296 1 2 3 4 5", "ingress box id out of range");
  expect_parse_error("Q 18446744073709551616 1 2 3 4 5", "ingress box id");
  EXPECT_EQ(parse_ok("Q 0000000000000000000000007 1 2 3 4 5").ingress, 7u);
}

TEST(ServerProtocol, CAndQRequireExactlyFiveWords) {
  expect_parse_error("C", "expected 5 header words");
  expect_parse_error("C 1", "expected 5 header words");
  expect_parse_error("C 1 2 3 4", "expected 5 header words");
  expect_parse_error("C 1 2 3 4 5 6", "expected 5 header words");
  expect_parse_error("C 1 2 3 4 5 6 7 8 9 10 11 12", "expected 5 header words");
  expect_parse_error("Q", "ingress");
  expect_parse_error("Q 1", "expected 5 header words");
  expect_parse_error("Q 1 1 2 3 4", "expected 5 header words");
  expect_parse_error("Q 1 1 2 3 4 5 6", "expected 5 header words");
  expect_parse_error("Q 1 1 2 3 4 5 6 7 8 9 10", "expected 5 header words");
  expect_parse_error("A fib 1 10.0.0.0/24 2 3 4", "expected: fib");
}

// A reference parser for the mutation test below, written the way the
// protocol was first parsed: std::istringstream tokens and hand-rolled
// strict number parses.  It lives only here.
namespace reference {

struct Reject {};

std::uint64_t decimal(const std::string& s, std::uint64_t max) {
  if (s.empty()) throw Reject{};
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') throw Reject{};
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (max - d) / 10) throw Reject{};
    v = v * 10 + d;
  }
  return v;
}

std::uint64_t hex(const std::string& s) {
  if (s.empty() || s.size() > 16) throw Reject{};
  std::uint64_t v = 0;
  for (const char c : s) {
    std::uint64_t d;
    if (c >= '0' && c <= '9') {
      d = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      d = static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      d = static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      throw Reject{};
    }
    v = v << 4 | d;
  }
  return v;
}

/// False for a blank or comment-only line; throws Reject on bad input.
bool parse(const std::string& line, Request& out) {
  if (line.size() > io::kMaxLineBytes) throw Reject{};
  // The mutation alphabet's only non-ASCII bytes are 0x80 and 0xFF, which
  // never form valid UTF-8.
  for (const char c : line)
    if (static_cast<unsigned char>(c) >= 0x80) throw Reject{};
  std::istringstream is(line);
  std::vector<std::string> t;
  for (std::string tok; is >> tok;) {
    if (tok[0] == '#') break;
    t.push_back(tok);
  }
  if (t.empty()) return false;
  const auto header_at = [&](std::size_t first) {
    if (t.size() != first + 5) throw Reject{};
    PacketHeader h;
    for (std::uint32_t w = 0; w < 5; ++w) {
      const std::uint64_t v = hex(t[first + w]);
      for (std::uint32_t j = 0; j < 64; ++j) h.set_bit(w * 64 + j, (v >> j) & 1);
    }
    return h;
  };
  const std::string& op = t[0];
  if (op == "C") {
    out.kind = RequestKind::kClassify;
    out.header = header_at(1);
  } else if (op == "Q") {
    if (t.size() < 2) throw Reject{};
    out.kind = RequestKind::kQuery;
    out.ingress = static_cast<BoxId>(decimal(t[1], 0xFFFFFFFFull));
    out.header = header_at(2);
  } else if (op == "A" || op == "R") {
    if (t.size() < 5 || t.size() > 6 || t[1] != "fib") throw Reject{};
    out.kind = op == "A" ? RequestKind::kAddRule : RequestKind::kRemoveRule;
    out.rule.box = static_cast<BoxId>(decimal(t[2], 0xFFFFFFFFull));
    try {
      out.rule.rule.dst = parse_prefix(t[3]);
    } catch (const Error&) {
      throw Reject{};
    }
    out.rule.rule.egress_port = static_cast<std::uint32_t>(decimal(t[4], 0xFFFFFFFFull));
    out.rule.rule.priority =
        t.size() == 6 ? static_cast<std::int32_t>(decimal(t[5], 0x7FFFFFFFull)) : -1;
  } else if (op == "GO" || op == "STATS" || op == "EPOCH") {
    if (t.size() != 1) throw Reject{};
    out.kind = op == "GO" ? RequestKind::kGo
               : op == "STATS" ? RequestKind::kStats
                               : RequestKind::kEpoch;
  } else {
    throw Reject{};
  }
  return true;
}

}  // namespace reference

std::string random_valid_line(Rng& rng) {
  PacketHeader h;
  std::array<std::uint64_t, PacketHeader::kWords> w{};
  for (auto& x : w) x = rng.coin(0.3) ? rng.uniform(16) : rng.next() >> rng.uniform(64);
  h = PacketHeader::from_words(w);
  switch (rng.uniform(4)) {
    case 0:
      return format_classify(h);
    case 1:
      return format_query(static_cast<BoxId>(rng.uniform(1u << 20)), h);
    default: {
      RuleSpec spec;
      spec.box = static_cast<BoxId>(rng.uniform(64));
      spec.rule.dst = Ipv4Prefix{static_cast<std::uint32_t>(rng.next()),
                                 static_cast<std::uint8_t>(rng.uniform(33))}
                          .normalized();
      spec.rule.egress_port = static_cast<std::uint32_t>(rng.uniform(8));
      spec.rule.priority = rng.coin() ? -1 : static_cast<std::int32_t>(rng.uniform(40));
      return format_rule(rng.coin(), spec);
    }
  }
}

/// The bounds of [first, last) of the space-separated token around `at`.
std::pair<std::size_t, std::size_t> token_around(const std::string& line, std::size_t at) {
  const std::size_t b = line.rfind(' ', at);
  const std::size_t first = b == std::string::npos ? 0 : b + 1;
  return {first, std::min(line.find(' ', first), line.size())};
}

std::string mutate(std::string line, Rng& rng) {
  static constexpr char kAlphabet[] =
      " \t\v\f\r\n#+-xX0123456789abcdefABCDEFgz./\x01\x7f\x80\xff";
  const auto pick = [&] {
    return kAlphabet[rng.uniform(sizeof kAlphabet)];  // includes the '\0'
  };
  // Decimals at the edges of the fast path's ingress: 10 and 11 digits,
  // and either side of 2^32.
  const auto edge_decimal = [&]() -> std::string {
    switch (rng.uniform(4)) {
      case 0:
        return "4294967295";
      case 1:
        return "4294967296";
      default: {
        std::string d = std::to_string(1 + rng.uniform(9));
        const std::size_t digits = rng.coin() ? 10 : 11;
        while (d.size() < digits) d += static_cast<char>('0' + rng.uniform(10));
        return d;
      }
    }
  };
  const std::size_t edits = 1 + rng.uniform(3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = line.empty() ? 0 : rng.uniform(line.size());
    switch (rng.uniform(12)) {
      case 0:
        if (!line.empty()) line[at] = pick();
        break;
      case 1:
        line.insert(line.begin() + static_cast<std::ptrdiff_t>(at), pick());
        break;
      case 2:
        if (!line.empty()) line.erase(at, 1);
        break;
      case 3:
        line.resize(at);
        break;
      case 4: {  // duplicate the token around `at`
        const std::size_t b = line.rfind(' ', at);
        const std::size_t first = b == std::string::npos ? 0 : b;
        const std::size_t last = std::min(line.find(' ', at + 1), line.size());
        line.insert(last, line.substr(first, last - first));
        break;
      }
      case 5:  // widen a hex word with leading zeros (16 vs 17 digits)
        line.insert(line.begin() + static_cast<std::ptrdiff_t>(line.rfind(' ', at) + 1),
                    rng.uniform(17), '0');
        break;
      case 6: {  // pad the token around `at` to 16 digits, then add a hex byte
        const auto [first, last] = token_around(line, at);
        if (last - first < 16) line.insert(first, 16 - (last - first), '0');
        line.insert(first + std::max<std::size_t>(16, last - first), 1,
                    "0123456789abcdefABCDEF"[rng.uniform(22)]);
        break;
      }
      case 7: {  // an edge decimal for the ingress (or any token)
        const auto [first, last] =
            rng.coin() ? token_around(line, std::min(line.find(' '), line.size()) + 1)
                       : token_around(line, at);
        line.replace(first, last - first, edge_decimal());
        break;
      }
      case 8:  // a leading or a trailing space
        line.insert(rng.coin() ? line.begin() : line.end(), ' ');
        break;
      case 9: {  // double a space
        const std::size_t sp = line.find(' ', at);
        if (sp != std::string::npos) line.insert(sp, 1, ' ');
        break;
      }
      case 10:  // a NUL, anywhere or last
        line.insert(rng.coin() ? line.begin() + static_cast<std::ptrdiff_t>(at) : line.end(),
                    '\0');
        break;
      default:  // drop the last token
        line.resize(line.empty() ? 0 : line.rfind(' ') == std::string::npos
                                           ? 0
                                           : line.rfind(' '));
        break;
    }
  }
  return line;
}

enum class Outcome { kRejected, kSkipped, kAccepted };

/// Parses `line` with parse_request and with the reference parser, expects
/// the same outcome and the same request, and returns the outcome.  The
/// line is parsed from an exact-size heap copy, so a read past its end is
/// an ASan report.
Outcome parse_like_reference(const std::string& line) {
  const std::string shown = ::testing::PrintToString(line);
  Request want;
  bool want_has = false, want_reject = false;
  try {
    want_has = reference::parse(line, want);
  } catch (const reference::Reject&) {
    want_reject = true;
  }
  const std::unique_ptr<char[]> copy(new char[line.size()]);
  std::copy(line.begin(), line.end(), copy.get());
  Request got;
  bool got_has = false, got_reject = false;
  try {
    got_has = parse_request(std::string_view(copy.get(), line.size()), 1, got);
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParse) << shown;
    got_reject = true;
  }
  EXPECT_EQ(got_reject, want_reject) << "line: " << shown;
  if (want_reject || got_reject) return Outcome::kRejected;
  EXPECT_EQ(got_has, want_has) << shown;
  if (!want_has || !got_has) return Outcome::kSkipped;
  EXPECT_EQ(got.kind, want.kind) << shown;
  switch (want.kind) {
    case RequestKind::kQuery:
      EXPECT_EQ(got.ingress, want.ingress) << shown;
      [[fallthrough]];
    case RequestKind::kClassify:
      EXPECT_EQ(got.header, want.header) << shown;
      break;
    case RequestKind::kAddRule:
    case RequestKind::kRemoveRule:
      EXPECT_EQ(got.rule.box, want.rule.box) << shown;
      EXPECT_EQ(got.rule.rule.dst, want.rule.rule.dst) << shown;
      EXPECT_EQ(got.rule.rule.egress_port, want.rule.rule.egress_port) << shown;
      EXPECT_EQ(got.rule.rule.priority, want.rule.rule.priority) << shown;
      break;
    default:
      break;
  }
  return Outcome::kAccepted;
}

TEST(ServerProtocol, MutatedLinesParseLikeTheReferenceParser) {
  Rng rng(0x5eed);
  std::size_t accepted = 0, rejected = 0;
  for (int iter = 0; iter < 20000 && !HasFailure(); ++iter) {
    // The unmutated line too: a C/Q line as the clients write it is what
    // the fast path parses.
    const std::string line = random_valid_line(rng);
    ASSERT_EQ(parse_like_reference(line), Outcome::kAccepted) << line;
    switch (parse_like_reference(mutate(line, rng))) {
      case Outcome::kAccepted:
        ++accepted;
        break;
      case Outcome::kRejected:
        ++rejected;
        break;
      case Outcome::kSkipped:
        break;
    }
  }
  // The mutations must exercise both outcomes, not just one.
  EXPECT_GT(accepted, 2000u);
  EXPECT_GT(rejected, 2000u);
}

// ------------------------------------------------------------------ cluster

struct ClusterWorld {
  datasets::Dataset data;
  std::shared_ptr<bdd::BddManager> mgr = Dataset::make_manager();
  ApClassifier reference;
  std::vector<PacketHeader> trace;

  explicit ClusterWorld(std::uint64_t seed = 7)
      : data(datasets::internet2_like(Scale::Tiny, seed)),
        reference(data.net, mgr) {
    Rng rng(seed * 31 + 1);
    const auto reps = datasets::atom_representatives(reference.atoms(), rng);
    trace = datasets::uniform_trace(reps, 96, rng);
  }

  ShardedCluster::Options cluster_options(std::size_t shards) const {
    ShardedCluster::Options o;
    o.shards = shards;
    o.engine.num_threads = 2;
    return o;
  }
};

/// Each shard's `shard<i>.<row>` STATS value.
std::vector<double> shard_rows(const ShardedCluster& cluster, const std::string& row) {
  const obs::MetricsSnapshot stats = cluster.stats();
  std::vector<double> out;
  for (std::size_t i = 0; i < cluster.shard_count(); ++i)
    out.push_back(stats.find("shard" + std::to_string(i) + "." + row)->value);
  return out;
}

/// The shard that answered the one batch run between two shard_rows(...,
/// "batch_us.count") reads: the only one whose count grew, by one.
/// shard_count() when that is not exactly one shard.
std::size_t answering_shard(const std::vector<double>& before,
                            const std::vector<double>& after) {
  std::size_t found = before.size();
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (after[i] == before[i]) continue;
    if (after[i] != before[i] + 1 || found != before.size()) return before.size();
    found = i;
  }
  return found;
}

/// The answer lines of `answers`, in item order.
std::vector<std::string> answer_lines(const ShardedCluster::BatchAnswers& answers) {
  std::vector<std::string> lines(answers.size());
  for (std::size_t i = 0; i < answers.size(); ++i) answers.append_line(i, lines[i]);
  return lines;
}

/// A C item and a Q item per box (the Q item entering at that box), with the
/// reference classifier's answers.
void mixed_batch_at_every_ingress(const ClusterWorld& w,
                                  std::vector<ShardedCluster::BatchItem>& items,
                                  std::vector<std::string>& expected) {
  const BoxId boxes = static_cast<BoxId>(w.data.net.topology.box_count());
  for (BoxId b = 0; b < boxes; ++b) {
    const PacketHeader& h = w.trace[b % w.trace.size()];
    ShardedCluster::BatchItem c;
    c.header = h;
    items.push_back(c);
    expected.push_back("A " + std::to_string(w.reference.classify(h)));
    ShardedCluster::BatchItem q;
    q.is_query = true;
    q.header = h;
    q.ingress = b;
    items.push_back(q);
    expected.push_back(format_behavior_summary(w.reference.query(h, b)));
  }
}

// Inputs: 3 shards and the default 4.
TEST(ShardedCluster, MixedBatchMatchesSingleClassifier) {
  ClusterWorld w;
  for (const std::size_t shards : {3u, 4u}) {
    SCOPED_TRACE(shards);
    ShardedCluster::Options opts = w.cluster_options(shards);
    ShardedCluster cluster(w.data.net, opts);
    ASSERT_EQ(cluster.shard_count(), shards);
    EXPECT_EQ(cluster.epoch(), 0u);

    std::vector<ShardedCluster::BatchItem> items;
    std::vector<std::string> expected;
    const BoxId boxes = static_cast<BoxId>(w.data.net.topology.box_count());
    for (std::size_t i = 0; i < w.trace.size(); ++i) {
      const PacketHeader& h = w.trace[i];
      ShardedCluster::BatchItem c;
      c.header = h;
      items.push_back(c);
      expected.push_back("A " + std::to_string(w.reference.classify(h)));
      ShardedCluster::BatchItem q;
      q.is_query = true;
      q.header = h;
      q.ingress = static_cast<BoxId>(i % boxes);
      items.push_back(q);
      expected.push_back(format_behavior_summary(w.reference.query(h, q.ingress)));
    }
    const auto res = cluster.run_batch(items);
    EXPECT_EQ(res.epoch, 0u);
    ASSERT_EQ(res.lines.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(res.lines[i], expected[i]) << "item " << i;
  }
}

// A Q item whose ingress names no box is the caller's error, not a shard's:
// the batch is refused kInvalidArgument before any shard runs it, so no
// breaker moves however often it comes, and the next valid batch is
// answered as usual.
TEST(ShardedCluster, OutOfRangeIngressIsRefusedWithoutTrippingBreakers) {
  ClusterWorld w;
  const ShardedCluster::Options opts = w.cluster_options(4);
  ShardedCluster cluster(w.data.net, opts);
  const BoxId boxes = static_cast<BoxId>(w.data.net.topology.box_count());

  std::vector<ShardedCluster::BatchItem> bad(2);
  bad[0].header = w.trace[0];
  bad[1].is_query = true;
  bad[1].header = w.trace[1];
  bad[1].ingress = boxes + 3;
  const std::string why = "ingress " + std::to_string(boxes + 3) + " out of range (" +
                          std::to_string(boxes) + " boxes)";
  // Twice the breaker's quarantine threshold (5 consecutive failures).
  for (std::size_t k = 0; k < 10; ++k) {
    try {
      cluster.run_batch(bad);
      ADD_FAILURE() << "batch " << k << " was answered";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << "batch " << k << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
    }
  }
  for (std::size_t i = 0; i < cluster.shard_count(); ++i)
    EXPECT_EQ(cluster.shard_state(i), ShardState::kHealthy) << "shard " << i;
  EXPECT_EQ(cluster.reroutes(), 0u);

  std::vector<ShardedCluster::BatchItem> good;
  std::vector<std::string> expected;
  for (BoxId ingress = 0; ingress < boxes; ++ingress) {
    ShardedCluster::BatchItem q;
    q.is_query = true;
    q.header = w.trace[ingress];
    q.ingress = ingress;
    good.push_back(q);
    expected.push_back(format_behavior_summary(w.reference.query(q.header, ingress)));
  }
  const auto res = cluster.run_batch(good);
  EXPECT_FALSE(res.degraded);
  ASSERT_EQ(res.lines.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(res.lines[i], expected[i]) << "item " << i;
}

TEST(ShardedCluster, EpochAdvancesOnceEveryShardPublishes) {
  ClusterWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  RuleSpec spec;
  spec.box = 0;
  spec.rule.dst = parse_prefix("10.77.0.0/16");
  spec.rule.egress_port = 0;
  spec.rule.priority = 90;

  EXPECT_EQ(cluster.add_rule(spec), 1u);
  EXPECT_EQ(cluster.epoch(), 1u);
  {
    // Every shard published once more, and the epoch-1 view holds exactly
    // those snapshots.
    const auto view = cluster.pin();
    EXPECT_EQ(view.epoch, 1u);
    for (std::size_t s = 0; s < cluster.shard_count(); ++s) {
      EXPECT_EQ(cluster.shard(s)->publish_count(), 2u) << "shard " << s;
      EXPECT_EQ(view.snaps[s], cluster.shard(s)->snapshot()) << "shard " << s;
    }
  }
  EXPECT_EQ(cluster.remove_rule(spec), 2u);
  EXPECT_EQ(cluster.epoch(), 2u);
  EXPECT_EQ(cluster.updates_applied(), 2u);

  const auto view = cluster.pin();
  EXPECT_EQ(view.epoch, 2u);
  ASSERT_EQ(view.snaps.size(), 2u);
  for (const auto& s : view.snaps) ASSERT_NE(s, nullptr);
}

// Once an update's view is published, no new pin can want the previous
// epoch, so every replica's epoch-0 snapshot is freed at once instead of
// lingering beside the new one until the next publish.
TEST(ShardedCluster, RetiredEpochIsReleasedOncePublished) {
  ClusterWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(4));
  std::vector<std::weak_ptr<const engine::FlatSnapshot>> first;
  {
    const auto view = cluster.pin();
    ASSERT_EQ(view.epoch, 0u);
    for (const auto& snap : view.snaps) first.push_back(snap);
  }
  for (const auto& snap : first) ASSERT_FALSE(snap.expired());
  RuleSpec spec;
  spec.box = 0;
  spec.rule.dst = parse_prefix("10.77.0.0/16");
  spec.rule.egress_port = 0;
  spec.rule.priority = 90;
  ASSERT_EQ(cluster.add_rule(spec), 1u);
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_TRUE(first[i].expired()) << "shard " << i;
  {
    const auto view = cluster.pin();
    EXPECT_EQ(view.epoch, 1u);
    for (std::size_t i = 0; i < view.snaps.size(); ++i)
      EXPECT_TRUE(view.snaps[i] != nullptr) << "shard " << i;
  }
  std::vector<ShardedCluster::BatchItem> items(2);
  items[0].header = w.trace[0];
  items[1].is_query = true;
  items[1].header = w.trace[1];
  EXPECT_EQ(cluster.run_batch(items).epoch, 1u);
}

// The epoch-consistency differential: while one thread toggles a rule that
// changes a probe packet's behavior from TWO ingress boxes, every batch
// must answer both probes from the epoch its reply names.  Each reader
// reuses one BatchAnswers, so its batches alternate between the two
// replicas: a wrong pair would mean a replica's slot in a published view
// holds a snapshot of another epoch.
TEST(ShardedCluster, ConcurrentUpdatesNeverMixEpochsAcrossShards) {
  ClusterWorld w;
  const BoxId ingress_a = 0, ingress_b = 1;
  // Pick a probe the network delivers from BOTH ingresses, so the redirect
  // below perturbs both answers.
  PacketHeader probe = w.trace[0];
  bool found = false;
  for (const PacketHeader& h : w.trace) {
    if (w.reference.query(h, ingress_a).delivered() &&
        w.reference.query(h, ingress_b).delivered()) {
      probe = h;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no doubly-deliverable probe in the trace";

  // A high-priority /32 redirect at the probe's delivery box perturbs the
  // final hop of every path toward it.
  const Behavior base_a = w.reference.query(probe, ingress_a);
  const BoxId redirect_box = base_a.deliveries[0].box;
  const auto& ports = w.data.net.topology.box(redirect_box).ports;
  std::uint32_t other_port = base_a.deliveries[0].port;
  for (std::uint32_t p = 0; p < ports.size(); ++p)
    if (p != base_a.deliveries[0].port) other_port = p;
  ASSERT_NE(other_port, base_a.deliveries[0].port) << "need a second port";
  RuleSpec spec;
  spec.box = redirect_box;
  spec.rule.dst = Ipv4Prefix{probe.dst_ip(), 32};
  spec.rule.egress_port = other_port;
  spec.rule.priority = 1000;

  // Expected answer pairs per epoch parity, from a forked reference.
  const std::string without_a = format_behavior_summary(base_a);
  const std::string without_b =
      format_behavior_summary(w.reference.query(probe, ingress_b));
  auto fork = w.reference.fork();
  fork->insert_fib_rule(spec.box, spec.rule);
  const std::string with_a = format_behavior_summary(fork->query(probe, ingress_a));
  const std::string with_b = format_behavior_summary(fork->query(probe, ingress_b));
  ASSERT_NE(with_a, without_a) << "redirect must perturb ingress A";
  ASSERT_NE(with_b, without_b) << "redirect must perturb ingress B";

  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  std::vector<ShardedCluster::BatchItem> batch(2);
  batch[0].is_query = true;
  batch[0].header = probe;
  batch[0].ingress = ingress_a;
  batch[1].is_query = true;
  batch[1].header = probe;
  batch[1].ingress = ingress_b;

  constexpr int kToggles = 6;
  std::atomic<bool> done{false};
  std::atomic<int> mixed{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      ShardedCluster::BatchAnswers answers;
      std::string a, b;
      while (!done.load(std::memory_order_acquire)) {
        cluster.run_batch_into(batch, answers);
        const bool rule_live = answers.epoch % 2 == 1;
        a.clear();
        b.clear();
        answers.append_line(0, a);
        answers.append_line(1, b);
        if (a != (rule_live ? with_a : without_a) || b != (rule_live ? with_b : without_b))
          mixed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int k = 1; k <= kToggles; ++k) {
    if (k % 2 == 1)
      cluster.add_rule(spec);
    else
      cluster.remove_rule(spec);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(mixed.load(), 0) << "mixed-epoch batch observed";
  EXPECT_EQ(cluster.epoch(), static_cast<std::uint64_t>(kToggles));
}

TEST(ShardedCluster, WalRecoveryRestoresUpdatesAcrossShards) {
  ClusterWorld w;
  const std::string dir = ::testing::TempDir() + "apc_cluster_wal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  RuleSpec r1;
  r1.box = 0;
  r1.rule.dst = parse_prefix("10.50.0.0/16");
  r1.rule.egress_port = 0;
  r1.rule.priority = 70;
  RuleSpec r2;  // owner shard 1 — exercises the cross-file seq merge
  r2.box = 1;
  r2.rule.dst = parse_prefix("10.60.0.0/16");
  r2.rule.egress_port = 0;
  r2.rule.priority = 71;

  RuleSpec r3 = r1;  // owner shard 0, through a group
  r3.box = 2;
  r3.rule.dst = parse_prefix("10.61.0.0/16");
  RuleSpec r4 = r2;  // owner shard 1, through a group
  r4.box = 3;
  r4.rule.dst = parse_prefix("10.62.0.0/16");

  auto opts = w.cluster_options(2);
  opts.wal_dir = dir;
  // One update at a time, then a group spanning both owner shards whose
  // records depend on each other and on the history before it.
  const std::vector<ShardedCluster::Update> group = {
      {true, r3}, {true, r4}, {false, r2}, {true, r2}, {false, r3}, {true, r3}, {true, r1}};
  {
    ShardedCluster cluster(w.data.net, opts);
    cluster.add_rule(r1);
    cluster.add_rule(r2);
    cluster.add_rule(r1);     // same rule again: journal order must hold
    cluster.remove_rule(r1);  // ...because remove pops one instance
    std::vector<ShardedCluster::UpdateOutcome> out;
    cluster.apply_updates(group, out);
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i].epoch, 5 + i) << out[i].message;
  }

  // Recovery replays the merged journal before the first publish: epoch
  // restarts at 0 but the rules are back, as a one-by-one replay has them.
  ShardedCluster recovered(w.data.net, opts);
  EXPECT_EQ(recovered.epoch(), 0u);
  EXPECT_EQ(recovered.updates_applied(), 4u + group.size());

  auto fork = w.reference.fork();
  fork->insert_fib_rule(r1.box, r1.rule);
  fork->insert_fib_rule(r2.box, r2.rule);
  fork->insert_fib_rule(r1.box, r1.rule);
  fork->remove_fib_rule(r1.box, r1.rule);
  for (const ShardedCluster::Update& u : group) {
    if (u.add)
      fork->insert_fib_rule(u.spec.box, u.spec.rule);
    else
      fork->remove_fib_rule(u.spec.box, u.spec.rule);
  }

  std::vector<ShardedCluster::BatchItem> items;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 24; ++i) {
    ShardedCluster::BatchItem q;
    q.is_query = true;
    q.header = w.trace[i];
    q.ingress = static_cast<BoxId>(i % w.data.net.topology.box_count());
    items.push_back(q);
    expected.push_back(format_behavior_summary(fork->query(q.header, q.ingress)));
  }
  const auto res = recovered.run_batch(items);
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(res.lines[i], expected[i]) << "item " << i;
  std::filesystem::remove_all(dir);
}

// A CRC-valid record whose sequence number does not fit in 64 bits must
// not wrap (here to 1, where it would tie with a real record 1 in the
// replay sort): recovery refuses it as a parse error naming the sequence.
TEST(ShardedCluster, WalSequenceOverflowIsRejected) {
  ClusterWorld w;
  const std::string dir = ::testing::TempDir() + "apc_cluster_wal_overflow";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string seq = "18446744073709551617";
  {
    io::Wal wal(dir + "/shard0.wal", io::WalOptions{});
    wal.append(seq + " A fib 0 10.50.0.0/16 0 16");
  }
  auto opts = w.cluster_options(2);
  opts.wal_dir = dir;
  try {
    ShardedCluster cluster(w.data.net, opts);
    ADD_FAILURE() << "recovery accepted sequence " << seq;
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParse) << e.what();
    EXPECT_NE(std::string(e.what()).find(seq), std::string::npos) << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardedCluster, GroupValidatesAgainstEarlierRecords) {
  ClusterWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  RuleSpec x;  // absent at first
  x.box = 1;
  x.rule.dst = parse_prefix("10.71.0.0/16");
  x.rule.egress_port = 0;
  x.rule.priority = 75;

  // [A X, R X, R X]: the first remove matches the add before it in the
  // group, the second finds nothing left.
  std::vector<ShardedCluster::UpdateOutcome> out;
  cluster.apply_updates(std::vector<ShardedCluster::Update>{{true, x}, {false, x}, {false, x}},
                        out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].epoch, 1u) << out[0].message;
  EXPECT_EQ(out[1].epoch, 2u) << out[1].message;
  EXPECT_FALSE(out[2].applied());
  EXPECT_EQ(out[2].error, ErrorCode::kInvalidArgument) << out[2].message;
  EXPECT_NE(out[2].message.find("no rule"), std::string::npos) << out[2].message;
  EXPECT_EQ(cluster.epoch(), 2u);
  EXPECT_EQ(cluster.updates_applied(), 2u);

  // Instances count: two adds admit two removes, not three.  The outcomes
  // vector is reused across groups.
  const std::vector<ShardedCluster::Update> twice = {
      {true, x}, {true, x}, {false, x}, {false, x}, {false, x}};
  cluster.apply_updates(twice, out);
  ASSERT_EQ(out.size(), twice.size());
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].epoch, 3 + i) << out[i].message;
  EXPECT_EQ(out[4].error, ErrorCode::kInvalidArgument);
  EXPECT_EQ(cluster.epoch(), 6u);

  // The shards agree with a reference that never saw X.
  std::vector<ShardedCluster::BatchItem> items;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 16; ++i) {
    ShardedCluster::BatchItem q;
    q.is_query = true;
    q.header = w.trace[i];
    q.ingress = static_cast<BoxId>(i % w.data.net.topology.box_count());
    items.push_back(q);
    expected.push_back(format_behavior_summary(w.reference.query(q.header, q.ingress)));
  }
  const auto res = cluster.run_batch(items);
  EXPECT_EQ(res.epoch, 6u);
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(res.lines[i], expected[i]) << "item " << i;
}

TEST(ShardedCluster, IdleShardStatsReportZeroPercentiles) {
  ClusterWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  // One batch through run_batch, whose fresh cursor starts at shard 0:
  // shard 0 answers it and shard 1 stays idle.
  std::vector<ShardedCluster::BatchItem> items(4);
  for (auto& it : items) {
    it.is_query = true;
    it.header = w.trace[0];
    it.ingress = 0;
  }
  (void)cluster.run_batch(items);

  const obs::MetricsSnapshot stats = cluster.stats();  // must not throw
  const auto* busy = stats.find("shard0.batch_us.count");
  const auto* idle_p99 = stats.find("shard1.batch_us.p99");
  const auto* idle_count = stats.find("shard1.batch_us.count");
  ASSERT_NE(busy, nullptr);
  ASSERT_NE(idle_p99, nullptr);
  ASSERT_NE(idle_count, nullptr);
  EXPECT_GT(busy->value, 0.0);
  EXPECT_EQ(idle_count->value, 0.0);
  EXPECT_EQ(idle_p99->value, 0.0) << "idle shard must report 0, not throw";
  ASSERT_NE(stats.find("cluster.epoch"), nullptr);
  ASSERT_NE(stats.find("shard1.engine.publish_count"), nullptr);
}

// A GO batch is one engine call on one replica, whatever its mix: a batch
// of C items and Q items at every ingress grows the engine batch-call
// counts, summed over the shards, by exactly one, and that call answers
// every item.
TEST(ShardedCluster, MixedBatchIsOneEngineCallOnOneReplica) {
  ClusterWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(4));
  std::vector<ShardedCluster::BatchItem> items;
  std::vector<std::string> expected;
  mixed_batch_at_every_ingress(w, items, expected);
  ASSERT_GT(items.size(), 2 * cluster.shard_count());
  const auto sum = [](const std::vector<double>& v) {
    double total = 0;
    for (const double x : v) total += x;
    return total;
  };
  ShardedCluster::BatchAnswers answers;
  for (std::size_t go = 0; go < 2 * cluster.shard_count(); ++go) {
    const double calls = sum(shard_rows(cluster, "engine.batch_size.count"));
    const double answered = sum(shard_rows(cluster, "engine.queries_answered"));
    cluster.run_batch_into(items, answers);
    EXPECT_EQ(sum(shard_rows(cluster, "engine.batch_size.count")), calls + 1) << "GO " << go;
    EXPECT_EQ(sum(shard_rows(cluster, "engine.queries_answered")),
              answered + static_cast<double>(items.size()))
        << "GO " << go;
    EXPECT_FALSE(answers.degraded);
    EXPECT_EQ(answer_lines(answers), expected) << "GO " << go;
  }
}

// One connection's batches visit the routable shards in turn (its
// BatchAnswers carries the cursor), and a fresh BatchAnswers, as in
// run_batch, starts at shard 0.
TEST(ShardedCluster, ConsecutiveBatchesVisitEveryShardInTurn) {
  ClusterWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(3));
  std::vector<ShardedCluster::BatchItem> items;
  std::vector<std::string> expected;
  mixed_batch_at_every_ingress(w, items, expected);
  ShardedCluster::BatchAnswers answers;
  for (std::size_t go = 0; go < 2 * cluster.shard_count(); ++go) {
    const std::vector<double> before = shard_rows(cluster, "batch_us.count");
    cluster.run_batch_into(items, answers);
    EXPECT_EQ(answering_shard(before, shard_rows(cluster, "batch_us.count")),
              go % cluster.shard_count())
        << "GO " << go;
    EXPECT_EQ(answer_lines(answers), expected) << "GO " << go;
  }
  for (int k = 0; k < 2; ++k) {
    const std::vector<double> before = shard_rows(cluster, "batch_us.count");
    EXPECT_EQ(cluster.run_batch(items).lines, expected);
    EXPECT_EQ(answering_shard(before, shard_rows(cluster, "batch_us.count")), 0u);
  }
}

// A quarantined shard serves no batch: the cursor skips it, and a skip is
// not a degraded reply.  The resync worker re-admits the shard within
// milliseconds, so only batches that saw it quarantined before and after
// they ran are checked; each episode yields several.
TEST(ShardedCluster, QuarantinedShardServesNoBatch) {
  ClusterWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(3));
  std::vector<ShardedCluster::BatchItem> items;
  std::vector<std::string> expected;
  mixed_batch_at_every_ingress(w, items, expected);
  const auto quarantined = [&] { return cluster.shard_state(1) == ShardState::kQuarantined; };
  ShardedCluster::BatchAnswers answers;
  std::size_t checked = 0;
  for (int episode = 0; episode < 50 && checked < 16; ++episode) {
    cluster.quarantine_shard(1);
    for (bool again = true; again;) {
      const bool before_q = quarantined();
      const std::vector<double> before = shard_rows(cluster, "batch_us.count");
      cluster.run_batch_into(items, answers);
      const std::size_t s = answering_shard(before, shard_rows(cluster, "batch_us.count"));
      again = quarantined();
      EXPECT_EQ(answer_lines(answers), expected);
      EXPECT_FALSE(answers.degraded);
      EXPECT_LT(s, cluster.shard_count());
      if (!before_q || !again) continue;
      ++checked;
      EXPECT_NE(s, 1u) << "episode " << episode;
    }
  }
  EXPECT_GT(checked, 0u) << "no batch ran while shard 1 was quarantined";
  EXPECT_EQ(cluster.reroutes(), 0u);
}

// ---------------------------------------------------------------- tcp front

/// Minimal blocking line client for the tests.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  void send(const std::string& s) {
    std::size_t off = 0;
    while (off < s.size()) {
      const ssize_t n = ::send(fd_, s.data() + off, s.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  }

  /// Next '\n'-terminated line (without the terminator); "" on EOF.
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True on EOF (orderly close from the server side).
  bool at_eof() {
    char c;
    return ::recv(fd_, &c, 1, 0) <= 0;
  }

  /// Abrupt close: RST instead of FIN, like a crashed client.
  void kill() {
    if (fd_ < 0) return;
    struct linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct ServerWorld : ClusterWorld {
  ShardedCluster cluster;
  TcpServer server;

  ServerWorld()
      : ClusterWorld(7),
        cluster(data.net, cluster_options(2)),
        server(cluster, TcpServer::Options{}) {}
};

TEST(TcpServer, BatchedQueriesEndToEnd) {
  ServerWorld w;
  LineClient client(w.server.port());
  ASSERT_TRUE(client.ok());

  std::string out;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 16; ++i) {
    const PacketHeader& h = w.trace[i];
    out += format_classify(h);
    out += '\n';
    expected.push_back("A " + std::to_string(w.reference.classify(h)));
    const BoxId ingress = static_cast<BoxId>(i % w.data.net.topology.box_count());
    out += format_query(ingress, h);
    out += '\n';
    expected.push_back(format_behavior_summary(w.reference.query(h, ingress)));
  }
  out += "GO\n";
  client.send(out);

  const std::string status = client.read_line();
  EXPECT_EQ(status, "201 0 " + std::to_string(expected.size()));
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(client.read_line(), expected[i]) << "answer " << i;

  // EPOCH and STATS on the same connection.
  client.send("EPOCH\n");
  EXPECT_EQ(client.read_line(), "200 0");
  client.send("STATS\n");
  const std::string stats_status = client.read_line();
  ASSERT_EQ(stats_status.rfind("202 ", 0), 0u) << stats_status;
  const std::size_t rows = std::stoul(stats_status.substr(4));
  ASSERT_GT(rows, 0u);
  bool saw_epoch_row = false;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::string row = client.read_line();
    ASSERT_FALSE(row.empty());
    if (row.rfind("cluster.epoch ", 0) == 0) saw_epoch_row = true;
  }
  EXPECT_TRUE(saw_epoch_row);
}

TEST(TcpServer, MalformedLineKeepsConnectionAndBatch) {
  ServerWorld w;
  LineClient client(w.server.port());
  ASSERT_TRUE(client.ok());

  const PacketHeader h = w.trace[0];
  client.send(format_classify(h) + "\n");
  client.send("C 1 2 3\n");  // malformed: too few words
  const std::string err = client.read_line();
  EXPECT_EQ(err.rfind("400 ", 0), 0u) << err;
  EXPECT_NE(err.find("expected 5 header words"), std::string::npos) << err;
  // The batched C survived the bad line.
  client.send("GO\n");
  EXPECT_EQ(client.read_line(), "201 0 1");
  EXPECT_EQ(client.read_line(), "A " + std::to_string(w.reference.classify(h)));
}

TEST(TcpServer, OutOfRangeIngressGets400AndKeepsTheBatch) {
  ServerWorld w;
  LineClient client(w.server.port());
  ASSERT_TRUE(client.ok());

  const BoxId boxes = static_cast<BoxId>(w.data.net.topology.box_count());
  const PacketHeader h = w.trace[0];
  client.send(format_classify(h) + "\n" + format_query(boxes + 3, h) + "\n" +
              format_query(0, h) + "\nGO\n");
  EXPECT_EQ(client.read_line(), "400 [invalid_argument] line 2: ingress " +
                                    std::to_string(boxes + 3) + " out of range (" +
                                    std::to_string(boxes) + " boxes)");
  // The C and the valid Q before and after the bad line stay batched.
  EXPECT_EQ(client.read_line(), "201 0 2");
  EXPECT_EQ(client.read_line(), "A " + std::to_string(w.reference.classify(h)));
  EXPECT_EQ(client.read_line(), format_behavior_summary(w.reference.query(h, 0)));
  for (std::size_t i = 0; i < w.cluster.shard_count(); ++i)
    EXPECT_EQ(w.cluster.shard_state(i), ShardState::kHealthy) << "shard " << i;
}

TEST(TcpServer, OversizedLineGets400AndClose) {
  ServerWorld w;
  LineClient client(w.server.port());
  ASSERT_TRUE(client.ok());
  // Stream an endless unterminated line past the cap.
  const std::string blob(io::kMaxLineBytes + 4096, 'x');
  client.send(blob);
  const std::string err = client.read_line();
  EXPECT_EQ(err.rfind("400 ", 0), 0u) << err;
  EXPECT_NE(err.find("cap"), std::string::npos) << err;
  EXPECT_TRUE(client.at_eof());
}

TEST(TcpServer, PartialLinesAcrossWritesReassemble) {
  ServerWorld w;
  LineClient client(w.server.port());
  ASSERT_TRUE(client.ok());
  const PacketHeader h = w.trace[0];
  const std::string wire = format_query(2, h) + "\nGO\n";
  // Dribble the bytes a few at a time across separate sends.
  for (std::size_t off = 0; off < wire.size(); off += 3)
    client.send(wire.substr(off, 3));
  EXPECT_EQ(client.read_line(), "201 0 1");
  EXPECT_EQ(client.read_line(), format_behavior_summary(w.reference.query(h, 2)));
}

TEST(TcpServer, OversizedTerminatedLineGets400AndClose) {
  // Just past the cap and terminated: the line fits one read plus a bit,
  // and must still be refused as a blob, not parsed.
  ServerWorld w;
  LineClient client(w.server.port());
  ASSERT_TRUE(client.ok());
  client.send(std::string(io::kMaxLineBytes + 1, 'x') + "\n" + format_classify(w.trace[0]) +
              "\nGO\n");
  const std::string err = client.read_line();
  EXPECT_EQ(err.rfind("400 ", 0), 0u) << err;
  EXPECT_NE(err.find("cap"), std::string::npos) << err;
  EXPECT_TRUE(client.at_eof());
}

TEST(TcpServer, PipelinedBatchLargerThanTheReceiveBufferIsAnswered) {
  // ~300 KB of lines in one send: lines straddle read boundaries and the
  // buffer compacts several times; every answer must come back in order,
  // and a second batch on the same connection must reuse it cleanly.
  ServerWorld w;
  LineClient client(w.server.port());
  ASSERT_TRUE(client.ok());
  for (int round = 0; round < 2; ++round) {
    std::string out;
    std::vector<std::string> expected;
    for (std::size_t i = 0; i < 8000; ++i) {
      const PacketHeader& h = w.trace[(i + static_cast<std::size_t>(round)) % w.trace.size()];
      if (i % 3 == 0) {
        out += format_classify(h) + "\r\n";
        expected.push_back("A " + std::to_string(w.reference.classify(h)));
      } else {
        const BoxId ingress = static_cast<BoxId>(i % w.data.net.topology.box_count());
        out += format_query(ingress, h) + "\n";
        expected.push_back(format_behavior_summary(w.reference.query(h, ingress)));
      }
    }
    out += "GO\n";
    client.send(out);
    ASSERT_EQ(client.read_line(), "201 0 " + std::to_string(expected.size()));
    for (std::size_t i = 0; i < expected.size(); ++i)
      ASSERT_EQ(client.read_line(), expected[i]) << "round " << round << " answer " << i;
  }
}

TEST(TcpServer, InterleavedUpdateAndQueryConnections) {
  ServerWorld w;
  LineClient updater(w.server.port());
  LineClient querier(w.server.port());
  ASSERT_TRUE(updater.ok());
  ASSERT_TRUE(querier.ok());

  RuleSpec spec;
  spec.box = 0;
  spec.rule.dst = parse_prefix("10.88.0.0/16");
  spec.rule.egress_port = 0;
  spec.rule.priority = 60;

  const PacketHeader h = w.trace[1];
  std::uint64_t last_epoch = 0;
  for (int round = 1; round <= 3; ++round) {
    updater.send(format_rule(round % 2 == 1, spec) + "\n");
    const std::string reply = updater.read_line();
    ASSERT_EQ(reply.rfind("200 ", 0), 0u) << reply;
    const std::uint64_t epoch = std::stoull(reply.substr(4));
    EXPECT_EQ(epoch, static_cast<std::uint64_t>(round));
    EXPECT_GT(epoch, last_epoch);
    last_epoch = epoch;

    querier.send(format_query(1, h) + "\nGO\n");
    const std::string status = querier.read_line();
    ASSERT_EQ(status.rfind("201 ", 0), 0u) << status;
    // The batch pinned the epoch that was current when it ran.
    EXPECT_EQ(status, "201 " + std::to_string(epoch) + " 1");
    EXPECT_FALSE(querier.read_line().empty());
  }
}

TEST(TcpServer, ClientKilledMidBatchDrainsCleanly) {
  ServerWorld w;
  {
    LineClient doomed(w.server.port());
    ASSERT_TRUE(doomed.ok());
    // Buffer work but never GO, then die abruptly (RST).
    std::string out;
    for (int i = 0; i < 8; ++i) out += format_classify(w.trace[0]) + "\n";
    doomed.send(out);
    doomed.kill();
  }
  // The server must shrug it off: a healthy client gets full service and
  // the abandoned batch was never executed (epoch untouched, answers
  // correct).
  LineClient healthy(w.server.port());
  ASSERT_TRUE(healthy.ok());
  healthy.send(format_classify(w.trace[1]) + "\nGO\n");
  EXPECT_EQ(healthy.read_line(), "201 0 1");
  EXPECT_EQ(healthy.read_line(),
            "A " + std::to_string(w.reference.classify(w.trace[1])));
  EXPECT_GE(w.server.connections_accepted(), 2u);
}

/// Sum of a stat row over every shard ("shard<i>.<suffix>").
double shard_stat_sum(const ShardedCluster& cluster, const std::string& suffix) {
  const obs::MetricsSnapshot stats = cluster.stats();
  double sum = 0;
  for (std::size_t i = 0; i < cluster.shard_count(); ++i)
    if (const auto* row = stats.find("shard" + std::to_string(i) + "." + suffix))
      sum += row->value;
  return sum;
}

double cluster_stat(const ShardedCluster& cluster, const std::string& name) {
  const obs::MetricsSnapshot stats = cluster.stats();
  const auto* row = stats.find(name);
  EXPECT_NE(row, nullptr) << name;
  return row ? row->value : -1.0;
}

TEST(TcpServer, PipelinedUpdatesShareOnePublish) {
  ServerWorld w;
  LineClient client(w.server.port());
  ASSERT_TRUE(client.ok());
  std::vector<std::uint64_t> publishes;
  for (std::size_t i = 0; i < w.cluster.shard_count(); ++i)
    publishes.push_back(w.cluster.shard(i)->publish_count());

  // 8 A/R lines in one send, owned by both shards: one group.
  const BoxId boxes = static_cast<BoxId>(w.data.net.topology.box_count());
  std::vector<std::pair<bool, RuleSpec>> updates;
  for (std::uint32_t k = 0; k < 6; ++k) {
    RuleSpec r;
    r.box = k % boxes;
    r.rule.dst = Ipv4Prefix{(10u << 24) | ((80u + k) << 16), 16};
    r.rule.egress_port = 0;
    updates.emplace_back(true, r);
  }
  updates.emplace_back(false, updates[0].second);
  updates.emplace_back(false, updates[3].second);
  std::string wire;
  for (const auto& [add, r] : updates) wire += format_rule(add, r) + "\n";
  client.send(wire);
  for (std::size_t k = 0; k < updates.size(); ++k)
    EXPECT_EQ(client.read_line(), "200 " + std::to_string(k + 1)) << "update " << k;

  for (std::size_t i = 0; i < w.cluster.shard_count(); ++i)
    EXPECT_EQ(w.cluster.shard(i)->publish_count(), publishes[i] + 1) << "shard " << i;
  EXPECT_EQ(cluster_stat(w.cluster, "cluster.update_group_size.count"), 1.0);
  EXPECT_EQ(cluster_stat(w.cluster, "cluster.update_group_size.max"), 8.0);
  EXPECT_EQ(cluster_stat(w.cluster, "cluster.update_group_size.mean"), 8.0);
  EXPECT_GT(cluster_stat(w.cluster, "cluster.update_group_ms.p50"), 0.0);
  EXPECT_GE(cluster_stat(w.cluster, "cluster.update_group_ms.p99"),
            cluster_stat(w.cluster, "cluster.update_group_ms.p50"));

  // A following batch answers like a reference with all 8 applied.
  auto fork = w.reference.fork();
  for (const auto& [add, r] : updates) {
    if (add)
      fork->insert_fib_rule(r.box, r.rule);
    else
      fork->remove_fib_rule(r.box, r.rule);
  }
  std::string batch;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 24; ++i) {
    const BoxId ingress = static_cast<BoxId>(i % boxes);
    batch += format_query(ingress, w.trace[i]) + "\n";
    expected.push_back(format_behavior_summary(fork->query(w.trace[i], ingress)));
  }
  client.send(batch + "GO\n");
  EXPECT_EQ(client.read_line(), "201 8 " + std::to_string(expected.size()));
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(client.read_line(), expected[i]) << "answer " << i;
}

TEST(TcpServer, UpdateRepliesKeepLineOrder) {
  ServerWorld w;
  // x: a /32 redirect at the probe's delivery box, so a query sees it.
  PacketHeader probe = w.trace[0];
  for (const PacketHeader& h : w.trace)
    if (w.reference.query(h, 0).delivered()) {
      probe = h;
      break;
    }
  const Behavior base = w.reference.query(probe, 0);
  ASSERT_TRUE(base.delivered());
  RuleSpec x;
  x.box = base.deliveries[0].box;
  x.rule.dst = Ipv4Prefix{probe.dst_ip(), 32};
  x.rule.egress_port = base.deliveries[0].port == 0 ? 1 : 0;
  x.rule.priority = 1000;
  RuleSpec y;
  y.box = 1;
  y.rule.dst = parse_prefix("10.90.0.0/16");
  y.rule.egress_port = 0;
  RuleSpec z = y;
  z.rule.dst = parse_prefix("10.91.0.0/16");

  auto fork = w.reference.fork();
  fork->insert_fib_rule(x.box, x.rule);
  fork->insert_fib_rule(y.box, y.rule);
  const std::string with_xy = format_behavior_summary(fork->query(probe, 0));
  ASSERT_NE(with_xy, format_behavior_summary(base)) << "x must change the probe";

  LineClient client(w.server.port());
  ASSERT_TRUE(client.ok());
  client.send(format_rule(true, x) + "\nEPOCH\n" + format_rule(true, y) + "\n" +
              format_query(0, probe) + "\nGO\n" + format_rule(false, x) +
              "\ngarbage\n" + format_rule(true, z) + "\n");
  EXPECT_EQ(client.read_line(), "200 1");  // A x
  EXPECT_EQ(client.read_line(), "200 1");  // EPOCH sees x
  EXPECT_EQ(client.read_line(), "200 2");  // A y
  EXPECT_EQ(client.read_line(), "201 2 1");  // GO sees x and y
  EXPECT_EQ(client.read_line(), with_xy);
  EXPECT_EQ(client.read_line(), "200 3");  // R x, flushed before the 400
  const std::string err = client.read_line();
  EXPECT_EQ(err.rfind("400 ", 0), 0u) << err;
  EXPECT_EQ(client.read_line(), "200 4");  // A z, a group of its own
  EXPECT_EQ(cluster_stat(w.cluster, "cluster.update_group_size.count"), 4.0);
}

TEST(TcpServer, UpdateGroupFlushesAtTheCap) {
  ServerWorld w;
  LineClient client(w.server.port());
  ASSERT_TRUE(client.ok());
  std::vector<std::uint64_t> publishes;
  for (std::size_t i = 0; i < w.cluster.shard_count(); ++i)
    publishes.push_back(w.cluster.shard(i)->publish_count());

  // More A lines than one group holds, in one send: a full group at the
  // cap, then the rest once the buffer holds no whole line.
  const std::size_t n = TcpServer::kMaxUpdateGroup + 6;
  const BoxId boxes = static_cast<BoxId>(w.data.net.topology.box_count());
  std::string wire;
  for (std::uint32_t k = 0; k < n; ++k) {
    RuleSpec r;
    r.box = k % boxes;
    r.rule.dst = Ipv4Prefix{(10u << 24) | (120u << 16) | (k << 8), 24};
    r.rule.egress_port = 0;
    wire += format_rule(true, r) + "\n";
  }
  client.send(wire);
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_EQ(client.read_line(), "200 " + std::to_string(k + 1)) << "update " << k;

  EXPECT_EQ(cluster_stat(w.cluster, "cluster.update_group_size.count"), 2.0);
  EXPECT_EQ(cluster_stat(w.cluster, "cluster.update_group_size.max"),
            static_cast<double>(TcpServer::kMaxUpdateGroup));
  for (std::size_t i = 0; i < w.cluster.shard_count(); ++i)
    EXPECT_EQ(w.cluster.shard(i)->publish_count(), publishes[i] + 2) << "shard " << i;
}

TEST(ShardedCluster, InvalidUpdateIsRejectedBeforeTheWal) {
  ClusterWorld w;
  const std::string dir = ::testing::TempDir() + "apc_cluster_invalid_wal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto opts = w.cluster_options(2);
  opts.wal_dir = dir;
  const Topology& topo = w.data.net.topology;

  RuleSpec good;
  good.box = 1;
  good.rule.dst = parse_prefix("10.70.0.0/16");
  good.rule.egress_port = 0;
  RuleSpec absent;  // no such rule on box 0
  absent.box = 0;
  absent.rule.dst = parse_prefix("203.0.113.0/24");
  absent.rule.egress_port = 0;
  RuleSpec bad_box = absent;
  bad_box.box = static_cast<BoxId>(topo.box_count());
  RuleSpec bad_port = absent;
  bad_port.rule.egress_port = static_cast<std::uint32_t>(topo.box(0).ports.size());

  auto fork = w.reference.fork();
  fork->insert_fib_rule(good.box, good.rule);
  std::vector<ShardedCluster::BatchItem> probes;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 24; ++i) {
    ShardedCluster::BatchItem q;
    q.is_query = true;
    q.header = w.trace[i];
    q.ingress = static_cast<BoxId>(i % topo.box_count());
    probes.push_back(q);
    expected.push_back(format_behavior_summary(fork->query(q.header, q.ingress)));
  }
  const auto expect_reference = [&](const ShardedCluster& c) {
    const auto res = c.run_batch(probes);
    EXPECT_FALSE(res.degraded);
    ASSERT_EQ(res.lines.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(res.lines[i], expected[i]) << "item " << i;
  };

  {
    ShardedCluster cluster(w.data.net, opts);
    EXPECT_EQ(cluster.add_rule(good), 1u);
    const double records = shard_stat_sum(cluster, "wal_records");
    EXPECT_EQ(records, 1.0);
    const auto expect_invalid = [](const std::function<void()>& call, const char* what) {
      try {
        call();
        ADD_FAILURE() << what << " was applied";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << what << ": " << e.what();
      }
    };
    expect_invalid([&] { cluster.remove_rule(absent); }, "remove of an absent rule");
    expect_invalid([&] { cluster.add_rule(bad_box); }, "add on a box out of range");
    expect_invalid([&] { cluster.remove_rule(bad_box); }, "remove on a box out of range");
    expect_invalid([&] { cluster.add_rule(bad_port); }, "add to a port out of range");

    TcpServer server(cluster, TcpServer::Options{});
    LineClient client(server.port());
    ASSERT_TRUE(client.ok());
    client.send(format_rule(false, absent) + "\n" + format_rule(true, bad_box) + "\n" +
                format_rule(true, bad_port) + "\nEPOCH\n");
    for (int i = 0; i < 3; ++i) {
      const std::string reply = client.read_line();
      EXPECT_EQ(reply.rfind("400 ", 0), 0u) << reply;
    }
    EXPECT_EQ(client.read_line(), "200 1");

    EXPECT_EQ(cluster.epoch(), 1u);
    EXPECT_EQ(cluster.updates_applied(), 1u);
    EXPECT_EQ(shard_stat_sum(cluster, "wal_records"), records);
    for (std::size_t i = 0; i < cluster.shard_count(); ++i) {
      EXPECT_EQ(cluster.shard_state(i), ShardState::kHealthy) << "shard " << i;
      EXPECT_FALSE(cluster.shard_read_only(i)) << "shard " << i;
    }
    EXPECT_EQ(cluster_stat(cluster, "cluster.quarantines"), 0.0);
    expect_reference(cluster);
  }

  // A restart on the same directory replays the one good record.
  {
    ShardedCluster recovered(w.data.net, opts);
    EXPECT_EQ(recovered.updates_applied(), 1u);
    EXPECT_EQ(cluster_stat(recovered, "cluster.wal_records_skipped"), 0.0);
    expect_reference(recovered);
  }

  // A WAL journaled before the check existed: bad records written straight
  // through io::Wal are skipped and counted, and the cluster still opens.
  {
    io::Wal wal(dir + "/shard0.wal", opts.wal);
    RuleSpec canon = absent;
    canon.rule.priority = canon.rule.effective_priority();
    wal.append("7 " + format_rule(false, canon));
    RuleSpec far = bad_box;
    far.rule.priority = far.rule.effective_priority();
    wal.append("8 " + format_rule(true, far));
  }
  {
    ShardedCluster recovered(w.data.net, opts);
    EXPECT_EQ(recovered.updates_applied(), 1u);
    EXPECT_EQ(cluster_stat(recovered, "cluster.wal_records_skipped"), 2.0);
    expect_reference(recovered);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace apc::server
