// Tests for rule-level updates (paper SS VI-A: converting a rule
// insertion/deletion into predicate changes, then updating the AP Tree).
#include <gtest/gtest.h>

#include "baselines/forwarding_sim.hpp"
#include "classifier/classifier.hpp"
#include "datasets/traces.hpp"
#include "engine/program_proof.hpp"
#include "io/network_io.hpp"
#include "util/rng.hpp"

namespace apc {
namespace {

struct World {
  NetworkModel net;
  std::shared_ptr<bdd::BddManager> mgr =
      std::make_shared<bdd::BddManager>(HeaderLayout::kBits);
  std::unique_ptr<ApClassifier> clf;
  BoxId a, b;

  World() {
    net = io::read_network_string(R"(
box a
box b
link a b
hostport a h1
hostport b h2
fib a 10.1.0.0/16 1
fib a 10.2.0.0/16 0
fib b 10.2.0.0/16 1
)");
    a = 0;
    b = 1;
    clf = std::make_unique<ApClassifier>(net, mgr);
  }

  PacketHeader pkt(const char* dst) const {
    return PacketHeader::from_five_tuple(parse_ipv4("10.1.0.1"), parse_ipv4(dst),
                                         1000, 80, 6);
  }

  /// Publishes a snapshot of the classifier and proves its program exact
  /// (engine/program_proof.hpp).
  void expect_program_exact() const {
    const auto snap = engine::FlatSnapshot::build(*clf);
    const auto proof = engine::prove_program(*snap, *clf);
    EXPECT_TRUE(proof.ok()) << proof.summary();
  }

  void check_against_forwarding_sim() const {
    expect_program_exact();
    // After any update, classification + stage 2 must agree with direct
    // forwarding simulation over the *current* predicates.
    const ForwardingSimulation fsim(clf->compiled(), clf->network().topology,
                                    clf->registry());
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
      PacketHeader h = pkt("10.0.0.0");
      h.set_dst_ip((10u << 24) | static_cast<std::uint32_t>(rng.next() & 0x003FFFFF));
      const Behavior x = clf->query(h, 0);
      const Behavior y = fsim.query(h, 0);
      ASSERT_EQ(x.delivered(), y.delivered()) << h.to_string();
      if (x.delivered()) {
        ASSERT_EQ(x.deliveries[0], y.deliveries[0]);
      }
    }
  }
};

TEST(RuleUpdate, InsertMoreSpecificRuleRedirects) {
  World w;
  // Before: 10.2.9.x goes to b (delivered at h2).
  EXPECT_EQ(w.clf->query(w.pkt("10.2.9.9"), w.a).deliveries[0].box, w.b);

  // Insert a /24 at `a` that delivers locally at h1 instead.
  const auto res = w.clf->insert_fib_rule(w.a, {parse_prefix("10.2.9.0/24"), 1, -1});
  EXPECT_GE(res.predicates_changed, 1u);

  const Behavior after = w.clf->query(w.pkt("10.2.9.9"), w.a);
  ASSERT_TRUE(after.delivered());
  EXPECT_EQ(after.deliveries[0].box, w.a);  // now local
  // Unaffected traffic keeps its path.
  EXPECT_EQ(w.clf->query(w.pkt("10.2.1.1"), w.a).deliveries[0].box, w.b);
  w.check_against_forwarding_sim();
}

TEST(RuleUpdate, RemoveRuleRestoresOldBehavior) {
  World w;
  const ForwardingRule rule{parse_prefix("10.2.9.0/24"), 1, -1};
  w.clf->insert_fib_rule(w.a, rule);
  EXPECT_EQ(w.clf->query(w.pkt("10.2.9.9"), w.a).deliveries[0].box, w.a);

  const auto res = w.clf->remove_fib_rule(w.a, rule);
  EXPECT_GE(res.predicates_changed, 1u);
  EXPECT_EQ(w.clf->query(w.pkt("10.2.9.9"), w.a).deliveries[0].box, w.b);
  w.check_against_forwarding_sim();
}

TEST(RuleUpdate, RemoveMissingRuleThrows) {
  World w;
  EXPECT_THROW(w.clf->remove_fib_rule(w.a, {parse_prefix("99.0.0.0/8"), 0, -1}),
               Error);
}

TEST(RuleUpdate, ShadowedInsertIsNoOp) {
  World w;
  // Identical to an existing covering rule's behavior: same egress port,
  // fully shadow-equivalent -> per-port predicates unchanged, tree untouched.
  const std::size_t preds = w.clf->registry().size();
  const auto res = w.clf->insert_fib_rule(w.a, {parse_prefix("10.2.9.0/24"), 0, -1});
  EXPECT_EQ(res.predicates_changed, 0u);
  EXPECT_EQ(w.clf->registry().size(), preds);
  w.check_against_forwarding_sim();
}

TEST(RuleUpdate, InsertRuleForNewPortCreatesPredicate) {
  World w;
  // Box b has a link port 0 with no rules; route 10.3/16 back toward a.
  const auto res = w.clf->insert_fib_rule(w.b, {parse_prefix("10.3.0.0/16"), 0, -1});
  EXPECT_EQ(res.predicates_changed, 1u);
  // From b, 10.3 heads to a and is dropped there (no rule at a).
  const Behavior bh = w.clf->query(w.pkt("10.3.0.1"), w.b);
  EXPECT_FALSE(bh.delivered());
  ASSERT_EQ(bh.drops.size(), 1u);
  EXPECT_EQ(bh.drops[0].box, w.a);
  w.check_against_forwarding_sim();
}

TEST(RuleUpdate, RemovingLastRuleOfPortDeletesPredicate) {
  World w;
  const std::size_t live_before = w.clf->registry().live_count();
  w.clf->remove_fib_rule(w.b, {parse_prefix("10.2.0.0/16"), 1, -1});
  EXPECT_EQ(w.clf->registry().live_count(), live_before - 1);
  // 10.2 now dies at b.
  const Behavior bh = w.clf->query(w.pkt("10.2.1.1"), w.a);
  EXPECT_FALSE(bh.delivered());
  w.check_against_forwarding_sim();
}

TEST(RuleUpdate, SetInputAclUpdatesBehavior) {
  World w;
  Acl acl;
  AclRule deny;
  deny.dst_port = {23, 23};
  deny.proto = 6;
  deny.action = AclRule::Action::Deny;
  acl.rules.push_back(deny);
  const auto res = w.clf->set_input_acl(w.b, 0, acl);  // b's port toward a
  EXPECT_EQ(res.predicates_changed, 1u);

  PacketHeader telnet = w.pkt("10.2.1.1");
  telnet.set_dst_port(23);
  const Behavior blocked = w.clf->query(telnet, w.a);
  EXPECT_FALSE(blocked.delivered());
  ASSERT_EQ(blocked.drops.size(), 1u);
  EXPECT_EQ(blocked.drops[0].reason, Drop::Reason::InputAcl);
  // Non-telnet still flows.
  EXPECT_TRUE(w.clf->query(w.pkt("10.2.1.1"), w.a).delivered());

  // Replacing with an identical ACL is a no-op.
  const auto again = w.clf->set_input_acl(w.b, 0, acl);
  EXPECT_EQ(again.predicates_changed, 0u);
}

TEST(RuleUpdate, ChurnKeepsClassifierConsistent) {
  World w;
  Rng rng(11);
  std::vector<ForwardingRule> installed;
  for (int step = 0; step < 30; ++step) {
    if (rng.coin(0.65) || installed.empty()) {
      const std::uint8_t len = static_cast<std::uint8_t>(18 + rng.uniform(8));
      const Ipv4Prefix p{(10u << 24) | (2u << 16) |
                             (static_cast<std::uint32_t>(rng.next()) & 0xFF00u),
                         len};
      const ForwardingRule rule{p.normalized(),
                                static_cast<std::uint32_t>(rng.uniform(2)), -1};
      w.clf->insert_fib_rule(w.a, rule);
      installed.push_back(rule);
    } else {
      const std::size_t i = rng.uniform(installed.size());
      w.clf->remove_fib_rule(w.a, installed[i]);
      installed.erase(installed.begin() + static_cast<std::ptrdiff_t>(i));
    }
    w.expect_program_exact();
  }
  w.check_against_forwarding_sim();
  // Tree still has one leaf per live atom.
  EXPECT_EQ(w.clf->tree().leaf_count(), w.clf->atoms().alive_count());
}

TEST(RuleUpdate, RebuildAfterChurnShrinksState) {
  World w;
  for (int i = 0; i < 10; ++i) {
    w.clf->insert_fib_rule(
        w.a, {Ipv4Prefix{(10u << 24) | (2u << 16) | (static_cast<std::uint32_t>(i) << 8),
                         24},
              static_cast<std::uint32_t>(i % 2), -1});
  }
  const std::size_t dead = w.clf->registry().size() - w.clf->registry().live_count();
  EXPECT_GT(dead, 0u);  // churn left lazily-deleted predicates behind
  const std::size_t atoms_before = w.clf->atom_count();
  w.clf->rebuild();
  EXPECT_LE(w.clf->atom_count(), atoms_before);
  w.check_against_forwarding_sim();
}

/// Every live atom's witness header, queried from every box, must get the
/// same behavior from `x` and `y`.
void expect_same_answers_on_witnesses(const ApClassifier& x, const ApClassifier& y,
                                      const char* what) {
  Rng rng(5);
  for (const ApClassifier* from : {&x, &y}) {
    const auto reps = datasets::atom_representatives(from->atoms(), rng);
    for (const PacketHeader& h : reps.headers)
      for (BoxId box = 0; box < x.network().topology.box_count(); ++box)
        ASSERT_EQ(x.query(h, box), y.query(h, box)) << what << ": " << h.to_string();
  }
}

/// The first hop `clf` takes from `box` for destination `dst` must be the
/// port its own FIB's lookup picks (no ACLs in these worlds).
void expect_first_hop_matches_fib_lookup(const ApClassifier& clf, BoxId box,
                                         std::uint32_t dst) {
  PacketHeader h = PacketHeader::from_five_tuple(parse_ipv4("10.1.0.1"), dst, 1000, 80, 6);
  const Behavior b = clf.query(h, box);
  const auto port = clf.network().fib(box).lookup(dst);
  if (port) {
    ASSERT_FALSE(b.edges.empty()) << h.to_string();
    EXPECT_EQ(b.edges[0].box, box) << h.to_string();
    EXPECT_EQ(b.edges[0].out_port, *port) << h.to_string();
  } else {
    ASSERT_FALSE(b.drops.empty()) << h.to_string();
    EXPECT_EQ(b.drops[0].box, box) << h.to_string();
  }
}

TEST(RuleUpdate, LengthPrioritiesReplayLikePlainLpm) {
  // The WAL writes every rule with an explicit priority equal to its
  // prefix length.  Such rules take the incremental path, so a replayed
  // history must answer exactly like the same history without priorities
  // — and like a full compile of the final tables.
  World plain;
  World explicit_len;
  Rng rng(23);
  std::vector<std::pair<BoxId, ForwardingRule>> installed;
  for (int step = 0; step < 60; ++step) {
    if (rng.coin(0.6) || installed.empty()) {
      const BoxId box = static_cast<BoxId>(rng.uniform(2));
      const std::uint8_t len = static_cast<std::uint8_t>(12 + rng.uniform(14));
      const Ipv4Prefix p{(10u << 24) | (static_cast<std::uint32_t>(rng.next()) & 0x00FFFF00u),
                         len};
      // Two ports on each box; duplicates of a prefix with another port
      // exercise the "existing rule wins the tie" order.
      installed.push_back({box, {p.normalized(), static_cast<std::uint32_t>(rng.uniform(2)), -1}});
    } else {
      const std::size_t i = rng.uniform(installed.size());
      const auto [box, rule] = installed[i];
      installed.erase(installed.begin() + static_cast<std::ptrdiff_t>(i));
      ForwardingRule with_len = rule;
      with_len.priority = with_len.dst.len;
      plain.clf->remove_fib_rule(box, rule);
      explicit_len.clf->remove_fib_rule(box, with_len);
      continue;
    }
    const auto& [box, rule] = installed.back();
    ForwardingRule with_len = rule;
    with_len.priority = with_len.dst.len;
    plain.clf->insert_fib_rule(box, rule);
    explicit_len.clf->insert_fib_rule(box, with_len);
  }
  expect_same_answers_on_witnesses(*plain.clf, *explicit_len.clf, "plain vs length");
  const ApClassifier full(explicit_len.clf->network(), explicit_len.mgr);
  expect_same_answers_on_witnesses(full, *explicit_len.clf, "full compile vs length");
  for (int i = 0; i < 200; ++i) {
    const std::uint32_t dst = (10u << 24) | static_cast<std::uint32_t>(rng.next() & 0x00FFFFFFu);
    for (BoxId box = 0; box < 2; ++box)
      expect_first_hop_matches_fib_lookup(*explicit_len.clf, box, dst);
  }
}

TEST(RuleUpdate, CustomPriorityStillMatchesFibLookup) {
  // One genuinely custom priority (a /12 that outranks the longer prefixes
  // inside it) keeps the box on the full recompile, before and after
  // further length-priority updates.
  World w;
  w.clf->insert_fib_rule(w.a, {parse_prefix("10.0.0.0/12"), 1, 30});
  w.clf->insert_fib_rule(w.a, {parse_prefix("10.2.128.0/17"), 0, 17});
  w.clf->insert_fib_rule(w.a, {parse_prefix("10.2.3.0/24"), 0, -1});
  w.clf->remove_fib_rule(w.a, {parse_prefix("10.2.0.0/16"), 0, -1});
  w.clf->insert_fib_rule(w.a, {parse_prefix("10.32.0.0/11"), 0, 11});
  Rng rng(31);
  for (int i = 0; i < 300; ++i) {
    const std::uint32_t dst = (10u << 24) | static_cast<std::uint32_t>(rng.next() & 0x003FFFFFu);
    expect_first_hop_matches_fib_lookup(*w.clf, w.a, dst);
  }
  for (const char* dst : {"10.2.3.4", "10.2.200.1", "10.1.0.9", "10.40.0.1", "11.0.0.1"})
    expect_first_hop_matches_fib_lookup(*w.clf, w.a, parse_ipv4(dst));
  const ApClassifier full(w.clf->network(), w.mgr);
  expect_same_answers_on_witnesses(full, *w.clf, "full compile vs custom");
}

}  // namespace
}  // namespace apc
