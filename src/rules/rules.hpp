// Data-plane rule types: forwarding (FIB) rules and ACL rules.
//
// These are the raw inputs the controller collects from boxes; the compiler
// (rules/compiler.hpp) turns them into predicates per the algorithms of
// AP Verifier [Yang & Lam] referenced by the paper (SS III).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "packet/ipv4.hpp"

namespace apc {

/// A FIB entry: longest-prefix match on destination IP -> egress port.
/// `priority` breaks ties; by convention it equals the prefix length so the
/// natural LPM order falls out of a descending-priority sort.
struct ForwardingRule {
  Ipv4Prefix dst;
  std::uint32_t egress_port = 0;  ///< box-local port index
  std::int32_t priority = -1;     ///< -1 = use dst.len (LPM)

  std::int32_t effective_priority() const {
    return priority >= 0 ? priority : static_cast<std::int32_t>(dst.len);
  }
  /// True when `o` names this entry: same prefix, egress port and effective
  /// priority (what a rule removal matches on).
  bool same_entry(const ForwardingRule& o) const {
    return dst == o.dst && egress_port == o.egress_port &&
           effective_priority() == o.effective_priority();
  }
};

/// Inclusive port range; {0, 65535} is a wildcard.
struct PortRange {
  std::uint16_t lo = 0;
  std::uint16_t hi = 0xFFFF;
  bool is_wildcard() const { return lo == 0 && hi == 0xFFFF; }
  bool contains(std::uint16_t p) const { return p >= lo && p <= hi; }
};

/// A first-match ACL entry over the five-tuple.
struct AclRule {
  enum class Action : std::uint8_t { Permit, Deny };

  Ipv4Prefix src{0, 0};                 ///< /0 = any
  Ipv4Prefix dst{0, 0};
  PortRange src_port;
  PortRange dst_port;
  std::optional<std::uint8_t> proto;    ///< nullopt = any
  Action action = Action::Permit;

  bool matches(std::uint32_t sip, std::uint32_t dip, std::uint16_t sport,
               std::uint16_t dport, std::uint8_t pr) const {
    return src.contains(sip) && dst.contains(dip) && src_port.contains(sport) &&
           dst_port.contains(dport) && (!proto || *proto == pr);
  }
};

/// A forwarding table: unordered set of FIB rules resolved by LPM/priority.
struct Fib {
  std::vector<ForwardingRule> rules;

  std::size_t size() const { return rules.size(); }
  void add(const Ipv4Prefix& dst, std::uint32_t port, std::int32_t priority = -1) {
    rules.push_back({dst.normalized(), port, priority});
  }

  /// Reference LPM lookup (used as a test oracle against the BDD compiler).
  /// Returns the egress port of the highest-priority matching rule, or
  /// nullopt if no rule matches.
  std::optional<std::uint32_t> lookup(std::uint32_t dst_ip) const;
};

/// An ordered, first-match ACL.  An empty ACL permits everything.
struct Acl {
  std::vector<AclRule> rules;
  /// Action when no rule matches (routers commonly deny; default permit
  /// keeps ACL-free ports transparent).
  AclRule::Action default_action = AclRule::Action::Permit;

  std::size_t size() const { return rules.size(); }

  /// Reference first-match evaluation (test oracle).
  bool permits(std::uint32_t sip, std::uint32_t dip, std::uint16_t sport,
               std::uint16_t dport, std::uint8_t proto) const;
};

}  // namespace apc
