// Stage 2 of AP Classifier (paper SS IV-B): given the atomic predicate of a
// packet and its ingress box, walk the topology to obtain the network-wide
// behavior — the forwarding path(s), deliveries, and drops.
//
// Because the atom fixes the truth value of every predicate, each per-box
// decision is a bitset test on R(p): no BDD work happens on this path.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ap/atoms.hpp"
#include "ap/registry.hpp"
#include "network/model.hpp"

namespace apc {

/// Sentinel for "no predicate attached".
inline constexpr PredId kNoPred = 0xFFFFFFFFu;

/// Predicate ids attached to topology locations after compilation.
/// The flat arrays are the hot-path representation (stage 2 does one bitset
/// test per entry with no associative lookups); the maps are kept for
/// introspection.
struct CompiledNetwork {
  struct PortEntry {
    std::uint32_t port = 0;
    PredId pred = kNoPred;      ///< forwarding predicate
    PredId out_acl = kNoPred;   ///< output ACL permit predicate, if any
  };
  /// port_preds[box]: ports with forwarding predicates, ACL id inlined.
  std::vector<std::vector<PortEntry>> port_preds;
  /// in_acl_by_port[box][port]: input ACL predicate or kNoPred.
  std::vector<std::vector<PredId>> in_acl_by_port;

  std::map<std::pair<BoxId, std::uint32_t>, PredId> input_acl_pred;
  std::map<std::pair<BoxId, std::uint32_t>, PredId> output_acl_pred;

  const PredId* in_acl(BoxId b, std::uint32_t port) const {
    const auto it = input_acl_pred.find({b, port});
    return it == input_acl_pred.end() ? nullptr : &it->second;
  }
  const PredId* out_acl(BoxId b, std::uint32_t port) const {
    const auto it = output_acl_pred.find({b, port});
    return it == output_acl_pred.end() ? nullptr : &it->second;
  }
};

/// Converts every FIB and ACL in `net` into predicates registered in `reg`
/// (paper SS IV-A: the controller first converts tables to predicates).
CompiledNetwork compile_network(const NetworkModel& net, bdd::BddManager& mgr,
                                PredicateRegistry& reg);

/// Per-port forwarding predicates for one box: multicast group entries take
/// precedence, then the flow table (if the box has one) or the FIB.
std::map<std::uint32_t, bdd::Bdd> compile_box_forwarding(const NetworkModel& net,
                                                         bdd::BddManager& mgr,
                                                         BoxId box);

struct BehaviorEdge {
  BoxId box = 0;
  std::uint32_t out_port = 0;
  /// Next box for link ports; unset when the edge is a host delivery.
  std::optional<BoxId> to;

  bool operator==(const BehaviorEdge&) const = default;
};

struct Drop {
  enum class Reason : std::uint8_t { NoMatchingRule, InputAcl, OutputAcl };
  BoxId box = 0;
  Reason reason = Reason::NoMatchingRule;

  bool operator==(const Drop&) const = default;
};

/// The network-wide behavior of one packet class from one ingress box.
struct Behavior {
  std::vector<BehaviorEdge> edges;  ///< traversed (box,port) hops, visit order
  std::vector<PortId> deliveries;   ///< host ports reached
  std::vector<Drop> drops;
  bool loop_detected = false;

  bool delivered() const { return !deliveries.empty(); }
  /// Boxes traversed, in visit order (ingress first).
  std::vector<BoxId> boxes_traversed() const;
  /// True iff the behavior traverses `box` (waypoint checks).
  bool traverses(BoxId box) const;
  std::string to_string(const Topology& topo) const;

  bool operator==(const Behavior&) const = default;
};

/// Walks the network for packets in `atom` entering at `ingress`.
/// Deleted predicates are ignored (SS VI-A).  Multicast (several matching
/// output ports) explores every branch; loops are detected per walk.
Behavior compute_behavior(const CompiledNetwork& cn, const Topology& topo,
                          const PredicateRegistry& reg, AtomId atom, BoxId ingress,
                          std::optional<std::uint32_t> ingress_port = {});

/// Allocation-reusing variant: clears and fills `out` (keeps vector
/// capacity), for query loops that process millions of behaviors.
void compute_behavior_into(const CompiledNetwork& cn, const Topology& topo,
                           const PredicateRegistry& reg, AtomId atom, BoxId ingress,
                           std::optional<std::uint32_t> ingress_port, Behavior& out);

/// walk_behavior's arrival port for a packet entering from outside.
inline constexpr std::uint32_t kNoInPort = 0xFFFFFFFFu;

/// The stage-2 traversal: clears and fills `out` with the behavior of
/// `atom` entering `ingress` on `in_port` (or kNoInPort).  compute_behavior
/// runs it over the live compiled network and FlatSnapshot::behavior_walk
/// over the frozen arena, so the two agree by construction.  `Net` is a
/// read-only network view with
///
///   std::size_t box_count() const;
///   bool input_acl_drops(BoxId box, std::uint32_t in_port, AtomId atom) const;
///   <range of entries> port_entries(BoxId box) const;  // each has `.port`
///   bool forwards(const Entry& e, AtomId atom) const;
///   bool output_acl_drops(const Entry& e, AtomId atom) const;
///   std::optional<PortId> peer(BoxId box, const Entry& e) const;  // nullopt: host
///
/// Deleted predicates contain no atom.  Multicast (several matching output
/// ports) explores every branch; re-entering an expanded box is a loop.
template <class Net>
void walk_behavior(const Net& net, AtomId atom, BoxId ingress,
                   std::uint32_t in_port, Behavior& out) {
  out.edges.clear();
  out.deliveries.clear();
  out.drops.clear();
  out.loop_detected = false;

  struct Visit {
    BoxId box;
    std::uint32_t in_port;  // kNoInPort when entering at the ingress box
  };

  // Bounded inline work stack: each box is expanded at most once, so the
  // stack never holds more than box_count pending visits + multicast fanout
  // within one box; 64 covers both evaluation networks, with a heap
  // fallback for larger topologies.
  const std::size_t box_count = net.box_count();
  Visit inline_stack[64];
  std::vector<Visit> heap_stack;
  const bool small = box_count <= 48;
  std::size_t top = 0;
  const auto push = [&](BoxId b, std::uint32_t in) {
    if (small && top < 64)
      inline_stack[top++] = {b, in};
    else
      heap_stack.push_back({b, in}), ++top;
  };
  const auto pop = [&]() -> Visit {
    --top;
    if (small && heap_stack.empty()) return inline_stack[top];
    const Visit v = heap_stack.back();
    heap_stack.pop_back();
    return v;
  };
  push(ingress, in_port);

  // Visited set: bitmask fast path for <=64 boxes.
  std::uint64_t visited_mask = 0;
  std::vector<bool> visited_vec;
  if (box_count > 64) visited_vec.assign(box_count, false);
  const auto test_and_set_visited = [&](BoxId b) {
    if (visited_vec.empty()) {
      const std::uint64_t bit = std::uint64_t{1} << b;
      const bool was = visited_mask & bit;
      visited_mask |= bit;
      return was;
    }
    const bool was = visited_vec[b];
    visited_vec[b] = true;
    return was;
  };

  while (top > 0) {
    const Visit v = pop();

    if (test_and_set_visited(v.box)) {
      // Re-entering an already-expanded box: forwarding loop.
      out.loop_detected = true;
      continue;
    }

    // Input ACL on the arrival port.
    if (v.in_port != kNoInPort && net.input_acl_drops(v.box, v.in_port, atom)) {
      out.drops.push_back({v.box, Drop::Reason::InputAcl});
      continue;
    }

    // Find all output ports whose forwarding predicate contains the atom
    // (several for multicast; at most one for disjoint unicast FIBs).
    bool forwarded = false;
    bool acl_blocked = false;
    for (const auto& entry : net.port_entries(v.box)) {
      if (!net.forwards(entry, atom)) continue;
      if (net.output_acl_drops(entry, atom)) {
        acl_blocked = true;
        continue;
      }
      forwarded = true;
      if (const std::optional<PortId> peer = net.peer(v.box, entry)) {
        out.edges.push_back({v.box, entry.port, peer->box});
        push(peer->box, peer->port);
      } else {
        out.edges.push_back({v.box, entry.port, std::nullopt});
        out.deliveries.push_back({v.box, entry.port});
      }
    }
    if (!forwarded) {
      out.drops.push_back({v.box, acl_blocked ? Drop::Reason::OutputAcl
                                              : Drop::Reason::NoMatchingRule});
    }
  }
}

}  // namespace apc
