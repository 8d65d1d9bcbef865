#include "classifier/behavior.hpp"

#include <sstream>

#include "rules/compiler.hpp"

namespace apc {

CompiledNetwork compile_network(const NetworkModel& net, bdd::BddManager& mgr,
                                PredicateRegistry& reg) {
  CompiledNetwork cn;
  cn.port_preds.resize(net.topology.box_count());
  cn.in_acl_by_port.resize(net.topology.box_count());
  for (BoxId b = 0; b < net.topology.box_count(); ++b)
    cn.in_acl_by_port[b].assign(net.topology.box(b).ports.size(), kNoPred);

  for (BoxId b = 0; b < net.topology.box_count(); ++b) {
    for (auto& [port, pred] : compile_box_forwarding(net, mgr, b)) {
      const PredId id =
          reg.add(std::move(pred), PredicateKind::Forward, PortId{b, port});
      cn.port_preds[b].push_back({port, id, kNoPred});
    }
  }
  for (const auto& [key, acl] : net.input_acls) {
    bdd::Bdd pred = compile_acl(mgr, acl);
    const PredId id = reg.add(std::move(pred), PredicateKind::AclInput,
                              PortId{key.first, key.second});
    cn.input_acl_pred.emplace(key, id);
    cn.in_acl_by_port[key.first][key.second] = id;
  }
  for (const auto& [key, acl] : net.output_acls) {
    bdd::Bdd pred = compile_acl(mgr, acl);
    const PredId id = reg.add(std::move(pred), PredicateKind::AclOutput,
                              PortId{key.first, key.second});
    cn.output_acl_pred.emplace(key, id);
    for (auto& entry : cn.port_preds[key.first]) {
      if (entry.port == key.second) entry.out_acl = id;
    }
  }
  return cn;
}

std::map<std::uint32_t, bdd::Bdd> compile_box_forwarding(const NetworkModel& net,
                                                         bdd::BddManager& mgr,
                                                         BoxId box) {
  std::map<std::uint32_t, bdd::Bdd> port_map;

  // Multicast group entries first: they take precedence over unicast
  // forwarding, and each replication port's predicate gains the group
  // region (first group match wins).
  bdd::Bdd mc_matched = mgr.bdd_false();
  const auto mit = net.multicast.find(box);
  if (mit != net.multicast.end()) {
    for (const MulticastRule& r : mit->second) {
      const bdd::Bdd match = prefix_predicate(mgr, HeaderLayout::kDstIp, r.group);
      const bdd::Bdd effective = match.minus(mc_matched);
      if (effective.is_false()) continue;
      for (const std::uint32_t port : r.ports) {
        const auto it = port_map.find(port);
        if (it == port_map.end())
          port_map.emplace(port, effective);
        else
          it->second = it->second | effective;
      }
      mc_matched = mc_matched | match;
    }
  }

  // Unicast: the box's flow table, else its FIB.
  std::map<std::uint32_t, bdd::Bdd> unicast;
  const auto fit = net.flow_tables.find(box);
  if (fit != net.flow_tables.end()) {
    unicast = compile_flow_table(mgr, fit->second);
  } else if (box < net.fibs.size()) {
    unicast = compile_fib(mgr, net.fibs[box]);
  }
  for (auto& [port, pred] : unicast) {
    bdd::Bdd carved = pred.minus(mc_matched);
    if (carved.is_false()) continue;
    const auto it = port_map.find(port);
    if (it == port_map.end())
      port_map.emplace(port, std::move(carved));
    else
      it->second = it->second | carved;
  }
  return port_map;
}

std::vector<BoxId> Behavior::boxes_traversed() const {
  std::vector<BoxId> out;
  for (const auto& e : edges) {
    if (out.empty() || out.back() != e.box) {
      bool seen = false;
      for (const BoxId b : out)
        if (b == e.box) seen = true;
      if (!seen) out.push_back(e.box);
    }
  }
  for (const auto& d : drops) {
    bool seen = false;
    for (const BoxId b : out)
      if (b == d.box) seen = true;
    if (!seen) out.push_back(d.box);
  }
  return out;
}

bool Behavior::traverses(BoxId box) const {
  for (const auto& e : edges)
    if (e.box == box) return true;
  for (const auto& d : drops)
    if (d.box == box) return true;
  return false;
}

std::string Behavior::to_string(const Topology& topo) const {
  std::ostringstream os;
  for (const auto& e : edges) {
    os << topo.box(e.box).name << " -[" << topo.box(e.box).ports[e.out_port].name
       << "]-> ";
    if (e.to)
      os << topo.box(*e.to).name << "; ";
    else
      os << "(host); ";
  }
  for (const auto& d : drops) {
    os << "DROP@" << topo.box(d.box).name
       << (d.reason == Drop::Reason::InputAcl      ? " (input ACL)"
           : d.reason == Drop::Reason::OutputAcl   ? " (output ACL)"
                                                   : " (no rule)")
       << "; ";
  }
  if (loop_detected) os << "LOOP; ";
  return os.str();
}

namespace {

/// The live compiled network as a walk_behavior view.
struct LiveNetView {
  const CompiledNetwork& cn;
  const Topology& topo;
  const PredicateRegistry& reg;

  /// True when `pred` is live and contains `atom`.
  bool contains(PredId pred, AtomId atom) const {
    const PredicateInfo& info = reg.info(pred);
    return !info.deleted && info.atoms.test(atom);
  }

  std::size_t box_count() const { return topo.box_count(); }
  bool input_acl_drops(BoxId box, std::uint32_t in_port, AtomId atom) const {
    const PredId acl = cn.in_acl_by_port[box][in_port];
    return acl != kNoPred && !contains(acl, atom);
  }
  const std::vector<CompiledNetwork::PortEntry>& port_entries(BoxId box) const {
    return cn.port_preds[box];
  }
  bool forwards(const CompiledNetwork::PortEntry& e, AtomId atom) const {
    return contains(e.pred, atom);
  }
  bool output_acl_drops(const CompiledNetwork::PortEntry& e, AtomId atom) const {
    return e.out_acl != kNoPred && !contains(e.out_acl, atom);
  }
  std::optional<PortId> peer(BoxId box, const CompiledNetwork::PortEntry& e) const {
    return topo.box(box).ports[e.port].peer;  // unset for host ports
  }
};

}  // namespace

Behavior compute_behavior(const CompiledNetwork& cn, const Topology& topo,
                          const PredicateRegistry& reg, AtomId atom, BoxId ingress,
                          std::optional<std::uint32_t> ingress_port) {
  Behavior out;
  compute_behavior_into(cn, topo, reg, atom, ingress, ingress_port, out);
  return out;
}

void compute_behavior_into(const CompiledNetwork& cn, const Topology& topo,
                           const PredicateRegistry& reg, AtomId atom, BoxId ingress,
                           std::optional<std::uint32_t> ingress_port, Behavior& out) {
  walk_behavior(LiveNetView{cn, topo, reg}, atom, ingress,
                ingress_port.value_or(kNoInPort), out);
}

}  // namespace apc
