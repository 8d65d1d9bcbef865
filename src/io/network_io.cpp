#include "io/network_io.hpp"

#include <fstream>
#include <map>
#include <sstream>

#include "io/line_parse.hpp"
#include "packet/ipv4.hpp"

namespace apc::io {

namespace {

// Line cap, UTF-8 validation, tokenization, and bounded integer parsing are
// shared with the TCP serving protocol — see io/line_parse.hpp.

[[noreturn]] void fail(std::size_t line, const std::string& msg) {
  throw Error(ErrorCode::kParse,
              "network file line " + std::to_string(line) + ": " + msg);
}

PortRange parse_range(std::string_view s, std::size_t line) {
  const std::size_t dash = s.find('-');
  if (dash == std::string_view::npos) fail(line, "bad port range: " + std::string(s));
  PortRange r;
  r.lo = static_cast<std::uint16_t>(
      parse_uint(s.substr(0, dash), line, "port", 0xFFFF));
  r.hi = static_cast<std::uint16_t>(
      parse_uint(s.substr(dash + 1), line, "port", 0xFFFF));
  if (r.lo > r.hi) fail(line, "inverted port range: " + std::string(s));
  return r;
}

}  // namespace

NetworkModel read_network(std::istream& in) {
  NetworkModel net;
  std::map<std::string, BoxId, std::less<>> boxes;
  std::string line;
  std::size_t lineno = 0;

  const auto box_of = [&](std::string_view name, std::size_t ln) {
    const auto it = boxes.find(name);
    if (it == boxes.end()) fail(ln, "unknown box: " + std::string(name));
    return it->second;
  };

  bool saw_directive = false;
  while (std::getline(in, line)) {
    ++lineno;
    check_line(line, lineno);
    const auto tok = tokenize(line);
    if (tok.empty()) continue;
    saw_directive = true;
    const std::string_view cmd = tok[0];

    if (cmd == "box") {
      if (tok.size() != 2) fail(lineno, "usage: box <name>");
      const std::string name(tok[1]);
      if (boxes.count(name)) fail(lineno, "duplicate box: " + name);
      boxes[name] = net.topology.add_box(name);
    } else if (cmd == "link") {
      if (tok.size() != 3) fail(lineno, "usage: link <boxA> <boxB>");
      net.topology.add_link(box_of(tok[1], lineno), box_of(tok[2], lineno));
    } else if (cmd == "hostport") {
      if (tok.size() != 2 && tok.size() != 3) fail(lineno, "usage: hostport <box> [name]");
      net.topology.add_host_port(box_of(tok[1], lineno),
                                 tok.size() == 3 ? std::string(tok[2]) : "");
    } else if (cmd == "fib") {
      if (tok.size() != 4 && tok.size() != 5)
        fail(lineno, "usage: fib <box> <prefix> <port> [priority]");
      const BoxId b = box_of(tok[1], lineno);
      Ipv4Prefix prefix;
      try {
        prefix = parse_prefix(tok[2]);
      } catch (const Error& e) {
        fail(lineno, e.what());
      }
      const std::uint32_t port = parse_uint(tok[3], lineno, "port index");
      const std::int32_t prio =
          tok.size() == 5 ? static_cast<std::int32_t>(parse_uint(tok[4], lineno, "priority"))
                          : -1;
      net.fib(b).add(prefix, port, prio);
    } else if (cmd == "flowrule") {
      // flowrule <box> <priority> <forward <port>|drop>
      //          { exact <off> <w> <val> | prefix <off> <w> <val> <len>
      //          | range <off> <w> <lo> <hi> }*
      if (tok.size() < 4) fail(lineno, "flowrule: too few tokens");
      const BoxId b = box_of(tok[1], lineno);
      FlowRule r;
      r.priority = static_cast<std::int32_t>(parse_uint(tok[2], lineno, "priority"));
      std::size_t i = 3;
      if (tok[i] == "forward") {
        if (i + 1 >= tok.size()) fail(lineno, "flowrule: forward needs a port");
        r.action = FlowRule::Action::Forward;
        r.egress_port = parse_uint(tok[i + 1], lineno, "port index");
        i += 2;
      } else if (tok[i] == "drop") {
        r.action = FlowRule::Action::Drop;
        ++i;
      } else {
        fail(lineno, "flowrule: expected forward|drop, got " + std::string(tok[i]));
      }
      while (i < tok.size()) {
        FieldMatch m;
        const std::string_view kind = tok[i];
        const auto need = [&](std::size_t n) {
          if (i + n >= tok.size())
            fail(lineno, "flowrule: truncated " + std::string(kind));
        };
        if (kind == "exact") {
          need(3);
          m.kind = FieldMatch::Kind::Exact;
          m.offset = parse_uint(tok[i + 1], lineno, "offset");
          m.width = parse_uint(tok[i + 2], lineno, "width");
          m.value = parse_uint(tok[i + 3], lineno, "value");
          i += 4;
        } else if (kind == "prefix") {
          need(4);
          m.kind = FieldMatch::Kind::Prefix;
          m.offset = parse_uint(tok[i + 1], lineno, "offset");
          m.width = parse_uint(tok[i + 2], lineno, "width");
          m.value = parse_uint(tok[i + 3], lineno, "value");
          m.prefix_len = parse_uint(tok[i + 4], lineno, "prefix length");
          i += 5;
        } else if (kind == "range") {
          need(4);
          m.kind = FieldMatch::Kind::Range;
          m.offset = parse_uint(tok[i + 1], lineno, "offset");
          m.width = parse_uint(tok[i + 2], lineno, "width");
          m.lo = parse_uint(tok[i + 3], lineno, "lo");
          m.hi = parse_uint(tok[i + 4], lineno, "hi");
          i += 5;
        } else {
          fail(lineno, "flowrule: unknown match kind " + std::string(kind));
        }
        r.matches.push_back(m);
      }
      net.flow_tables[b].add(std::move(r));
    } else if (cmd == "mcast") {
      if (tok.size() < 4) fail(lineno, "usage: mcast <box> <group-prefix> <port>...");
      const BoxId b = box_of(tok[1], lineno);
      MulticastRule r;
      try {
        r.group = parse_prefix(tok[2]);
      } catch (const Error& e) {
        fail(lineno, e.what());
      }
      for (std::size_t i = 3; i < tok.size(); ++i)
        r.ports.push_back(parse_uint(tok[i], lineno, "port index"));
      net.multicast[b].push_back(std::move(r));
    } else if (cmd == "acl") {
      if (tok.size() != 6 || tok[4] != "default")
        fail(lineno, "usage: acl <in|out> <box> <port> default <permit|deny>");
      const BoxId b = box_of(tok[2], lineno);
      const std::uint32_t port = parse_uint(tok[3], lineno, "port index");
      Acl acl;
      if (tok[5] == "permit")
        acl.default_action = AclRule::Action::Permit;
      else if (tok[5] == "deny")
        acl.default_action = AclRule::Action::Deny;
      else
        fail(lineno, "bad default action: " + std::string(tok[5]));
      if (tok[1] == "in")
        net.input_acls[{b, port}] = acl;
      else if (tok[1] == "out")
        net.output_acls[{b, port}] = acl;
      else
        fail(lineno, "acl direction must be in|out");
    } else if (cmd == "aclrule") {
      // aclrule <in|out> <box> <port> <permit|deny> src P dst P sport lo-hi
      //         dport lo-hi proto n|any
      if (tok.size() != 15) fail(lineno, "aclrule: expected 15 tokens");
      const BoxId b = box_of(tok[2], lineno);
      const std::uint32_t port = parse_uint(tok[3], lineno, "port index");
      AclRule r;
      if (tok[4] == "permit")
        r.action = AclRule::Action::Permit;
      else if (tok[4] == "deny")
        r.action = AclRule::Action::Deny;
      else
        fail(lineno, "bad action: " + std::string(tok[4]));
      if (tok[5] != "src" || tok[7] != "dst" || tok[9] != "sport" ||
          tok[11] != "dport" || tok[13] != "proto")
        fail(lineno, "aclrule: bad field labels");
      try {
        r.src = parse_prefix(tok[6]);
        r.dst = parse_prefix(tok[8]);
      } catch (const Error& e) {
        fail(lineno, e.what());
      }
      r.src_port = parse_range(tok[10], lineno);
      r.dst_port = parse_range(tok[12], lineno);
      if (tok[14] != "any")
        r.proto = static_cast<std::uint8_t>(parse_uint(tok[14], lineno, "proto", 0xFF));

      auto& acls = tok[1] == "in" ? net.input_acls : net.output_acls;
      const auto it = acls.find({b, port});
      if (it == acls.end())
        fail(lineno, "aclrule before matching acl declaration");
      it->second.rules.push_back(r);
    } else {
      fail(lineno, "unknown directive: " + std::string(cmd));
    }
  }
  require(saw_directive, ErrorCode::kParse,
          "network file: empty (no directives)");
  net.ensure_fibs();
  net.validate();
  return net;
}

NetworkModel read_network_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good())
    throw Error(ErrorCode::kIo, "read_network_file: cannot open " + path);
  return read_network(in);
}

NetworkModel read_network_string(const std::string& text) {
  std::istringstream is(text);
  return read_network(is);
}

void write_network(const NetworkModel& net, std::ostream& out) {
  const Topology& topo = net.topology;
  // The reader recreates ports in file order: all links, then host ports.
  // Round-tripping therefore requires every box's link ports to precede its
  // host ports (true for all builders in this repo); reject otherwise so a
  // silent port-index skew cannot happen.
  for (const Box& b : topo.boxes()) {
    bool seen_host = false;
    for (const Port& p : b.ports) {
      if (p.kind == Port::Kind::Host) seen_host = true;
      require(!(seen_host && p.kind == Port::Kind::Link),
              "write_network: host port precedes a link port; port indices "
              "would not round-trip");
    }
  }
  out << "# apc network file\n";
  for (const Box& b : topo.boxes()) out << "box " << b.name << "\n";

  // Links: the reader replays `link` lines sequentially, so the emission
  // order must be consistent with every box's own port order.  Greedily
  // emit a link only when it is the next pending link port on BOTH of its
  // endpoints (the original add_link() sequence always satisfies this).
  {
    std::vector<std::uint32_t> next_port(topo.box_count(), 0);
    const auto skip_non_links = [&](BoxId b) {
      const auto& ports = topo.boxes()[b].ports;
      while (next_port[b] < ports.size() &&
             ports[next_port[b]].kind != Port::Kind::Link)
        ++next_port[b];
    };
    for (BoxId b = 0; b < topo.box_count(); ++b) skip_non_links(b);
    while (true) {
      bool emitted = false;
      bool pending = false;
      for (BoxId b = 0; b < topo.box_count(); ++b) {
        const auto& ports = topo.boxes()[b].ports;
        if (next_port[b] >= ports.size()) continue;
        pending = true;
        const Port& p = ports[next_port[b]];
        const PortId peer = *p.peer;
        if (next_port[peer.box] < topo.boxes()[peer.box].ports.size() &&
            next_port[peer.box] == peer.port) {
          out << "link " << topo.boxes()[b].name << " "
              << topo.boxes()[peer.box].name << "\n";
          ++next_port[b];
          skip_non_links(b);
          ++next_port[peer.box];
          skip_non_links(peer.box);
          emitted = true;
        }
      }
      if (!pending) break;
      require(emitted, "write_network: link port order is not serializable");
    }
  }
  for (BoxId b = 0; b < topo.box_count(); ++b) {
    const Box& box = topo.boxes()[b];
    for (const Port& p : box.ports) {
      if (p.kind == Port::Kind::Host) out << "hostport " << box.name << " " << p.name << "\n";
    }
  }
  for (BoxId b = 0; b < net.fibs.size(); ++b) {
    for (const auto& r : net.fibs[b].rules) {
      out << "fib " << topo.boxes()[b].name << " " << format_prefix(r.dst) << " "
          << r.egress_port;
      if (r.priority >= 0) out << " " << r.priority;
      out << "\n";
    }
  }
  for (const auto& [b, table] : net.flow_tables) {
    for (const auto& r : table.rules) {
      out << "flowrule " << topo.boxes()[b].name << " " << r.priority << " ";
      if (r.action == FlowRule::Action::Forward)
        out << "forward " << r.egress_port;
      else
        out << "drop";
      for (const auto& m : r.matches) {
        switch (m.kind) {
          case FieldMatch::Kind::Exact:
            out << " exact " << m.offset << " " << m.width << " " << m.value;
            break;
          case FieldMatch::Kind::Prefix:
            out << " prefix " << m.offset << " " << m.width << " " << m.value << " "
                << m.prefix_len;
            break;
          case FieldMatch::Kind::Range:
            out << " range " << m.offset << " " << m.width << " " << m.lo << " "
                << m.hi;
            break;
        }
      }
      out << "\n";
    }
  }
  for (const auto& [b, rules] : net.multicast) {
    for (const auto& r : rules) {
      out << "mcast " << topo.boxes()[b].name << " " << format_prefix(r.group);
      for (const std::uint32_t p : r.ports) out << " " << p;
      out << "\n";
    }
  }
  const auto dump_acl = [&](const char* dir, const std::pair<BoxId, std::uint32_t>& key,
                            const Acl& acl) {
    out << "acl " << dir << " " << topo.boxes()[key.first].name << " " << key.second
        << " default "
        << (acl.default_action == AclRule::Action::Permit ? "permit" : "deny") << "\n";
    for (const auto& r : acl.rules) {
      out << "aclrule " << dir << " " << topo.boxes()[key.first].name << " "
          << key.second << " "
          << (r.action == AclRule::Action::Permit ? "permit" : "deny") << " src "
          << format_prefix(r.src) << " dst " << format_prefix(r.dst) << " sport "
          << r.src_port.lo << "-" << r.src_port.hi << " dport " << r.dst_port.lo << "-"
          << r.dst_port.hi << " proto ";
      if (r.proto)
        out << static_cast<int>(*r.proto);
      else
        out << "any";
      out << "\n";
    }
  };
  for (const auto& [key, acl] : net.input_acls) dump_acl("in", key, acl);
  for (const auto& [key, acl] : net.output_acls) dump_acl("out", key, acl);
}

std::string write_network_string(const NetworkModel& net) {
  std::ostringstream os;
  write_network(net, os);
  return os.str();
}

void write_network_file(const NetworkModel& net, const std::string& path) {
  std::ofstream out(path);
  require(out.good(), "write_network_file: cannot open file");
  write_network(net, out);
}

}  // namespace apc::io
