// Workload generation: dataset, traces, churn plan and expected answers.
// Everything here runs before any timer starts; the server only ever sees
// the protocol lines built at the end.
#include "bench.hpp"
#include "datasets/traces.hpp"

namespace servebench {

using namespace apc;

namespace {

/// Trace lines per workload.  cold-rules and bgp-churn need a trace several
/// times larger than the engine's default 32k-slot header cache, so almost
/// every header is its own cache key; hot-zipf only needs enough draws for
/// the Zipf tail to show.
std::size_t trace_lines(Workload w, datasets::Scale scale) {
  if (scale == datasets::Scale::Tiny) return 1u << 12;
  return w == Workload::kHotZipf ? 1u << 16 : 1u << 18;
}

bool under_any(std::uint32_t dst, const std::vector<Ipv4Prefix>& prefixes) {
  for (const Ipv4Prefix& p : prefixes)
    if (p.contains(dst)) return true;
  return false;
}

/// A random address under `p` with random source, port and protocol bits
/// (the shape datasets::rule_trace produces).
PacketHeader header_under(const Ipv4Prefix& p, Rng& rng) {
  const std::uint32_t host_bits = 32u - p.len;
  PacketHeader h;
  h.set_dst_ip(p.addr | (host_bits == 0 ? 0u
                                         : static_cast<std::uint32_t>(
                                               rng.uniform(1ull << host_bits))));
  h.set_src_ip(static_cast<std::uint32_t>(rng.uniform(1ull << 32)));
  h.set_dst_port(static_cast<std::uint16_t>(rng.uniform(1u << 16)));
  h.set_proto(rng.coin() ? 6 : 17);
  return h;
}

}  // namespace

Phase Inputs::phase(double duration_s) const {
  // One burst ahead of the read-only query load gives the update and
  // recovery metrics without a write during it.
  if (workload != Workload::kBgpChurn) return Phase{duration_s, {}, true};
  // One burst a second, the first half a second in; the last one still has
  // a full second of query load after it.
  Phase ph{duration_s, {0.5}, false};
  while (ph.during.back() + 2.0 <= duration_s)
    ph.during.push_back(ph.during.back() + 1.0);
  return ph;
}

server::ShardedCluster::Options cluster_options(const std::string& wal_dir) {
  server::ShardedCluster::Options o;
  o.wal_dir = wal_dir;
  return o;
}

Inputs make_inputs(Workload w, std::uint64_t seed, datasets::Scale scale,
                   Inject inject) {
  Inputs in;
  in.workload = w;
  in.inject = inject;
  // The datasets are fixed (their generators' default seeds); the run seed
  // drives traces, ingresses and the churn plan.
  in.data = std::make_shared<datasets::Dataset>(
      w == Workload::kBgpChurn ? datasets::internet2_like(scale)
                               : datasets::stanford_like(scale));
  in.ref =
      std::make_unique<ApClassifier>(in.data->net, datasets::Dataset::make_manager());
  const NetworkModel& net = in.data->net;
  const auto boxes = static_cast<BoxId>(net.topology.box_count());
  Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(w) + 1);

  // Churn plan: withdraw/re-announce pairs of the dataset's own FIB rules,
  // one pair per box per burst.  A rule's update cost depends on the rule,
  // so the rules are the same for every seed (a fixed stream picks them) and
  // every run does the same update work; the seed orders the boxes within
  // each burst.  bgp-churn cycles through 4 rules a box.
  in.burst_updates = 2 * boxes;
  const std::size_t rounds =
      w == Workload::kBgpChurn && scale != datasets::Scale::Tiny ? 4 : 1;
  Rng pick(0xC4u + static_cast<std::uint64_t>(w));
  std::vector<Ipv4Prefix> churned;
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<server::RuleSpec> burst;
    for (BoxId box = 0; box < boxes; ++box) {
      const auto& rules = net.fibs.at(box).rules;
      require(!rules.empty(), "servebench: every box needs FIB rules to churn");
      burst.push_back({box, rules[pick.uniform(rules.size())]});
    }
    rng.shuffle(burst);
    for (const server::RuleSpec& spec : burst) {
      churned.push_back(spec.rule.dst);
      for (const bool add : {false, true})
        in.updates.push_back({add, spec, server::format_rule(add, spec) + "\n"});
    }
  }

  // Trace headers.
  const std::size_t n = trace_lines(w, scale);
  std::vector<PacketHeader> hs;
  if (w == Workload::kHotZipf) {
    const datasets::AtomReps reps = datasets::atom_representatives(in.ref->atoms(), rng);
    hs = datasets::zipf_trace(reps, in.ref->atoms().capacity(), n, rng, 1.0).packets;
  } else if (w == Workload::kColdRules) {
    hs = datasets::rule_trace(net, n, rng);
  } else {
    // A header under a churned prefix changes answer with every withdraw;
    // dropping those gives every Q line one right answer at every epoch.
    while (hs.size() < n) {
      for (const PacketHeader& h : datasets::rule_trace(net, n, rng))
        if (hs.size() < n && !under_any(h.dst_ip(), churned)) hs.push_back(h);
    }
  }

  // Expected answers.  For a middlebox-free network ApClassifier::query is
  // behavior_of(classify(h)), so Q answers are memoized per (atom, ingress).
  std::unordered_map<std::uint64_t, std::uint32_t> memo;
  const auto expected = [&](AtomId atom, BoxId ingress) {
    const std::uint64_t k = static_cast<std::uint64_t>(atom) << 32 | ingress;
    const auto [it, fresh] =
        memo.try_emplace(k, static_cast<std::uint32_t>(in.answers.size()));
    if (fresh)
      in.answers.push_back(
          server::format_behavior_summary(in.ref->behavior_of(atom, ingress)));
    return it->second;
  };
  in.lines.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    Line& l = in.lines[i];
    l.is_query = i % 2 == 1;
    l.ingress = static_cast<BoxId>(rng.uniform(boxes));
    l.header = hs[i];
    const AtomId atom = in.ref->classify(l.header);
    l.expect = l.is_query ? expected(atom, l.ingress) : atom;
  }
  in.wire.resize(n / kBatchLines);
  for (std::size_t b = 0; b < in.wire.size(); ++b) {
    std::string& s = in.wire[b];
    for (std::size_t i = 0; i < kBatchLines; ++i) {
      const Line& l = in.lines[b * kBatchLines + i];
      s += l.is_query ? server::format_query(l.ingress, l.header)
                      : server::format_classify(l.header);
      s += '\n';
    }
    s += "GO\n";
  }

  // Recovery probes: one header under every churned prefix plus trace
  // headers, answered by ApClassifier::query on the initial state (every
  // burst restores it).
  for (std::size_t i = 0; i < 2 * kBatchLines; ++i) {
    Line l;
    l.is_query = true;
    l.ingress = static_cast<BoxId>(rng.uniform(boxes));
    l.header = i < churned.size() ? header_under(churned[i], rng)
                                  : hs[rng.uniform(hs.size())];
    in.answers.push_back(
        server::format_behavior_summary(in.ref->query(l.header, l.ingress)));
    l.expect = static_cast<std::uint32_t>(in.answers.size() - 1);
    in.probes.push_back(l);
    in.probe_wire += server::format_query(l.ingress, l.header) + "\n";
  }
  in.probe_wire += "GO\n";

  if (inject == Inject::kExpected) {
    std::string& a = in.answers[in.lines[1].expect];
    a.back() = a.back() == '0' ? '1' : '0';
  }
  return in;
}

}  // namespace servebench
