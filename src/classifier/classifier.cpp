#include "classifier/classifier.hpp"

#include <algorithm>
#include <optional>

#include "rules/compiler.hpp"
#include "util/task_pool.hpp"

namespace apc {

namespace {
/// One transient pool shared by the atom computation and the tree build of
/// a single construction (threads - 1 workers; the calling thread helps).
/// Serial (threads == 1) costs nothing: no pool, no threads.
struct BuildPool {
  std::size_t threads;
  std::optional<util::TaskPool> owned;
  util::TaskPool* pool = nullptr;

  explicit BuildPool(std::size_t requested)
      : threads(util::TaskPool::resolve_threads(requested)) {
    if (threads > 1) pool = &owned.emplace(threads - 1);
  }
};
}  // namespace

std::size_t ApClassifier::build_threads() const {
  return util::TaskPool::resolve_threads(opts_.threads);
}

ApClassifier::ApClassifier(const NetworkModel& net, std::shared_ptr<bdd::BddManager> mgr,
                           Options opts)
    : net_(net), mgr_(std::move(mgr)), opts_(opts) {
  require(mgr_ != nullptr, "ApClassifier: null manager");
  if (opts_.node_budget > 0) mgr_->set_node_budget(opts_.node_budget);
  net_.validate();
  compiled_ = compile_network(net_, *mgr_, reg_);
  BuildPool bp(opts_.threads);
  uni_ = compute_atoms(reg_, AtomsOptions{bp.threads, bp.pool, &telemetry_.atoms});
  BuildOptions bo;
  bo.method = opts_.method;
  bo.seed = opts_.seed;
  bo.threads = bp.threads;
  bo.pool = bp.pool;
  bo.stats = &telemetry_.tree;
  tree_ = build_tree(reg_, uni_, bo);
  visit_counts_.reset(uni_.capacity());
}

AtomId ApClassifier::classify(const PacketHeader& h) const {
  const AtomId a = tree_.classify(h, reg_);
  // Relaxed atomic bump: classify() is const and callable from many threads
  // at once.  No growth here — an atom can only appear via an update call,
  // and those grow the counter array before returning.
  if (opts_.track_visits) visit_counts_.bump(a);
  return a;
}

AtomId ApClassifier::classify_counted(const PacketHeader& h, std::size_t& evals) const {
  return tree_.classify(h, reg_, &evals);
}

Behavior ApClassifier::behavior_of(AtomId atom, BoxId ingress) const {
  return compute_behavior(compiled_, net_.topology, reg_, atom, ingress);
}

void ApClassifier::attach_middlebox(Middlebox mb) {
  require(mb.box < net_.topology.box_count(), "attach_middlebox: bad box");
  middleboxes_.push_back(std::move(mb));
}

const Middlebox* ApClassifier::middlebox_at(BoxId b) const {
  for (const auto& mb : middleboxes_)
    if (mb.box == b) return &mb;
  return nullptr;
}

void ApClassifier::forward_step(Pending v, std::vector<Pending>& queue,
                                Behavior& cur) const {
  bool forwarded = false;
  bool acl_blocked = false;
  for (const auto& entry : compiled_.port_preds[v.box]) {
    const PredicateInfo& info = reg_.info(entry.pred);
    if (info.deleted || !info.atoms.test(v.atom)) continue;
    if (entry.out_acl != kNoPred) {
      const PredicateInfo& acl_info = reg_.info(entry.out_acl);
      if (!acl_info.deleted && !acl_info.atoms.test(v.atom)) {
        acl_blocked = true;
        continue;
      }
    }
    forwarded = true;
    const Port& p = net_.topology.box(v.box).ports[entry.port];
    if (p.kind == Port::Kind::Host) {
      cur.edges.push_back({v.box, entry.port, std::nullopt});
      cur.deliveries.push_back({v.box, entry.port});
    } else {
      cur.edges.push_back({v.box, entry.port, p.peer->box});
      queue.push_back({p.peer->box, p.peer->port, v.atom, v.header});
    }
  }
  if (!forwarded) {
    cur.drops.push_back({v.box, acl_blocked ? Drop::Reason::OutputAcl
                                            : Drop::Reason::NoMatchingRule});
  }
}

void ApClassifier::explore(std::vector<Pending> queue, std::vector<bool> visited,
                           Behavior cur, double prob, std::vector<ProbBehavior>& out,
                           int fork_depth) const {
  require(fork_depth < 16, "query: probabilistic fork depth exceeded");
  while (!queue.empty()) {
    Pending v = queue.back();
    queue.pop_back();

    if (visited[v.box]) {
      cur.loop_detected = true;
      continue;
    }
    visited[v.box] = true;

    if (v.in_port) {
      if (const PredId* acl = compiled_.in_acl(v.box, *v.in_port)) {
        const PredicateInfo& info = reg_.info(*acl);
        if (!info.deleted && !info.atoms.test(v.atom)) {
          cur.drops.push_back({v.box, Drop::Reason::InputAcl});
          continue;
        }
      }
    }

    const Middlebox* mb = middlebox_at(v.box);
    const MiddleboxEntry* e = mb ? mb->match(v.atom) : nullptr;
    if (e && e->type == ChangeType::Probabilistic) {
      for (const auto& [p, rw] : e->choices) {
        Pending nv = v;
        nv.header = rw.apply(v.header);
        // Payload-independent alternatives still need a tree re-search:
        // the chosen rewrite decides the new atomic predicate (SS V-E).
        nv.atom = classify(nv.header);
        std::vector<Pending> q2 = queue;
        Behavior cur2 = cur;
        forward_step(nv, q2, cur2);
        explore(std::move(q2), visited, std::move(cur2), prob * p, out,
                fork_depth + 1);
      }
      return;
    }
    if (e) {
      v.header = e->rewrite.apply(v.header);
      v.atom = e->type == ChangeType::Deterministic
                   ? e->next_atom            // Type 1: precomputed in the flow table
                   : classify(v.header);     // Type 2: re-search the AP Tree
    }
    forward_step(v, queue, cur);
  }
  out.push_back({prob, std::move(cur)});
}

std::vector<ProbBehavior> ApClassifier::query_probabilistic(const PacketHeader& h,
                                                            BoxId ingress) const {
  require(ingress < net_.topology.box_count(), "query: bad ingress box");
  const AtomId atom = classify(h);
  std::vector<ProbBehavior> out;
  std::vector<Pending> queue{{ingress, std::nullopt, atom, h}};
  explore(std::move(queue), std::vector<bool>(net_.topology.box_count(), false),
          Behavior{}, 1.0, out, 0);
  return out;
}

Behavior ApClassifier::query(const PacketHeader& h, BoxId ingress) const {
  if (middleboxes_.empty()) {
    // Fast path: stage 1 + pure bitset stage 2.
    return behavior_of(classify(h), ingress);
  }
  auto results = query_probabilistic(h, ingress);
  require(results.size() == 1,
          "query: probabilistic middlebox produced multiple behaviors; "
          "use query_probabilistic");
  return std::move(results.front().behavior);
}

AddPredicateResult ApClassifier::add_predicate(bdd::Bdd p, PredicateKind kind,
                                               std::optional<PortId> origin) {
  auto res = apc::add_predicate(tree_, reg_, uni_, std::move(p), kind, origin);
  apply_atom_splits(res.splits);
  visit_counts_.grow(uni_.capacity());
  return res;
}

void ApClassifier::apply_atom_splits(const std::vector<AtomSplit>& splits) {
  if (splits.empty() || middleboxes_.empty()) return;
  for (Middlebox& mb : middleboxes_) {
    for (MiddleboxEntry& e : mb.entries) {
      for (const AtomSplit& s : splits) {
        // Match fields: both children inherit the tombstoned parent.
        if (e.match_atoms.test(s.old_atom)) {
          e.match_atoms.resize(uni_.capacity());
          e.match_atoms.reset(s.old_atom);
          e.match_atoms.set(s.in_atom);
          e.match_atoms.set(s.out_atom);
        }
        // A Type 1 entry whose precomputed result atom split can no longer
        // name a single atom; demote it to a tree re-search (always
        // semantically correct — the controller would recompute the flow
        // table at leisure, SS V-E).
        if (e.type == ChangeType::Deterministic && e.next_atom == s.old_atom) {
          e.type = ChangeType::PayloadDependent;
        }
      }
    }
  }
}

void ApClassifier::apply_atom_merges(const std::vector<AtomMerge>& merges) {
  if (merges.empty() || middleboxes_.empty()) return;
  for (Middlebox& mb : middleboxes_) {
    for (MiddleboxEntry& e : mb.entries) {
      for (const AtomMerge& m : merges) {
        // A merged atom inherits the union of its operands' match bits.
        // Predicate-derived match sets always hold the operands together
        // (the operands' live-predicate memberships are identical by
        // construction); a hand-built set that split them loses that
        // distinction here — the same information loss a full rebuild's
        // renumbering would cause.
        if (e.match_atoms.test(m.left_atom) || e.match_atoms.test(m.right_atom)) {
          e.match_atoms.resize(uni_.capacity());
          if (m.left_atom < e.match_atoms.size()) e.match_atoms.reset(m.left_atom);
          if (m.right_atom < e.match_atoms.size()) e.match_atoms.reset(m.right_atom);
          e.match_atoms.set(m.merged);
        }
        // A Type 1 entry's precomputed result atom maps exactly.
        if (e.type == ChangeType::Deterministic &&
            (e.next_atom == m.left_atom || e.next_atom == m.right_atom)) {
          e.next_atom = m.merged;
        }
      }
    }
  }
}

DeletePredicateResult ApClassifier::remove_predicate(PredId id) {
  auto res = apc::delete_predicate(tree_, reg_, uni_, id);
  apply_atom_merges(res.merges);
  visit_counts_.grow(uni_.capacity());
  return res;
}

PredId ApClassifier::replace_predicate(PredId old, std::optional<bdd::Bdd> next,
                                       PredicateKind kind, PortId origin,
                                       RuleUpdateResult& res) {
  if (old != kNoPred) remove_predicate(old);
  PredId id = kNoPred;
  if (next) {
    const auto add = add_predicate(std::move(*next), kind, origin);
    id = add.pred_id;
    res.atoms_split += add.leaves_split;
  }
  ++res.predicates_changed;
  return id;
}

ApClassifier::RuleUpdateResult ApClassifier::refresh_box_predicates(BoxId box) {
  RuleUpdateResult res;
  auto new_preds = compile_box_forwarding(net_, *mgr_, box);
  auto& entries = compiled_.port_preds[box];

  // Update or delete existing per-port entries.
  std::vector<CompiledNetwork::PortEntry> next;
  next.reserve(new_preds.size());
  std::vector<bool> consumed(entries.size(), false);
  for (auto& [port, pred] : new_preds) {
    const CompiledNetwork::PortEntry* old = nullptr;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].port == port) {
        old = &entries[i];
        consumed[i] = true;
        break;
      }
    }
    if (old && !reg_.is_deleted(old->pred) && reg_.bdd_of(old->pred) == pred) {
      next.push_back(*old);  // unchanged: tree untouched (SS VI-A)
      continue;
    }
    // Changed (or new) predicate.
    CompiledNetwork::PortEntry e;
    e.port = port;
    e.out_acl = old ? old->out_acl : kNoPred;
    e.pred = replace_predicate(old ? old->pred : kNoPred, std::move(pred),
                               PredicateKind::Forward, PortId{box, port}, res);
    next.push_back(e);
  }
  // Ports that lost every effective rule: predicate disappears.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (consumed[i]) continue;
    replace_predicate(entries[i].pred, std::nullopt, PredicateKind::Forward,
                      PortId{box, entries[i].port}, res);
  }
  entries = std::move(next);
  visit_counts_.grow(uni_.capacity());
  return res;
}

namespace {
/// True when a rule ranks purely by prefix length: no priority, or one
/// equal to dst.len (the form the WAL records every rule in).  The compiler
/// ranks such rules exactly as the incremental delta below does — longer
/// prefix first, and among equal ones the earlier rule (stable sort; "the
/// existing rule wins the tie").
bool is_lpm(const ForwardingRule& r) {
  return r.effective_priority() == static_cast<std::int32_t>(r.dst.len);
}

/// True when every rule resolves purely by prefix length (classic LPM),
/// which admits the incremental delta below.  Custom priorities fall back
/// to a full box recompilation.
bool lpm_only(const Fib& fib, const ForwardingRule& rule) {
  if (!is_lpm(rule)) return false;
  for (const auto& r : fib.rules)
    if (!is_lpm(r)) return false;
  return true;
}
}  // namespace

/// Header space owned by `box`'s multicast group table (takes precedence
/// over unicast forwarding; the incremental FIB delta must never move it).
bdd::Bdd ApClassifier::multicast_space(BoxId box) const {
  bdd::Bdd mc = mgr_->bdd_false();
  const auto mit = net_.multicast.find(box);
  if (mit != net_.multicast.end()) {
    for (const MulticastRule& r : mit->second)
      mc = mc | prefix_predicate(*mgr_, HeaderLayout::kDstIp, r.group);
  }
  return mc;
}

// Incremental rule->predicate conversion (the method the paper cites as
// [37], SS VI-A).  For an LPM table, a rule's *effective region* is its
// prefix match minus the matches of strictly longer prefixes nested inside
// it; rule insertion moves exactly that region between port predicates, and
// deletion returns it to the longest covering ancestor prefix (or to
// unmatched space).  Only the two or three affected port predicates change;
// if the region is empty (rule fully shadowed) the AP Tree is untouched.

ApClassifier::RuleUpdateResult ApClassifier::insert_fib_rule(BoxId box,
                                                             const ForwardingRule& rule) {
  require(box < net_.topology.box_count(), "insert_fib_rule: bad box");
  require(rule.egress_port < net_.topology.box(box).ports.size(),
          "insert_fib_rule: rule references missing port");
  Fib& fib = net_.fib(box);
  const bool fast = lpm_only(fib, rule);
  fib.rules.push_back(rule);
  if (!fast) return refresh_box_predicates(box);

  // Effective region: match(rule) minus nested longer prefixes; empty if an
  // equal-or-covering prefix already exists (existing rule wins the tie).
  bdd::Bdd region = prefix_predicate(*mgr_, HeaderLayout::kDstIp, rule.dst);
  for (const auto& q : fib.rules) {
    if (&q == &fib.rules.back()) continue;  // the rule just inserted
    if (q.dst.covers(rule.dst)) {
      if (q.dst.len == rule.dst.len) return {};  // exact duplicate: shadowed
      continue;  // shorter ancestor: loses to the new rule inside region
    }
    if (rule.dst.covers(q.dst)) region = region.minus(
        prefix_predicate(*mgr_, HeaderLayout::kDstIp, q.dst));
  }
  region = region.minus(multicast_space(box));
  if (region.is_false()) return {};
  return move_region_to_port(box, region, rule.egress_port);
}

ApClassifier::RuleUpdateResult ApClassifier::remove_fib_rule(BoxId box,
                                                             const ForwardingRule& rule) {
  require(box < net_.topology.box_count(), "remove_fib_rule: bad box");
  Fib& fib = net_.fib(box);
  std::size_t idx = fib.rules.size();
  for (std::size_t i = 0; i < fib.rules.size(); ++i) {
    if (fib.rules[i].same_entry(rule)) {
      idx = i;
      break;
    }
  }
  require(idx < fib.rules.size(), "remove_fib_rule: no matching rule");
  const bool fast = lpm_only(fib, rule);
  fib.rules.erase(fib.rules.begin() + static_cast<std::ptrdiff_t>(idx));
  if (!fast) return refresh_box_predicates(box);

  // Region the deleted rule effectively owned, w.r.t. the remaining rules.
  bdd::Bdd region = prefix_predicate(*mgr_, HeaderLayout::kDstIp, rule.dst);
  const ForwardingRule* ancestor = nullptr;
  for (const auto& q : fib.rules) {
    if (q.dst.covers(rule.dst)) {
      // Covering prefix: an equal one re-owns the whole region immediately;
      // the longest proper ancestor inherits whatever ends up unowned.
      if (!ancestor || q.dst.len > ancestor->dst.len) ancestor = &q;
      continue;
    }
    if (rule.dst.covers(q.dst)) region = region.minus(
        prefix_predicate(*mgr_, HeaderLayout::kDstIp, q.dst));
  }
  region = region.minus(multicast_space(box));
  if (region.is_false()) return {};
  if (ancestor) return move_region_to_port(box, region, ancestor->egress_port);
  return remove_region(box, region);
}

/// Moves `region` of the header space to `target_port`'s predicate on `box`
/// and subtracts it from every other port predicate it intersects.
ApClassifier::RuleUpdateResult ApClassifier::move_region_to_port(
    BoxId box, const bdd::Bdd& region, std::uint32_t target_port) {
  RuleUpdateResult res;
  auto& entries = compiled_.port_preds[box];
  bool target_found = false;
  for (auto& e : entries) {
    const bdd::Bdd& old = reg_.bdd_of(e.pred);
    bdd::Bdd updated;
    if (e.port == target_port) {
      target_found = true;
      if (region.implies(old)) continue;  // already owned: no change
      updated = old | region;
    } else {
      if ((old & region).is_false()) continue;  // unaffected port
      updated = old.minus(region);
    }
    std::optional<bdd::Bdd> next;
    if (!updated.is_false()) next = std::move(updated);
    e.pred = replace_predicate(e.pred, std::move(next), PredicateKind::Forward,
                               PortId{box, e.port}, res);
  }
  // Drop entries whose predicate went empty.
  std::erase_if(entries, [](const CompiledNetwork::PortEntry& e) { return e.pred == kNoPred; });
  if (!target_found) {
    CompiledNetwork::PortEntry e;
    e.port = target_port;
    e.pred = replace_predicate(kNoPred, region, PredicateKind::Forward,
                               PortId{box, target_port}, res);
    e.out_acl = kNoPred;
    const auto it = compiled_.output_acl_pred.find({box, target_port});
    if (it != compiled_.output_acl_pred.end()) e.out_acl = it->second;
    entries.push_back(e);
  }
  visit_counts_.grow(uni_.capacity());
  return res;
}

/// Removes `region` from whatever port predicates own it (it becomes
/// unmatched space on `box`).
ApClassifier::RuleUpdateResult ApClassifier::remove_region(BoxId box,
                                                           const bdd::Bdd& region) {
  RuleUpdateResult res;
  auto& entries = compiled_.port_preds[box];
  for (std::size_t i = 0; i < entries.size();) {
    auto& e = entries[i];
    const bdd::Bdd& old = reg_.bdd_of(e.pred);
    if ((old & region).is_false()) {
      ++i;
      continue;
    }
    bdd::Bdd updated = old.minus(region);
    std::optional<bdd::Bdd> next;
    if (!updated.is_false()) next = std::move(updated);
    e.pred = replace_predicate(e.pred, std::move(next), PredicateKind::Forward,
                               PortId{box, e.port}, res);
    if (e.pred == kNoPred) {
      entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
  visit_counts_.grow(uni_.capacity());
  return res;
}

ApClassifier::RuleUpdateResult ApClassifier::insert_flow_rule(BoxId box,
                                                              FlowRule rule) {
  require(box < net_.topology.box_count(), "insert_flow_rule: bad box");
  require(box >= net_.fibs.size() || net_.fib(box).rules.empty(),
          "insert_flow_rule: box forwards with a FIB; flow tables are exclusive");
  net_.flow_tables[box].add(std::move(rule));
  net_.validate();
  return refresh_box_predicates(box);
}

ApClassifier::RuleUpdateResult ApClassifier::remove_flow_rule(BoxId box,
                                                              std::size_t index) {
  const auto it = net_.flow_tables.find(box);
  require(it != net_.flow_tables.end() && index < it->second.rules.size(),
          "remove_flow_rule: no such rule");
  it->second.rules.erase(it->second.rules.begin() +
                         static_cast<std::ptrdiff_t>(index));
  return refresh_box_predicates(box);
}

ApClassifier::RuleUpdateResult ApClassifier::set_flow_table(BoxId box,
                                                            FlowTable table) {
  require(box < net_.topology.box_count(), "set_flow_table: bad box");
  require(box >= net_.fibs.size() || net_.fib(box).rules.empty(),
          "set_flow_table: box forwards with a FIB; flow tables are exclusive");
  net_.flow_tables[box] = std::move(table);
  net_.validate();
  return refresh_box_predicates(box);
}

ApClassifier::RuleUpdateResult ApClassifier::set_input_acl(BoxId box,
                                                           std::uint32_t port, Acl acl) {
  require(box < net_.topology.box_count() &&
              port < net_.topology.box(box).ports.size(),
          "set_input_acl: bad port");
  RuleUpdateResult res;
  net_.input_acls[{box, port}] = std::move(acl);
  bdd::Bdd pred = compile_acl(*mgr_, net_.input_acls.at({box, port}));

  const PredId old = compiled_.in_acl_by_port[box][port];
  if (old != kNoPred && !reg_.is_deleted(old) && reg_.bdd_of(old) == pred) return res;

  const PredId id = replace_predicate(old, std::move(pred), PredicateKind::AclInput,
                                      PortId{box, port}, res);
  compiled_.in_acl_by_port[box][port] = id;
  compiled_.input_acl_pred[{box, port}] = id;
  return res;
}

void ApClassifier::rebuild(std::optional<BuildMethod> method, bool distribution_aware) {
  std::vector<double> weights;
  if (distribution_aware) weights = visit_weights();

  // Recompute atoms from live predicates only (deleted slots stay dead) and
  // renumber the universe from scratch (paper SS VI-B).
  AtomUniverse old_uni = std::move(uni_);
  std::vector<double> old_weights = std::move(weights);
  BuildPool bp(opts_.threads);
  uni_ = compute_atoms(reg_, AtomsOptions{bp.threads, bp.pool, &telemetry_.atoms});

  BuildOptions bo;
  bo.method = method.value_or(opts_.method);
  bo.seed = opts_.seed;
  bo.threads = bp.threads;
  bo.pool = bp.pool;
  bo.stats = &telemetry_.tree;

  std::vector<double> new_weights;
  if (distribution_aware) {
    // Carry weights across the renumbering: a new atom inherits the summed
    // weight of the old atoms it intersects (old atoms refine or equal new
    // ones when only deletions happened since counting).
    new_weights.assign(uni_.capacity(), 0.0);
    for (AtomId na = 0; na < uni_.capacity(); ++na) {
      if (!uni_.is_alive(na)) continue;
      double w = 0.0;
      for (AtomId oa = 0; oa < old_uni.capacity(); ++oa) {
        if (!old_uni.is_alive(oa) || oa >= old_weights.size()) continue;
        if (!(uni_.bdd_of(na) & old_uni.bdd_of(oa)).is_false()) w += old_weights[oa];
      }
      new_weights[na] = w > 0.0 ? w : 1.0;
    }
    bo.weights = &new_weights;
  }
  tree_ = build_tree(reg_, uni_, bo);
  visit_counts_.reset(uni_.capacity());
  ++telemetry_.rebuilds;
}

void ApClassifier::rebuild_with_weights(const std::vector<double>& atom_weights,
                                        std::optional<BuildMethod> method) {
  BuildOptions bo;
  bo.method = method.value_or(opts_.method);
  bo.seed = opts_.seed;
  bo.weights = &atom_weights;
  bo.threads = build_threads();
  bo.stats = &telemetry_.tree;
  tree_ = build_tree(reg_, uni_, bo);
  ++telemetry_.rebuilds;
}

void ApClassifier::reset_visit_counts() {
  visit_counts_.reset(uni_.capacity());
}

void ApClassifier::merge_visit_counts(const std::vector<std::uint64_t>& counts) {
  visit_counts_.grow(uni_.capacity());
  for (std::size_t i = 0; i < counts.size(); ++i) visit_counts_.add(i, counts[i]);
}

std::vector<double> ApClassifier::visit_weights() const {
  std::vector<double> w(uni_.capacity(), 1.0);
  for (std::size_t i = 0; i < visit_counts_.size() && i < w.size(); ++i) {
    const std::uint64_t c = visit_counts_.get(i);
    if (c > 0) w[i] = static_cast<double>(c);
  }
  return w;
}

ApClassifier::MemoryBreakdown ApClassifier::memory() const {
  MemoryBreakdown m;
  m.bdd_bytes = mgr_->memory_bytes();
  m.tree_bytes = tree_.memory_bytes();
  for (PredId i = 0; i < reg_.size(); ++i)
    m.registry_bytes += reg_.atoms_of(i).size() / 8 + sizeof(PredicateInfo);
  return m;
}

void ApClassifier::register_metrics(obs::MetricsRegistry& reg,
                                    const std::string& prefix) const {
  // Structure.
  reg.register_fn(prefix + ".predicates",
                  [this] { return static_cast<double>(reg_.live_count()); }, "count");
  reg.register_fn(prefix + ".atoms",
                  [this] { return static_cast<double>(uni_.alive_count()); }, "count");
  reg.register_fn(prefix + ".tree_nodes",
                  [this] { return static_cast<double>(tree_.node_count()); }, "count");
  reg.register_fn(prefix + ".memory_bytes",
                  [this] { return static_cast<double>(memory().total()); }, "bytes");

  // Construction (last build; see BuildTelemetry).
  const BuildTelemetry& t = telemetry_;
  reg.register_fn(prefix + ".build.refine_seconds",
                  [&t] { return t.atoms.refine_seconds; }, "seconds");
  reg.register_fn(prefix + ".build.merge_seconds",
                  [&t] { return t.atoms.merge_seconds; }, "seconds");
  reg.register_fn(prefix + ".build.land_seconds",
                  [&t] { return t.atoms.land_seconds; }, "seconds");
  reg.register_fn(prefix + ".build.groups",
                  [&t] { return static_cast<double>(t.atoms.groups); }, "count");
  reg.register_fn(prefix + ".build.atoms_produced",
                  [&t] { return static_cast<double>(t.atoms.atoms_produced); }, "count");
  reg.register_fn(prefix + ".build.tree_seconds",
                  [&t] { return t.tree.build_seconds; }, "seconds");
  reg.register_counter(prefix + ".build.forks", &t.tree.forks, "count");
  reg.register_fn(prefix + ".rebuilds",
                  [&t] { return static_cast<double>(t.rebuilds); }, "count");

  // BDD manager.
  reg.register_fn(prefix + ".bdd.nodes_allocated",
                  [this] { return static_cast<double>(mgr_->allocated_node_count()); },
                  "count");
  reg.register_fn(prefix + ".bdd.unique_table_buckets",
                  [this] { return static_cast<double>(mgr_->unique_table_buckets()); },
                  "count");
  reg.register_fn(prefix + ".bdd.cache_hits",
                  [this] { return static_cast<double>(mgr_->op_stats().cache_hits); },
                  "count");
  reg.register_fn(prefix + ".bdd.cache_misses",
                  [this] { return static_cast<double>(mgr_->op_stats().cache_misses); },
                  "count");
  reg.register_fn(prefix + ".bdd.unique_hits",
                  [this] { return static_cast<double>(mgr_->op_stats().unique_hits); },
                  "count");
  reg.register_fn(prefix + ".bdd.nodes_created",
                  [this] { return static_cast<double>(mgr_->op_stats().nodes_created); },
                  "count");
  reg.register_fn(prefix + ".bdd.gc_runs",
                  [this] { return static_cast<double>(mgr_->op_stats().gc_runs); },
                  "count");
}

obs::MetricsSnapshot ApClassifier::stats() const {
  obs::MetricsRegistry reg;
  register_metrics(reg);
  return reg.snapshot();
}

}  // namespace apc
