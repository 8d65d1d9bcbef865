// ApClassifier — the paper's system (SS IV): two-stage network-wide packet
// behavior identification.
//
// Stage 1 classifies a packet header to its atomic predicate with the AP
// Tree; stage 2 walks the topology using only R(p) bitset tests.  The facade
// also owns middlebox flow tables (SS V-E), real-time predicate updates
// (SS VI-A), leaf visit counters and distribution-aware rebuilds (SS V-D).
#pragma once

#include <memory>
#include <optional>

#include "aptree/build.hpp"
#include "aptree/tree.hpp"
#include "aptree/update.hpp"
#include "classifier/behavior.hpp"
#include "classifier/middlebox.hpp"
#include "network/model.hpp"
#include "obs/metrics.hpp"
#include "util/visit_counters.hpp"

namespace apc {

/// One possible behavior with its probability (Type 3 middlebox changes may
/// yield several; deterministic networks yield exactly one with p = 1).
struct ProbBehavior {
  double probability = 1.0;
  Behavior behavior;
};

/// Construction telemetry from the most recent build (initial or rebuild)
/// plus lifetime rebuild counts.  Copyable so ApClassifier::fork() keeps
/// working: the atomic fork counter is copied by value.
struct BuildTelemetry {
  AtomsStats atoms;
  TreeBuildStats tree;
  std::uint64_t rebuilds = 0;  ///< rebuild()/rebuild_with_weights() calls

  BuildTelemetry() = default;
  BuildTelemetry(const BuildTelemetry& o) : atoms(o.atoms), rebuilds(o.rebuilds) {
    tree.build_seconds = o.tree.build_seconds;
    tree.nodes = o.tree.nodes;
    tree.forks.add(o.tree.forks.value());
  }
  BuildTelemetry& operator=(const BuildTelemetry&) = delete;
};

class ApClassifier {
 public:
  struct Options {
    BuildMethod method = BuildMethod::Oapt;
    std::uint64_t seed = 1;
    /// Count leaf visits during classify() to drive distribution-aware
    /// rebuilds (SS V-D).  Off by default (saves a write per query).
    bool track_visits = false;
    /// Construction threads for atom computation and tree builds (initial
    /// build and every rebuild).  0 = hardware_concurrency; 1 = serial.
    /// Parallel construction is bit-identical to serial (see
    /// docs/architecture.md, "Parallel construction pipeline").
    std::size_t threads = 0;
    /// BDD node budget applied to the shared manager (0 = unlimited).  When
    /// a build or update would grow the pool past the cap, it fails with
    /// apc::Error(kResourceExhausted) instead of allocating toward OOM —
    /// graceful degradation for adversarial or runaway rulesets.
    std::size_t node_budget = 0;
  };

  /// Compiles `net` to predicates, computes atomic predicates, and builds
  /// the AP Tree.  The classifier keeps its own copy of the network model
  /// (rule-level updates mutate it); the manager is shared so callers can
  /// create query predicates against the same variable space.
  ApClassifier(const NetworkModel& net, std::shared_ptr<bdd::BddManager> mgr,
               Options opts);
  ApClassifier(const NetworkModel& net, std::shared_ptr<bdd::BddManager> mgr)
      : ApClassifier(net, std::move(mgr), Options{}) {}

  ApClassifier& operator=(const ApClassifier&) = delete;

  /// Deep copy for what-if analysis (paper SS I: verify planned data-plane
  /// updates before committing them).  The fork shares the BDD manager
  /// (handles are reference-counted) but owns independent network state,
  /// registry, atoms, and tree: apply candidate updates to the fork, check
  /// flow properties, and discard or promote it.
  std::unique_ptr<ApClassifier> fork() const {
    return std::unique_ptr<ApClassifier>(new ApClassifier(*this));
  }

  // ---- Stage 1 ----
  /// Classifies `h` to its atomic predicate id.
  AtomId classify(const PacketHeader& h) const;
  /// Same, also reporting the number of predicates evaluated (leaf depth).
  AtomId classify_counted(const PacketHeader& h, std::size_t& evals) const;

  // ---- Stage 2 ----
  /// Behavior of the packet class `atom` entering at `ingress`
  /// (middlebox-free fast path; pure bitset walk).
  Behavior behavior_of(AtomId atom, BoxId ingress) const;

  // ---- Full queries ----
  /// Two-stage query.  Handles Type 1/2 middlebox header changes; throws if
  /// a Type 3 (probabilistic) entry is hit — use query_probabilistic.
  Behavior query(const PacketHeader& h, BoxId ingress) const;
  /// General query: the set of possible behaviors with probabilities.
  std::vector<ProbBehavior> query_probabilistic(const PacketHeader& h,
                                                BoxId ingress) const;

  // ---- Middleboxes ----
  void attach_middlebox(Middlebox mb);
  const Middlebox* middlebox_at(BoxId b) const;

  // ---- Real-time updates (SS VI-A) ----
  /// Adds a predicate; splits affected atoms/leaves in place.
  AddPredicateResult add_predicate(bdd::Bdd p,
                                   PredicateKind kind = PredicateKind::External,
                                   std::optional<PortId> origin = {});
  /// Incremental delete: merges the sibling atoms the predicate was the
  /// last distinguisher of and repairs only the dirty subtrees (the exact
  /// inverse of add_predicate).
  DeletePredicateResult remove_predicate(PredId id);

  // ---- Rule-level updates ----
  // The paper converts a rule insertion/deletion into predicate changes
  // using the method of [Yang & Lam TR-13-15] (SS VI-A): recompile the
  // affected box's table; ports whose predicate changed get their old
  // predicate deleted (atoms merged incrementally) and the new one added
  // to the tree.  If no predicate changes, the AP Tree is untouched.

  struct RuleUpdateResult {
    std::size_t predicates_changed = 0;  ///< ports whose predicate changed
    std::size_t atoms_split = 0;         ///< leaf splits caused by the adds
  };
  /// Installs a FIB rule on `box` and updates predicates/tree.
  RuleUpdateResult insert_fib_rule(BoxId box, const ForwardingRule& rule);
  /// Removes the (first) matching FIB rule from `box`; throws if absent.
  RuleUpdateResult remove_fib_rule(BoxId box, const ForwardingRule& rule);
  /// Replaces the input ACL of (box, port) and updates predicates/tree.
  RuleUpdateResult set_input_acl(BoxId box, std::uint32_t port, Acl acl);

  /// Appends an OpenFlow-style rule to `box`'s flow table (creating the
  /// table; the box's FIB must be empty) and updates predicates/tree.
  RuleUpdateResult insert_flow_rule(BoxId box, FlowRule rule);
  /// Removes the flow rule at `index` in `box`'s table.
  RuleUpdateResult remove_flow_rule(BoxId box, std::size_t index);
  /// Replaces `box`'s whole flow table.
  RuleUpdateResult set_flow_table(BoxId box, FlowTable table);

  // ---- Reconstruction (same-thread; for the threaded variant see
  //      classifier/reconstruction.hpp) ----
  /// Recomputes atoms from live predicates and rebuilds the tree.  With
  /// `distribution_aware`, recorded visit counts become atom weights —
  /// but note a full rebuild renumbers atoms, so weights are carried over
  /// by atom *content* equivalence only when counts were recorded since the
  /// last rebuild; pass explicit weights otherwise.
  void rebuild(std::optional<BuildMethod> method = {}, bool distribution_aware = false);
  /// Rebuild keeping current atoms (no BDD work) with explicit weights.
  void rebuild_with_weights(const std::vector<double>& atom_weights,
                            std::optional<BuildMethod> method = {});

  void reset_visit_counts();
  /// Per-atom visit counts (indexed by atom id).  Counters are relaxed
  /// atomics, so concurrent classify() calls are race-free; this returns a
  /// point-in-time copy.
  std::vector<std::uint64_t> visit_counts() const { return visit_counts_.to_vector(); }
  /// Folds externally accumulated counts in (the snapshot engine drains a
  /// retired FlatSnapshot's stats block here before republishing, so
  /// distribution-aware rebuilds still see engine traffic).
  void merge_visit_counts(const std::vector<std::uint64_t>& counts);
  /// Visit counts normalized into weights (atoms never seen weigh 1).
  std::vector<double> visit_weights() const;

  // ---- Construction parallelism ----
  /// Overrides the construction-thread knob for subsequent rebuilds
  /// (0 = hardware_concurrency; 1 = serial).
  void set_build_threads(std::size_t threads) { opts_.threads = threads; }
  /// The resolved thread count the next build/rebuild will use.
  std::size_t build_threads() const;

  // ---- Introspection ----
  const Options& options() const { return opts_; }
  bool has_middleboxes() const { return !middleboxes_.empty(); }
  const ApTree& tree() const { return tree_; }
  const PredicateRegistry& registry() const { return reg_; }
  const AtomUniverse& atoms() const { return uni_; }
  const CompiledNetwork& compiled() const { return compiled_; }
  const NetworkModel& network() const { return net_; }
  bdd::BddManager& manager() const { return *mgr_; }

  std::size_t predicate_count() const { return reg_.live_count(); }
  std::size_t atom_count() const { return uni_.alive_count(); }

  struct MemoryBreakdown {
    std::size_t bdd_bytes = 0;       ///< node pool + unique table + op cache
    std::size_t tree_bytes = 0;      ///< AP Tree nodes
    std::size_t registry_bytes = 0;  ///< R(p) bitsets and bookkeeping
    std::size_t total() const { return bdd_bytes + tree_bytes + registry_bytes; }
  };
  MemoryBreakdown memory() const;

  // ---- Observability (see src/obs/) ----
  /// Registers construction, structure, and BDD metrics under `prefix`.
  /// The callback metrics read classifier state on snapshot, so snapshots
  /// must not race updates/rebuilds (the snapshot engine serializes them
  /// under its writer mutex; single-threaded callers are always safe).
  void register_metrics(obs::MetricsRegistry& reg,
                        const std::string& prefix = "classifier") const;
  /// One-shot snapshot of the full metric inventory of register_metrics().
  obs::MetricsSnapshot stats() const;
  const BuildTelemetry& build_telemetry() const { return telemetry_; }

 private:
  ApClassifier(const ApClassifier&) = default;  // via fork()

  struct Pending {
    BoxId box;
    std::optional<std::uint32_t> in_port;
    AtomId atom;
    PacketHeader header;
  };

  void forward_step(Pending v, std::vector<Pending>& queue, Behavior& cur) const;
  void explore(std::vector<Pending> queue, std::vector<bool> visited, Behavior cur,
               double prob, std::vector<ProbBehavior>& out, int fork_depth) const;
  RuleUpdateResult refresh_box_predicates(BoxId box);
  RuleUpdateResult move_region_to_port(BoxId box, const bdd::Bdd& region,
                                       std::uint32_t target_port);
  RuleUpdateResult remove_region(BoxId box, const bdd::Bdd& region);
  /// Replaces predicate `old` (kNoPred: none yet) by `next` (nullopt: the
  /// predicate vanishes): deletes the old one (merging its atoms back) and
  /// adds the new one.  Returns the new id, or kNoPred.  Every rule-level
  /// update changes predicates through this.
  PredId replace_predicate(PredId old, std::optional<bdd::Bdd> next, PredicateKind kind,
                           PortId origin, RuleUpdateResult& res);
  void apply_atom_splits(const std::vector<AtomSplit>& splits);
  void apply_atom_merges(const std::vector<AtomMerge>& merges);
  bdd::Bdd multicast_space(BoxId box) const;

  NetworkModel net_;
  std::shared_ptr<bdd::BddManager> mgr_;
  PredicateRegistry reg_;
  CompiledNetwork compiled_;
  AtomUniverse uni_;
  ApTree tree_;
  Options opts_;
  BuildTelemetry telemetry_;
  std::vector<Middlebox> middleboxes_;
  // Atomic so that const classify() calls from several threads never race
  // (the resize-on-update, grow-only discipline lives in the non-const
  // update methods, which require external serialization anyway).
  VisitCounters visit_counts_;
};

}  // namespace apc
