// Incremental atom maintenance (paper SS VI-A extended to deletion):
// add-then-delete identity, randomized incremental-vs-from-scratch
// differentials, engine republication under rule churn, and churn under
// concurrent batch queries.  Suite names contain "Incremental" on purpose —
// CI runs them under TSan and the chaos job by that regex.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "ap/atoms.hpp"
#include "aptree/build.hpp"
#include "aptree/update.hpp"
#include "datasets/datasets.hpp"
#include "datasets/traces.hpp"
#include "engine/engine.hpp"
#include "engine/program_proof.hpp"
#include "packet/ipv4.hpp"
#include "util/rng.hpp"

namespace apc {
namespace {

using bdd::Bdd;
using bdd::BddManager;
using engine::QueryEngine;

constexpr std::uint32_t kVars = 8;

PacketHeader header_from_assignment(std::uint32_t x) {
  std::vector<std::uint8_t> bits(kVars);
  for (std::uint32_t v = 0; v < kVars; ++v) bits[v] = (x >> v) & 1;
  return PacketHeader::from_bits(bits);
}

Bdd random_cube(BddManager& mgr, Rng& rng) {
  Bdd p = mgr.bdd_true();
  for (std::uint32_t v = 0; v < kVars; ++v) {
    const auto r = rng.uniform(3);
    if (r == 0) p = p & mgr.var(v);
    if (r == 1) p = p & mgr.nvar(v);
  }
  return p;
}

struct KernelFixture {
  BddManager mgr{kVars};
  PredicateRegistry reg;
  AtomUniverse uni;
  ApTree tree;

  KernelFixture() {
    reg.add(mgr.var(0) | mgr.var(3), PredicateKind::External);
    reg.add(mgr.var(1) & mgr.var(2), PredicateKind::External);
    reg.add(mgr.var(4), PredicateKind::External);
    uni = compute_atoms(reg);
    tree = build_tree(reg, uni);
  }

  std::vector<Bdd> atom_bdds() const {
    std::vector<Bdd> out;
    for (const AtomId a : uni.alive_ids()) out.push_back(uni.bdd_of(a));
    return out;
  }

  std::vector<Bdd> r_set_bdds(PredId p) const {
    std::vector<Bdd> out;
    reg.atoms_of(p).for_each(
        [&](std::size_t a) { out.push_back(uni.bdd_of(static_cast<AtomId>(a))); });
    return out;
  }
};

void expect_same_bdd_multiset(const std::vector<Bdd>& a, const std::vector<Bdd>& b,
                              const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  // BDDs are canonical per manager, so multiset equality is countable by
  // direct comparison (cube fixtures never produce enough duplicates for
  // the quadratic scan to matter).
  for (const Bdd& x : a) {
    const auto cnt = [&](const std::vector<Bdd>& v) {
      return std::count(v.begin(), v.end(), x);
    };
    EXPECT_EQ(cnt(a), cnt(b)) << what;
  }
}

// Add P and then delete P: atom BDDs, every live R-set, and every
// classification must be exactly what they were had P never existed.
TEST(Incremental, AddThenDeleteIsIdentity) {
  KernelFixture f;
  const std::vector<Bdd> atoms_before = f.atom_bdds();
  std::vector<std::vector<Bdd>> r_before;
  for (PredId p = 0; p < f.reg.size(); ++p) r_before.push_back(f.r_set_bdds(p));
  std::vector<Bdd> class_before;
  for (std::uint32_t x = 0; x < (1u << kVars); ++x) {
    const PacketHeader h = header_from_assignment(x);
    class_before.push_back(f.uni.bdd_of(f.tree.classify(h, f.reg)));
  }

  Rng rng(99);
  for (int round = 0; round < 6; ++round) {
    Bdd p = random_cube(f.mgr, rng);
    if (p.is_false() || p.is_true()) continue;
    const auto res =
        add_predicate(f.tree, f.reg, f.uni, std::move(p), PredicateKind::External);
    delete_predicate(f.tree, f.reg, f.uni, res.pred_id);

    expect_same_bdd_multiset(atoms_before, f.atom_bdds(), "atom BDDs");
    for (PredId q = 0; q < r_before.size(); ++q)
      expect_same_bdd_multiset(r_before[q], f.r_set_bdds(q), "R-set BDDs");
    for (std::uint32_t x = 0; x < (1u << kVars); ++x) {
      const PacketHeader h = header_from_assignment(x);
      ASSERT_EQ(class_before[x], f.uni.bdd_of(f.tree.classify(h, f.reg)))
          << "round " << round << " x=" << x;
    }
  }
}

class IncrementalChurn : public ::testing::TestWithParam<std::uint64_t> {};

// After EVERY add/delete in a random sequence, the incrementally maintained
// universe and tree must be semantically identical to a from-scratch
// compute_atoms + build_tree over the live predicates.
TEST_P(IncrementalChurn, EveryStepMatchesFromScratch) {
  KernelFixture f;
  Rng rng(GetParam());
  std::vector<PredId> added;
  for (int step = 0; step < 30; ++step) {
    if (rng.coin(0.6) || added.empty()) {
      Bdd p = random_cube(f.mgr, rng);
      if (p.is_false()) continue;
      added.push_back(
          add_predicate(f.tree, f.reg, f.uni, std::move(p), PredicateKind::External)
              .pred_id);
    } else {
      const std::size_t i = rng.uniform(added.size());
      delete_predicate(f.tree, f.reg, f.uni, added[i]);
      added.erase(added.begin() + static_cast<std::ptrdiff_t>(i));
    }

    // From-scratch reference over a registry copy (compute_atoms refills
    // R-sets in place, which would clobber the incremental state).
    PredicateRegistry sreg = f.reg;
    AtomUniverse suni = compute_atoms(sreg);
    ASSERT_EQ(f.uni.alive_count(), suni.alive_count()) << "step " << step;
    ASSERT_EQ(f.tree.leaf_count(), f.uni.alive_count()) << "step " << step;
    const ApTree stree = build_tree(sreg, suni);
    for (std::uint32_t x = 0; x < (1u << kVars); ++x) {
      const PacketHeader h = header_from_assignment(x);
      ASSERT_EQ(f.uni.bdd_of(f.tree.classify(h, f.reg)),
                suni.bdd_of(stree.classify(h, sreg)))
          << "step " << step << " x=" << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalChurn, ::testing::Values(11, 42, 1234));

// ---- Engine republication under rule churn ----

/// The published program equals the classifier's atom partition over the
/// whole header space (engine/program_proof.hpp).
void expect_published_program_exact(const QueryEngine& e, const char* what) {
  const auto proof = engine::prove_program(*e.snapshot(), e.classifier());
  EXPECT_TRUE(proof.ok()) << what << ": " << proof.summary();
}

struct EngineWorld {
  datasets::Dataset data;
  std::shared_ptr<bdd::BddManager> mgr = datasets::Dataset::make_manager();
  ApClassifier clf;
  std::vector<PacketHeader> trace;

  explicit EngineWorld(std::uint64_t seed = 7)
      : EngineWorld(datasets::internet2_like(datasets::Scale::Tiny, seed), seed) {}
  EngineWorld(datasets::Dataset d, std::uint64_t seed)
      : data(std::move(d)), clf(data.net, mgr) {
    Rng rng(seed * 31 + 1);
    const auto reps = datasets::atom_representatives(clf.atoms(), rng);
    trace = datasets::uniform_trace(reps, 200, rng);
  }

  ForwardingRule random_rule(BoxId b, Rng& rng) const {
    const std::uint8_t len = static_cast<std::uint8_t>(10 + rng.uniform(13));
    const Ipv4Prefix p =
        Ipv4Prefix{(10u << 24) | (static_cast<std::uint32_t>(rng.next()) & 0x00FFFF00u),
                   len}
            .normalized();
    const std::uint32_t port = static_cast<std::uint32_t>(
        rng.uniform(data.net.topology.box(b).ports.size()));
    return {p, port, -1};
  }
};

// An engine driven through rule churn must answer every item at every
// ingress exactly like the classifier it republishes after each round.
// Rounds insert random rules, remove them, and re-announce a dataset rule
// inside one update() together with another insert (the shape of a server
// update group).
void expect_engine_matches_classifier_under_churn(const datasets::Dataset& data) {
  EngineWorld w(data, 7);
  QueryEngine::Options o;
  o.num_threads = 2;
  QueryEngine e(w.clf, o);
  const std::size_t boxes = w.data.net.topology.box_count();

  Rng rng(13);
  std::vector<std::pair<BoxId, ForwardingRule>> installed;
  expect_published_program_exact(e, data.name.c_str());
  for (int round = 0; round < 12; ++round) {
    const BoxId b = static_cast<BoxId>(rng.uniform(boxes));
    if (round % 3 == 0) {
      const ForwardingRule r = w.random_rule(b, rng);
      e.insert_fib_rule(b, r);
      installed.emplace_back(b, r);
    } else if (round % 3 == 1 && !installed.empty()) {
      const auto [ib, r] = installed.back();
      installed.pop_back();
      e.remove_fib_rule(ib, r);
    } else {
      const auto& rules = w.data.net.fibs.at(b).rules;
      const ForwardingRule old = rules[rng.uniform(rules.size())];
      const ForwardingRule extra = w.random_rule(b, rng);
      e.update([&](ApClassifier& c) {
        c.remove_fib_rule(b, old);
        c.insert_fib_rule(b, extra);
        c.insert_fib_rule(b, old);
      });
      installed.emplace_back(b, extra);
    }
    expect_published_program_exact(e, data.name.c_str());

    const auto atoms = e.classify_batch(w.trace);
    ASSERT_EQ(atoms.size(), w.trace.size());
    for (std::size_t i = 0; i < atoms.size(); ++i)
      ASSERT_EQ(atoms[i], w.clf.classify(w.trace[i]))
          << data.name << " round " << round << " item " << i;
    for (BoxId ingress = 0; ingress < boxes; ++ingress) {
      const auto beh = e.query_batch(w.trace, ingress);
      ASSERT_EQ(beh.size(), w.trace.size());
      for (std::size_t i = 0; i < beh.size(); ++i)
        ASSERT_TRUE(beh[i] == w.clf.query(w.trace[i], ingress))
            << data.name << " round " << round << " ingress " << ingress << " item " << i;
    }
  }
  EXPECT_EQ(e.publish_count(), 13u) << data.name;
}

TEST(IncrementalEngine, PublishesMatchLiveClassifierUnderChurn) {
  expect_engine_matches_classifier_under_churn(
      datasets::internet2_like(datasets::Scale::Tiny, 7));
  expect_engine_matches_classifier_under_churn(
      datasets::stanford_like(datasets::Scale::Tiny));
}

// Rule churn through the engine while reader threads hammer batch queries:
// every republish swaps the snapshot under readers still using the
// retiring one (run under TSan in CI).
TEST(IncrementalConcurrency, RepublishesUnderConcurrentBatches) {
  EngineWorld w(3);
  QueryEngine::Options o;
  o.num_threads = 2;
  QueryEngine e(w.clf, o);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto atoms = e.classify_batch(w.trace);
        ASSERT_EQ(atoms.size(), w.trace.size());
      }
    });
  }

  Rng rng(17);
  for (int round = 0; round < 8; ++round) {
    const BoxId b = static_cast<BoxId>(rng.uniform(w.data.net.topology.box_count()));
    const ForwardingRule r = w.random_rule(b, rng);
    e.insert_fib_rule(b, r);
    expect_published_program_exact(e, "after insert");
    e.remove_fib_rule(b, r);
    expect_published_program_exact(e, "after remove");
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Final state answers exactly like the classifier.
  const auto snap = e.snapshot();
  for (const PacketHeader& h : w.trace)
    ASSERT_EQ(snap->classify(h), w.clf.classify(h));
}

}  // namespace
}  // namespace apc
