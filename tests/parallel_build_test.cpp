// Differential tests for the parallel construction pipeline.
//
// The contract (docs/architecture.md, "Parallel construction pipeline") is
// that construction parallelism is *bit-identical* to serial:
//  - compute_atoms with per-thread managers + transfer-merge yields the same
//    atom ids, the same membership signatures, and the same R(p) bitsets as
//    the serial fold, for any thread count;
//  - the fork/join tree builders splice subtree fragments back in the serial
//    allocation order, so the tree is node-for-node identical — same
//    champion selection, same tie-breaks, same node indices.
//
// The suite is named ConcurrencyParallelBuild so the TSan CI job (which
// filters on 'Concurrency|QueryEngine|FlatSnapshot') also runs it; the last
// test races a multi-threaded rebuild against engine readers specifically
// for that configuration.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "ap/atoms.hpp"
#include "aptree/build.hpp"
#include "classifier/classifier.hpp"
#include "datasets/datasets.hpp"
#include "datasets/traces.hpp"
#include "engine/engine.hpp"
#include "util/rng.hpp"

namespace apc {
namespace {

using datasets::Dataset;
using datasets::Scale;

struct Built {
  std::shared_ptr<bdd::BddManager> mgr;
  PredicateRegistry reg;
  AtomUniverse uni;
};

Built build_atoms(const Dataset& d, std::size_t threads) {
  Built b;
  b.mgr = Dataset::make_manager();
  compile_network(d.net, *b.mgr, b.reg);
  AtomsOptions ao;
  ao.threads = threads;
  b.uni = compute_atoms(b.reg, ao);
  return b;
}

void expect_same_universe(const Built& a, const Built& b) {
  ASSERT_EQ(a.uni.capacity(), b.uni.capacity());
  ASSERT_EQ(a.uni.alive_count(), b.uni.alive_count());
  ASSERT_EQ(a.reg.size(), b.reg.size());
  for (std::size_t pid = 0; pid < a.reg.size(); ++pid) {
    // R(p) equality over all predicates pins each atom's membership
    // signature, and the signature uniquely determines the atom's BDD
    // (the conjunction of predicates / negations it selects), so this is
    // content equality even though the universes live on different managers.
    EXPECT_EQ(a.reg.atoms_of(static_cast<PredId>(pid)),
              b.reg.atoms_of(static_cast<PredId>(pid)))
        << "R(p) differs for predicate " << pid;
  }
}

void expect_same_tree(const ApTree& a, const ApTree& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.root(), b.root());
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(a.node_count()); ++i) {
    const ApTree::Node& na = a.node(i);
    const ApTree::Node& nb = b.node(i);
    EXPECT_EQ(na.pred, nb.pred) << "node " << i;
    EXPECT_EQ(na.left, nb.left) << "node " << i;
    EXPECT_EQ(na.right, nb.right) << "node " << i;
    EXPECT_EQ(na.atom, nb.atom) << "node " << i;
  }
}

TEST(ConcurrencyParallelBuild, AtomsBitIdenticalAcrossThreadCounts) {
  for (int which = 0; which < 3; ++which) {
    const Dataset d = which == 0   ? datasets::internet2_like(Scale::Tiny, 3)
                      : which == 1 ? datasets::stanford_like(Scale::Tiny, 5)
                                   : datasets::datacenter_like(Scale::Tiny, 7);
    SCOPED_TRACE(d.name);
    const Built serial = build_atoms(d, 1);
    for (const std::size_t threads : {2u, 4u}) {
      SCOPED_TRACE(threads);
      const Built par = build_atoms(d, threads);
      expect_same_universe(serial, par);
    }
  }
}

TEST(ConcurrencyParallelBuild, TreeNodeForNodeIdenticalAcrossThreadCounts) {
  const Dataset d = datasets::datacenter_like(Scale::Tiny, 9);
  const Built b = build_atoms(d, 1);

  for (const BuildMethod m :
       {BuildMethod::Oapt, BuildMethod::QuickOrdering, BuildMethod::RandomOrder}) {
    SCOPED_TRACE(static_cast<int>(m));
    BuildOptions serial;
    serial.method = m;
    serial.seed = 77;
    const ApTree ref = build_tree(b.reg, b.uni, serial);

    for (const std::size_t threads : {2u, 4u}) {
      SCOPED_TRACE(threads);
      BuildOptions par = serial;
      par.threads = threads;
      // Force the fork/join path even on tiny atom sets.
      par.parallel_cutoff = 2;
      const ApTree tree = build_tree(b.reg, b.uni, par);
      expect_same_tree(ref, tree);
    }
  }
}

TEST(ConcurrencyParallelBuild, ClassifierEndToEndDifferential) {
  const Dataset d = datasets::datacenter_like(Scale::Tiny, 13);

  ApClassifier::Options serial_opts;
  serial_opts.threads = 1;
  auto mgr1 = Dataset::make_manager();
  ApClassifier serial(d.net, mgr1, serial_opts);

  ApClassifier::Options par_opts;
  par_opts.threads = 4;
  auto mgr2 = Dataset::make_manager();
  ApClassifier par(d.net, mgr2, par_opts);

  ASSERT_EQ(serial.atom_count(), par.atom_count());
  expect_same_tree(serial.tree(), par.tree());

  Rng rng(21);
  const auto reps = datasets::atom_representatives(serial.atoms(), rng);
  const auto trace = datasets::uniform_trace(reps, 512, rng);
  for (const PacketHeader& h : trace)
    ASSERT_EQ(serial.classify(h), par.classify(h));

  // Rebuild through the knob as well: set_build_threads feeds rebuild().
  par.set_build_threads(2);
  par.rebuild();
  expect_same_tree(serial.tree(), par.tree());
  for (const PacketHeader& h : trace)
    ASSERT_EQ(serial.classify(h), par.classify(h));
}

// TSan smoke: a multi-threaded rebuild (construction pool running inside the
// writer) racing concurrent batch readers on the snapshot engine.  Readers
// must keep seeing consistent snapshots while the build pool churns.
TEST(ConcurrencyParallelBuild, ParallelRebuildRacesEngineReaders) {
  const Dataset d = datasets::datacenter_like(Scale::Tiny, 17);
  auto mgr = Dataset::make_manager();
  ApClassifier clf(d.net, mgr, ApClassifier::Options{});
  clf.set_build_threads(2);

  Rng rng(31);
  const auto reps = datasets::atom_representatives(clf.atoms(), rng);
  const auto trace = datasets::uniform_trace(reps, 256, rng);

  engine::QueryEngine::Options eopts;
  eopts.num_threads = 2;
  engine::QueryEngine eng(clf, eopts);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto out = eng.classify_batch(trace);
        if (out.size() != trace.size())
          bad.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int round = 0; round < 6; ++round)
    eng.rebuild(round % 2 == 0 ? BuildMethod::Oapt : BuildMethod::QuickOrdering);

  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
}

}  // namespace
}  // namespace apc
