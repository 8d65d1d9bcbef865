// Tests for the compiled match program (engine/program.hpp): every snapshot
// carries one, the scalar and AVX2 kernels must be bit-identical to the
// interpreted walk (FlatSnapshot::classify_walk, the stage-1 oracle) on
// every header — exhaustively across atoms, on random and adversarial
// headers, and across republished snapshots — and the coalescer must
// collapse same-word BDD chains to single instructions.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "classifier/classifier.hpp"
#include "datasets/datasets.hpp"
#include "datasets/traces.hpp"
#include "engine/engine.hpp"
#include "engine/program.hpp"
#include "engine/snapshot.hpp"
#include "packet/ipv4.hpp"
#include "util/rng.hpp"

namespace apc {
namespace {

using datasets::Dataset;
using datasets::Scale;
using engine::FlatSnapshot;
using engine::KernelKind;
using engine::MatchProgram;
using engine::QueryEngine;

FlatSnapshot::Options program_options() {
  FlatSnapshot::Options o;
  o.header_cache_capacity = 0;  // classify_into goes straight to the kernel
  o.behavior_table_budget = 0;
  return o;
}

/// All-atom representatives + random headers + adversarial corners: the
/// all-zeros and all-ones headers, and single-bit flips of representatives
/// (each flip crosses exactly one BDD test, probing every chain boundary).
std::vector<PacketHeader> differential_headers(const ApClassifier& clf,
                                               std::uint64_t seed) {
  Rng rng(seed);
  const auto reps = datasets::atom_representatives(clf.atoms(), rng);
  std::vector<PacketHeader> hs = reps.headers;
  for (std::size_t i = 0; i < 200; ++i) {
    hs.push_back(PacketHeader::from_five_tuple(
        static_cast<std::uint32_t>(rng.next()),
        static_cast<std::uint32_t>(rng.next()),
        static_cast<std::uint16_t>(rng.next()),
        static_cast<std::uint16_t>(rng.next()),
        static_cast<std::uint8_t>(rng.next())));
  }
  hs.emplace_back();  // all zeros
  PacketHeader ones;
  for (std::uint32_t b = 0; b < HeaderLayout::kBits; ++b) ones.set_bit(b, true);
  hs.push_back(ones);
  for (const PacketHeader& rep : reps.headers) {
    for (std::uint32_t b = 0; b < HeaderLayout::kBits; b += 7) {
      PacketHeader h = rep;
      h.set_bit(b, !h.bit(b));
      hs.push_back(h);
    }
  }
  return hs;
}

/// Asserts scalar run(), forced-scalar batch, forced-AVX2 batch, and the
/// interpreted walks all agree on every header.
void expect_kernels_match(const FlatSnapshot& snap,
                          const std::vector<PacketHeader>& hs) {
  const MatchProgram* prog = snap.program();
  ASSERT_NE(prog, nullptr);
  std::vector<AtomId> scalar(hs.size()), simd(hs.size());
  prog->run_batch(hs.data(), nullptr, hs.size(), scalar.data(),
                  KernelKind::kScalar);
  prog->run_batch(hs.data(), nullptr, hs.size(), simd.data(), KernelKind::kAvx2);
  for (std::size_t i = 0; i < hs.size(); ++i) {
    const AtomId oracle = snap.classify_walk(hs[i]);
    ASSERT_EQ(oracle, prog->run(hs[i])) << "scalar run, header " << i;
    ASSERT_EQ(oracle, scalar[i]) << "scalar batch, header " << i;
    ASSERT_EQ(oracle, simd[i]) << "avx2 batch, header " << i;
  }
  // The `which` path (the cache-miss list shape): every third header, odd
  // count, untouched slots must stay untouched.
  constexpr AtomId kUntouched = 0xFFFFFFFu;
  std::vector<std::size_t> which;
  for (std::size_t i = 0; i < hs.size(); i += 3) which.push_back(i);
  std::vector<AtomId> sel(hs.size(), kUntouched);
  prog->run_batch(hs.data(), which.data(), which.size(), sel.data(),
                  KernelKind::kAvx2);
  std::size_t w = 0;
  for (std::size_t i = 0; i < hs.size(); ++i) {
    if (w < which.size() && which[w] == i) {
      ASSERT_EQ(sel[i], scalar[i]) << "which path, header " << i;
      ++w;
    } else {
      ASSERT_EQ(sel[i], kUntouched) << "slot " << i << " written unexpectedly";
    }
  }
}

TEST(MatchProgram, DifferentialExhaustiveAcrossAtoms) {
  for (const int which : {0, 1}) {
    Dataset d = which == 0 ? datasets::internet2_like(Scale::Tiny, 11)
                           : datasets::stanford_like(Scale::Tiny, 11);
    auto mgr = Dataset::make_manager();
    ApClassifier clf(d.net, mgr);
    const auto snap = FlatSnapshot::build(clf, program_options());
    ASSERT_GT(snap->program_instructions(), 0u);
    expect_kernels_match(*snap, differential_headers(clf, 17 + which));

    // classify_into (the production entry point) equals per-header walks.
    const auto hs = differential_headers(clf, 91 + which);
    std::vector<AtomId> out(hs.size());
    snap->classify_into(hs.data(), hs.size(), out.data());
    for (std::size_t i = 0; i < hs.size(); ++i)
      ASSERT_EQ(out[i], snap->classify_walk(hs[i]));
  }
}

TEST(MatchProgram, EverySnapshotHasAnAccountedProgram) {
  // Built (with and without accelerators), republished, and loaded
  // (mapped and owned) snapshots all carry a program: it is the only
  // stage-1 executor behind the header cache.
  Dataset d = datasets::internet2_like(Scale::Tiny, 3);
  auto mgr = Dataset::make_manager();
  ApClassifier clf(d.net, mgr);
  const std::string path = ::testing::TempDir() + "/apc_program_every.bin";
  std::vector<std::shared_ptr<const FlatSnapshot>> snaps = {
      FlatSnapshot::build(clf), FlatSnapshot::build(clf, program_options())};
  engine::save_snapshot(*snaps[0], path);
  FlatSnapshot::Options owned;
  owned.mmap_load = false;
  snaps.push_back(engine::load_snapshot(path));
  snaps.push_back(engine::load_snapshot(path, owned));
  QueryEngine::Options eopts;
  eopts.num_threads = 1;
  QueryEngine eng(clf, eopts);
  eng.add_predicate(mgr->equals(HeaderLayout::kDstPort, 16, 8080));
  snaps.push_back(eng.snapshot());

  Rng rng(5);
  const auto reps = datasets::atom_representatives(clf.atoms(), rng);
  for (const auto& snap : snaps) {
    ASSERT_NE(snap->program(), nullptr);
    EXPECT_GT(snap->program_instructions(), 0u);
    EXPECT_EQ(snap->program_bytes(),
              snap->program_instructions() * sizeof(engine::MatchInsn));
    EXPECT_GE(snap->program_compile_seconds(), 0.0);
    // Dispatch reports whichever kernel this machine will run.
    EXPECT_EQ(snap->kernel_dispatch(), MatchProgram::avx2_available() ? 2 : 1);
    // The program is accounted memory.
    EXPECT_GE(snap->memory_bytes(), snap->program_bytes());
    for (const PacketHeader& h : reps.headers)
      ASSERT_EQ(snap->classify(h), snap->classify_walk(h));
  }
}

TEST(MatchProgram, CoalescesSameWordChainsToOneInstruction) {
  // One predicate: dst in 10.1.0.0/16.  Its BDD is a 16-node chain over bits
  // 0..15 — all in header word 0, every fail edge on the shared kFalse — so
  // the Click-style coalescer must emit exactly ONE mask-and-compare
  // instruction for the whole tree (both leaves are instruction-free jumps).
  NetworkModel net;
  const BoxId b = net.topology.add_box("b");
  const PortId h1 = net.topology.add_host_port(b, "h1");
  net.fib(b).add(parse_prefix("10.1.0.0/16"), h1.port);
  auto mgr = std::make_shared<bdd::BddManager>(HeaderLayout::kBits);
  ApClassifier clf(net, mgr);

  const auto snap = FlatSnapshot::build(clf, program_options());
  ASSERT_NE(snap->program(), nullptr);
  EXPECT_EQ(snap->program_instructions(), 1u);

  const PacketHeader in = PacketHeader::from_five_tuple(0, parse_ipv4("10.1.2.3"), 0, 0, 6);
  const PacketHeader out = PacketHeader::from_five_tuple(0, parse_ipv4("10.2.2.3"), 0, 0, 6);
  EXPECT_EQ(snap->program()->run(in), snap->classify_walk(in));
  EXPECT_EQ(snap->program()->run(out), snap->classify_walk(out));
  EXPECT_NE(snap->program()->run(in), snap->program()->run(out));
}

TEST(MatchProgram, SingleLeafTreeAndBatchedVisitTotals) {
  // A single-leaf tree compiles to an instruction-free program whose entry
  // is the leaf; batched visit totals through it must stay exact.
  NetworkModel net;
  const BoxId b = net.topology.add_box("b");
  const PortId h1 = net.topology.add_host_port(b, "h1");
  // A default route compiles to the constant-true predicate, whose negation
  // is unsatisfiable: one live atom, so the tree is a single leaf.
  net.fib(b).add(parse_prefix("0.0.0.0/0"), h1.port);
  auto mgr = std::make_shared<bdd::BddManager>(HeaderLayout::kBits);
  ApClassifier::Options copts;
  copts.track_visits = true;
  ApClassifier clf(net, mgr, copts);

  const auto snap = FlatSnapshot::build(clf, program_options());
  ASSERT_TRUE(snap->tracks_visits());
  ASSERT_NE(snap->program(), nullptr);
  // Single-leaf tree: zero instructions, leaf-encoded entry.
  EXPECT_EQ(snap->program_instructions(), 0u);
  EXPECT_NE(snap->program()->entry() & MatchProgram::kLeafBit, 0u);
  Rng rng(8);
  std::vector<PacketHeader> hs;
  for (int i = 0; i < 257; ++i)
    hs.push_back(PacketHeader::from_five_tuple(
        static_cast<std::uint32_t>(rng.next()),
        static_cast<std::uint32_t>(rng.next()), 0, 0, 17));
  std::vector<AtomId> out(hs.size());
  snap->classify_into(hs.data(), hs.size(), out.data());
  for (std::size_t i = 1; i < out.size(); ++i) ASSERT_EQ(out[i], out[0]);

  std::uint64_t total = 0;
  std::vector<std::uint64_t> counts = snap->visit_counts();
  for (const std::uint64_t c : counts) total += c;
  EXPECT_EQ(total, hs.size());
  EXPECT_EQ(counts[out[0]], hs.size());
}

TEST(MatchProgram, VisitTotalsExactThroughKernelPath) {
  // The kernels don't touch visit counters; classify_batch bumps from the
  // outputs.  Totals must equal the header count on a multi-atom tree too.
  Dataset d = datasets::internet2_like(Scale::Tiny, 23);
  auto mgr = Dataset::make_manager();
  ApClassifier::Options copts;
  copts.track_visits = true;
  ApClassifier clf(d.net, mgr, copts);
  const auto snap = FlatSnapshot::build(clf, program_options());
  Rng rng(24);
  const auto reps = datasets::atom_representatives(clf.atoms(), rng);
  const auto hs = datasets::uniform_trace(reps, 500, rng);
  std::vector<AtomId> out(hs.size());
  snap->classify_into(hs.data(), hs.size(), out.data());
  std::uint64_t total = 0;
  for (const std::uint64_t c : snap->visit_counts()) total += c;
  EXPECT_EQ(total, hs.size());
}

TEST(MatchProgram, SurvivesSnapshotPersistRoundTrip) {
  // A warm-restored snapshot adopts the saved program and classifies
  // identically.
  Dataset d = datasets::internet2_like(Scale::Tiny, 41);
  auto mgr = Dataset::make_manager();
  ApClassifier clf(d.net, mgr);
  const auto snap = FlatSnapshot::build(clf, program_options());
  const std::string path = ::testing::TempDir() + "/apc_program_snap.bin";
  engine::save_snapshot(*snap, path);
  const auto loaded = engine::load_snapshot(path, program_options());
  ASSERT_NE(loaded->program(), nullptr);
  EXPECT_EQ(loaded->program_instructions(), snap->program_instructions());
  expect_kernels_match(*loaded, differential_headers(clf, 43));
}

TEST(MatchProgram, ChurnKernelQueriesAgainstConcurrentRepublish) {
  // TSan-targeted: kernel-path batch queries racing republishes (each
  // compiles a fresh program) must stay data-race-free and correct — every
  // answer must be valid for SOME published snapshot, checked against the
  // snapshot actually used.
  Dataset d = datasets::internet2_like(Scale::Tiny, 51);
  auto mgr = Dataset::make_manager();
  ApClassifier clf(d.net, mgr);
  QueryEngine::Options opts;
  opts.num_threads = 2;
  QueryEngine eng(clf, opts);

  Rng rng(52);
  const auto reps = datasets::atom_representatives(clf.atoms(), rng);
  const auto hs = datasets::uniform_trace(reps, 128, rng);

  std::atomic<bool> stop{false};
  std::thread querier([&] {
    std::vector<AtomId> out(hs.size());
    while (!stop.load(std::memory_order_acquire)) {
      const auto s = eng.snapshot();
      s->classify_into(hs.data(), hs.size(), out.data());
      for (std::size_t i = 0; i < hs.size(); ++i)
        ASSERT_EQ(out[i], s->classify_walk(hs[i]));
    }
  });
  for (int i = 0; i < 6; ++i) {
    eng.update([](ApClassifier&) {});  // same tree, fresh program
    eng.add_predicate(
        mgr->equals(HeaderLayout::kSrcPort, 16, 1000 + i));  // new tree
  }
  stop.store(true, std::memory_order_release);
  querier.join();
  EXPECT_NE(eng.snapshot()->program(), nullptr);
}

}  // namespace
}  // namespace apc
