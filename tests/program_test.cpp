// Tests for the compiled match program (engine/program.hpp): every snapshot
// carries one, the scalar and AVX2 kernels must be bit-identical to the
// interpreted walk (FlatSnapshot::classify_walk, the stage-1 oracle) on
// every header — exhaustively across atoms, on random and adversarial
// headers (every single-bit flip of every representative), and across
// republished snapshots — the coalescer must collapse same-word chains to
// single instructions, and the program must have the decision-diagram
// shape: no path tests a header bit twice.  The ProgramProof suite checks
// programs exactly over the whole header space (engine/program_proof.hpp)
// and checks that seeded mutants fail that proof unless they are
// equivalent.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <functional>
#include <thread>

#include "classifier/classifier.hpp"
#include "datasets/datasets.hpp"
#include "datasets/traces.hpp"
#include "engine/engine.hpp"
#include "engine/program.hpp"
#include "engine/program_proof.hpp"
#include "engine/snapshot.hpp"
#include "io/network_io.hpp"
#include "packet/ipv4.hpp"
#include "util/rng.hpp"

namespace apc {
namespace {

using datasets::Dataset;
using datasets::Scale;
using engine::FlatSnapshot;
using engine::KernelKind;
using engine::MatchInsn;
using engine::MatchProgram;
using engine::QueryEngine;

FlatSnapshot::Options program_options() {
  FlatSnapshot::Options o;
  o.header_cache_capacity = 0;  // classify_into goes straight to the kernel
  o.behavior_table_budget = 0;
  return o;
}

/// All-atom representatives + random headers + adversarial corners: the
/// all-zeros and all-ones headers, and every single-bit flip of every
/// representative (each flip crosses exactly one bit test, probing every
/// chain boundary).
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
    for (std::uint32_t b = 0; b < HeaderLayout::kBits; ++b) {
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

std::size_t popcount(const engine::HeaderAtomCache::Mask& bits) {
  std::size_t n = 0;
  for (const std::uint64_t w : bits) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

/// Header bits one instruction tests, as a header-wide mask.
engine::HeaderAtomCache::Mask insn_bits(const MatchInsn& insn) {
  engine::HeaderAtomCache::Mask bits{};
  const std::uint32_t word =
      (insn.on_match >> MatchProgram::kWordShift) & MatchProgram::kWordFieldMask;
  bits[word / 2] = std::uint64_t{insn.mask} << (32 * (word % 2));
  return bits;
}

TEST(MatchProgram, NoPathTestsAHeaderBitTwice) {
  // The program is a decision diagram over the header bits: along every
  // walk each bit is tested at most once, so no walk is longer than the
  // number of bits the predicates test.  (The tree lowering it replaced
  // re-tested the destination bits once per predicate on the path: its
  // longest walk on Stanford-like tiny was 92 instructions, against 10.)
  for (const int which : {0, 1, 2}) {
    Dataset d = which == 0   ? datasets::internet2_like(Scale::Tiny, 11)
                : which == 1 ? datasets::stanford_like(Scale::Tiny, 11)
                             : datasets::datacenter_like(Scale::Tiny, 11);
    auto mgr = Dataset::make_manager();
    ApClassifier clf(d.net, mgr);
    const auto snap = FlatSnapshot::build(clf, program_options());
    const MatchProgram& prog = *snap->program();
    const MatchInsn* code = prog.instructions();
    ASSERT_EQ(prog.entry() & MatchProgram::kLeafBit, 0u) << d.name;

    // below[pc]: bits tested on any walk from pc to a leaf, pc included;
    // depth[pc]: instructions on the longest such walk.
    std::vector<engine::HeaderAtomCache::Mask> below(prog.instruction_count());
    std::vector<std::size_t> depth(prog.instruction_count(), 0);
    const std::function<void(std::uint32_t)> visit = [&](std::uint32_t pc) {
      if (depth[pc] != 0) return;
      engine::HeaderAtomCache::Mask after{};
      std::size_t deepest = 0;
      for (const std::uint32_t j : {code[pc].on_match, code[pc].on_fail}) {
        if ((j & MatchProgram::kLeafBit) != 0) continue;
        visit(j & MatchProgram::kTargetMask);
        for (std::size_t w = 0; w < after.size(); ++w)
          after[w] |= below[j & MatchProgram::kTargetMask][w];
        deepest = std::max(deepest, depth[j & MatchProgram::kTargetMask]);
      }
      const auto own = insn_bits(code[pc]);
      for (std::size_t w = 0; w < after.size(); ++w) {
        ASSERT_EQ(own[w] & after[w], 0u)
            << d.name << ": instruction " << pc << " tests a bit again below it";
        below[pc][w] = own[w] | after[w];
      }
      depth[pc] = deepest + 1;
    };
    visit(prog.entry() & MatchProgram::kTargetMask);
    const std::size_t longest = depth[prog.entry() & MatchProgram::kTargetMask];
    EXPECT_EQ(prog.max_steps(), longest) << d.name;
    EXPECT_EQ(snap->program_max_steps(), longest) << d.name;
    EXPECT_LE(longest, popcount(snap->tested_bits())) << d.name;

    // steps() agrees with the walk it counts.
    Rng rng(12);
    const auto reps = datasets::atom_representatives(clf.atoms(), rng);
    for (const PacketHeader& h : reps.headers) {
      ASSERT_GE(prog.steps(h), 1u);
      ASSERT_LE(prog.steps(h), longest);
    }
  }
}

// ---- Exact proof (engine/program_proof.hpp) ----

class ProgramProofDataset : public ::testing::TestWithParam<int> {};

TEST_P(ProgramProofDataset, ProvesTinyAndMediumBuilds) {
  for (const Scale scale : {Scale::Tiny, Scale::Medium}) {
    Dataset d = GetParam() == 0   ? datasets::internet2_like(scale)
                : GetParam() == 1 ? datasets::stanford_like(scale)
                                  : datasets::datacenter_like(scale);
    auto mgr = Dataset::make_manager();
    ApClassifier clf(d.net, mgr);
    const auto snap = FlatSnapshot::build(clf, program_options());
    const auto proof = engine::prove_program(*snap, clf);
    EXPECT_TRUE(proof.ok()) << d.name << ": " << proof.summary();
  }
}

// A second compiler guard, cheap enough for every run: a Small-scale build
// of each fixture dataset, then 64 seeded withdraw/re-announce pairs, with
// the exact proof after each of the 129 publishes.  A compiler whose ite
// computed table matched on (p, g) and ignored h passed every tiny-scale
// suite and failed only the medium proofs above; this fails it on every
// dataset (1, 16 and 11 of the 128 churn publishes).
TEST_P(ProgramProofDataset, ProvesEverySmallChurnPublish) {
  Dataset d = GetParam() == 0   ? datasets::internet2_like(Scale::Small)
              : GetParam() == 1 ? datasets::stanford_like(Scale::Small)
                                : datasets::datacenter_like(Scale::Small);
  auto mgr = Dataset::make_manager();
  ApClassifier clf(d.net, mgr);
  std::size_t failed = 0;
  std::string first;
  const auto prove = [&](const std::string& when) {
    const auto proof =
        engine::prove_program(*FlatSnapshot::build(clf, program_options()), clf);
    if (!proof.ok() && failed++ == 0) first = when + ": " + proof.summary();
  };
  prove("build");
  Rng rng(77 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t boxes = d.net.topology.box_count();
  for (int k = 0; k < 64; ++k) {
    const auto box = static_cast<BoxId>(rng.uniform(boxes));
    const std::vector<ForwardingRule>& rules = clf.network().fibs[box].rules;
    if (rules.empty()) continue;
    const ForwardingRule rule = rules[rng.uniform(rules.size())];
    clf.remove_fib_rule(box, rule);
    prove("withdraw " + std::to_string(k));
    clf.insert_fib_rule(box, rule);
    prove("re-announce " + std::to_string(k));
  }
  EXPECT_EQ(failed, 0u) << d.name << ", first at " << first;
}

INSTANTIATE_TEST_SUITE_P(Fixtures, ProgramProofDataset, ::testing::Values(0, 1, 2));

TEST(ProgramProof, CatchesUnsupportedAtomsAndMalformedPrograms) {
  Dataset d = datasets::internet2_like(Scale::Tiny, 5);
  auto mgr = Dataset::make_manager();
  ApClassifier clf(d.net, mgr);
  const auto snap = FlatSnapshot::build(clf, program_options());
  const MatchProgram& prog = *snap->program();
  ASSERT_GT(prog.instruction_count(), 0u);

  // A header-cache key that drops a tested bit would merge atoms.
  auto bits = snap->tested_bits();
  bits[0] &= bits[0] - 1;  // clear the lowest tested bit of word 0
  const auto narrow = engine::prove_program(prog.instructions(),
                                            prog.instruction_count(), prog.entry(),
                                            clf.atoms(), *mgr, bits);
  EXPECT_TRUE(narrow.malformed.empty());
  EXPECT_GT(narrow.unsupported_atoms, 0u) << narrow.summary();

  // Jumps that disagree on the header word have no single meaning.
  std::vector<MatchInsn> code(prog.instructions(),
                              prog.instructions() + prog.instruction_count());
  code[0].on_fail ^= 1u << MatchProgram::kWordShift;
  const auto split = engine::prove_program(code.data(), code.size(), prog.entry(),
                                           clf.atoms(), *mgr, snap->tested_bits());
  EXPECT_FALSE(split.ok());
  EXPECT_FALSE(split.malformed.empty()) << split.summary();
}

constexpr AtomId kHang = 0xFFFFFFFFu;

/// The scalar kernel's loop with a step bound, so a mutant whose jumps
/// form a cycle reads as kHang instead of spinning.
AtomId run_bounded(const std::vector<MatchInsn>& code, std::uint32_t entry,
                   const PacketHeader& h) {
  std::uint32_t pc = entry;
  for (std::size_t steps = 0; (pc & MatchProgram::kLeafBit) == 0; ++steps) {
    if (steps > code.size()) return kHang;
    const MatchInsn& insn = code[pc & MatchProgram::kTargetMask];
    const std::uint32_t w = h.word32((insn.on_match >> MatchProgram::kWordShift) &
                                     MatchProgram::kWordFieldMask);
    pc = (w & insn.mask) == insn.value ? insn.on_match : insn.on_fail;
  }
  return pc & MatchProgram::kTargetMask;
}

/// One seeded single-field mutant: a flipped mask bit (among the bits the
/// predicates test, so the header space that matters does not grow), a
/// flipped value bit, or a match/fail jump retargeted to a random
/// instruction or atom.  Word indices stay intact.
std::vector<MatchInsn> mutate(const MatchProgram& prog,
                              const engine::HeaderAtomCache::Mask& tested,
                              std::size_t atom_capacity, Rng& rng) {
  std::vector<MatchInsn> code(prog.instructions(),
                              prog.instructions() + prog.instruction_count());
  MatchInsn& insn = code[rng.uniform(code.size())];
  const std::uint32_t word =
      (insn.on_match >> MatchProgram::kWordShift) & MatchProgram::kWordFieldMask;
  const auto retarget = [&](std::uint32_t& jump) {
    const std::uint32_t target =
        rng.coin(0.5) ? MatchProgram::kLeafBit |
                            static_cast<std::uint32_t>(rng.uniform(atom_capacity))
                      : static_cast<std::uint32_t>(rng.uniform(code.size()));
    jump = (jump & ~(MatchProgram::kLeafBit | MatchProgram::kTargetMask)) | target;
  };
  switch (rng.uniform(4)) {
    case 0: {
      const auto half = static_cast<std::uint32_t>(tested[word / 2] >> (32 * (word % 2)));
      std::vector<std::uint32_t> candidates;
      for (std::uint32_t b = 0; b < 32; ++b)
        if ((half >> b) & 1u) candidates.push_back(b);
      insn.mask ^= 1u << candidates[rng.uniform(candidates.size())];
      break;
    }
    case 1:
      insn.value ^= 1u << rng.uniform(32);
      break;
    case 2:
      retarget(insn.on_match);
      break;
    default:
      retarget(insn.on_fail);
      break;
  }
  return code;
}

TEST(ProgramProof, SeededMutantsFailUnlessEquivalent) {
  // A network whose predicates test 17 header bits, so every mutant can be
  // compared with the original program on all 2^17 headers that vary only
  // those bits — every other bit is tested by neither program, so this is
  // exact equivalence.  The proof must pass exactly the equivalent mutants.
  const NetworkModel net = io::read_network_string(R"(
box a
box b
link a b
hostport a h1
hostport b h2
fib a 10.0.0.0/8 1
fib a 10.128.0.0/9 0
fib a 11.0.0.0/8 0
fib b 10.0.0.0/7 1
acl in b 0 default permit
aclrule in b 0 deny src 0.0.0.0/0 dst 0.0.0.0/0 sport 0-65535 dport 0-65535 proto 17
)");
  auto mgr = std::make_shared<bdd::BddManager>(HeaderLayout::kBits);
  ApClassifier clf(net, mgr);
  const auto snap = FlatSnapshot::build(clf, program_options());
  const MatchProgram& prog = *snap->program();
  const auto tested = snap->tested_bits();
  ASSERT_TRUE(engine::prove_program(*snap, clf).ok());
  ASSERT_GE(prog.instruction_count(), 4u);

  std::vector<std::uint32_t> vars;
  for (std::uint32_t v = 0; v < HeaderLayout::kBits; ++v)
    if ((tested[v >> 6] >> (v & 63)) & 1u) vars.push_back(v);
  ASSERT_EQ(vars.size(), 17u);
  std::vector<PacketHeader> space(std::size_t{1} << vars.size());
  std::vector<AtomId> want(space.size());
  for (std::size_t x = 0; x < space.size(); ++x) {
    for (std::size_t i = 0; i < vars.size(); ++i)
      space[x].set_bit(vars[i], ((x >> i) & 1u) != 0);
    want[x] = prog.run(space[x]);
  }

  Rng rng(2028);
  std::size_t caught = 0, equivalent = 0;
  for (int m = 0; m < 48; ++m) {
    const auto code = mutate(prog, tested, clf.atoms().capacity(), rng);
    bool same = true;
    for (std::size_t x = 0; x < space.size() && same; ++x)
      same = run_bounded(code, prog.entry(), space[x]) == want[x];
    const auto proof = engine::prove_program(code.data(), code.size(), prog.entry(),
                                             clf.atoms(), *mgr, tested);
    EXPECT_EQ(proof.ok(), same) << "mutant " << m << ": " << proof.summary();
    (same ? equivalent : caught) += 1;
  }
  EXPECT_GT(caught, 24u) << equivalent << " equivalent mutants";
}

TEST(ProgramProof, SeededMutantsOnDatasetsFailWhenSamplingSeesThem) {
  // On the fixture datasets the header space is too large to enumerate, so
  // sampling (representatives, their single-bit flips, random headers)
  // stands in: a mutant that changes any sampled answer must fail the
  // proof, and one that passes it must change none.
  for (const int which : {0, 1}) {
    Dataset d = which == 0 ? datasets::internet2_like(Scale::Tiny, 3)
                           : datasets::stanford_like(Scale::Tiny, 3);
    auto mgr = Dataset::make_manager();
    ApClassifier clf(d.net, mgr);
    const auto snap = FlatSnapshot::build(clf, program_options());
    const MatchProgram& prog = *snap->program();
    const auto hs = differential_headers(clf, 70 + which);
    std::vector<AtomId> want(hs.size());
    for (std::size_t i = 0; i < hs.size(); ++i) want[i] = prog.run(hs[i]);

    Rng rng(4 + which);
    std::size_t caught = 0;
    for (int m = 0; m < 24; ++m) {
      const auto code = mutate(prog, snap->tested_bits(), clf.atoms().capacity(), rng);
      bool differs = false;
      for (std::size_t i = 0; i < hs.size() && !differs; ++i)
        differs = run_bounded(code, prog.entry(), hs[i]) != want[i];
      const auto proof = engine::prove_program(code.data(), code.size(),
                                               prog.entry(), clf.atoms(), *mgr,
                                               snap->tested_bits());
      if (differs) {
        EXPECT_FALSE(proof.ok()) << d.name << " mutant " << m;
      }
      caught += !proof.ok();
    }
    EXPECT_GT(caught, 12u) << d.name;
  }
}

}  // namespace
}  // namespace apc
