// Tests for the v2 arena snapshot format (engine/arena.hpp +
// engine/snapshot_io.cpp): mmap warm restore vs owned-read storage, memory
// accounting, rejection of corrupt and non-terminating files, and RCU
// retirement of a mapped snapshot under republish churn.
// The suite name rides the CI TSan/chaos regexes via the SnapshotPersist
// substring.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "datasets/datasets.hpp"
#include "datasets/traces.hpp"
#include "engine/engine.hpp"
#include "engine/snapshot.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"

namespace apc::engine {
namespace {

std::string tmp_snap(const std::string& name) {
  const std::string p = ::testing::TempDir() + "apc_snap_v2_" + name + ".bin";
  std::remove(p.c_str());
  return p;
}

std::string read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

struct Fixture {
  datasets::Dataset data;
  std::shared_ptr<bdd::BddManager> mgr;
  std::unique_ptr<ApClassifier> clf;
  datasets::AtomReps reps;
  std::vector<PacketHeader> probes;

  explicit Fixture(std::uint64_t seed = 7)
      : data(datasets::stanford_like(datasets::Scale::Tiny, seed)),
        mgr(datasets::Dataset::make_manager()) {
    clf = std::make_unique<ApClassifier>(data.net, mgr);
    Rng rng(seed);
    reps = datasets::atom_representatives(clf->atoms(), rng);
    probes = datasets::uniform_trace(reps, 256, rng);
  }
};

void expect_same_answers(const FlatSnapshot& a, const FlatSnapshot& b,
                         const std::vector<PacketHeader>& probes) {
  ASSERT_EQ(a.box_count(), b.box_count());
  for (const PacketHeader& h : probes) {
    ASSERT_EQ(a.classify(h), b.classify(h));
    for (BoxId box = 0; box < a.box_count(); ++box)
      ASSERT_EQ(a.query(h, box), b.query(h, box));
  }
}

TEST(SnapshotPersistV2, MappedStorageIsUsedAndAccounted) {
  Fixture fx;
  const auto snap = FlatSnapshot::build(*fx.clf);
  const std::string path = tmp_snap("mapped");
  save_snapshot(*snap, path);

  const auto loaded = load_snapshot(path);
  ASSERT_NE(loaded, nullptr);
  if (Arena::mmap_supported()) {
    EXPECT_EQ(loaded->storage(), Arena::Storage::kMapped);
    // The arena is counted as mapped bytes; owned bytes cover only the
    // runtime accelerators (caches, tables), never the frozen arrays.
    EXPECT_GE(loaded->mapped_bytes(), sizeof(ArenaHeader));
    EXPECT_EQ(loaded->mapped_bytes() % Arena::kAlign, 0u);
    EXPECT_EQ(loaded->memory_bytes(),
              loaded->owned_bytes() + loaded->mapped_bytes());
  } else {
    EXPECT_EQ(loaded->storage(), Arena::Storage::kOwned);
    EXPECT_EQ(loaded->mapped_bytes(), 0u);
  }
  // The built (owned) snapshot reports no mapped bytes.
  EXPECT_EQ(snap->storage(), Arena::Storage::kOwned);
  EXPECT_EQ(snap->mapped_bytes(), 0u);
  EXPECT_GE(snap->owned_bytes(), sizeof(ArenaHeader));
}

TEST(SnapshotPersistV2, MmapLoadFalseForcesOwnedRead) {
  Fixture fx;
  const auto snap = FlatSnapshot::build(*fx.clf);
  const std::string path = tmp_snap("owned");
  save_snapshot(*snap, path);

  FlatSnapshot::Options lo;
  lo.mmap_load = false;
  const auto loaded = load_snapshot(path, lo);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->storage(), Arena::Storage::kOwned);
  EXPECT_EQ(loaded->mapped_bytes(), 0u);
  expect_same_answers(*loaded, *snap, fx.probes);
}

TEST(SnapshotPersistV2, MappedAndOwnedAgreeOnEveryAtom) {
  Fixture fx;
  const auto snap = FlatSnapshot::build(*fx.clf);
  const std::string path = tmp_snap("diff");
  save_snapshot(*snap, path);

  FlatSnapshot::Options lo;
  const auto mapped = load_snapshot(path, lo);
  lo.mmap_load = false;
  const auto owned = load_snapshot(path, lo);
  ASSERT_NE(mapped, nullptr);
  ASSERT_NE(owned, nullptr);

  // One representative header per live atom: the differential covers every
  // equivalence class, not just the popular ones.
  ASSERT_FALSE(fx.reps.headers.empty());
  for (std::size_t i = 0; i < fx.reps.headers.size(); ++i) {
    const PacketHeader& h = fx.reps.headers[i];
    ASSERT_EQ(mapped->classify(h), fx.reps.atom_ids[i]);
    ASSERT_EQ(owned->classify(h), fx.reps.atom_ids[i]);
  }
  expect_same_answers(*mapped, *owned, fx.probes);

  // Batched classification too (the program kernel path).
  std::vector<AtomId> a(fx.probes.size()), b(fx.probes.size());
  mapped->classify_into(fx.probes.data(), fx.probes.size(), a.data());
  owned->classify_into(fx.probes.data(), fx.probes.size(), b.data());
  EXPECT_EQ(a, b);
}

TEST(SnapshotPersistV2, MappedFileBitFlipsAreRejected) {
  Fixture fx;
  const auto snap = FlatSnapshot::build(*fx.clf);
  const std::string path = tmp_snap("bitflip");
  save_snapshot(*snap, path);
  const std::string clean = read_raw(path);
  ASSERT_GT(clean.size(), 4096u);

  // Flip one bit in the arena body (past the 4 KiB header): the CRC runs
  // over the bytes as mapped, so corruption is caught before validation
  // ever dereferences them.
  std::string dirty = clean;
  dirty[4096 + (dirty.size() - 4096) / 2] ^= 0x40;
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(dirty.data(), static_cast<std::streamsize>(dirty.size()));
  try {
    (void)load_snapshot(path);
    FAIL() << "expected kCorruptData";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptData);
  }

  // Nonzero header padding is corruption too — reserved bytes must stay
  // zero so future fields cannot be silently misread by old binaries.
  dirty = clean;
  dirty[100] = 0x01;  // inside the reserved header pad
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(dirty.data(), static_cast<std::streamsize>(dirty.size()));
  EXPECT_THROW((void)load_snapshot(path), Error);

  // Trailing garbage changes the file length: the exact-size check fires.
  dirty = clean + std::string(7, '\xee');
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(dirty.data(), static_cast<std::streamsize>(dirty.size()));
  EXPECT_THROW((void)load_snapshot(path), Error);
}

TEST(SnapshotPersistV2, MappedSnapshotAdoptsProgramWithoutRecompile) {
  Fixture fx;
  const auto snap = FlatSnapshot::build(*fx.clf);
  const std::string path = tmp_snap("program");
  save_snapshot(*snap, path);

  const auto loaded = load_snapshot(path);
  ASSERT_NE(loaded, nullptr);
  ASSERT_NE(loaded->program(), nullptr);
  EXPECT_EQ(loaded->program()->instruction_count(),
            snap->program()->instruction_count());
  EXPECT_EQ(loaded->program()->entry(), snap->program()->entry());
  // Adopted from the arena, not recompiled: no compile time was spent and
  // the program does not own a private copy of the code.
  EXPECT_EQ(loaded->program()->compile_seconds(), 0.0);
  EXPECT_FALSE(loaded->program()->owns_code());
}

/// Saves `snap` to `path`, lets `doctor` edit the file's arena (its header,
/// and the bytes from the arena base), and recomputes the file CRC, so only
/// the loader's arena checks can refuse what it did.
void save_doctored(const FlatSnapshot& snap, const std::string& path,
                   const std::function<void(ArenaHeader&, char*)>& doctor) {
  save_snapshot(snap, path);
  std::string bytes = read_raw(path);
  constexpr std::size_t kArenaOffset = 4096;  // the arena follows the file header
  char* arena = bytes.data() + kArenaOffset;
  ArenaHeader h;
  std::memcpy(&h, arena, sizeof(h));
  doctor(h, arena);
  std::memcpy(arena, &h, sizeof(h));
  const std::uint32_t crc =
      util::crc32c_mask(util::crc32c(arena, bytes.size() - kArenaOffset));
  std::memcpy(bytes.data() + 24, &crc, sizeof(crc));  // the file header's CRC
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Both load paths (mapped and owned) refuse `path` as kCorruptData.
void expect_load_refused(const std::string& path, const std::string& what) {
  FlatSnapshot::Options owned;
  owned.mmap_load = false;
  for (const FlatSnapshot::Options& lo : {FlatSnapshot::Options{}, owned}) {
    try {
      (void)load_snapshot(path, lo);
      ADD_FAILURE() << "accepted " << what;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorruptData) << e.what();
    }
  }
}

TEST(SnapshotPersistV2, ProgramJumpCycleIsRejected) {
  // The kernels run until a leaf jump with no step bound, so a program whose
  // jumps loop must be refused at load instead of hanging the first
  // classify.  Instruction 0 jumping to itself passes every range check;
  // with the CRC recomputed only an acyclicity check can catch it.  Nothing
  // here classifies, so a loader without that check fails the test rather
  // than hanging it.
  Fixture fx;
  const auto snap = FlatSnapshot::build(*fx.clf);
  ASSERT_GT(snap->program_instructions(), 0u);
  const std::string path = tmp_snap("cycle");
  save_doctored(*snap, path, [](ArenaHeader& h, char* arena) {
    char* first = arena + h.program.off;
    MatchInsn insn;
    std::memcpy(&insn, first, sizeof(insn));
    const std::uint32_t word =
        insn.on_match & ~(MatchProgram::kLeafBit | MatchProgram::kTargetMask);
    insn.on_match = word;  // non-leaf jump to pc 0, same header word
    insn.on_fail = word;
    std::memcpy(first, &insn, sizeof(insn));
  });
  expect_load_refused(path, "a program whose jumps form a cycle");
}

TEST(SnapshotPersistV2, ArenaWithoutProgramIsRejected) {
  // Every writer compiles the match program into the arena, so the loader
  // never compiles one: an arena whose program flag is clear and whose
  // program section is empty passes every other check, and must be refused.
  Fixture fx;
  const auto snap = FlatSnapshot::build(*fx.clf);
  const std::string path = tmp_snap("no_program");
  save_doctored(*snap, path, [](ArenaHeader& h, char*) {
    h.flags &= ~static_cast<std::uint32_t>(ArenaHeader::kHasProgram);
    h.program.count = 0;
  });
  expect_load_refused(path, "an arena without a match program");

  // A warm restore falls back to a build and rewrites the file.
  QueryEngine::Options opts;
  opts.num_threads = 2;
  opts.snapshot_path = path;
  {
    QueryEngine eng(*fx.clf, opts);
    EXPECT_EQ(eng.snapshot_restores().value(), 0u);
  }
  QueryEngine restored(*fx.clf, opts);
  EXPECT_EQ(restored.snapshot_restores().value(), 1u);
}

// TSan target: republish churn must retire a MAPPED snapshot (munmap via
// the arena's shared_ptr) only after the last concurrent reader drops its
// reference.  Readers classify continuously while the writer republishes.
TEST(SnapshotPersistV2, RepublishChurnRetiresMappedSnapshotSafely) {
  Fixture fx;
  QueryEngine::Options opts;
  opts.num_threads = 2;
  opts.snapshot_path = tmp_snap("churn");
  { QueryEngine warmup(*fx.clf, opts); }  // writes the v2 snapshot file

  QueryEngine eng(*fx.clf, opts);  // warm restore: first snapshot is mapped
  ASSERT_EQ(eng.snapshot_restores().value(), 1u);
  if (Arena::mmap_supported()) {
    ASSERT_EQ(eng.snapshot()->storage(), Arena::Storage::kMapped);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> answered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto s = eng.snapshot();  // may be the mapped one, may retire
        for (int i = 0; i < 64; ++i)
          (void)s->classify(fx.probes[rng.uniform(fx.probes.size())]);
        answered.fetch_add(64, std::memory_order_relaxed);
      }
    });
  }
  // Each update republishes an owned rebuild and retires the predecessor —
  // the first iteration unmaps the warm-restored arena under live readers.
  for (int i = 0; i < 8; ++i) eng.update([](ApClassifier&) {});
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_GT(answered.load(), 0u);

  for (const PacketHeader& h : fx.probes)
    EXPECT_EQ(eng.classify(h), fx.clf->classify(h));
  std::remove(opts.snapshot_path.c_str());
}

}  // namespace
}  // namespace apc::engine
