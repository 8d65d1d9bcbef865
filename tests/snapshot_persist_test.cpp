// Tests for durable FlatSnapshot persistence (engine/snapshot_io.cpp):
// save/load round-trip fidelity, corrupt-file rejection, and the
// QueryEngine warm-restore path.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "datasets/datasets.hpp"
#include "datasets/traces.hpp"
#include "engine/engine.hpp"
#include "engine/snapshot.hpp"
#include "util/rng.hpp"

namespace apc::engine {
namespace {

std::string tmp_snap(const std::string& name) {
  const std::string p = ::testing::TempDir() + "apc_snap_" + name + ".bin";
  std::remove(p.c_str());
  return p;
}

std::string read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

struct Fixture {
  datasets::Dataset data;
  std::shared_ptr<bdd::BddManager> mgr;
  std::unique_ptr<ApClassifier> clf;
  std::vector<PacketHeader> probes;

  explicit Fixture(std::uint64_t seed = 5)
      : data(datasets::internet2_like(datasets::Scale::Tiny, seed)),
        mgr(datasets::Dataset::make_manager()) {
    clf = std::make_unique<ApClassifier>(data.net, mgr);
    Rng rng(seed);
    const auto reps = datasets::atom_representatives(clf->atoms(), rng);
    probes = datasets::uniform_trace(reps, 256, rng);
  }
};

TEST(SnapshotPersist, SaveLoadRoundTripsClassifyAndQuery) {
  Fixture fx;
  const auto snap = FlatSnapshot::build(*fx.clf);
  const std::string path = tmp_snap("roundtrip");
  save_snapshot(*snap, path);

  const auto loaded = load_snapshot(path);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->bdd_node_count(), snap->bdd_node_count());
  EXPECT_EQ(loaded->tree_node_count(), snap->tree_node_count());
  EXPECT_EQ(loaded->atom_capacity(), snap->atom_capacity());
  EXPECT_EQ(loaded->box_count(), snap->box_count());
  for (const PacketHeader& h : fx.probes) {
    ASSERT_EQ(loaded->classify(h), snap->classify(h));
    ASSERT_EQ(loaded->classify_walk(h), snap->classify_walk(h));
    // Full two-stage query from every ingress box.
    for (BoxId b = 0; b < snap->box_count(); ++b)
      ASSERT_EQ(loaded->query(h, b), snap->query(h, b));
  }
}

TEST(SnapshotPersist, LoadedSnapshotHonorsAcceleratorOptions) {
  Fixture fx;
  const auto snap = FlatSnapshot::build(*fx.clf);
  const std::string path = tmp_snap("accel");
  save_snapshot(*snap, path);

  FlatSnapshot::Options off;
  off.behavior_table_budget = 0;
  const auto bare = load_snapshot(path, off);
  EXPECT_EQ(bare->behavior_table_mode(), FlatSnapshot::BehaviorTableMode::kDisabled);

  const auto accel = load_snapshot(path);  // defaults: lazy table
  EXPECT_NE(accel->behavior_table_mode(), FlatSnapshot::BehaviorTableMode::kDisabled);
  // Lazy cells fill on first use and agree with the walk.
  for (const PacketHeader& h : fx.probes) {
    const AtomId a = accel->classify(h);
    ASSERT_EQ(accel->behavior_of(a, 0), accel->behavior_walk(a, 0));
  }
}

TEST(SnapshotPersist, BitFlipAnywhereIsRejected) {
  Fixture fx;
  const auto snap = FlatSnapshot::build(*fx.clf);
  const std::string path = tmp_snap("bitflip");
  save_snapshot(*snap, path);
  const std::string clean = read_raw(path);
  ASSERT_GT(clean.size(), 64u);

  // Flip one bit at a spread of offsets; every variant must be rejected
  // with a typed error (header checks catch the front, CRC catches the
  // payload) — never accepted, never UB.
  for (std::size_t off = 0; off < clean.size(); off += clean.size() / 13 + 1) {
    std::string bytes = clean;
    bytes[off] = static_cast<char>(bytes[off] ^ 0x10);
    write_raw(path, bytes);
    try {
      load_snapshot(path);
      FAIL() << "accepted corrupt snapshot (flip at " << off << ")";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorruptData) << "flip at " << off;
    }
  }
}

TEST(SnapshotPersist, TruncationsAreRejected) {
  Fixture fx;
  const auto snap = FlatSnapshot::build(*fx.clf);
  const std::string path = tmp_snap("trunc");
  save_snapshot(*snap, path);
  const std::string clean = read_raw(path);

  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{27}, clean.size() / 2,
        clean.size() - 1}) {
    write_raw(path, clean.substr(0, keep));
    EXPECT_THROW(load_snapshot(path), Error) << "kept " << keep;
  }
  EXPECT_THROW(load_snapshot(tmp_snap("missing")), Error);
}

TEST(SnapshotPersist, QueryEngineWarmRestoresAndSavesOnPublish) {
  Fixture fx;
  const std::string path = tmp_snap("engine");
  QueryEngine::Options opts;
  opts.num_threads = 2;
  opts.snapshot_path = path;

  std::vector<AtomId> expect;
  {
    QueryEngine eng(*fx.clf, opts);
    EXPECT_EQ(eng.snapshot_restores().value(), 0u);  // nothing to restore yet
    EXPECT_GE(eng.snapshot_saves().value(), 1u);     // initial publish saved
    expect = eng.classify_batch(fx.probes);
  }
  ASSERT_FALSE(read_raw(path).empty());

  // A second engine over the same classifier warm-restores the file and
  // serves identical answers.
  QueryEngine eng2(*fx.clf, opts);
  EXPECT_EQ(eng2.snapshot_restores().value(), 1u);
  EXPECT_EQ(eng2.classify_batch(fx.probes), expect);

  // Updates republish and re-save; the file keeps tracking the live state.
  const std::uint64_t saves_before = eng2.snapshot_saves().value();
  eng2.update([](ApClassifier&) {});
  EXPECT_EQ(eng2.snapshot_saves().value(), saves_before + 1);

  const obs::MetricsSnapshot stats = eng2.stats();
  EXPECT_NE(stats.find("engine.snapshot_restores"), nullptr);
  EXPECT_NE(stats.find("engine.snapshot_saves"), nullptr);
  EXPECT_NE(stats.find("engine.snapshot_save_failures"), nullptr);
}

TEST(SnapshotPersist, CorruptFileFallsBackToBuild) {
  Fixture fx;
  const std::string path = tmp_snap("fallback");
  QueryEngine::Options opts;
  opts.num_threads = 2;
  opts.snapshot_path = path;
  { QueryEngine eng(*fx.clf, opts); }

  // Two unusable files: a flipped byte, and the retired v1 format (a valid
  // snapshot under the v1 magic — the magic alone must reject it).
  const std::string clean = read_raw(path);
  std::string flipped = clean;
  flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0xFF);
  const std::string v1 = "APCSNAP1" + clean.substr(8);
  for (const std::string& bytes : {flipped, v1}) {
    write_raw(path, bytes);
    try {
      (void)load_snapshot(path);
      ADD_FAILURE() << "loaded an unusable snapshot file";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorruptData) << e.what();
    }

    QueryEngine eng(*fx.clf, opts);
    EXPECT_EQ(eng.snapshot_restores().value(), 0u);  // fell back, didn't crash
    // Still serves correct answers (built fresh from the classifier)...
    for (const PacketHeader& h : fx.probes)
      EXPECT_EQ(eng.classify(h), fx.clf->classify(h));
    // ...and the save at publish healed the file, as v2, for the next
    // restart.
    EXPECT_EQ(read_raw(path).substr(0, 8), "APCSNAP2");
    QueryEngine eng2(*fx.clf, opts);
    EXPECT_EQ(eng2.snapshot_restores().value(), 1u);
  }
}

}  // namespace
}  // namespace apc::engine
