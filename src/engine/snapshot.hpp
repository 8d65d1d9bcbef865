// FlatSnapshot — an immutable, manager-free freeze of the AP Tree and every
// node predicate's BDD, plus the stage-2 forwarding state, built for the
// concurrent query engine.
//
// Why it exists: ApTree::classify walks BDD nodes through the shared
// BddManager (handle deref -> manager -> node pool) on every predicate
// evaluation.  That path is single-threaded by construction — the manager's
// pool, unique table, and GC are shared mutable state.  A FlatSnapshot
// freezes everything stage 1 and the middlebox-free stage 2 need into
// contiguous arrays indexed by dense ids — and then accelerates the query
// path in three layers (see docs/architecture.md, "Query path"):
//
//   1. Behavior tables.  The paper's central observation (SS IV) is that the
//      atom fixes the truth value of every predicate, so the network-wide
//      behavior is a pure function of (atom, ingress).  At freeze time the
//      dense atom x ingress table is precomputed (parallelized over a
//      util::TaskPool) when it fits `Options::behavior_table_budget`, or
//      lazily filled per cell (CAS pointer publish) above it; behavior_of()
//      is then a table read.  The topology walk survives as behavior_walk()
//      — the table filler and the differential-test oracle.
//   2. Header -> atom cache.  A lock-free HeaderAtomCache keyed on
//      the canonicalized header bits the predicates actually test sits in
//      front of the tree walk; hot flows (real traffic is Zipfian, SS VII)
//      skip the tree entirely.  The cache lives inside the snapshot, so a
//      republish invalidates it wholesale and stale hits cannot exist.
//   3. Compiled match program.  The atom partition the frozen tree and
//      BDDs compute is compiled to a decision diagram over the header bits
//      and lowered to a flat mask-and-compare program (engine/program.hpp)
//      that every cache miss runs — classify_into() through the AVX2
//      lane-parallel kernel when the CPU has it.  No walk tests a header
//      bit twice.  Tree nodes stay 8 bytes in DFS preorder, and BDD nodes
//      in bdd::flatten's order, for classify_walk(), the interpreted
//      stage-1 oracle; engine/program_proof.hpp checks a program against
//      the classifier's atoms exactly.
//
// Storage: everything frozen lives in ONE relocatable Arena (engine/
// arena.hpp) — BDD array, tree, stage-2 records, bitset word pool, compiled
// match program, atom metadata — addressed by offsets from the arena base.
// The arena is either an owned 64-byte-aligned heap buffer (built in
// memory) or a read-only mmap of a v2 snapshot file (warm restore: page
// faults instead of a parse).  Runtime accelerator state (behavior-table
// cells, header cache, visit counters) stays on the heap: it is mutable,
// per-process, and intentionally not persisted.  The snapshot and its
// adopted MatchProgram each hold a shared_ptr to the arena, so RCU
// retirement of a mapped snapshot munmaps only after the last reader left.
//
// Classification stays a pure array walk: no BddManager, no ref-count
// traffic, no locks — safe from any number of threads.  Mutable members are
// the per-atom stats block, the cache slots, and the lazily published table
// cells, all engineered to be data-race-free under concurrent const use.
//
// Snapshots are published RCU-style by engine::QueryEngine: writers rebuild
// off to the side and atomically swap a shared_ptr<const FlatSnapshot>.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "bdd/bdd.hpp"
#include "classifier/classifier.hpp"
#include "engine/arena.hpp"
#include "engine/header_cache.hpp"
#include "engine/program.hpp"
#include "obs/metrics.hpp"
#include "util/bitset.hpp"
#include "util/task_pool.hpp"
#include "util/visit_counters.hpp"

namespace apc::engine {

class FlatSnapshot {
 public:
  /// Query-path acceleration knobs (see the class comment; README "Query
  /// engine" lists them too).
  struct Options {
    /// Memory budget in bytes for the (atom x ingress) behavior table.
    /// Below the budget the table is fully precomputed at build time; when
    /// only the cell-pointer array fits, cells fill lazily on first use;
    /// 0 disables the table entirely (every behavior_of() walks).
    std::size_t behavior_table_budget = 64u << 20;
    /// Header -> atom cache capacity in slots (rounded up to a power of
    /// two; ~64 bytes per slot).  0 disables the cache.
    std::size_t header_cache_capacity = 1u << 15;
    /// load_snapshot() only: mmap the snapshot file instead of reading it
    /// into an owned buffer, and prefault the tree and match program
    /// (madvise WILLNEED).  Ignored — with an automatic owned-read fallback
    /// — when mmap support is compiled out (APC_FORCE_NO_MMAP).
    bool mmap_load = true;
  };

  enum class BehaviorTableMode : std::uint8_t { kDisabled, kLazy, kPrecomputed };

  /// Freezes the classifier's current tree, predicates, and compiled
  /// network, and compiles the match program.  Pure read of the classifier —
  /// call from the writer side only (it must not race with classifier
  /// mutations).  Visit tracking follows the classifier's `track_visits`
  /// option.  `pool`, when given, fans the eager behavior-table fill across
  /// its workers (the query engine passes its own pool); nullptr fills
  /// serially.  Throws apc::Error(kResourceExhausted) when the program would
  /// exceed MatchProgram::kMaxInstructions.
  static std::shared_ptr<const FlatSnapshot> build(const ApClassifier& clf,
                                                   const Options& opts,
                                                   util::TaskPool* pool = nullptr);
  /// Default-options build (overload: a default `Options{}` argument cannot
  /// appear inside the enclosing class).
  static std::shared_ptr<const FlatSnapshot> build(const ApClassifier& clf) {
    return build(clf, Options{});
  }

  ~FlatSnapshot();

  // ---- Stage 1 (lock-free, const, thread-safe) ----
  /// Cache-assisted classification: header-cache probe, match program on
  /// miss.
  AtomId classify(const PacketHeader& h) const;
  /// Pure tree walk, never consulting the cache — the stage-1 oracle.
  AtomId classify_walk(const PacketHeader& h) const;
  /// Pure walk, also reporting the number of predicates evaluated (leaf
  /// depth).  Bypasses the cache so the count is always the tree's.
  AtomId classify_counted(const PacketHeader& h, std::size_t& evals) const;
  /// Batch classification into `out[0..n)`: probes the cache for every
  /// header, then runs the misses through the match program's batch kernel,
  /// up to 64 per call, from a list on the stack (no heap work).
  /// Equivalent to classify() per element.
  void classify_into(const PacketHeader* hs, std::size_t n, AtomId* out) const;

  // ---- Stage 2 (middlebox-free; the same walk as compute_behavior) ----
  /// Table-assisted behavior, read in place: one acquire load on the
  /// precomputed/lazy table (filling the cell on first touch in lazy mode)
  /// returns the cell itself, with no copy.  When the table is disabled (or
  /// the atom lies beyond it) the walk's result is stored in `scratch` and
  /// that is returned.  The reference is valid while this snapshot lives
  /// and `scratch` is not reused.
  const Behavior& behavior_ref(AtomId atom, BoxId ingress, Behavior& scratch) const;
  /// behavior_ref, copied out.
  Behavior behavior_of(AtomId atom, BoxId ingress) const;
  /// The topology walk (walk_behavior over the frozen arena) — the table
  /// filler.
  Behavior behavior_walk(AtomId atom, BoxId ingress) const;

  /// Two-stage query.  Requires a middlebox-free network: header-rewriting
  /// middleboxes need tree re-searches against live flow tables, which is
  /// the classifier's (writer-side) job.
  Behavior query(const PacketHeader& h, BoxId ingress) const;

  // ---- Introspection / stats ----
  bool has_middleboxes() const { return has_middleboxes_; }
  bool tracks_visits() const { return visits_.size() > 0; }
  /// Point-in-time copy of the per-atom visit counters (empty when visit
  /// tracking is off).  QueryEngine drains these into the classifier when
  /// the snapshot is retired.
  std::vector<std::uint64_t> visit_counts() const { return visits_.to_vector(); }

  std::size_t bdd_node_count() const { return bdd_count_; }
  std::size_t tree_node_count() const { return tree_count_; }
  std::size_t atom_capacity() const { return atom_capacity_; }
  std::size_t box_count() const { return box_count_; }

  /// Where the frozen arena lives: an owned heap buffer (built in process
  /// or loaded without mmap) or a read-only file mapping.
  Arena::Storage storage() const { return arena_->storage(); }
  /// Heap bytes this snapshot owns: the arena when owned, the visit
  /// counters, the behavior table (cells + published behaviors) and the
  /// header cache.
  std::size_t owned_bytes() const;
  /// Bytes of the mapped snapshot file (0 for owned storage).  Shared page
  /// cache, not private RSS — reported separately for exactly that reason.
  std::size_t mapped_bytes() const;
  /// Total footprint: owned_bytes() + mapped_bytes().
  std::size_t memory_bytes() const { return owned_bytes() + mapped_bytes(); }

  BehaviorTableMode behavior_table_mode() const { return table_mode_; }
  /// Cells published so far (== all live cells after an eager build;
  /// grows monotonically in lazy mode).
  std::uint64_t behavior_table_fills() const { return table_fills_.value(); }
  /// Wall-clock seconds the eager table precompute took (0 when lazy/off).
  double behavior_table_build_seconds() const { return table_build_seconds_; }
  /// The union of header bits any frozen predicate tests: the header
  /// cache's key mask (kept in the arena header, so a loaded snapshot has
  /// it even with the cache off).
  HeaderAtomCache::Mask tested_bits() const;
  /// nullptr when the cache is disabled.
  const HeaderAtomCache* header_cache() const { return cache_.get(); }
  /// Cache traffic counters, folded in by classify()/classify_into().
  std::uint64_t header_cache_hits() const { return cache_hits_.value(); }
  std::uint64_t header_cache_misses() const { return cache_misses_.value(); }
  /// Always 0: every snapshot is built cold, so no behavior-table cell or
  /// header-cache entry is carried over from its predecessor.  Kept only
  /// for the serving benchmark's `snapshot.rows_carried` and
  /// `snapshot.cache_entries_carried` rows.
  std::uint64_t behavior_rows_carried() const { return 0; }
  std::uint64_t header_entries_carried() const { return 0; }

  // ---- Compiled match program (engine/program.hpp) ----
  /// Never null: every built or loaded snapshot carries its program.
  const MatchProgram* program() const { return program_.get(); }
  std::size_t program_instructions() const { return program_->instruction_count(); }
  std::size_t program_bytes() const { return program_->bytes(); }
  /// Wall-clock seconds the compile took (0 when adopted from a file).
  double program_compile_seconds() const { return program_->compile_seconds(); }
  /// Most instructions any header runs (MatchProgram::max_steps).
  std::size_t program_max_steps() const { return program_->max_steps(); }
  /// Kernel batch classification dispatches to: 1 = scalar, 2 = AVX2.
  /// Matches the obs `kernel_dispatch` row.
  int kernel_dispatch() const {
    return static_cast<int>(program_->dispatch_kernel());
  }

 private:
  FlatSnapshot() = default;

  friend void save_snapshot(const FlatSnapshot& snap, const std::string& path);
  friend std::shared_ptr<const FlatSnapshot> load_snapshot(const std::string& path,
                                                           const Options& opts);

  /// The frozen core as plain vectors — the intermediate between "walk the
  /// classifier" (freeze_core) and the single-arena form (from_core).  Never
  /// outlives the build.
  struct CoreData {
    std::vector<bdd::FlatBddNode> bdd_nodes;
    std::vector<FlatTreeNode> tree;
    std::int32_t tree_root = 0;
    std::vector<ArenaBox> boxes;
    std::vector<ArenaPortEntry> ports;
    std::vector<ArenaInAcl> in_acls;
    std::vector<std::uint64_t> words;  ///< shared bitset pool
    std::size_t atom_capacity = 0;
    bool has_middleboxes = false;
    bool tracks_visits = false;

    /// Appends a bitset to the word pool and returns its ref.
    BitsRef intern_bits(const FlatBitset& b);
  };

  /// Freezes the classifier's tree, predicates, and stage-2 state into
  /// CoreData (no accelerators).
  /// Only tree nodes reachable from the root are frozen; garbage left
  /// behind by incremental deletes (which may reference deleted predicates)
  /// is never consulted.
  static CoreData freeze_core(const ApClassifier& clf);

  /// Assembles CoreData into one owned arena, compiles the match program,
  /// and returns the snapshot with accelerators initialized.
  static std::shared_ptr<FlatSnapshot> from_core(CoreData&& core,
                                                 const Options& opts);

  /// Wraps an existing (validated) arena — the mmap / owned-read load path.
  static std::shared_ptr<FlatSnapshot> from_arena(
      std::shared_ptr<const Arena> arena, const Options& opts);

  /// Resolves the member views against arena_'s header, adopts the arena's
  /// program section (compiling one when the section is absent), and
  /// initializes the runtime accelerators — tail of both paths.
  void adopt_arena(std::shared_ptr<const Arena> arena, const Options& opts,
                   double compile_seconds);

  /// Builds the header cache and the behavior-table cell array from the
  /// frozen core arrays per `opts` (table mode becomes kLazy when the cell
  /// array fits the budget; build() upgrades to kPrecomputed after an eager
  /// fill).
  void init_accelerators(const Options& opts);

  /// Upgrades a lazy table to an eager precompute when the estimated full
  /// footprint fits the budget.
  void maybe_precompute(const ApClassifier& clf, const Options& opts,
                        util::TaskPool* pool);

  /// Runs `n` headers through the match program's batch kernel, bumping
  /// visit counters from the outputs; `which`, when non-null, selects the
  /// header/output indices to process (the cache-miss list).
  void classify_batch(const PacketHeader* hs, const std::size_t* which,
                      std::size_t n, AtomId* out) const;
  /// Publishes the walk result into `cell` (first writer wins); returns the
  /// published pointer either way.
  const Behavior* fill_cell(std::atomic<const Behavior*>& cell, AtomId atom,
                            BoxId ingress) const;

  // ---- The frozen core: views into arena_ (relocatable offsets resolved
  // once in adopt_arena; immutable afterwards) ----
  std::shared_ptr<const Arena> arena_;
  const bdd::FlatBddNode* bdd_nodes_ = nullptr;
  std::size_t bdd_count_ = 0;
  const FlatTreeNode* tree_ = nullptr;
  std::size_t tree_count_ = 0;
  std::int32_t tree_root_ = -1;
  const ArenaBox* boxes_ = nullptr;
  std::size_t box_count_ = 0;
  const ArenaPortEntry* ports_ = nullptr;
  const ArenaInAcl* in_acls_ = nullptr;
  const std::uint64_t* words_ = nullptr;

  std::size_t atom_capacity_ = 0;
  bool has_middleboxes_ = false;
  mutable VisitCounters visits_;  ///< stats only; empty unless tracking

  // ---- Behavior table (layer 1) ----
  BehaviorTableMode table_mode_ = BehaviorTableMode::kDisabled;
  std::size_t table_cells_ = 0;  ///< atom_capacity_ * box_count_ when on
  std::unique_ptr<std::atomic<const Behavior*>[]> table_;
  mutable obs::Counter table_fills_;
  mutable std::atomic<std::size_t> table_heap_bytes_{0};
  double table_build_seconds_ = 0.0;

  // ---- Header cache (layer 2) ----
  std::unique_ptr<HeaderAtomCache> cache_;
  mutable obs::Counter cache_hits_;
  mutable obs::Counter cache_misses_;

  // ---- Compiled match program (layer 3; immutable after build) ----
  std::shared_ptr<const MatchProgram> program_;
};

// ---- Durable snapshot persistence (snapshot_io.cpp) ----
// See docs/architecture.md, "Fault tolerance & durability" and "Snapshot
// memory layout & warm restore".

/// Atomically writes the snapshot to `path` in the v2 format: a 4 KiB file
/// header (magic/version/endianness, arena length, CRC32C) followed by the
/// arena bytes verbatim — ONE contiguous image, page-aligned in the file so
/// load_snapshot can mmap it.  Serialize to `path + ".tmp"`, fsync, rename
/// over the target, fsync the directory (fault site `snapshot.save.dirsync`),
/// so a crash at any point leaves either the old file or the new one.
/// Throws apc::Error(kIo) on filesystem failure.  Runtime accelerator state
/// (header cache contents, lazily filled behavior cells, visit counters) is
/// intentionally not persisted — it regenerates.
void save_snapshot(const FlatSnapshot& snap, const std::string& path);

/// Loads a snapshot saved by save_snapshot().  Every header field, the
/// checksum, and all structural invariants (section bounds, index bounds,
/// DFS-forward tree edges, strictly increasing BDD variable order, program
/// jump targets, an acyclic program) are validated; a file failing any check
/// — including a file in any other format, such as the retired v1 — is
/// rejected with apc::Error(kCorruptData), never UB.  The file is mmap'd
/// when `opts.mmap_load` allows (the arena then IS the file; warm restore
/// costs page faults, not a parse) and read into an owned arena otherwise.
/// The behavior table starts lazy (or disabled, per `opts`) and the header
/// cache starts cold.  Throws kIo when the file cannot be read.
std::shared_ptr<const FlatSnapshot> load_snapshot(const std::string& path,
                                                  const FlatSnapshot::Options& opts);
inline std::shared_ptr<const FlatSnapshot> load_snapshot(const std::string& path) {
  return load_snapshot(path, FlatSnapshot::Options{});
}

}  // namespace apc::engine
