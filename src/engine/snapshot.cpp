#include "engine/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <unordered_map>

#include "util/stopwatch.hpp"

namespace apc::engine {

namespace {

/// Heap footprint of one published Behavior (for memory accounting).
std::size_t behavior_heap_bytes(const Behavior& b) {
  return sizeof(Behavior) + b.edges.capacity() * sizeof(BehaviorEdge) +
         b.deliveries.capacity() * sizeof(PortId) +
         b.drops.capacity() * sizeof(Drop);
}

/// Rough per-cell estimate used to decide eager vs lazy table fill before
/// any behavior has been computed (a handful of hops and drops per class).
constexpr std::size_t kBehaviorBytesEstimate =
    sizeof(Behavior) + 8 * sizeof(BehaviorEdge) + 4 * sizeof(Drop);

[[noreturn]] void throw_program_too_large() {
  throw Error(ErrorCode::kResourceExhausted,
              "FlatSnapshot: match program exceeds MatchProgram::kMaxInstructions");
}

/// The arena's stage-2 sections as a walk_behavior view.  Deleted
/// predicates froze to empty BitsRefs, which contain no atom.
struct ArenaNetView {
  const ArenaBox* boxes;
  const ArenaPortEntry* ports;
  const ArenaInAcl* in_acls;
  const std::uint64_t* words;
  std::size_t nboxes;

  std::size_t box_count() const { return nboxes; }
  bool input_acl_drops(BoxId box, std::uint32_t in_port, AtomId atom) const {
    const ArenaBox& b = boxes[box];
    // A loaded file's peer_port is not range-checked: out of range, no ACL.
    if (in_port >= b.acl_count) return false;
    const ArenaInAcl& acl = in_acls[b.acl_begin + in_port];
    return acl.present != 0 && !acl.atoms.test(words, atom);
  }
  std::span<const ArenaPortEntry> port_entries(BoxId box) const {
    return {ports + boxes[box].port_begin, boxes[box].port_count};
  }
  bool forwards(const ArenaPortEntry& e, AtomId atom) const {
    return e.fwd_atoms.test(words, atom);
  }
  bool output_acl_drops(const ArenaPortEntry& e, AtomId atom) const {
    return e.has_out_acl != 0 && !e.out_acl_atoms.test(words, atom);
  }
  std::optional<PortId> peer(BoxId, const ArenaPortEntry& e) const {
    if (e.peer_box < 0) return std::nullopt;
    return PortId{static_cast<BoxId>(e.peer_box), e.peer_port};
  }
};

}  // namespace

BitsRef FlatSnapshot::CoreData::intern_bits(const FlatBitset& b) {
  BitsRef r;
  r.word_off = words.size();
  r.nbits = b.size();
  words.insert(words.end(), b.words().begin(), b.words().end());
  return r;
}

FlatSnapshot::CoreData FlatSnapshot::freeze_core(const ApClassifier& clf) {
  CoreData core;
  const ApTree& tree = clf.tree();
  const PredicateRegistry& reg = clf.registry();
  require(!tree.empty(), "FlatSnapshot: empty tree");

  // Flatten the BDD of every distinct predicate the tree evaluates into one
  // shared node array (structural sharing across predicates is preserved:
  // flatten() deduplicates by manager node).  Only REACHABLE nodes count:
  // incremental deletes leave unreachable garbage behind, and garbage may
  // be labeled with since-deleted predicates.
  std::vector<PredId> pred_ids;
  std::unordered_map<PredId, std::uint32_t> pred_slot;
  {
    std::vector<std::int32_t> dfs{tree.root()};
    while (!dfs.empty()) {
      const ApTree::Node& n = tree.node(dfs.back());
      dfs.pop_back();
      if (n.is_leaf()) continue;
      const PredId p = static_cast<PredId>(n.pred);
      if (pred_slot.emplace(p, static_cast<std::uint32_t>(pred_ids.size())).second)
        pred_ids.push_back(p);
      dfs.push_back(n.right);
      dfs.push_back(n.left);
    }
  }
  std::vector<bdd::Bdd> roots;
  roots.reserve(pred_ids.size());
  for (const PredId p : pred_ids) roots.push_back(reg.bdd_of(p));
  std::vector<bdd::FlatBddNode> flat_nodes;
  const std::vector<std::uint32_t> dense_roots = bdd::flatten(roots, flat_nodes);

  // Freeze the tree in DFS preorder: a node's true-branch child is the next
  // array element (only the false-branch index is materialized), so a walk
  // streams forward through a hot prefix instead of chasing source-tree
  // indices.  The predicate sequence along any root-to-leaf path — and hence
  // the evaluation count — is unchanged.
  {
    struct WorkItem {
      std::int32_t src;  ///< source-tree node to emit next
      std::int32_t fix;  ///< emitted node whose `right` points here, or -1
    };
    std::vector<WorkItem> work;
    work.push_back({tree.root(), -1});
    core.tree.reserve(tree.node_count());
    while (!work.empty()) {
      const WorkItem w = work.back();
      work.pop_back();
      const std::int32_t dst = static_cast<std::int32_t>(core.tree.size());
      if (w.fix >= 0) core.tree[w.fix].right = dst;
      const ApTree::Node& n = tree.node(w.src);
      FlatTreeNode f;
      if (n.is_leaf()) {
        f.bdd_root = n.atom;
        f.right = kLeaf;
        core.tree.push_back(f);
      } else {
        f.bdd_root = dense_roots[pred_slot.at(static_cast<PredId>(n.pred))];
        f.right = 0;  // patched when the false branch is emitted
        core.tree.push_back(f);
        // Pop order: left (true branch) is emitted immediately after dst so
        // the implicit left-child-is-next invariant holds; the right child
        // is emitted after the whole left subtree and patches tree[dst].
        work.push_back({n.right, dst});
        work.push_back({n.left, -1});
      }
    }
    core.tree_root = 0;
  }

  core.bdd_nodes = std::move(flat_nodes);

  // Freeze stage 2 flattened: per-box contiguous runs of port entries and
  // input-ACL slots, with every R(p) bitset interned into the shared word
  // pool.  Deleted predicates keep an empty BitsRef — test() is then false
  // for every atom, exactly pred_contains()'s answer.
  const CompiledNetwork& cn = clf.compiled();
  const Topology& topo = clf.network().topology;
  core.boxes.resize(topo.box_count());
  for (BoxId b = 0; b < topo.box_count(); ++b) {
    ArenaBox& fb = core.boxes[b];
    fb.port_begin = static_cast<std::uint32_t>(core.ports.size());
    for (const auto& entry : cn.port_preds[b]) {
      ArenaPortEntry e;
      e.port = entry.port;
      const Port& p = topo.box(b).ports[entry.port];
      if (p.kind == Port::Kind::Link) {
        e.peer_box = static_cast<std::int32_t>(p.peer->box);
        e.peer_port = p.peer->port;
      }
      if (!reg.is_deleted(entry.pred))
        e.fwd_atoms = core.intern_bits(reg.atoms_of(entry.pred));
      if (entry.out_acl != kNoPred) {
        e.has_out_acl = 1;
        if (!reg.is_deleted(entry.out_acl))
          e.out_acl_atoms = core.intern_bits(reg.atoms_of(entry.out_acl));
      }
      core.ports.push_back(e);
    }
    fb.port_count = static_cast<std::uint32_t>(core.ports.size()) - fb.port_begin;
    fb.acl_begin = static_cast<std::uint32_t>(core.in_acls.size());
    for (std::size_t port = 0; port < cn.in_acl_by_port[b].size(); ++port) {
      ArenaInAcl a;
      const PredId acl = cn.in_acl_by_port[b][port];
      if (acl != kNoPred) {
        a.present = 1;
        if (!reg.is_deleted(acl)) a.atoms = core.intern_bits(reg.atoms_of(acl));
      }
      core.in_acls.push_back(a);
    }
    fb.acl_count = static_cast<std::uint32_t>(core.in_acls.size()) - fb.acl_begin;
  }

  core.atom_capacity = clf.atoms().capacity();
  core.has_middleboxes = clf.has_middleboxes();
  core.tracks_visits = clf.options().track_visits;
  return core;
}

std::shared_ptr<FlatSnapshot> FlatSnapshot::from_core(CoreData&& core,
                                                      const Options& opts) {
  // The match program must be compiled BEFORE arena assembly so its
  // instructions land inside the single allocation — that is what lets
  // save_snapshot write one contiguous image and a mapped load skip the
  // recompile entirely.
  const std::shared_ptr<const MatchProgram> compiled =
      MatchProgram::compile(core.bdd_nodes.data(), core.bdd_nodes.size(),
                            core.tree.data(), core.tree.size(), core.tree_root);
  if (!compiled) throw_program_too_large();

  ArenaBuilder b;
  const ArenaRef bdd_ref = b.reserve<bdd::FlatBddNode>(core.bdd_nodes.size());
  const ArenaRef tree_ref = b.reserve<FlatTreeNode>(core.tree.size());
  const ArenaRef boxes_ref = b.reserve<ArenaBox>(core.boxes.size());
  const ArenaRef ports_ref = b.reserve<ArenaPortEntry>(core.ports.size());
  const ArenaRef acls_ref = b.reserve<ArenaInAcl>(core.in_acls.size());
  const ArenaRef words_ref = b.reserve<std::uint64_t>(core.words.size());
  const ArenaRef prog_ref = b.reserve<MatchInsn>(compiled->instruction_count());
  b.allocate();

  const auto copy = [&](auto& ref, const auto* src, std::size_t elem) {
    if (ref.count != 0)
      std::memcpy(b.section<std::byte>(ref), src, ref.count * elem);
  };
  copy(bdd_ref, core.bdd_nodes.data(), sizeof(bdd::FlatBddNode));
  copy(tree_ref, core.tree.data(), sizeof(FlatTreeNode));
  copy(boxes_ref, core.boxes.data(), sizeof(ArenaBox));
  copy(ports_ref, core.ports.data(), sizeof(ArenaPortEntry));
  copy(acls_ref, core.in_acls.data(), sizeof(ArenaInAcl));
  copy(words_ref, core.words.data(), sizeof(std::uint64_t));
  copy(prog_ref, compiled->instructions(), sizeof(MatchInsn));

  ArenaHeader& h = b.header();
  h.flags = (core.has_middleboxes ? ArenaHeader::kHasMiddleboxes : 0u) |
            (core.tracks_visits ? ArenaHeader::kTracksVisits : 0u) |
            ArenaHeader::kHasProgram;
  h.atom_capacity = core.atom_capacity;
  h.tree_root = core.tree_root;
  h.program_entry = compiled->entry();
  // The union of header bits any frozen BDD node tests — the header-cache
  // canonicalization mask, persisted so a mapped load never re-derives it.
  for (std::size_t i = 2; i < core.bdd_nodes.size(); ++i) {
    const std::uint32_t v = core.bdd_nodes[i].var;
    h.tested_bits[v >> 6] |= std::uint64_t{1} << (v & 63);
  }
  h.bdd_nodes = bdd_ref;
  h.tree = tree_ref;
  h.boxes = boxes_ref;
  h.ports = ports_ref;
  h.in_acls = acls_ref;
  h.words = words_ref;
  h.program = prog_ref;

  auto snap = std::shared_ptr<FlatSnapshot>(new FlatSnapshot());
  snap->adopt_arena(b.finish(), opts, compiled->compile_seconds());
  return snap;
}

std::shared_ptr<FlatSnapshot> FlatSnapshot::from_arena(
    std::shared_ptr<const Arena> arena, const Options& opts) {
  auto snap = std::shared_ptr<FlatSnapshot>(new FlatSnapshot());
  snap->adopt_arena(std::move(arena), opts, 0.0);
  return snap;
}

void FlatSnapshot::adopt_arena(std::shared_ptr<const Arena> arena,
                               const Options& opts, double compile_seconds) {
  arena_ = std::move(arena);
  const ArenaHeader& h = arena_->header();
  bdd_nodes_ = arena_->ptr<bdd::FlatBddNode>(h.bdd_nodes);
  bdd_count_ = static_cast<std::size_t>(h.bdd_nodes.count);
  tree_ = arena_->ptr<FlatTreeNode>(h.tree);
  tree_count_ = static_cast<std::size_t>(h.tree.count);
  tree_root_ = h.tree_root;
  boxes_ = arena_->ptr<ArenaBox>(h.boxes);
  box_count_ = static_cast<std::size_t>(h.boxes.count);
  ports_ = arena_->ptr<ArenaPortEntry>(h.ports);
  in_acls_ = arena_->ptr<ArenaInAcl>(h.in_acls);
  words_ = arena_->ptr<std::uint64_t>(h.words);
  atom_capacity_ = static_cast<std::size_t>(h.atom_capacity);
  has_middleboxes_ = (h.flags & ArenaHeader::kHasMiddleboxes) != 0;
  if ((h.flags & ArenaHeader::kTracksVisits) != 0) visits_.reset(atom_capacity_);

  // Zero-copy adoption: the program runs straight out of the arena (and
  // keeps it alive — a mapped file stays mapped while any reader runs).
  // Every arena holds one: from_core compiles it in, and validate_arena
  // refuses a file without it.
  program_ = MatchProgram::adopt(arena_->ptr<MatchInsn>(h.program),
                                 static_cast<std::size_t>(h.program.count),
                                 h.program_entry, arena_, compile_seconds);

  init_accelerators(opts);
}

void FlatSnapshot::maybe_precompute(const ApClassifier& clf, const Options& opts,
                                    util::TaskPool* pool) {
  // Upgrade the lazy table to a full eager precompute when the estimate
  // (cells + one behavior per live cell) also fits the budget.  Middlebox
  // networks always stay lazy: query() refuses them, so an eager fill would
  // precompute cells nobody is expected to read.
  if (table_mode_ != BehaviorTableMode::kLazy || has_middleboxes_) return;
  const std::vector<AtomId> alive = clf.atoms().alive_ids();
  const std::size_t boxes = box_count_;
  const std::size_t estimate =
      table_cells_ * sizeof(std::atomic<const Behavior*>) +
      alive.size() * boxes * kBehaviorBytesEstimate;
  if (estimate > opts.behavior_table_budget) return;
  Stopwatch sw;
  const std::size_t total = alive.size() * boxes;
  const auto fill = [&](std::size_t first, std::size_t last) {
    for (std::size_t k = first; k < last; ++k) {
      const AtomId atom = alive[k / boxes];
      const BoxId box = static_cast<BoxId>(k % boxes);
      fill_cell(table_[atom * boxes + box], atom, box);
    }
  };
  if (pool != nullptr)
    pool->parallel_for(total, 64, fill);
  else
    fill(0, total);
  table_build_seconds_ = sw.seconds();
  table_mode_ = BehaviorTableMode::kPrecomputed;
}

std::shared_ptr<const FlatSnapshot> FlatSnapshot::build(const ApClassifier& clf,
                                                        const Options& opts,
                                                        util::TaskPool* pool) {
  auto snap = from_core(freeze_core(clf), opts);
  snap->maybe_precompute(clf, opts, pool);
  return snap;
}

HeaderAtomCache::Mask FlatSnapshot::tested_bits() const {
  HeaderAtomCache::Mask mask{};
  const ArenaHeader& h = arena_->header();
  std::copy(std::begin(h.tested_bits), std::end(h.tested_bits), mask.begin());
  return mask;
}

void FlatSnapshot::init_accelerators(const Options& opts) {
  // Header -> atom cache (layer 2), keyed on the bits any predicate tests.
  // The mask was computed at assembly time and travels in the arena header,
  // so a mapped load does not touch the BDD section to rebuild it.
  if (opts.header_cache_capacity > 0)
    cache_ = std::make_unique<HeaderAtomCache>(opts.header_cache_capacity,
                                               tested_bits());

  // Behavior table (layer 1): the cell-pointer array must fit the budget or
  // the table is off; cells start empty (kLazy).
  const std::size_t cells = atom_capacity_ * box_count_;
  const std::size_t cell_bytes = cells * sizeof(std::atomic<const Behavior*>);
  if (opts.behavior_table_budget > 0 && cells > 0 &&
      cell_bytes <= opts.behavior_table_budget) {
    table_cells_ = cells;
    table_ = std::make_unique<std::atomic<const Behavior*>[]>(cells);
    for (std::size_t i = 0; i < cells; ++i)
      table_[i].store(nullptr, std::memory_order_relaxed);
    table_heap_bytes_.store(cell_bytes, std::memory_order_relaxed);
    table_mode_ = BehaviorTableMode::kLazy;
  }
}

FlatSnapshot::~FlatSnapshot() {
  for (std::size_t i = 0; i < table_cells_; ++i)
    delete table_[i].load(std::memory_order_relaxed);
}

AtomId FlatSnapshot::classify(const PacketHeader& h) const {
  AtomId atom;
  if (cache_ && cache_->lookup(h, atom)) {
    cache_hits_.add(1);
    visits_.bump(atom);  // no-op (size 0) unless tracking is on
    return atom;
  }
  atom = program_->run(h);
  visits_.bump(atom);
  if (cache_) {
    cache_->insert(h, atom);
    cache_misses_.add(1);
  }
  return atom;
}

AtomId FlatSnapshot::classify_walk(const PacketHeader& h) const {
  std::size_t evals;
  return classify_counted(h, evals);
}

AtomId FlatSnapshot::classify_counted(const PacketHeader& h,
                                      std::size_t& evals) const {
  const bdd::FlatBddNode* nodes = bdd_nodes_;
  const FlatTreeNode* tree = tree_;
  std::size_t count = 0;
  std::int32_t idx = tree_root_;
  while (tree[idx].right != kLeaf) {
    ++count;
    std::uint32_t r = tree[idx].bdd_root;
    while (r > bdd::kTrue) {
      const bdd::FlatBddNode& b = nodes[r];
      r = h.bit(b.var) ? b.hi : b.lo;
    }
    idx = r == bdd::kTrue ? idx + 1 : tree[idx].right;
  }
  evals = count;
  const AtomId a = static_cast<AtomId>(tree[idx].bdd_root);
  visits_.bump(a);  // no-op (size 0) unless tracking is on
  return a;
}

// Batch classification of the slots in `which` (or all of [0, n)) through
// the match program's kernel.  The kernels don't touch the visit counters,
// so the bumps happen here, from the written outputs.
void FlatSnapshot::classify_batch(const PacketHeader* hs,
                                  const std::size_t* which, std::size_t n,
                                  AtomId* out) const {
  program_->run_batch(hs, which, n, out);
  if (visits_.size() > 0) {
    for (std::size_t i = 0; i < n; ++i) visits_.bump(out[which ? which[i] : i]);
  }
}

void FlatSnapshot::classify_into(const PacketHeader* hs, std::size_t n,
                                 AtomId* out) const {
  if (n == 0) return;
  if (!cache_) {
    classify_batch(hs, nullptr, n, out);
    return;
  }
  // Probe pass; the misses collect in a list on the stack, and each full
  // list (and the last one) goes to the kernel in one call — 64 walks
  // keep the AVX2 kernel's 16 lanes busy.  Hit/miss counts are folded into
  // the shared counters once per batch, not per packet.
  std::array<std::size_t, 64> misses;
  std::size_t pending = 0;
  std::size_t missed = 0;
  const auto flush = [&] {
    classify_batch(hs, misses.data(), pending, out);
    for (std::size_t k = 0; k < pending; ++k) cache_->insert(hs[misses[k]], out[misses[k]]);
    missed += pending;
    pending = 0;
  };
  for (std::size_t i = 0; i < n; ++i) {
    AtomId atom;
    if (cache_->lookup(hs[i], atom)) {
      out[i] = atom;
      visits_.bump(atom);
    } else {
      misses[pending++] = i;
      if (pending == misses.size()) flush();
    }
  }
  if (pending > 0) flush();
  if (missed > 0) cache_misses_.add(missed);
  if (missed < n) cache_hits_.add(n - missed);
}

const Behavior* FlatSnapshot::fill_cell(std::atomic<const Behavior*>& cell,
                                        AtomId atom, BoxId ingress) const {
  const Behavior* fresh = new Behavior(behavior_walk(atom, ingress));
  const Behavior* expected = nullptr;
  // First writer wins; the loser's copy is discarded.  acq_rel on success
  // publishes the Behavior's contents to every later acquire load.
  if (cell.compare_exchange_strong(expected, fresh, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    table_fills_.add(1);
    table_heap_bytes_.fetch_add(behavior_heap_bytes(*fresh),
                                std::memory_order_relaxed);
    return fresh;
  }
  delete fresh;
  return expected;
}

const Behavior& FlatSnapshot::behavior_ref(AtomId atom, BoxId ingress,
                                           Behavior& scratch) const {
  require(ingress < box_count_, "FlatSnapshot::behavior_of: bad ingress");
  if (table_mode_ != BehaviorTableMode::kDisabled && atom < atom_capacity_) {
    std::atomic<const Behavior*>& cell = table_[atom * box_count_ + ingress];
    const Behavior* b = cell.load(std::memory_order_acquire);
    if (b == nullptr) b = fill_cell(cell, atom, ingress);
    return *b;
  }
  scratch = behavior_walk(atom, ingress);
  return scratch;
}

Behavior FlatSnapshot::behavior_of(AtomId atom, BoxId ingress) const {
  Behavior scratch;
  const Behavior& b = behavior_ref(atom, ingress, scratch);
  if (&b == &scratch) return scratch;
  return b;
}

Behavior FlatSnapshot::behavior_walk(AtomId atom, BoxId ingress) const {
  require(ingress < box_count_, "FlatSnapshot::behavior_walk: bad ingress");
  Behavior out;
  walk_behavior(ArenaNetView{boxes_, ports_, in_acls_, words_, box_count_}, atom,
                ingress, kNoInPort, out);
  return out;
}

Behavior FlatSnapshot::query(const PacketHeader& h, BoxId ingress) const {
  require(!has_middleboxes_,
          "FlatSnapshot::query: middlebox networks need live tree re-search; "
          "use ApClassifier::query/query_probabilistic");
  return behavior_of(classify(h), ingress);
}

std::size_t FlatSnapshot::owned_bytes() const {
  std::size_t bytes = arena_ && !arena_->mapped() ? arena_->size() : 0;
  bytes += visits_.size() * sizeof(std::atomic<std::uint64_t>);
  // Table cell array + every published Behavior's heap (tracked by
  // fill_cell), plus the header cache's slot arrays.
  bytes += table_heap_bytes_.load(std::memory_order_relaxed);
  if (cache_) bytes += cache_->memory_bytes();
  // The program runs out of the arena and is already counted there.
  return bytes;
}

std::size_t FlatSnapshot::mapped_bytes() const {
  return arena_ && arena_->mapped() ? arena_->size() : 0;
}

}  // namespace apc::engine
