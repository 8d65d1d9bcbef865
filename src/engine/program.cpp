#include "engine/program.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace apc::engine {

namespace {

constexpr std::uint32_t kLeafBit = MatchProgram::kLeafBit;
constexpr std::uint32_t kTargetMask = MatchProgram::kTargetMask;
/// var_of() of a terminal: above every header bit, so min() skips it.
constexpr std::uint32_t kNoVar = 0xFFFFFFFFu;
constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;

/// Jump-field assembly: target-or-atom in the low bits, the instruction's
/// word index duplicated above, leaf flag on top.
std::uint32_t pack_jump(std::uint32_t jump, std::uint32_t word) {
  return (jump & (kLeafBit | kTargetMask)) | (word << MatchProgram::kWordShift);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t h = a * 0x9E3779B97F4A7C15ull ^ b * 0xC2B2AE3D27D4EB4Full ^
                    c * 0x165667B19E3779F9ull;
  return h ^ (h >> 29);
}

std::size_t pow2_at_least(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// The atom partition as a multi-terminal decision diagram over the header
/// bits, in the BDD variable order.  A ref is either a node index or a
/// leaf-encoded atom (kLeafBit | atom) — the program's own jump encoding —
/// so terminals lower to jumps with no translation.  Nodes are hash-consed
/// through an open-addressed unique table of node indices, so equal
/// sub-diagrams are one node and the diagram is reduced; ite() results are
/// memoized in a direct-mapped computed table that may forget (a miss only
/// recomputes).
class AtomDiagram {
 public:
  struct Node {
    std::uint32_t var, lo, hi;
  };

  /// `hint` is the size of the input (BDD nodes + tree nodes).  The
  /// diagram, intermediate sub-diagrams included, ran to 3.5-7.3x that on
  /// the medium fixture datasets, so the unique table starts at 16x: at
  /// most half full there, with no rehash (a rehash cost ~20% of the
  /// build on Stanford-like medium).
  AtomDiagram(const bdd::FlatBddNode* bdd, std::size_t hint) : bdd_(bdd) {
    nodes_.reserve(4 * hint);
    unique_.assign(pow2_at_least(16 * hint + 64), kEmpty);
    computed_.resize(kComputedSlots);
  }

  /// The diagram of "p ? g : h", where p is a flat-BDD ref and g, h are
  /// diagram refs.  Recursion depth is bounded by the variable count: every
  /// level strictly increases the top variable.
  std::uint32_t ite(std::uint32_t p, std::uint32_t g, std::uint32_t h) {
    if (p == bdd::kTrue || g == h) return g;
    if (p == bdd::kFalse) return h;
    const std::size_t slot = mix(p, g, h) & (computed_.size() - 1);
    if (const Computed& c = computed_[slot]; c.p == p && c.g == g && c.h == h)
      return c.r;
    const bdd::FlatBddNode& pn = bdd_[p];
    const std::uint32_t v = std::min({pn.var, var_of(g), var_of(h)});
    const auto lo = [&](std::uint32_t r) {
      return var_of(r) == v ? nodes_[r].lo : r;
    };
    const auto hi = [&](std::uint32_t r) {
      return var_of(r) == v ? nodes_[r].hi : r;
    };
    const std::uint32_t p0 = pn.var == v ? pn.lo : p;
    const std::uint32_t p1 = pn.var == v ? pn.hi : p;
    const std::uint32_t r0 = ite(p0, lo(g), lo(h));
    const std::uint32_t r1 = ite(p1, hi(g), hi(h));
    const std::uint32_t r = make(v, r0, r1);
    computed_[slot] = {p, g, h, r};
    return r;
  }

  /// True once the diagram needed more nodes than a program may hold; the
  /// refs returned since are meaningless.
  bool overflow() const { return overflow_; }
  const Node& node(std::uint32_t ref) const { return nodes_[ref]; }
  std::size_t size() const { return nodes_.size(); }

 private:
  struct Computed {
    std::uint32_t p = kEmpty, g = kEmpty, h = kEmpty, r = kEmpty;
  };
  /// 64 KiB.  Only ~10% of ite() calls repeat (Stanford-like medium), and
  /// a larger table measured no faster.
  static constexpr std::size_t kComputedSlots = 4096;

  std::uint32_t var_of(std::uint32_t ref) const {
    return (ref & kLeafBit) != 0 ? kNoVar : nodes_[ref].var;
  }

  std::uint32_t make(std::uint32_t var, std::uint32_t lo, std::uint32_t hi) {
    if (lo == hi) return lo;
    std::size_t mask = unique_.size() - 1;
    for (std::size_t i = mix(var, lo, hi) & mask;; i = (i + 1) & mask) {
      const std::uint32_t id = unique_[i];
      if (id == kEmpty) {
        if (nodes_.size() >= MatchProgram::kMaxInstructions) {
          overflow_ = true;
          return kLeafBit;
        }
        const auto fresh = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back({var, lo, hi});
        unique_[i] = fresh;
        if (2 * nodes_.size() > unique_.size()) grow();
        return fresh;
      }
      const Node& n = nodes_[id];
      if (n.var == var && n.lo == lo && n.hi == hi) return id;
    }
  }

  void grow() {
    std::vector<std::uint32_t> table(2 * unique_.size(), kEmpty);
    const std::size_t mask = table.size() - 1;
    for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
      const Node& n = nodes_[id];
      std::size_t i = mix(n.var, n.lo, n.hi) & mask;
      while (table[i] != kEmpty) i = (i + 1) & mask;
      table[i] = id;
    }
    unique_.swap(table);
  }

  const bdd::FlatBddNode* bdd_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> unique_;
  std::vector<Computed> computed_;
  bool overflow_ = false;
};

/// One coalesced step: a maximal chain of diagram nodes on the same 32-bit
/// header word whose fail edges all reach the same continuation (Click's
/// mask-and-compare; SNIPPETS.md, classifier.hh).  Each node contributes
/// its bit to the mask; the bit's required value is 1 when the chain
/// continues through the hi edge and 0 through the lo edge.
struct Chain {
  std::uint32_t word, mask, value, pass, fail;
};

Chain coalesce(const AtomDiagram& dd, std::uint32_t ref) {
  const auto word_of = [&](std::uint32_t r) {
    return (r & kLeafBit) != 0 ? kNoVar : dd.node(r).var >> 5;
  };
  Chain c{word_of(ref), 0, 0, 0, 0};
  // First link: either edge may be the fail side.  Prefer the choice that
  // lets the chain extend; default to hi-pass (positive literal).
  const auto extends = [&](std::uint32_t pass, std::uint32_t fail) {
    return word_of(pass) == c.word &&
           (dd.node(pass).lo == fail || dd.node(pass).hi == fail);
  };
  const AtomDiagram::Node& first = dd.node(ref);
  bool pass_hi = extends(first.hi, first.lo) || !extends(first.lo, first.hi);
  c.fail = pass_hi ? first.lo : first.hi;
  for (std::uint32_t cur = ref;;) {
    const AtomDiagram::Node& n = dd.node(cur);
    const std::uint32_t bit = 1u << (n.var & 31u);
    c.mask |= bit;
    if (pass_hi) c.value |= bit;
    c.pass = pass_hi ? n.hi : n.lo;
    if (word_of(c.pass) != c.word) break;
    const AtomDiagram::Node& next = dd.node(c.pass);
    if (next.lo != c.fail && next.hi != c.fail) break;
    pass_hi = next.lo == c.fail;
    cur = c.pass;
  }
  return c;
}

}  // namespace

std::shared_ptr<const MatchProgram> MatchProgram::compile(
    const bdd::FlatBddNode* bdd_nodes, std::size_t bdd_count,
    const FlatTreeNode* tree, std::size_t tree_count, std::int32_t root) {
  if (tree_count == 0 || root < 0) return nullptr;
  Stopwatch sw;

  // Pass 1 — the diagram, bottom-up over the DFS-preorder tree.  The atom a
  // tree node's subtree assigns to a header is
  //     f(t) = pred_t ? f(t + 1) : f(t.right),   f(leaf) = its atom,
  // and both children sit after t, so walking t backwards finds them built.
  // f(root) is the header -> atom function itself: every path tests each
  // header bit at most once, in variable order.
  AtomDiagram dd(bdd_nodes, bdd_count + tree_count);
  std::vector<std::uint32_t> f(tree_count);
  for (std::size_t idx = tree_count; idx-- > 0;) {
    const FlatTreeNode& t = tree[idx];
    if (t.right == kLeaf) {
      require((t.bdd_root & ~kTargetMask) == 0,
              "MatchProgram: atom id exceeds 27-bit jump encoding");
      f[idx] = kLeafBit | t.bdd_root;
    } else {
      f[idx] = dd.ite(t.bdd_root, f[idx + 1], f[t.right]);
      if (dd.overflow()) return nullptr;
    }
  }

  // Pass 2 — lower.  Chain heads are placed in DFS preorder from the entry,
  // match edge first, so the all-match path of any walk is
  // forward-contiguous; a head reached again reuses its pc.  Jumps are
  // recorded as diagram refs and resolved once every head has its pc.
  auto prog = std::shared_ptr<MatchProgram>(new MatchProgram());
  std::vector<std::uint32_t> pc_of(dd.size(), kEmpty);
  std::vector<Chain> chains;
  std::vector<std::uint32_t> stack;
  if ((f[root] & kLeafBit) == 0) stack.push_back(f[root]);
  while (!stack.empty()) {
    const std::uint32_t ref = stack.back();
    stack.pop_back();
    if (pc_of[ref] != kEmpty) continue;
    pc_of[ref] = static_cast<std::uint32_t>(chains.size());
    const Chain c = coalesce(dd, ref);
    chains.push_back(c);
    if ((c.fail & kLeafBit) == 0) stack.push_back(c.fail);
    if ((c.pass & kLeafBit) == 0) stack.push_back(c.pass);  // placed first
  }
  const auto jump = [&](std::uint32_t ref) {
    return (ref & kLeafBit) != 0 ? ref : pc_of[ref];
  };
  prog->insns_.reserve(chains.size());
  for (const Chain& c : chains)
    prog->insns_.push_back({c.mask, c.value, pack_jump(jump(c.pass), c.word),
                            pack_jump(jump(c.fail), c.word)});
  prog->entry_ = jump(f[root]);
  prog->code_ = prog->insns_.data();
  prog->code_count_ = prog->insns_.size();
  prog->max_steps_ = longest_path(prog->code_, prog->code_count_, prog->entry_);
  prog->compile_seconds_ = sw.seconds();
  return prog;
}

std::shared_ptr<const MatchProgram> MatchProgram::adopt(
    const MatchInsn* code, std::size_t count, std::uint32_t entry,
    std::shared_ptr<const void> keepalive, double compile_seconds) {
  require(keepalive != nullptr, "MatchProgram::adopt: keepalive required");
  auto prog = std::shared_ptr<MatchProgram>(new MatchProgram());
  prog->code_ = code;
  prog->code_count_ = count;
  prog->keepalive_ = std::move(keepalive);
  prog->entry_ = entry;
  prog->compile_seconds_ = compile_seconds;
  prog->max_steps_ = longest_path(code, count, entry);
  return prog;
}

std::size_t MatchProgram::longest_path(const MatchInsn* code, std::size_t count,
                                       std::uint32_t entry) {
  if ((entry & kLeafBit) != 0) return 0;
  // depth[pc]: instructions on the longest walk from pc to a leaf, 0 while
  // unknown.  An instruction stays on the stack until both of its
  // successors are known.
  std::vector<std::uint32_t> depth(count, 0);
  std::vector<std::uint32_t> stack{entry & kTargetMask};
  while (!stack.empty()) {
    const std::uint32_t pc = stack.back();
    const MatchInsn& insn = code[pc];
    std::uint32_t deepest = 0;
    bool known = true;
    for (const std::uint32_t j : {insn.on_match, insn.on_fail}) {
      if ((j & kLeafBit) != 0) continue;
      const std::uint32_t d = depth[j & kTargetMask];
      if (d == 0) {
        stack.push_back(j & kTargetMask);
        known = false;
      }
      deepest = std::max(deepest, d);
    }
    if (!known) continue;
    stack.pop_back();
    depth[pc] = deepest + 1;
  }
  return depth[entry & kTargetMask];
}

void MatchProgram::run_batch(const PacketHeader* hs, std::size_t n, AtomId* out,
                             KernelKind kernel) const {
  if (n == 0) return;
  if (kernel == KernelKind::kAvx2 && avx2_available())
    run_batch_avx2(hs, n, out);
  else
    run_batch_scalar(hs, n, out);
}

#if !defined(APC_HAVE_AVX2_KERNEL)
// AVX2 kernel compiled out (non-x86 target or -DAPC_ENABLE_AVX2=OFF): the
// dispatcher only ever sees the scalar path.
bool MatchProgram::avx2_available() { return false; }
void MatchProgram::run_batch_avx2(const PacketHeader* hs, std::size_t n,
                                  AtomId* out) const {
  run_batch_scalar(hs, n, out);
}
#endif

}  // namespace apc::engine
