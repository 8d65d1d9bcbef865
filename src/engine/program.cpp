#include "engine/program.hpp"

#include <functional>
#include <unordered_map>

#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace apc::engine {

namespace {

/// Jump-field assembly: target-or-atom in the low bits, the instruction's
/// word index duplicated above, leaf flag on top.
std::uint32_t pack_jump(std::uint32_t jump, std::uint32_t word) {
  return (jump & (MatchProgram::kLeafBit | MatchProgram::kTargetMask)) |
         (word << MatchProgram::kWordShift);
}

}  // namespace

std::shared_ptr<const MatchProgram> MatchProgram::compile(
    const bdd::FlatBddNode* bdd_nodes, std::size_t bdd_count,
    const FlatTreeNode* tree, std::size_t tree_count, std::int32_t root) {
  if (tree_count == 0 || root < 0) return nullptr;
  Stopwatch sw;

  // Pass 1 — lower, tree nodes in reverse DFS order.  A node's true branch
  // continues at tree[idx + 1] and its false branch at tree[idx].right, and
  // both sit strictly after idx in DFS preorder, so walking idx backwards
  // guarantees every continuation's entry jump is already known.  Leaves
  // need no instruction at all: their entry IS a leaf-encoded jump.
  std::vector<MatchInsn> code;
  code.reserve(tree_count + bdd_count);
  std::vector<std::uint32_t> entry(tree_count, kLeafBit);
  // Per-tree-node memo: BDD ref -> emitted pc.  Valid only while the two
  // terminal continuations are fixed, i.e. within one tree node.
  std::unordered_map<std::uint32_t, std::uint32_t> memo;
  bool overflow = false;

  std::uint32_t true_cont = 0, false_cont = 0;
  const bdd::FlatBddNode* bdd = bdd_nodes;

  // Emits the program for the BDD rooted at `r`, returning its entry jump
  // (pc, or a leaf/continuation jump when `r` folds away).  Recursion depth
  // is bounded by the BDD's variable count (ROBDD paths are strictly
  // variable-increasing), not its node count.
  const std::function<std::uint32_t(std::uint32_t)> emit =
      [&](std::uint32_t r) -> std::uint32_t {
    if (overflow) return 0;
    if (r == bdd::kFalse) return false_cont;
    if (r == bdd::kTrue) return true_cont;
    if (const auto it = memo.find(r); it != memo.end()) return it->second;

    // Coalesce the maximal Click-style chain starting at r: consecutive
    // bit-tests on the same 32-bit header word whose fail edges all reach
    // the same continuation collapse into one mask-and-compare.  Each node
    // contributes its bit to the mask; the bit's required value is 1 when
    // the chain continues through the hi edge and 0 through the lo edge.
    const std::uint32_t word = bdd[r].var >> 5;
    std::uint32_t mask = 0, value = 0;
    std::uint32_t cur = r;
    bool pass_hi;
    std::uint32_t fail_ref;
    {
      // First link: either edge may be the fail side.  Prefer the choice
      // that lets the chain extend; default to hi-pass (positive literal).
      const bdd::FlatBddNode& n = bdd[cur];
      const auto extends = [&](std::uint32_t pass, std::uint32_t fail) {
        return pass > bdd::kTrue && (bdd[pass].var >> 5) == word &&
               (bdd[pass].lo == fail || bdd[pass].hi == fail);
      };
      if (extends(n.hi, n.lo)) {
        pass_hi = true;
        fail_ref = n.lo;
      } else if (extends(n.lo, n.hi)) {
        pass_hi = false;
        fail_ref = n.hi;
      } else {
        pass_hi = true;
        fail_ref = n.lo;
      }
    }
    std::uint32_t pass_ref;
    while (true) {
      const bdd::FlatBddNode& n = bdd[cur];
      const std::uint32_t bit = 1u << (n.var & 31u);
      mask |= bit;
      if (pass_hi) value |= bit;
      pass_ref = pass_hi ? n.hi : n.lo;
      if (pass_ref <= bdd::kTrue) break;
      const bdd::FlatBddNode& nx = bdd[pass_ref];
      if ((nx.var >> 5) != word) break;
      if (nx.lo == fail_ref) {
        cur = pass_ref;
        pass_hi = true;
      } else if (nx.hi == fail_ref) {
        cur = pass_ref;
        pass_hi = false;
      } else {
        break;
      }
    }

    const std::uint32_t on_match = emit(pass_ref);
    const std::uint32_t on_fail = emit(fail_ref);
    if (overflow) return 0;
    if (code.size() >= kMaxInstructions) {
      overflow = true;
      return 0;
    }
    const std::uint32_t pc = static_cast<std::uint32_t>(code.size());
    code.push_back(
        {mask, value, pack_jump(on_match, word), pack_jump(on_fail, word)});
    memo.emplace(r, pc);
    return pc;
  };

  for (std::int32_t idx = static_cast<std::int32_t>(tree_count) - 1; idx >= 0;
       --idx) {
    const FlatTreeNode& t = tree[idx];
    if (t.right == kLeaf) {
      require((t.bdd_root & ~kTargetMask) == 0,
              "MatchProgram: atom id exceeds 27-bit jump encoding");
      entry[idx] = kLeafBit | t.bdd_root;
      continue;
    }
    true_cont = entry[idx + 1];
    false_cont = entry[t.right];
    memo.clear();
    entry[idx] = emit(t.bdd_root);
    if (overflow) return nullptr;
  }

  // Pass 2 — layout.  Pass 1 emitted continuations before consumers, so the
  // entry sits at the END of `code` and a walk streams backwards.  Renumber
  // in DFS preorder from the entry, match edge first: the all-match path of
  // any walk becomes forward-contiguous, and instructions unreachable from
  // the entry (lowered for tree nodes a constant predicate skips) drop out.
  auto prog = std::shared_ptr<MatchProgram>(new MatchProgram());
  constexpr std::uint32_t kUnplaced = 0xFFFFFFFFu;
  std::vector<std::uint32_t> newpc(code.size(), kUnplaced);
  std::vector<std::uint32_t> order;
  order.reserve(code.size());
  if ((entry[root] & kLeafBit) == 0) {
    std::vector<std::uint32_t> stack{entry[root] & kTargetMask};
    while (!stack.empty()) {
      const std::uint32_t pc = stack.back();
      stack.pop_back();
      if (newpc[pc] != kUnplaced) continue;
      newpc[pc] = static_cast<std::uint32_t>(order.size());
      order.push_back(pc);
      const MatchInsn& insn = code[pc];
      if ((insn.on_fail & kLeafBit) == 0)
        stack.push_back(insn.on_fail & kTargetMask);
      if ((insn.on_match & kLeafBit) == 0)  // pushed last: popped (placed) first
        stack.push_back(insn.on_match & kTargetMask);
    }
  }
  prog->insns_.reserve(order.size());
  const auto relabel = [&](std::uint32_t jump) {
    if (jump & kLeafBit) return jump;
    return (jump & ~kTargetMask) | newpc[jump & kTargetMask];
  };
  for (const std::uint32_t pc : order) {
    MatchInsn insn = code[pc];
    insn.on_match = relabel(insn.on_match);
    insn.on_fail = relabel(insn.on_fail);
    prog->insns_.push_back(insn);
  }
  prog->entry_ = relabel(entry[root]);
  prog->code_ = prog->insns_.data();
  prog->code_count_ = prog->insns_.size();
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
  return prog;
}

void MatchProgram::run_batch(const PacketHeader* hs, const std::size_t* which,
                             std::size_t n, AtomId* out,
                             KernelKind kernel) const {
  if (n == 0) return;
  if (kernel == KernelKind::kAvx2 && avx2_available())
    run_batch_avx2(hs, which, n, out);
  else
    run_batch_scalar(hs, which, n, out);
}

#if !defined(APC_HAVE_AVX2_KERNEL)
// AVX2 kernel compiled out (non-x86 target or -DAPC_ENABLE_AVX2=OFF): the
// dispatcher only ever sees the scalar path.
bool MatchProgram::avx2_available() { return false; }
void MatchProgram::run_batch_avx2(const PacketHeader* hs,
                                  const std::size_t* which, std::size_t n,
                                  AtomId* out) const {
  run_batch_scalar(hs, which, n, out);
}
#endif

}  // namespace apc::engine
