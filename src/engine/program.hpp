// MatchProgram — a frozen snapshot compiled to a flat, branchless match
// program: the snapshot's only stage-1 executor behind its header cache.
//
// An interpreted walk (FlatSnapshot::classify_walk, kept as the test oracle)
// follows the AP Tree: about log k whole predicates per header (paper SS V),
// each a BDD walk of one dependent load per header bit, and the predicates
// on one path test the same destination bits again and again.  The
// compiler does not lower that tree.  It compiles the function the tree
// computes — header -> atom, the atom partition — into a multi-terminal
// decision diagram over the header bits in the BDD variable order, built
// bottom-up over the frozen tree as
//
//     f(leaf) = its atom,   f(t) = ite(pred_t, f(true child), f(false child))
//
// with hash-consed nodes, so every root-to-leaf path tests each header bit
// at most once.  The diagram is then lowered the way Click's Classifier
// lowers its decision tree (SNIPPETS.md, classifier.hh: "four bytes of
// packet data are ANDed with a mask and compared against four bytes of
// classifier pattern") into contiguous 16-byte instructions
//
//     { mask32, value32, jump_on_match, jump_on_fail }
//
// where a jump packs { leaf?, word_offset, target } (see the bit layout at
// MatchInsn).  A run of diagram nodes that (a) test bits of the same 32-bit
// header word and (b) fail to the same continuation is coalesced into one
// instruction whose mask ORs the tested bits and whose value holds the
// required ones — an `equals(dst_ip, X)` predicate (32 BDD nodes) becomes
// ONE instruction.  Diagram terminals are leaf-encoded jumps carrying the
// AtomId, so the program has a single entry point and no tree left in it.
//
// Execution is a pure data-dependent loop with no unpredictable branches:
//
//     while (!(pc & kLeafBit)) {
//       insn = prog[pc & kTargetMask]
//       w    = header.word32(insn.word)
//       pc   = (w & insn.mask) == insn.value ? insn.on_match : insn.on_fail
//     }
//     atom = pc & kTargetMask
//
// Two kernels run it (runtime CPUID dispatch, see run_batch):
//   * kernel_scalar.cpp — the portable interpreter, one header at a time;
//     also the differential oracle for the SIMD kernel.
//   * kernel_avx2.cpp — 8 headers per step: per-lane program counters,
//     masked vpgatherdd fetches of the instruction fields and of each
//     lane's header word, compare-under-mask, and a blend to advance the
//     PCs; finished lanes retire their atom and admit the next header.
//
// engine/program_proof.hpp checks a compiled program exactly against the
// classifier's atoms (translation validation).
//
// A MatchProgram is immutable after compile() and holds no pointers into
// the snapshot, so it is safe to read from any number of threads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ap/atoms.hpp"
#include "bdd/bdd.hpp"
#include "packet/header.hpp"

namespace apc::engine {

/// Which executor a program run uses.  Values are stable: obs rows report
/// them.
enum class KernelKind : std::uint8_t { kScalar = 1, kAvx2 = 2 };

/// 8-byte AP-tree node in DFS preorder (frozen by FlatSnapshot::build_core,
/// consumed by MatchProgram::compile — defined here so both see it).  An
/// internal node's true-branch child is the next array element; `right`
/// holds the false-branch index.  Leaves set right = kLeaf and carry their
/// atom id in `bdd_root`.
struct FlatTreeNode {
  std::uint32_t bdd_root = 0;  ///< internal: dense BDD index; leaf: atom id
  std::int32_t right = -1;     ///< false-branch child, or kLeaf
};
inline constexpr std::int32_t kLeaf = -1;
static_assert(sizeof(FlatTreeNode) == 8, "tree nodes must stay 8 bytes");

/// One 16-byte match-program instruction: test a 32-bit header word under a
/// mask and jump.  Both jump fields use the same encoding
///
///     bit 31      kLeafBit — the jump retires with an AtomId
///     bits 30:27  this instruction's header word index (duplicated in both
///                 jumps so a kernel decodes the word from whichever dword
///                 it gathered)
///     bits 26:0   target pc (leaf clear) or atom id (leaf set)
///
/// so programs and atom universes are capped at 2^27 entries each.
struct MatchInsn {
  std::uint32_t mask = 0;      ///< header-word bits this step tests
  std::uint32_t value = 0;     ///< required values of the masked bits
  std::uint32_t on_match = 0;  ///< jump when (word & mask) == value
  std::uint32_t on_fail = 0;   ///< jump otherwise
};
static_assert(sizeof(MatchInsn) == 16, "instructions must stay 16 bytes");

class MatchProgram {
 public:
  static constexpr std::uint32_t kLeafBit = 0x80000000u;
  static constexpr std::uint32_t kTargetMask = 0x07FFFFFFu;
  static constexpr std::uint32_t kWordShift = 27;
  static constexpr std::uint32_t kWordFieldMask = 0xFu;  ///< 4 bits: 16 words
  static constexpr std::size_t kMaxInstructions = std::size_t{1} << 27;

  /// Compiles the atom partition the frozen tree + shared BDD array compute
  /// into a program (see the file comment).  Instructions are laid out in
  /// DFS order from the entry (match path first), so the hot prefix of a
  /// walk is forward-contiguous.  Returns nullptr when the diagram would
  /// exceed kMaxInstructions nodes.  Pure function of its arguments; the
  /// result holds no references to them.
  static std::shared_ptr<const MatchProgram> compile(
      const bdd::FlatBddNode* bdd_nodes, std::size_t bdd_count,
      const FlatTreeNode* tree, std::size_t tree_count, std::int32_t root);

  /// Wraps a program already materialized elsewhere — the snapshot arena's
  /// `program` section — without copying.  `keepalive` (typically the
  /// shared_ptr<const Arena>) pins the storage for the program's lifetime,
  /// so a mapped snapshot file stays mapped while any reader still runs its
  /// program.  The caller vouches for the code: snapshot_io validates every
  /// instruction's jump targets and word indices, and that the jumps form
  /// no cycle, before adopting.
  static std::shared_ptr<const MatchProgram> adopt(
      const MatchInsn* code, std::size_t count, std::uint32_t entry,
      std::shared_ptr<const void> keepalive, double compile_seconds = 0.0);

  /// Classifies one header (scalar kernel).
  AtomId run(const PacketHeader& h) const;
  /// Instructions run() executes to classify `h` (0 for a leaf entry).
  std::size_t steps(const PacketHeader& h) const;

  /// Classifies `n` headers into `out`; `which`, when non-null, selects the
  /// header/output indices to process (the snapshot's cache-miss list).
  /// Dispatches to the best kernel the CPU supports (AVX2 via CPUID when the
  /// kernel was built, scalar otherwise).
  void run_batch(const PacketHeader* hs, const std::size_t* which,
                 std::size_t n, AtomId* out) const {
    run_batch(hs, which, n, out, dispatch_kernel());
  }
  /// Same, forcing a kernel — the differential tests and the bench's
  /// scalar-vs-SIMD rows.  Requesting kAvx2 on a CPU without AVX2 (or in an
  /// AVX2-less build) runs the scalar kernel.
  void run_batch(const PacketHeader* hs, const std::size_t* which,
                 std::size_t n, AtomId* out, KernelKind kernel) const;

  /// True when the AVX2 kernel is compiled in AND the CPU reports AVX2.
  static bool avx2_available();
  /// The kernel run_batch will pick on this machine.
  KernelKind dispatch_kernel() const {
    return avx2_available() ? KernelKind::kAvx2 : KernelKind::kScalar;
  }

  std::size_t instruction_count() const { return code_count_; }
  std::size_t bytes() const { return code_count_ * sizeof(MatchInsn); }
  double compile_seconds() const { return compile_seconds_; }
  /// Instructions on the longest walk from the entry to a leaf: the most
  /// steps any header can take.  Computed once, at compile or adopt.
  std::size_t max_steps() const { return max_steps_; }
  /// Entry jump value (leaf-encoded for a single-leaf tree).
  std::uint32_t entry() const { return entry_; }
  const MatchInsn* instructions() const { return code_; }
  /// True when the instructions live on this program's own heap (compiled);
  /// false when adopted from external storage (an arena owns the bytes, and
  /// memory accounting must not double-count them).
  bool owns_code() const { return keepalive_ == nullptr; }

 private:
  MatchProgram() = default;

  /// Longest entry-to-leaf walk of an acyclic program, in instructions.
  static std::size_t longest_path(const MatchInsn* code, std::size_t count,
                                  std::uint32_t entry);

  void run_batch_scalar(const PacketHeader* hs, const std::size_t* which,
                        std::size_t n, AtomId* out) const;
  /// Defined in kernel_avx2.cpp when APC_HAVE_AVX2_KERNEL is set; otherwise
  /// a scalar forwarder (program.cpp).
  void run_batch_avx2(const PacketHeader* hs, const std::size_t* which,
                      std::size_t n, AtomId* out) const;

  // Instruction storage is always read through (code_, code_count_): a
  // compiled program points it at its own insns_ vector; an adopted program
  // points into external storage pinned by keepalive_.
  std::vector<MatchInsn> insns_;
  const MatchInsn* code_ = nullptr;
  std::size_t code_count_ = 0;
  std::shared_ptr<const void> keepalive_;
  std::uint32_t entry_ = kLeafBit;  ///< empty program: atom 0 leaf
  double compile_seconds_ = 0.0;
  std::size_t max_steps_ = 0;
};

}  // namespace apc::engine
