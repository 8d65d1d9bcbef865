// Scalar match-program interpreter — the portable fallback kernel and the
// differential oracle the SIMD kernel is tested against (see program.hpp
// for the instruction set).
//
// The loop body is branchless by construction: the only data-dependent
// control flow is the loop condition itself (the leaf bit), and the
// two-way jump select compiles to a conditional move.  One header runs to
// completion at a time — lane parallelism is the AVX2 kernel's job; keeping
// this kernel sequential keeps it an unambiguous reference semantics.
#include "engine/program.hpp"

namespace apc::engine {

namespace {

/// `steps`, when non-null, receives the number of instructions executed
/// (the kernels pass nullptr, and the count folds away).
inline AtomId run_one(const MatchInsn* prog, std::uint32_t entry,
                      const PacketHeader& h, std::size_t* steps = nullptr) {
  std::uint32_t pc = entry;
  std::size_t n = 0;
  for (; (pc & MatchProgram::kLeafBit) == 0; ++n) {
    const MatchInsn& insn = prog[pc & MatchProgram::kTargetMask];
    const std::uint32_t w = h.word32((insn.on_match >> MatchProgram::kWordShift) &
                                     MatchProgram::kWordFieldMask);
    pc = (w & insn.mask) == insn.value ? insn.on_match : insn.on_fail;
  }
  if (steps != nullptr) *steps = n;
  return static_cast<AtomId>(pc & MatchProgram::kTargetMask);
}

}  // namespace

AtomId MatchProgram::run(const PacketHeader& h) const {
  return run_one(code_, entry_, h);
}

std::size_t MatchProgram::steps(const PacketHeader& h) const {
  std::size_t n = 0;
  run_one(code_, entry_, h, &n);
  return n;
}

void MatchProgram::run_batch_scalar(const PacketHeader* hs, std::size_t n,
                                    AtomId* out) const {
  for (std::size_t i = 0; i < n; ++i) out[i] = run_one(code_, entry_, hs[i]);
}

}  // namespace apc::engine
