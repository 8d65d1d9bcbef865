// AVX2 lane-parallel match-program executor: 16 headers advance one
// instruction per step (see program.hpp for the instruction set), organized
// as two independent 8-lane vector groups.
//
// Per group and step, with one 32-bit program counter per lane:
//   1. gather the four instruction dwords of each lane's pc (vpgatherdd on
//      the instruction array — 16-byte instructions are 4 consecutive
//      dwords at pc*4),
//   2. decode each lane's header-word index from its jump dword and gather
//      that word from the header array (PacketHeader is exactly
//      kWords32 contiguous little-endian dwords, statically asserted),
//   3. compare-under-mask, and blend each lane's pc to on_match/on_fail.
// A step is a dependent chain of two gathers (~instruction, then header
// word), so a single 8-lane group is latency-bound; the two groups share no
// data and the out-of-order core keeps both chains in flight, roughly
// doubling throughput even when the program is L1-resident.
//
// A lane whose pc carries the leaf bit (sign bit, so one movemask over the
// pc vector finds them) retires its atom and admits the next pending
// header at once, so short walks never stall long ones.
//
// Gathers are masked by the per-lane active state: retired/dead lanes keep
// a leaf-tagged pc whose sign bit switches their loads off, so the kernel
// never reads program or header memory for a lane it is not running.
//
// This file is the only translation unit compiled with -mavx2; program.cpp
// dispatches into it after a runtime CPUID check (avx2_available), so the
// library still runs on pre-AVX2 x86 machines.
#include <immintrin.h>

#include <type_traits>

#include "engine/program.hpp"
#include "util/error.hpp"

namespace apc::engine {

bool MatchProgram::avx2_available() {
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
}

void MatchProgram::run_batch_avx2(const PacketHeader* hs, std::size_t n,
                                  AtomId* out) const {
  // The header gather reads the header array as a flat dword array: lane
  // base = slot * kWords32.  Both casts below feed only gather intrinsics
  // (whole-dword loads of trivially-copyable storage), never typed lvalue
  // access.
  static_assert(sizeof(PacketHeader) ==
                    sizeof(std::uint32_t) * PacketHeader::kWords32,
                "header must be exactly kWords32 packed dwords");
  static_assert(std::is_trivially_copyable_v<PacketHeader>);
  require(n <= std::size_t{0x7FFFFFFF} / PacketHeader::kWords32,
          "run_batch_avx2: batch too large for 32-bit gather indices");
  const int* prog = reinterpret_cast<const int*>(code_);
  const int* hdr = reinterpret_cast<const int*>(hs);

  constexpr int kGroupLanes = 8;
  constexpr int kGroups = 2;
  constexpr int kLanes = kGroupLanes * kGroups;
  alignas(32) std::uint32_t pcs[kLanes];
  alignas(32) std::uint32_t bases[kLanes];
  std::size_t slots[kLanes];
  std::size_t next = 0;
  unsigned live[kGroups] = {0, 0};  // per-group bitmask of unretired lanes

  const auto admit = [&](int l) {
    if (next >= n) return false;
    const std::size_t slot = next++;
    slots[l] = slot;
    bases[l] = static_cast<std::uint32_t>(slot * PacketHeader::kWords32);
    pcs[l] = entry_;
    return true;
  };
  for (int l = 0; l < kLanes; ++l) {
    if (admit(l))
      live[l / kGroupLanes] |= 1u << (l % kGroupLanes);
    else {
      pcs[l] = kLeafBit;  // dead lane: sign bit masks its gathers off
      bases[l] = 0;
    }
  }
  if ((live[0] | live[1]) == 0) return;

  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vones = _mm256_set1_epi32(-1);
  const __m256i vtarget = _mm256_set1_epi32(static_cast<int>(kTargetMask));
  const __m256i vwordmask = _mm256_set1_epi32(static_cast<int>(kWordFieldMask));
  __m256i pc[kGroups], base[kGroups];
  for (int g = 0; g < kGroups; ++g) {
    pc[g] = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(pcs + g * kGroupLanes));
    base[g] = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(bases + g * kGroupLanes));
  }

  for (;;) {
    // Leaf bit == sign bit: one movemask per group finds every lane due to
    // retire.
    unsigned done[kGroups];
    unsigned any_done = 0;
    for (int g = 0; g < kGroups; ++g) {
      done[g] = static_cast<unsigned>(
                    _mm256_movemask_ps(_mm256_castsi256_ps(pc[g]))) &
                live[g];
      any_done |= done[g];
    }
    if (any_done != 0) {
      for (int g = 0; g < kGroups; ++g) {
        if (done[g] == 0) continue;
        _mm256_store_si256(reinterpret_cast<__m256i*>(pcs + g * kGroupLanes),
                           pc[g]);
        unsigned pending = done[g];
        while (pending != 0) {
          const int l = __builtin_ctz(pending);
          pending &= pending - 1;
          const int lane = g * kGroupLanes + l;
          out[slots[lane]] = static_cast<AtomId>(pcs[lane] & kTargetMask);
          if (!admit(lane)) {
            live[g] &= ~(1u << l);
            pcs[lane] = kLeafBit;
          }
        }
        pc[g] = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(pcs + g * kGroupLanes));
        base[g] = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(bases + g * kGroupLanes));
      }
      if ((live[0] | live[1]) == 0) return;
      continue;  // a refilled entry may itself be a leaf (single-leaf tree)
    }

    // All live lanes are mid-walk here; dead lanes (leaf-tagged pc, sign
    // set) get a zero gather mask and keep their pc through the final blend.
    // The two group bodies are fully independent — both gather chains
    // overlap in the out-of-order window.
    for (int g = 0; g < kGroups; ++g) {
      const __m256i active =
          _mm256_xor_si256(_mm256_srai_epi32(pc[g], 31), vones);
      const __m256i idx = _mm256_slli_epi32(_mm256_and_si256(pc[g], vtarget), 2);
      const __m256i m =
          _mm256_mask_i32gather_epi32(vzero, prog, idx, active, 4);
      const __m256i v = _mm256_mask_i32gather_epi32(
          vzero, prog, _mm256_add_epi32(idx, _mm256_set1_epi32(1)), active, 4);
      const __m256i jm = _mm256_mask_i32gather_epi32(
          vzero, prog, _mm256_add_epi32(idx, _mm256_set1_epi32(2)), active, 4);
      const __m256i jf = _mm256_mask_i32gather_epi32(
          vzero, prog, _mm256_add_epi32(idx, _mm256_set1_epi32(3)), active, 4);
      const __m256i word =
          _mm256_and_si256(_mm256_srli_epi32(jm, kWordShift), vwordmask);
      const __m256i wv = _mm256_mask_i32gather_epi32(
          vzero, hdr, _mm256_add_epi32(base[g], word), active, 4);
      const __m256i eq = _mm256_cmpeq_epi32(_mm256_and_si256(wv, m), v);
      const __m256i nextpc = _mm256_blendv_epi8(jf, jm, eq);
      pc[g] = _mm256_blendv_epi8(pc[g], nextpc, active);
    }
  }
}

}  // namespace apc::engine
