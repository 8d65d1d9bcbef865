#include "engine/program_proof.hpp"

#include <bit>
#include <utility>
#include <vector>

namespace apc::engine {

namespace {

constexpr std::uint32_t kLeafBit = MatchProgram::kLeafBit;
constexpr std::uint32_t kTargetMask = MatchProgram::kTargetMask;

std::uint32_t word_of(std::uint32_t jump) {
  return (jump >> MatchProgram::kWordShift) & MatchProgram::kWordFieldMask;
}

}  // namespace

std::string ProgramProof::summary() const {
  if (!malformed.empty()) return "malformed program: " + malformed;
  return std::to_string(mismatched_atoms) + " mismatched atoms, " +
         std::to_string(dead_atoms_reached) + " dead atoms reached, " +
         std::to_string(unsupported_atoms) + " atoms outside tested_bits";
}

ProgramProof prove_program(const MatchInsn* code, std::size_t count,
                           std::uint32_t entry, const AtomUniverse& atoms,
                           bdd::BddManager& mgr,
                           const HeaderAtomCache::Mask& tested_bits) {
  ProgramProof proof;
  const std::size_t capacity = atoms.capacity();
  const auto target_ok = [&](std::uint32_t jump) {
    return (jump & kTargetMask) < ((jump & kLeafBit) != 0 ? capacity : count);
  };
  const auto malformed = [&](std::string why) {
    proof.malformed = std::move(why);
    return proof;
  };

  // Well-formedness, and the in-degrees for Kahn's topological order.
  if (!target_ok(entry)) return malformed("entry out of range");
  std::vector<std::uint32_t> indegree(count, 0);
  for (std::size_t pc = 0; pc < count; ++pc) {
    const auto at = [pc](const char* why) {
      return "instruction " + std::to_string(pc) + ": " + why;
    };
    const MatchInsn& insn = code[pc];
    const std::uint32_t word = word_of(insn.on_match);
    if (word != word_of(insn.on_fail))
      return malformed(at("jumps disagree on the header word"));
    if (word >= PacketHeader::kWords32) return malformed(at("word out of range"));
    if (insn.mask != 0 &&
        32 * word + 31 - std::countl_zero(insn.mask) >= mgr.num_vars())
      return malformed(at("tests a bit with no BDD variable"));
    for (const std::uint32_t j : {insn.on_match, insn.on_fail}) {
      if (!target_ok(j)) return malformed(at("jump out of range"));
      if ((j & kLeafBit) == 0) ++indegree[j & kTargetMask];
    }
  }
  std::vector<std::uint32_t> order;
  order.reserve(count);
  for (std::uint32_t pc = 0; pc < count; ++pc)
    if (indegree[pc] == 0) order.push_back(pc);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const MatchInsn& insn = code[order[head]];
    for (const std::uint32_t j : {insn.on_match, insn.on_fail})
      if ((j & kLeafBit) == 0 && --indegree[j & kTargetMask] == 0)
        order.push_back(j & kTargetMask);
  }
  if (order.size() != count) return malformed("jump cycle");

  // Propagation.  Null handles stand for the empty set.
  std::vector<bdd::Bdd> reach(count);
  std::vector<bdd::Bdd> landed(capacity);
  const auto send = [&](std::uint32_t jump, const bdd::Bdd& set) {
    if (set.is_false()) return;
    bdd::Bdd& slot = (jump & kLeafBit) != 0 ? landed[jump & kTargetMask]
                                            : reach[jump & kTargetMask];
    slot = slot.valid() ? slot | set : set;
  };
  send(entry, mgr.bdd_true());
  std::vector<std::pair<std::uint32_t, bool>> literals;
  for (const std::uint32_t pc : order) {
    if (!reach[pc].valid()) continue;
    const bdd::Bdd r = std::move(reach[pc]);
    reach[pc] = bdd::Bdd();
    const MatchInsn& insn = code[pc];
    const std::uint32_t base = 32 * word_of(insn.on_match);
    literals.clear();
    for (std::uint32_t bit = 0; bit < 32; ++bit)
      if ((insn.mask >> bit) & 1u)
        literals.emplace_back(base + bit, ((insn.value >> bit) & 1u) != 0);
    // A value bit outside the mask can never compare equal.
    const bdd::Bdd cube = (insn.value & ~insn.mask) != 0 ? mgr.bdd_false()
                                                         : mgr.cube(literals);
    send(insn.on_match, r & cube);
    send(insn.on_fail, r.minus(cube));
  }

  for (AtomId a = 0; a < capacity; ++a) {
    if (!atoms.is_alive(a)) {
      proof.dead_atoms_reached += landed[a].valid();
      continue;
    }
    const bdd::Bdd& want = atoms.bdd_of(a);
    if (!landed[a].valid() || landed[a] != want) ++proof.mismatched_atoms;
    for (const std::uint32_t v : mgr.support(want)) {
      if (((tested_bits[v >> 6] >> (v & 63)) & 1u) == 0) {
        ++proof.unsupported_atoms;
        break;
      }
    }
  }
  return proof;
}

ProgramProof prove_program(const FlatSnapshot& snap, const ApClassifier& clf) {
  const MatchProgram& prog = *snap.program();
  return prove_program(prog.instructions(), prog.instruction_count(),
                       prog.entry(), clf.atoms(), clf.manager(),
                       snap.tested_bits());
}

}  // namespace apc::engine
