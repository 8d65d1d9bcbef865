// Exact check of a compiled match program against the atom partition it
// was compiled from — translation validation (Pnueli, Siegel and
// Singerman, TACAS 1998): instead of proving MatchProgram::compile correct
// once, every program it emits is checked against its input.  Like the
// lattice-based verifier of arXiv:1908.09068 (PAPERS.md), the check runs
// over sets of packets, not sampled headers, so it covers the whole header
// space.
//
// The proof propagates a reach set (a BDD over the header bits) through the
// program in topological order from the entry.  An instruction's mask and
// value form a cube over the BDD variables 32 * word + bit; its match edge
// carries reach AND cube, its fail edge reach AND NOT cube, and a leaf jump
// ORs what it receives into its atom's set.  The program is correct iff
// every live atom's set equals AtomUniverse::bdd_of(atom) and no dead atom
// is reached.  The proof also bounds the program's support: every live
// atom's BDD support must lie inside the snapshot's tested_bits, the
// header bits the frozen predicates test.
//
// Writer side only: the proof builds BDDs in the classifier's manager,
// which is single-threaded, so it must not race classifier updates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "classifier/classifier.hpp"
#include "engine/snapshot.hpp"

namespace apc::engine {

struct ProgramProof {
  /// Why the program is not a well-formed acyclic program over the
  /// manager's variables (a jump out of range, jumps disagreeing on the
  /// header word, a tested bit with no BDD variable, a cycle); empty when
  /// it is.  A malformed program is not propagated.
  std::string malformed;
  std::size_t mismatched_atoms = 0;    ///< live atoms whose set != their BDD
  std::size_t dead_atoms_reached = 0;  ///< dead atoms some header lands on
  std::size_t unsupported_atoms = 0;   ///< live atoms testing an untested bit

  bool ok() const {
    return malformed.empty() && mismatched_atoms == 0 &&
           dead_atoms_reached == 0 && unsupported_atoms == 0;
  }
  /// One line for test failure messages.
  std::string summary() const;
};

/// Proves `code[0..count)` entered at `entry` equal to the partition
/// `atoms` (whose BDDs live in `mgr`), and the atoms' support inside
/// `tested_bits`.
ProgramProof prove_program(const MatchInsn* code, std::size_t count,
                           std::uint32_t entry, const AtomUniverse& atoms,
                           bdd::BddManager& mgr,
                           const HeaderBits& tested_bits);

/// Proves the snapshot's program against the classifier it was built from
/// (which must not have changed since).
ProgramProof prove_program(const FlatSnapshot& snap, const ApClassifier& clf);

}  // namespace apc::engine
