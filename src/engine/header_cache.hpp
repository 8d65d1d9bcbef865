// HeaderAtomCache — a fixed-capacity, sharded, lock-free header -> atom
// cache consulted in front of the AP Tree walk.
//
// The paper's packet-distribution experiments (SS VII, Fig. 15) show real
// traffic is heavily skewed: a few packet classes dominate.  A stage-1
// classification is a pure function of the header bits the tree's predicate
// BDDs test, so hot flows can skip the tree entirely: canonicalize the
// header to those bits, hash, and probe one direct-mapped slot.
//
// Concurrency design (TSan-clean, no locks):
//  * Slots are seqlock-tagged: `seq` is 0 while empty, odd while a writer
//    owns the slot, and advances by 2 per publish.  Readers validate `seq`
//    before and after reading; writers claim the slot with a CAS and never
//    block (a lost claim just skips the insert — the cache is lossy by
//    design).
//  * Key and value words are relaxed atomics, so racy read/write pairs are
//    data-race-free by construction; the seq protocol (acquire loads, a
//    release publish, and an acquire fence before revalidation) makes torn
//    key/value observations detectable and turns them into misses.
//  * The cache is owned by one immutable FlatSnapshot and dies with it, so
//    publication of a new snapshot invalidates the whole cache wholesale —
//    a stale-snapshot hit is structurally impossible.
//
// lookup()/insert() keep no statistics themselves (a shared per-packet
// counter would bounce a cache line across every query thread); callers
// count hits/misses at batch granularity and fold them into the owner's
// counters.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "ap/atoms.hpp"
#include "packet/header.hpp"

namespace apc::engine {

class HeaderAtomCache {
 public:
  /// Bits of each header word that any tree predicate actually tests;
  /// headers equal under this mask are in the same atom by construction.
  using Mask = std::array<std::uint64_t, PacketHeader::kWords>;

  /// Total-slot floor/ceiling of the sizing rule below.  kMaxSlots bounds
  /// the slot array at 2^20 entries (64 MiB of slots) so absurd capacity
  /// requests (including values above 2^63, which used to spin the
  /// power-of-two rounding forever) degrade to a deterministic clamp
  /// instead of an overflow or an unbounded allocation.
  static constexpr std::size_t kMinSlots = 64;
  static constexpr std::size_t kMaxSlots = std::size_t{1} << 20;

  /// Sizing invariant (deterministic for every input):
  ///   slots  = pow2_round_up(capacity) clamped to [kMinSlots, kMaxSlots];
  ///   shards = pow2_round_up(shards)   clamped to [1, slots / kMinSlots]
  ///            (0 = auto: one shard per 256 slots, at most 64).
  /// Every shard therefore keeps >= kMinSlots slots, both counts are powers
  /// of two, and an explicit `shards` request above the ceiling is clamped
  /// — check shard_count() when the exact value matters.  The shard is
  /// chosen by the high hash bits, the slot by the low bits.
  HeaderAtomCache(std::size_t capacity, std::size_t shards, const Mask& tested_bits);

  HeaderAtomCache(const HeaderAtomCache&) = delete;
  HeaderAtomCache& operator=(const HeaderAtomCache&) = delete;

  /// Probes the slot for `h`.  True (and fills `atom`) only when the slot
  /// holds the canonicalized key of `h` and was stably published.
  bool lookup(const PacketHeader& h, AtomId& atom) const;

  /// Publishes (h -> atom), overwriting whatever the slot held.  Skips the
  /// insert when another writer holds the slot.  Safe from any thread.
  void insert(const PacketHeader& h, AtomId atom) const;

  std::size_t capacity() const { return shard_count_ * slots_per_shard_; }
  std::size_t shard_count() const { return shard_count_; }
  std::size_t memory_bytes() const;

 private:
  /// One direct-mapped entry.  48 bytes of state, padded to one cache line
  /// so concurrent writers to neighboring slots never false-share.
  struct alignas(64) Slot {
    std::atomic<std::uint32_t> seq{0};   ///< 0 empty; odd mid-write; +2/publish
    std::atomic<std::uint32_t> atom{0};
    std::array<std::atomic<std::uint64_t>, PacketHeader::kWords> key{};
  };

  Slot& slot_for(std::uint64_t hash) const;
  std::uint64_t hash_canonical(const PacketHeader& h,
                               std::array<std::uint64_t, PacketHeader::kWords>& key) const;

  Mask mask_{};
  std::size_t shard_count_ = 0;
  std::size_t slots_per_shard_ = 0;
  std::vector<std::unique_ptr<Slot[]>> shards_;
};

}  // namespace apc::engine
