#include "engine/header_cache.hpp"

namespace apc::engine {

namespace {

/// Rounds `v` up to a power of two, saturating at `hi` (itself a power of
/// two).  The unclamped version spun forever for v > 2^63 (the shift
/// overflows to 0, so `p < v` never terminates) — any request at or above
/// the cap deterministically gets the cap instead.
std::size_t round_up_pow2_clamped(std::size_t v, std::size_t hi) {
  if (v >= hi) return hi;
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

HeaderAtomCache::HeaderAtomCache(std::size_t capacity, const Mask& tested_bits)
    : mask_(tested_bits),
      slot_count_(round_up_pow2_clamped(capacity < kMinSlots ? kMinSlots : capacity,
                                        kMaxSlots)),
      slots_(std::make_unique<Slot[]>(slot_count_)) {}

std::uint64_t HeaderAtomCache::hash_canonical(
    const PacketHeader& h,
    std::array<std::uint64_t, PacketHeader::kWords>& key) const {
  const auto& words = h.words();
  // splitmix64-style per-word mix: fast, and the masked canonical form means
  // headers differing only in untested bits share one slot (more hits).
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint32_t i = 0; i < PacketHeader::kWords; ++i) {
    key[i] = words[i] & mask_[i];
    x ^= key[i] + 0x9e3779b97f4a7c15ull + (x << 6) + (x >> 2);
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
  }
  return x;
}

HeaderAtomCache::Slot& HeaderAtomCache::slot_for(std::uint64_t hash) const {
  return slots_[hash & (slot_count_ - 1)];
}

bool HeaderAtomCache::lookup(const PacketHeader& h, AtomId& atom) const {
  std::array<std::uint64_t, PacketHeader::kWords> key;
  Slot& s = slot_for(hash_canonical(h, key));

  const std::uint32_t seq1 = s.seq.load(std::memory_order_acquire);
  if (seq1 == 0 || (seq1 & 1u)) return false;  // empty or mid-write
  bool match = true;
  for (std::uint32_t i = 0; i < PacketHeader::kWords; ++i)
    match &= s.key[i].load(std::memory_order_relaxed) == key[i];
  const std::uint32_t a = s.atom.load(std::memory_order_relaxed);
  // Seqlock revalidation: the fence orders the relaxed data loads before the
  // second seq read, so any concurrent writer is detected and the (possibly
  // torn) observation is discarded as a miss.
  std::atomic_thread_fence(std::memory_order_acquire);
  if (!match || s.seq.load(std::memory_order_relaxed) != seq1) return false;
  atom = static_cast<AtomId>(a);
  return true;
}

void HeaderAtomCache::insert(const PacketHeader& h, AtomId atom) const {
  std::array<std::uint64_t, PacketHeader::kWords> key;
  Slot& s = slot_for(hash_canonical(h, key));

  std::uint32_t seq = s.seq.load(std::memory_order_relaxed);
  if (seq & 1u) return;  // another writer owns the slot; cache is lossy
  if (!s.seq.compare_exchange_strong(seq, seq + 1, std::memory_order_acq_rel,
                                     std::memory_order_relaxed))
    return;
  for (std::uint32_t i = 0; i < PacketHeader::kWords; ++i)
    s.key[i].store(key[i], std::memory_order_relaxed);
  s.atom.store(static_cast<std::uint32_t>(atom), std::memory_order_relaxed);
  s.seq.store(seq + 2, std::memory_order_release);
}

}  // namespace apc::engine
