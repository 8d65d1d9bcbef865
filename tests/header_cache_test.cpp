// HeaderAtomCache sizing: the constructor's slot arithmetic must be
// deterministic and total — every capacity, including adversarial ones (0,
// SIZE_MAX, values above 2^63 that used to spin the power-of-two rounding
// forever), lands on a documented power-of-two slot count in
// [kMinSlots, kMaxSlots].
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "engine/header_cache.hpp"

namespace apc::engine {
namespace {

HeaderAtomCache::Mask full_mask() {
  HeaderAtomCache::Mask m;
  m.fill(~std::uint64_t{0});
  return m;
}

bool is_pow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

TEST(HeaderCacheSizing, CapacityFloorsAtMinSlots) {
  for (const std::size_t cap : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                                std::size_t{64}}) {
    HeaderAtomCache c(cap, full_mask());
    EXPECT_EQ(c.capacity(), HeaderAtomCache::kMinSlots) << "capacity " << cap;
  }
}

TEST(HeaderCacheSizing, CapacityRoundsUpToPowerOfTwo) {
  HeaderAtomCache c65(65, full_mask());
  EXPECT_EQ(c65.capacity(), 128u);
  HeaderAtomCache c1000(1000, full_mask());
  EXPECT_EQ(c1000.capacity(), 1024u);
}

TEST(HeaderCacheSizing, HugeCapacityClampsInsteadOfSpinning) {
  // Above 2^63 the old round_up_pow2 left-shifted into 0 and looped
  // forever; any absurd request now clamps to kMaxSlots and allocates a
  // bounded (64 MiB) slot array.
  for (const std::size_t cap :
       {std::numeric_limits<std::size_t>::max(),
        std::size_t{1} << 63, (std::size_t{1} << 63) + 1,
        HeaderAtomCache::kMaxSlots + 1}) {
    HeaderAtomCache c(cap, full_mask());
    EXPECT_EQ(c.capacity(), HeaderAtomCache::kMaxSlots) << "capacity " << cap;
  }
}

TEST(HeaderCacheSizing, EveryConfigurationKeepsTheInvariants) {
  for (const std::size_t cap : {std::size_t{0}, std::size_t{100},
                                std::size_t{1} << 10, std::size_t{1} << 18}) {
    HeaderAtomCache c(cap, full_mask());
    EXPECT_TRUE(is_pow2(c.capacity()));
    EXPECT_GE(c.capacity(), HeaderAtomCache::kMinSlots);
    EXPECT_LE(c.capacity(), HeaderAtomCache::kMaxSlots);
  }
}

TEST(HeaderCacheSizing, ClampedCacheStillServesLookups) {
  HeaderAtomCache c(HeaderAtomCache::kMaxSlots + 123, full_mask());
  PacketHeader h;
  h.set_dst_ip(0x0a000001);
  AtomId atom = 0;
  EXPECT_FALSE(c.lookup(h, atom));
  c.insert(h, 42);
  ASSERT_TRUE(c.lookup(h, atom));
  EXPECT_EQ(atom, 42u);
}

}  // namespace
}  // namespace apc::engine
