// Tests for the packet header model and IPv4 helpers.
#include <gtest/gtest.h>

#include "packet/header.hpp"
#include "packet/ipv4.hpp"
#include "util/rng.hpp"

namespace apc {
namespace {

TEST(Ipv4, ParseFormatRoundTrip) {
  EXPECT_EQ(parse_ipv4("10.0.0.1"), 0x0A000001u);
  EXPECT_EQ(parse_ipv4("255.255.255.255"), 0xFFFFFFFFu);
  EXPECT_EQ(parse_ipv4("0.0.0.0"), 0u);
  EXPECT_EQ(format_ipv4(0x0A000001u), "10.0.0.1");
  EXPECT_EQ(format_ipv4(parse_ipv4("192.168.37.254")), "192.168.37.254");
}

TEST(Ipv4, ParseRejectsMalformed) {
  EXPECT_THROW(parse_ipv4("10.0.0"), Error);
  EXPECT_THROW(parse_ipv4("10.0.0.256"), Error);
  EXPECT_THROW(parse_ipv4("10..0.1"), Error);
  EXPECT_THROW(parse_ipv4("a.b.c.d"), Error);
}

TEST(Ipv4, PrefixParseAndNormalize) {
  const Ipv4Prefix p = parse_prefix("10.1.2.3/16");
  EXPECT_EQ(p.addr, parse_ipv4("10.1.0.0"));  // host bits zeroed
  EXPECT_EQ(p.len, 16);
  EXPECT_EQ(format_prefix(p), "10.1.0.0/16");
  const Ipv4Prefix host = parse_prefix("1.2.3.4");
  EXPECT_EQ(host.len, 32);
  EXPECT_THROW(parse_prefix("10.0.0.0/33"), Error);
}

TEST(Ipv4, PrefixContains) {
  const Ipv4Prefix p = parse_prefix("10.1.0.0/16");
  EXPECT_TRUE(p.contains(parse_ipv4("10.1.200.7")));
  EXPECT_FALSE(p.contains(parse_ipv4("10.2.0.1")));
  const Ipv4Prefix any = parse_prefix("0.0.0.0/0");
  EXPECT_TRUE(any.contains(0xDEADBEEFu));
  const Ipv4Prefix host = parse_prefix("1.2.3.4/32");
  EXPECT_TRUE(host.contains(parse_ipv4("1.2.3.4")));
  EXPECT_FALSE(host.contains(parse_ipv4("1.2.3.5")));
}

TEST(Ipv4, PrefixCovers) {
  const Ipv4Prefix big = parse_prefix("10.0.0.0/8");
  const Ipv4Prefix small = parse_prefix("10.3.0.0/16");
  EXPECT_TRUE(big.covers(small));
  EXPECT_FALSE(small.covers(big));
  EXPECT_TRUE(big.covers(big));
}

TEST(HeaderLayout, FiveTupleShape) {
  const HeaderLayout l = HeaderLayout::five_tuple();
  EXPECT_EQ(l.num_bits(), 104u);
  EXPECT_EQ(l.field("dst_ip").offset, 0u);
  EXPECT_EQ(l.field("src_ip").offset, 32u);
  EXPECT_EQ(l.field("proto").width, 8u);
  EXPECT_THROW(l.field("vlan"), Error);
}

TEST(HeaderLayout, RejectsNonContiguous) {
  EXPECT_THROW(HeaderLayout({{"a", 0, 8}, {"b", 9, 8}}), Error);
  EXPECT_THROW(HeaderLayout({{"a", 0, 0}}), Error);
}

TEST(PacketHeader, FieldRoundTrip) {
  PacketHeader h;
  h.set_field(0, 32, 0xC0A80101u);
  h.set_field(32, 32, 0x0A000001u);
  h.set_field(64, 16, 443);
  h.set_field(80, 16, 51515);
  h.set_field(96, 8, 6);
  EXPECT_EQ(h.field(0, 32), 0xC0A80101u);
  EXPECT_EQ(h.field(32, 32), 0x0A000001u);
  EXPECT_EQ(h.field(64, 16), 443u);
  EXPECT_EQ(h.field(80, 16), 51515u);
  EXPECT_EQ(h.field(96, 8), 6u);
}

TEST(PacketHeader, FiveTupleAccessors) {
  const PacketHeader h = PacketHeader::from_five_tuple(
      parse_ipv4("10.0.0.1"), parse_ipv4("10.9.0.2"), 1234, 80, 6);
  EXPECT_EQ(h.src_ip(), parse_ipv4("10.0.0.1"));
  EXPECT_EQ(h.dst_ip(), parse_ipv4("10.9.0.2"));
  EXPECT_EQ(h.src_port(), 1234);
  EXPECT_EQ(h.dst_port(), 80);
  EXPECT_EQ(h.proto(), 6);
  EXPECT_NE(h.to_string().find("10.9.0.2"), std::string::npos);
}

TEST(PacketHeader, BitLevelMsbFirst) {
  PacketHeader h;
  h.set_field(0, 8, 0x80);  // MSB of the field is bit 0
  EXPECT_TRUE(h.bit(0));
  for (std::uint32_t i = 1; i < 8; ++i) EXPECT_FALSE(h.bit(i));
}

TEST(PacketHeader, FromBitsRoundTrip) {
  Rng rng(3);
  std::vector<std::uint8_t> bits(104);
  for (auto& b : bits) b = rng.coin() ? 1 : 0;
  const PacketHeader h = PacketHeader::from_bits(bits);
  for (std::uint32_t i = 0; i < 104; ++i) EXPECT_EQ(h.bit(i), bits[i] != 0);
}

TEST(PacketHeader, EqualityAndMutation) {
  PacketHeader a = PacketHeader::from_five_tuple(1, 2, 3, 4, 5);
  PacketHeader b = a;
  EXPECT_EQ(a, b);
  b.set_dst_ip(99);
  EXPECT_FALSE(a == b);
  b.set_dst_ip(2);
  EXPECT_EQ(a, b);
}

TEST(PacketHeader, Word32ViewRoundTrip) {
  // The packed 32-bit word view feeds the match-program compiler (per-word
  // coalescing) and the SIMD gather: bit j of word32(w) must be header bit
  // 32*w + j, and the array view must agree with per-word reads.
  Rng rng(11);
  PacketHeader h;
  for (std::uint32_t i = 0; i < PacketHeader::kMaxBits; ++i)
    h.set_bit(i, rng.coin());
  const auto words = h.words32();
  ASSERT_EQ(words.size(), PacketHeader::kWords32);
  for (std::uint32_t w = 0; w < PacketHeader::kWords32; ++w) {
    EXPECT_EQ(words[w], h.word32(w));
    for (std::uint32_t j = 0; j < 32; ++j)
      EXPECT_EQ((h.word32(w) >> j) & 1u, h.bit(32 * w + j) ? 1u : 0u)
          << "word " << w << " bit " << j;
  }
  // Round trip: reassembling the 64-bit backing words from the 32-bit view
  // reproduces the header exactly.
  PacketHeader back;
  for (std::uint32_t w = 0; w < PacketHeader::kWords32; ++w)
    for (std::uint32_t j = 0; j < 32; ++j)
      back.set_bit(32 * w + j, (words[w] >> j) & 1u);
  EXPECT_EQ(back, h);
}

TEST(PacketHeader, FromWordsMatchesSetBit) {
  // from_words stores the five wire words directly; it must build exactly
  // the header that setting bit i from bit i%64 of word i/64 builds, and
  // words() must give the words back.
  Rng rng(17);
  for (int round = 0; round < 64; ++round) {
    std::array<std::uint64_t, PacketHeader::kWords> w;
    for (auto& x : w) x = rng.next();
    if (round == 1) w.fill(0);
    if (round == 2) w.fill(~std::uint64_t{0});
    PacketHeader by_bits;
    for (std::uint32_t i = 0; i < PacketHeader::kMaxBits; ++i)
      by_bits.set_bit(i, (w[i / 64] >> (i % 64)) & 1);
    const PacketHeader h = PacketHeader::from_words(w);
    EXPECT_EQ(h, by_bits);
    EXPECT_EQ(h.words(), w);
    EXPECT_EQ(PacketHeader::from_words(by_bits.words()), by_bits);
  }
}

TEST(PacketHeader, OutOfRangeThrows) {
  PacketHeader h;
  EXPECT_THROW(h.set_field(PacketHeader::kMaxBits - 8, 16, 0), Error);
  EXPECT_THROW(h.field(PacketHeader::kMaxBits - 3, 8), Error);
  // The last valid field works (IPv6 five-tuple needs 296 of the 320 bits).
  h.set_field(PacketHeader::kMaxBits - 8, 8, 0xAB);
  EXPECT_EQ(h.field(PacketHeader::kMaxBits - 8, 8), 0xABu);
}

}  // namespace
}  // namespace apc
