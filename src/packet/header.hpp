// Packet header model.
//
// The paper evaluates predicates over a fixed-size header containing every
// field that forwarding tables and ACLs inspect.  We use the classic 5-tuple
// layout (104 bits).  BDD variable i is header bit i; fields are laid out
// MSB-first with the destination IP first, since it is the dominant filter
// field and an early position shortens predicate BDD paths.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace apc {

/// A named bit-field inside the header.
struct HeaderField {
  std::string name;
  std::uint32_t offset;  ///< first bit (BDD variable index)
  std::uint32_t width;   ///< in bits, MSB first
};

/// Describes the header bit layout shared by a whole network model.
class HeaderLayout {
 public:
  /// Standard 5-tuple: dst_ip(32) | src_ip(32) | dst_port(16) | src_port(16)
  /// | proto(8) = 104 bits.
  static HeaderLayout five_tuple();

  /// Custom layout from an ordered field list.
  explicit HeaderLayout(std::vector<HeaderField> fields);

  std::uint32_t num_bits() const { return num_bits_; }
  const std::vector<HeaderField>& fields() const { return fields_; }
  const HeaderField& field(const std::string& name) const;

  // Offsets of the standard fields (valid for five_tuple()).
  static constexpr std::uint32_t kDstIp = 0;
  static constexpr std::uint32_t kSrcIp = 32;
  static constexpr std::uint32_t kDstPort = 64;
  static constexpr std::uint32_t kSrcPort = 80;
  static constexpr std::uint32_t kProto = 96;
  static constexpr std::uint32_t kBits = 104;

 private:
  std::vector<HeaderField> fields_;
  std::uint32_t num_bits_ = 0;
};

/// A concrete packet header: a fixed bit vector (up to kMaxBits bits —
/// enough for an IPv6 five-tuple).  bit(i) is the value of BDD variable i.
class PacketHeader {
 public:
  static constexpr std::uint32_t kWords = 5;
  static constexpr std::uint32_t kMaxBits = kWords * 64;  // 320

  PacketHeader() = default;

  bool bit(std::uint32_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void set_bit(std::uint32_t i, bool v) {
    const std::uint64_t m = std::uint64_t{1} << (i & 63);
    if (v)
      words_[i >> 6] |= m;
    else
      words_[i >> 6] &= ~m;
  }

  /// Writes `value`'s low `width` bits into [offset, offset+width) MSB-first.
  void set_field(std::uint32_t offset, std::uint32_t width, std::uint64_t value);
  /// Reads the `width`-bit field at `offset` (MSB-first).
  std::uint64_t field(std::uint32_t offset, std::uint32_t width) const;

  // Convenience accessors for the five-tuple layout.
  std::uint32_t dst_ip() const {
    return static_cast<std::uint32_t>(field(HeaderLayout::kDstIp, 32));
  }
  std::uint32_t src_ip() const {
    return static_cast<std::uint32_t>(field(HeaderLayout::kSrcIp, 32));
  }
  std::uint16_t dst_port() const {
    return static_cast<std::uint16_t>(field(HeaderLayout::kDstPort, 16));
  }
  std::uint16_t src_port() const {
    return static_cast<std::uint16_t>(field(HeaderLayout::kSrcPort, 16));
  }
  std::uint8_t proto() const {
    return static_cast<std::uint8_t>(field(HeaderLayout::kProto, 8));
  }

  void set_dst_ip(std::uint32_t v) { set_field(HeaderLayout::kDstIp, 32, v); }
  void set_src_ip(std::uint32_t v) { set_field(HeaderLayout::kSrcIp, 32, v); }
  void set_dst_port(std::uint16_t v) { set_field(HeaderLayout::kDstPort, 16, v); }
  void set_src_port(std::uint16_t v) { set_field(HeaderLayout::kSrcPort, 16, v); }
  void set_proto(std::uint8_t v) { set_field(HeaderLayout::kProto, 8, v); }

  /// Builds a header from a five-tuple.
  static PacketHeader from_five_tuple(std::uint32_t src_ip, std::uint32_t dst_ip,
                                      std::uint16_t src_port, std::uint16_t dst_port,
                                      std::uint8_t proto);

  /// Builds a header from a per-variable assignment (e.g. bdd::any_sat).
  static PacketHeader from_bits(const std::vector<std::uint8_t>& bits);

  /// Builds a header from its raw backing words (the inverse of words()):
  /// bit i of the header is bit i%64 of words[i/64].
  static PacketHeader from_words(const std::array<std::uint64_t, kWords>& words) {
    PacketHeader h;
    h.words_ = words;
    return h;
  }

  bool operator==(const PacketHeader& other) const { return words_ == other.words_; }

  /// Raw 64-bit backing words (bit i of the header is bit i%64 of word
  /// i/64).  The engine's header cache canonicalizes and hashes these.
  const std::array<std::uint64_t, kWords>& words() const { return words_; }

  // ---- Packed 32-bit word view ----
  // The match-program compiler coalesces BDD bit-tests per 32-bit word and
  // its SIMD kernel gathers one 32-bit word per lane per step, so both need
  // the header as an array of kWords32 contiguous 32-bit words: bit j of
  // word32(w) is header bit 32*w + j (same LSB-first convention as bit()).
  // On a little-endian target word32(w) is exactly the w-th 32-bit word of
  // the in-memory representation, which is what the gather path reads.
  static constexpr std::uint32_t kWords32 = kWords * 2;
  std::uint32_t word32(std::uint32_t w) const {
    return static_cast<std::uint32_t>(words_[w >> 1] >> ((w & 1u) * 32u));
  }
  std::array<std::uint32_t, kWords32> words32() const {
    std::array<std::uint32_t, kWords32> out;
    for (std::uint32_t w = 0; w < kWords32; ++w) out[w] = word32(w);
    return out;
  }

  std::string to_string() const;  ///< "src -> dst proto/sport/dport"

 private:
  std::array<std::uint64_t, kWords> words_{};
};

}  // namespace apc
