// Tests for the durable write-ahead log (src/io/wal.*): framing, recovery
// of the clean prefix, torn-tail truncation, header validation, and the
// CRC32C primitives underneath it.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "io/wal.hpp"
#include "util/crc32c.hpp"

namespace apc::io {
namespace {

std::string tmp_path(const std::string& name) {
  const std::string p = ::testing::TempDir() + "apc_wal_" + name + ".log";
  std::remove(p.c_str());
  return p;
}

std::string read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Crc32c, KnownVectors) {
  // RFC 3720 test vector: "123456789" -> 0xE3069283.
  EXPECT_EQ(util::crc32c("123456789", 9), 0xE3069283u);
  // 32 zero bytes -> 0x8A9136AA (iSCSI test vector).
  const std::string zeros(32, '\0');
  EXPECT_EQ(util::crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(util::crc32c("", 0), 0u);
}

TEST(Crc32c, MatchesBitwiseReferenceAcrossLengthsAndAlignments) {
  // Independent bitwise reference: pins the polynomial and seed handling,
  // so whichever implementation crc32c() dispatches to (slice-by-4 or the
  // SSE4.2 hardware path with its multi-stream combine) must agree on
  // every length, alignment, and chunking.
  const auto reference = [](const unsigned char* p, std::size_t n,
                            std::uint32_t seed) {
    std::uint32_t c = ~seed;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? (c >> 1) ^ 0x82F63B78u : c >> 1;
    }
    return ~c;
  };

  std::vector<unsigned char> buf(20008);
  std::uint32_t x = 0x12345678u;
  for (auto& b : buf) {  // xorshift fill: deterministic, no zero runs
    x ^= x << 13; x ^= x >> 17; x ^= x << 5;
    b = static_cast<unsigned char>(x);
  }
  // Lengths crossing every code path: sub-word tails, the 8-byte loop, and
  // multiple interleaved 3-stream blocks; offsets exercise misalignment.
  for (const std::size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 512u, 6143u, 6144u,
                                6145u, 12289u, 19997u}) {
    for (const std::size_t off : {0u, 1u, 5u}) {
      ASSERT_LE(off + len, buf.size());
      ASSERT_EQ(util::crc32c(buf.data() + off, len),
                reference(buf.data() + off, len, 0))
          << "len=" << len << " off=" << off;
    }
  }
  // Seed chaining: checksumming two chunks as one stream.
  const std::uint32_t whole = util::crc32c(buf.data(), 10000);
  const std::uint32_t part = util::crc32c(buf.data(), 1234);
  EXPECT_EQ(util::crc32c(buf.data() + 1234, 10000 - 1234, part), whole);
  EXPECT_EQ(reference(buf.data(), 10000, 0), whole);
}

TEST(Crc32c, MaskRoundTripAndDifference) {
  for (const std::uint32_t c : {0u, 1u, 0xE3069283u, 0xFFFFFFFFu}) {
    EXPECT_EQ(util::crc32c_unmask(util::crc32c_mask(c)), c);
    // Masking exists so a CRC stored in a CRC'd region never equals the
    // raw CRC of those bytes.
    EXPECT_NE(util::crc32c_mask(c), c);
  }
}

TEST(Wal, AppendReopenReplaysInOrder) {
  const std::string path = tmp_path("roundtrip");
  {
    Wal wal(path, WalOptions{});
    wal.append("alpha");
    wal.append(std::string("binary\0payload", 14));
    wal.append("");  // empty records are legal
    wal.append("delta");
    EXPECT_EQ(wal.records_appended().value(), 4u);
  }
  std::vector<std::string> records;
  WalRecoveryReport report;
  Wal wal(path, WalOptions{}, &records, &report);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0], "alpha");
  EXPECT_EQ(records[1], std::string("binary\0payload", 14));
  EXPECT_EQ(records[2], "");
  EXPECT_EQ(records[3], "delta");
  EXPECT_TRUE(report.existed);
  EXPECT_EQ(report.records_recovered, 4u);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_FALSE(report.crc_mismatch);
  EXPECT_EQ(report.bytes_truncated, 0u);
  // Appending after recovery continues the log.
  wal.append("epsilon");
  std::vector<std::string> again;
  Wal wal2(path, WalOptions{}, &again);
  EXPECT_EQ(again.size(), 5u);
  EXPECT_EQ(again.back(), "epsilon");
}

TEST(Wal, FreshFileHasOnlyHeader) {
  const std::string path = tmp_path("fresh");
  std::vector<std::string> records;
  WalRecoveryReport report;
  Wal wal(path, WalOptions{}, &records, &report);
  EXPECT_TRUE(records.empty());
  EXPECT_FALSE(report.existed);
  EXPECT_GT(wal.size_bytes(), 0u);  // header is on disk
}

TEST(Wal, TornTailIsTruncatedAndPrefixSurvives) {
  const std::string path = tmp_path("torn");
  {
    Wal wal(path, WalOptions{});
    wal.append("first");
    wal.append("second");
  }
  // Simulate a crash mid-append: half a frame of garbage at the tail.
  const std::string clean = read_raw(path);
  write_raw(path, clean + std::string("\x40\x00\x00", 3));

  std::vector<std::string> records;
  WalRecoveryReport report;
  Wal wal(path, WalOptions{}, &records, &report);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], "second");
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.bytes_truncated, 3u);
  // The truncation is durable: the file is back to its clean prefix.
  EXPECT_EQ(read_raw(path), clean);
  // And the log accepts new appends at the clean boundary.
  wal.append("third");
  std::vector<std::string> again;
  Wal wal2(path, WalOptions{}, &again);
  ASSERT_EQ(again.size(), 3u);
  EXPECT_EQ(again.back(), "third");
}

TEST(Wal, CorruptTailRecordIsDropped) {
  const std::string path = tmp_path("crc");
  std::string clean_one;
  {
    Wal wal(path, WalOptions{});
    wal.append("keepme");
    clean_one = read_raw(path);
    wal.append("scribbled");
  }
  // Flip one bit inside the LAST record's payload.
  std::string bytes = read_raw(path);
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x01);
  write_raw(path, bytes);

  std::vector<std::string> records;
  WalRecoveryReport report;
  Wal wal(path, WalOptions{}, &records, &report);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "keepme");
  EXPECT_TRUE(report.crc_mismatch);
  EXPECT_GT(report.bytes_truncated, 0u);
  EXPECT_EQ(read_raw(path), clean_one);
}

TEST(Wal, DamagedHeaderIsRejectedNotTruncated) {
  const std::string path = tmp_path("badmagic");
  write_raw(path, "definitely not a WAL file, much longer than a header");
  try {
    Wal wal(path, WalOptions{});
    FAIL() << "expected kCorruptData";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptData);
  }
  // Rejection must not destroy the evidence.
  EXPECT_EQ(read_raw(path), "definitely not a WAL file, much longer than a header");
}

TEST(Wal, FsyncPolicies) {
  EXPECT_STREQ(fsync_policy_name(FsyncPolicy::kNone), "none");
  EXPECT_STREQ(fsync_policy_name(FsyncPolicy::kInterval), "interval");
  EXPECT_STREQ(fsync_policy_name(FsyncPolicy::kEveryRecord), "every");
  EXPECT_EQ(parse_fsync_policy("every"), FsyncPolicy::kEveryRecord);
  EXPECT_EQ(parse_fsync_policy("none"), FsyncPolicy::kNone);
  EXPECT_EQ(parse_fsync_policy("interval"), FsyncPolicy::kInterval);
  EXPECT_THROW(parse_fsync_policy("sometimes"), Error);

  // Sync counts follow the policy (plus one header sync at creation each).
  const std::string p1 = tmp_path("sync_every");
  Wal every(p1, WalOptions{FsyncPolicy::kEveryRecord, 32});
  const std::uint64_t base_every = every.syncs().value();
  for (int i = 0; i < 5; ++i) every.append("x");
  EXPECT_EQ(every.syncs().value() - base_every, 5u);

  const std::string p2 = tmp_path("sync_interval");
  Wal interval(p2, WalOptions{FsyncPolicy::kInterval, 2});
  const std::uint64_t base_int = interval.syncs().value();
  for (int i = 0; i < 5; ++i) interval.append("x");
  EXPECT_EQ(interval.syncs().value() - base_int, 2u);  // after records 2 and 4

  const std::string p3 = tmp_path("sync_none");
  Wal none(p3, WalOptions{FsyncPolicy::kNone, 32});
  const std::uint64_t base_none = none.syncs().value();
  for (int i = 0; i < 5; ++i) none.append("x");
  EXPECT_EQ(none.syncs().value() - base_none, 0u);
  none.sync();  // explicit checkpoint
  EXPECT_EQ(none.syncs().value() - base_none, 1u);

  // A group append writes k records and applies the policy once: one sync
  // under every, while interval still counts records.
  const std::vector<std::string_view> group = {"g0", "g1", "g2", "g3"};
  every.append(group);
  EXPECT_EQ(every.syncs().value() - base_every, 6u);
  EXPECT_EQ(every.records_appended().value(), 9u);
  interval.append(group);  // records 6..9: 1 unsynced + 4 >= 2: one sync
  EXPECT_EQ(interval.syncs().value() - base_int, 3u);
  interval.append(std::span<const std::string_view>(group.data(), 1));  // 1 < 2
  EXPECT_EQ(interval.syncs().value() - base_int, 3u);
  every.append(std::span<const std::string_view>{});  // an empty group is a no-op
  EXPECT_EQ(every.syncs().value() - base_every, 6u);
  std::vector<std::string> records;
  Wal reopen(p1, WalOptions{}, &records);
  ASSERT_EQ(records.size(), 9u);
  for (std::size_t i = 0; i < group.size(); ++i) EXPECT_EQ(records[5 + i], group[i]);
}

TEST(Wal, TruncatedHeaderMeansFreshLog) {
  // Fewer bytes than a full file header: treated as torn creation — the
  // file is rewritten as a fresh log rather than rejected.
  const std::string path = tmp_path("shortheader");
  write_raw(path, "APC");
  std::vector<std::string> records;
  WalRecoveryReport report;
  Wal wal(path, WalOptions{}, &records, &report);
  EXPECT_TRUE(records.empty());
  wal.append("works");
  std::vector<std::string> again;
  Wal wal2(path, WalOptions{}, &again);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0], "works");
}

}  // namespace
}  // namespace apc::io
