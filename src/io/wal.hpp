// Durable write-ahead log for rule/predicate updates (see
// docs/architecture.md, "Fault tolerance & durability").
//
// File layout:
//
//   +--------------------------------------------------+
//   | magic "APCWAL1\0" (8B) | version u32 | endian u32 |   file header
//   +--------------------------------------------------+
//   | len u32 | crc32c(payload) u32 (masked) | payload  |   record 0
//   +--------------------------------------------------+
//   | len u32 | crc u32 | payload                       |   record 1 ...
//   +--------------------------------------------------+
//
// All integers are native-endian; the endianness sentinel in the header
// rejects files written on a machine with the other byte order.  Payloads
// are opaque bytes (the reconstruction manager stores "A <key> <bdd>" /
// "R <key>" update records).
//
// Crash contract: open() replays the longest clean prefix — records whose
// frame is complete and whose CRC matches — and *durably truncates* any torn
// or corrupt tail, reporting what was dropped in WalRecoveryReport.  A torn
// tail is the expected artifact of a crash mid-append and is not an error;
// a damaged file *header* means the file is not a WAL at all and is rejected
// with apc::Error(kCorruptData).
//
// Failure contract: a *transient* write/fsync errno (EINTR, EAGAIN, ENOSPC,
// EDQUOT, ENOMEM — conditions that genuinely can clear on their own) is
// retried in place under the jittered backoff schedule in
// WalOptions::retry, with the file rolled back to the last clean record
// boundary between write attempts; each absorbed failure ticks the
// retries() counter.  Only once the budget is exhausted does append() throw
// apc::Error(kIo) — the log stays usable, so a caller can retry later.  A
// non-transient errno (EIO and friends) fails immediately: for fsync it
// also poisons the instance, because the kernel may have dropped the dirty
// pages while marking them clean (the PostgreSQL fsyncgate lesson — a
// "successful" retry after fsync-EIO proves nothing), and every later
// append throws kFailedPrecondition.  Exhausting the retry budget on fsync
// poisons for the same reason.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/backoff.hpp"
#include "util/error.hpp"

namespace apc::io {

/// When appends reach the disk platter.
enum class FsyncPolicy : std::uint8_t {
  kNone,         ///< never fsync (fastest; crash loses OS-buffered tail)
  kInterval,     ///< fsync every WalOptions::fsync_interval records
  kEveryRecord,  ///< fsync after every append call (one per group)
};

const char* fsync_policy_name(FsyncPolicy p);
/// Parses "none" / "interval" / "every"; throws apc::Error(kParse) otherwise.
FsyncPolicy parse_fsync_policy(std::string_view name);

struct WalOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kEveryRecord;
  /// Records between fsyncs under FsyncPolicy::kInterval.
  std::size_t fsync_interval = 32;
  /// Backoff schedule for transient append/fsync failures (see the failure
  /// contract above).  Defaults absorb ~4 retries over ~10 ms; max_retries=0
  /// restores fail-fast behavior.
  util::BackoffPolicy retry{std::chrono::microseconds{500},
                            std::chrono::microseconds{20000}, 2.0, 0.25, 4};
};

/// What recovery found and did when opening an existing log.
struct WalRecoveryReport {
  bool existed = false;               ///< a non-empty file was present
  std::size_t records_recovered = 0;  ///< clean records replayed
  std::uint64_t bytes_scanned = 0;    ///< file size before truncation
  std::uint64_t bytes_truncated = 0;  ///< torn/corrupt tail removed
  bool torn_tail = false;             ///< tail was an incomplete frame
  bool crc_mismatch = false;          ///< tail failed its checksum
  std::string detail;                 ///< one-line human-readable summary
};

class Wal {
 public:
  /// Opens (creating if absent) the log at `path`.  Existing clean records
  /// are appended to `*records` (in order); a torn/corrupt tail is durably
  /// truncated and described in `*report`.  Throws apc::Error(kIo) on
  /// filesystem failure and kCorruptData on a damaged file header.
  Wal(const std::string& path, WalOptions opts,
      std::vector<std::string>* records = nullptr,
      WalRecoveryReport* report = nullptr);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends a group of records with one write and applies the fsync policy
  /// once: one fsync for the group under kEveryRecord, while kInterval
  /// still counts records.  Transient failures retry in place under
  /// WalOptions::retry; on definitive failure the file is rolled back to
  /// the boundary before the group (no frame of it survives) and
  /// apc::Error(kIo) is thrown; the log remains usable unless an fsync
  /// failed.
  void append(std::span<const std::string_view> payloads);
  /// A group of one.
  void append(std::string_view payload);

  /// Explicit fsync (for FsyncPolicy::kNone users at checkpoint moments).
  void sync();

  const std::string& path() const { return path_; }
  /// Records appended through this instance (not counting recovered ones).
  const obs::Counter& records_appended() const { return records_appended_; }
  /// fsync() calls issued (policy-driven and explicit).
  const obs::Counter& syncs() const { return syncs_; }
  /// Transient write/fsync failures absorbed by the retry loop.
  const obs::Counter& retries() const { return retries_; }
  /// Current clean end-of-log offset in bytes.
  std::uint64_t size_bytes() const { return offset_; }
  /// The recovery report from open time.
  const WalRecoveryReport& recovery_report() const { return report_; }
  /// True after an fsync failure: appends are refused (kFailedPrecondition).
  bool poisoned() const { return poisoned_; }

 private:
  /// One write attempt (fault sites included); returns 0 or the errno.
  int try_write(const char* p, std::size_t n);
  /// try_write that throws on any failure (header writes; no retry).
  void write_all(const char* p, std::size_t n);
  void do_fsync(const char* site);

  std::string path_;
  WalOptions opts_;
  int fd_ = -1;
  std::uint64_t offset_ = 0;  ///< clean end of log
  std::size_t unsynced_records_ = 0;
  bool poisoned_ = false;
  WalRecoveryReport report_;

  obs::Counter records_appended_;
  obs::Counter syncs_;
  obs::Counter retries_;
};

}  // namespace apc::io
