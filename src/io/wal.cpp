#include "io/wal.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "util/backoff.hpp"
#include "util/crc32c.hpp"
#include "util/fault_injection.hpp"

namespace apc::io {

namespace {

constexpr char kMagic[8] = {'A', 'P', 'C', 'W', 'A', 'L', '1', '\0'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kEndianSentinel = 0x01020304u;
constexpr std::uint64_t kHeaderBytes = sizeof(kMagic) + 2 * sizeof(std::uint32_t);
/// Frame-length sanity bound: a length field above this is treated as tail
/// corruption (a torn write can scribble the length), not as a real record.
constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

[[noreturn]] void fail_io(const std::string& what, int err) {
  throw Error(ErrorCode::kIo,
              what + ": " + std::strerror(err) + " (errno " + std::to_string(err) + ")");
}

/// Errnos worth retrying under backoff: conditions that can genuinely clear
/// on their own (signal, contention, space freed, quota raised, memory
/// reclaimed).  EIO is deliberately absent — after a write-back EIO the
/// kernel may have dropped the dirty pages while marking them clean, so a
/// retry that "succeeds" proves nothing about the lost data (fsyncgate).
bool transient_errno(int err) {
  return err == EINTR || err == EAGAIN || err == ENOSPC || err == EDQUOT ||
         err == ENOMEM;
}

void put_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t get_u32(const std::string& buf, std::uint64_t off) {
  std::uint32_t v;
  std::memcpy(&v, buf.data() + off, sizeof(v));
  return v;
}

/// Reads the whole file through `fd` (which recovery just opened).
std::string read_file(int fd, const std::string& path) {
  std::string out;
  char buf[1 << 16];
  for (;;) {
    if (const int err = util::fault_errno("wal.recover.read"))
      fail_io("wal: read " + path, err);
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_io("wal: read " + path, errno);
    }
    if (n == 0) return out;
    out.append(buf, static_cast<std::size_t>(n));
  }
}

/// Fsyncs the directory containing `path`.  O_CREAT makes the file durable
/// only once its directory entry is — a log created, fsynced, and lost to a
/// power cut before the directory block hits disk silently vanishes, taking
/// every acked record with it.  Called at fresh-log creation and after
/// replace()'s rename (an existing log's entry is already durable).
/// Filesystems that refuse directory fsync (EINVAL on some network mounts)
/// are tolerated; real write-back errors propagate.
void fsync_parent_dir(const std::string& path) {
  if (const int err = util::fault_errno("wal.create.dirsync"))
    fail_io("wal: fsync parent dir of " + path, err);
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (dfd < 0) return;  // not all filesystems allow opening a dir for fsync
  if (::fsync(dfd) != 0 && errno != EINVAL && errno != EROFS) {
    const int err = errno;
    ::close(dfd);
    fail_io("wal: fsync dir " + dir, err);
  }
  ::close(dfd);
}

}  // namespace

const char* fsync_policy_name(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kNone: return "none";
    case FsyncPolicy::kInterval: return "interval";
    case FsyncPolicy::kEveryRecord: return "every";
  }
  return "unknown";
}

FsyncPolicy parse_fsync_policy(std::string_view name) {
  if (name == "none") return FsyncPolicy::kNone;
  if (name == "interval") return FsyncPolicy::kInterval;
  if (name == "every") return FsyncPolicy::kEveryRecord;
  throw Error(ErrorCode::kParse,
              "unknown fsync policy '" + std::string(name) + "' (none|interval|every)");
}

Wal::Wal(const std::string& path, WalOptions opts, std::vector<std::string>* records,
         WalRecoveryReport* report)
    : path_(path), opts_(opts) {
  require(!path.empty(), ErrorCode::kInvalidArgument, "Wal: empty path");
  if (const int err = util::fault_errno("wal.open")) fail_io("wal: open " + path, err);
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) fail_io("wal: open " + path, errno);

  std::string buf = read_file(fd_, path);
  report_.bytes_scanned = buf.size();
  report_.existed = !buf.empty();

  // The full header image, for the fresh-file write and the torn-creation
  // prefix check below.
  std::string hdr(kMagic, sizeof(kMagic));
  put_u32(hdr, kVersion);
  put_u32(hdr, kEndianSentinel);

  // A file shorter than the header that matches a *prefix* of it is the
  // artifact of a crash between creation and the header fsync — rewrite it
  // as a fresh log.  A short file that does not match is foreign data.
  const bool torn_creation =
      !buf.empty() && buf.size() < kHeaderBytes &&
      std::memcmp(buf.data(), hdr.data(), buf.size()) == 0;

  if (buf.empty() || torn_creation) {
    if (torn_creation) {
      report_.torn_tail = true;
      report_.bytes_truncated = buf.size();
      if (::ftruncate(fd_, 0) != 0) fail_io("wal: truncate " + path, errno);
      if (::lseek(fd_, 0, SEEK_SET) < 0) fail_io("wal: seek " + path, errno);
    }
    // Fresh log: write and persist the file header, then the directory
    // entry — without the dirsync the whole log can vanish on power loss.
    write_all(hdr.data(), hdr.size());
    offset_ = kHeaderBytes;
    do_fsync("wal.append.fsync");
    fsync_parent_dir(path);
  } else {
    // A file header is all-or-nothing: it is written+fsynced before any
    // record, so a damaged one means this is not (or no longer) a WAL.
    if (buf.size() < kHeaderBytes ||
        std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0)
      throw Error(ErrorCode::kCorruptData, "wal: bad magic in " + path);
    const std::uint32_t version = get_u32(buf, sizeof(kMagic));
    if (version != kVersion)
      throw Error(ErrorCode::kCorruptData,
                  "wal: unsupported version " + std::to_string(version) + " in " + path);
    if (get_u32(buf, sizeof(kMagic) + 4) != kEndianSentinel)
      throw Error(ErrorCode::kCorruptData, "wal: endianness mismatch in " + path);

    // Replay the longest clean prefix of record frames.
    std::uint64_t off = kHeaderBytes;
    while (off < buf.size()) {
      if (buf.size() - off < 8) {  // torn frame header
        report_.torn_tail = true;
        break;
      }
      const std::uint32_t len = get_u32(buf, off);
      const std::uint32_t stored_crc = util::crc32c_unmask(get_u32(buf, off + 4));
      if (len > kMaxRecordBytes) {  // scribbled length field
        report_.torn_tail = true;
        break;
      }
      if (buf.size() - off - 8 < len) {  // torn payload
        report_.torn_tail = true;
        break;
      }
      if (util::crc32c(buf.data() + off + 8, len) != stored_crc) {
        report_.crc_mismatch = true;
        break;
      }
      if (records != nullptr) records->emplace_back(buf.data() + off + 8, len);
      ++report_.records_recovered;
      off += 8 + len;
    }
    offset_ = off;
    if (off < buf.size()) {
      // Durably drop the torn/corrupt tail so the next append starts at a
      // clean record boundary.
      report_.bytes_truncated = buf.size() - off;
      if (::ftruncate(fd_, static_cast<off_t>(off)) != 0)
        fail_io("wal: truncate " + path, errno);
      do_fsync("wal.append.fsync");
      if (::lseek(fd_, static_cast<off_t>(off), SEEK_SET) < 0)
        fail_io("wal: seek " + path, errno);
    }
  }

  report_.detail = "recovered " + std::to_string(report_.records_recovered) +
                   " record(s), truncated " + std::to_string(report_.bytes_truncated) +
                   " byte(s)" + (report_.crc_mismatch ? " [crc mismatch]" : "") +
                   (report_.torn_tail ? " [torn tail]" : "");
  if (report != nullptr) *report = report_;
}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<Wal> Wal::replace(const std::string& path, WalOptions opts,
                                  std::span<const std::string_view> payloads) {
  const std::string tmp = path + ".tmp";
  if (::unlink(tmp.c_str()) != 0 && errno != ENOENT) fail_io("wal: remove " + tmp, errno);
  auto wal = std::make_unique<Wal>(tmp, opts);
  wal->append(payloads);
  // The rename must not make durable a file whose records are not.
  if (wal->unsynced_records_ > 0) wal->do_fsync("wal.append.fsync");
  if (::rename(tmp.c_str(), path.c_str()) != 0) fail_io("wal: rename " + tmp, errno);
  wal->path_ = path;
  fsync_parent_dir(path);
  return wal;
}

int Wal::try_write(const char* p, std::size_t n) {
  std::size_t cap = n;
  if (const int err = util::fault_errno("wal.append.write", &cap)) return err;
  const bool short_write = cap < n;  // injected torn write: persist a prefix
  std::size_t left = short_write ? cap : n;
  while (left > 0) {
    const ssize_t w = ::write(fd_, p, left);
    if (w < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    p += w;
    left -= static_cast<std::size_t>(w);
  }
  // A torn write leaves garbage past the record boundary; surface it as the
  // non-transient EIO so the caller rolls back instead of retrying blind.
  return short_write ? EIO : 0;
}

void Wal::write_all(const char* p, std::size_t n) {
  if (const int err = try_write(p, n)) fail_io("wal: write " + path_, err);
}

void Wal::do_fsync(const char* site) {
  util::Backoff backoff(opts_.retry, std::hash<std::string>{}(path_) ^ offset_);
  for (;;) {
    int err = util::fault_errno(site);
    if (err == 0 && ::fsync(fd_) != 0) err = errno;
    if (err == 0) break;
    if (!transient_errno(err) || backoff.exhausted()) {
      poisoned_ = true;  // durability of acked records is now unknown
      fail_io("wal: fsync " + path_, err);
    }
    retries_.add(1);
    std::this_thread::sleep_for(backoff.next_delay());
  }
  syncs_.add(1);
  unsynced_records_ = 0;
}

void Wal::append(std::string_view payload) {
  append(std::span<const std::string_view>(&payload, 1));
}

void Wal::append(std::span<const std::string_view> payloads) {
  require(!poisoned_, ErrorCode::kFailedPrecondition,
          "Wal::append after fsync failure: durability unknown, reopen the log");
  if (payloads.empty()) return;
  std::size_t bytes = 0;
  for (const std::string_view p : payloads) {
    require(p.size() <= kMaxRecordBytes, ErrorCode::kInvalidArgument,
            "Wal::append: record too large");
    bytes += 8 + p.size();
  }
  std::string frames;
  frames.reserve(bytes);
  for (const std::string_view p : payloads) {
    put_u32(frames, static_cast<std::uint32_t>(p.size()));
    put_u32(frames, util::crc32c_mask(util::crc32c(p.data(), p.size())));
    frames.append(p.data(), p.size());
  }
  util::Backoff backoff(opts_.retry, std::hash<std::string>{}(path_) ^ offset_);
  for (;;) {
    const int err = try_write(frames.data(), frames.size());
    if (err == 0) break;
    // Roll the whole group back to the last clean record boundary so no
    // failed (possibly torn) frame pollutes the log — both between retry
    // attempts and before surfacing the failure to the caller.
    if (::ftruncate(fd_, static_cast<off_t>(offset_)) == 0) {
      ::lseek(fd_, static_cast<off_t>(offset_), SEEK_SET);
    } else {
      poisoned_ = true;  // can't restore a clean boundary
      fail_io("wal: write " + path_, err);
    }
    if (!transient_errno(err) || backoff.exhausted())
      fail_io("wal: write " + path_, err);
    retries_.add(1);
    std::this_thread::sleep_for(backoff.next_delay());
  }
  offset_ += frames.size();
  records_appended_.add(payloads.size());
  unsynced_records_ += payloads.size();
  if (opts_.fsync_policy == FsyncPolicy::kEveryRecord ||
      (opts_.fsync_policy == FsyncPolicy::kInterval &&
       unsynced_records_ >= opts_.fsync_interval)) {
    do_fsync("wal.append.fsync");
  }
}

void Wal::sync() {
  require(!poisoned_, ErrorCode::kFailedPrecondition,
          "Wal::sync after fsync failure: reopen the log");
  do_fsync("wal.append.fsync");
}

}  // namespace apc::io
