// Durable FlatSnapshot persistence — see snapshot.hpp for the contract and
// docs/architecture.md ("Snapshot memory layout & warm restore") for the
// format.
//
// The file (v2; the only format — anything else is rejected as corrupt):
//
//   +------------------------------------------------------------------+
//   | magic "APCSNAP2" (8B) | version u32 | endian u32                  |
//   | arena_len u64 | crc32c(arena) u32 (masked) | zero pad to 4096     |
//   +------------------------------------------------------------------+
//   | arena bytes, verbatim (ArenaHeader + sections; page-aligned here) |
//   +------------------------------------------------------------------+
//
//   The arena IS the in-memory format (engine/arena.hpp), so a save is one
//   contiguous image and a load can mmap the file: the 4 KiB header pad
//   page-aligns the arena in the file, CRC + structural validation run over
//   the mapping, and the snapshot then reads straight out of the page
//   cache — warm restore costs page faults, not a parse.  When mmap is
//   unavailable (APC_FORCE_NO_MMAP) or disabled (Options::mmap_load) the
//   same bytes are read into an owned aligned buffer instead.
//
// Saves are atomic (tmp + fsync + rename + directory fsync): a reader never
// observes a half-written snapshot, and a crash mid-save leaves the previous
// file intact.  The directory fsync is what makes the RENAME durable — on a
// power cut before the directory entry reaches disk, an fsync'd-but-not-
// linked file silently vanishes — so it propagates real errors and carries
// its own fault-injection site (`snapshot.save.dirsync`).  Loads trust
// nothing: header fields, the checksum, and every structural invariant are
// validated before the arrays are adopted, so a corrupt or adversarial file
// yields apc::Error(kCorruptData), never UB.
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "engine/snapshot.hpp"
#include "util/crc32c.hpp"
#include "util/fault_injection.hpp"

namespace apc::engine {

namespace {

constexpr char kMagicV2[8] = {'A', 'P', 'C', 'S', 'N', 'A', 'P', '2'};
constexpr std::uint32_t kVersion2 = 2;
constexpr std::uint32_t kEndianSentinel = 0x01020304u;
/// v2 file header size: one page, so the arena starts page-aligned in the
/// file (an mmap offset must be page-aligned, and the arena's 64-byte
/// section alignment then holds in memory too).
constexpr std::size_t kV2HeaderBytes = 4096;

static_assert(sizeof(bdd::FlatBddNode) == 12, "FlatBddNode layout is serialized raw");

[[noreturn]] void fail_io(const std::string& what, int err) {
  throw Error(ErrorCode::kIo,
              what + ": " + std::strerror(err) + " (errno " + std::to_string(err) + ")");
}

[[noreturn]] void fail_corrupt(const std::string& path, const char* what) {
  throw Error(ErrorCode::kCorruptData,
              "snapshot " + path + ": " + what);
}

// ---- file header (de)serialization ----

void put_bytes(std::string& out, const void* p, std::size_t n) {
  if (n != 0) out.append(static_cast<const char*>(p), n);
}
void put_u32(std::string& out, std::uint32_t v) { put_bytes(out, &v, 4); }
void put_u64(std::string& out, std::uint64_t v) { put_bytes(out, &v, 8); }

/// Bounds-checked cursor over the untrusted file header.
struct Reader {
  const char* p;
  std::size_t left;
  const std::string& path;

  void take(void* out, std::size_t n) {
    if (left < n) fail_corrupt(path, "truncated header");
    std::memcpy(out, p, n);
    p += n;
    left -= n;
  }
  std::uint32_t u32() { std::uint32_t v; take(&v, 4); return v; }
  std::uint64_t u64() { std::uint64_t v; take(&v, 8); return v; }
};

// ---- file I/O helpers ----

void write_all_fd(int fd, const char* p, std::size_t n, const std::string& what) {
  std::size_t cap = n;
  if (const int err = util::fault_errno("snapshot.save.write", &cap)) {
    errno = err;
    fail_io(what, err);
  }
  const bool short_write = cap < n;
  std::size_t target = short_write ? cap : n;
  while (target > 0) {
    const ssize_t w = ::write(fd, p, target);
    if (w < 0) {
      if (errno == EINTR) continue;
      fail_io(what, errno);
    }
    p += w;
    target -= static_cast<std::size_t>(w);
  }
  if (short_write) fail_io(what + " (short write)", 5 /* EIO */);
}

void read_exact_fd(int fd, std::size_t offset, void* out, std::size_t n,
                   const std::string& path) {
  char* p = static_cast<char*>(out);
  while (n > 0) {
    const ssize_t r = ::pread(fd, p, n, static_cast<off_t>(offset));
    if (r < 0) {
      if (errno == EINTR) continue;
      fail_io("snapshot: read " + path, errno);
    }
    if (r == 0) fail_corrupt(path, "file shorter than payload");
    p += r;
    offset += static_cast<std::size_t>(r);
    n -= static_cast<std::size_t>(r);
  }
}

/// Fsyncs the directory containing `path`, making a just-renamed file's
/// directory entry durable.  A filesystem that refuses to open or fsync a
/// directory (EINVAL/EACCES on some network mounts) is tolerated — there is
/// nothing more a process can do there — but a real write-back failure
/// (EIO) propagates, and the fault site lets the chaos tests prove callers
/// surface it.
void fsync_parent_dir(const std::string& path, const char* site) {
  if (const int err = util::fault_errno(site))
    fail_io(std::string("snapshot: fsync parent dir of ") + path, err);
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (dfd < 0) return;  // not all filesystems allow opening a dir for fsync
  if (::fsync(dfd) != 0 && errno != EINVAL && errno != EROFS) {
    const int err = errno;
    ::close(dfd);
    fail_io("snapshot: fsync dir " + dir, err);
  }
  ::close(dfd);
}

/// Atomically replaces `path` with the concatenation of `parts`:
/// tmp + fsync + rename + directory fsync.
void atomic_write_file(const std::string& path,
                       std::initializer_list<std::pair<const char*, std::size_t>> parts) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail_io("snapshot: open " + tmp, errno);
  try {
    for (const auto& [p, n] : parts)
      write_all_fd(fd, p, n, "snapshot: write " + tmp);
    if (const int err = util::fault_errno("snapshot.save.fsync"))
      fail_io("snapshot: fsync " + tmp, err);
    if (::fsync(fd) != 0) fail_io("snapshot: fsync " + tmp, errno);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());  // never leave a torn tmp behind
    throw;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    fail_io("snapshot: close " + tmp, errno);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    fail_io("snapshot: rename " + tmp + " -> " + path, err);
  }
  fsync_parent_dir(path, "snapshot.save.dirsync");
}

// ---- structural validation ----

/// Validates the frozen core arrays so adversarial indices can never walk
/// out of bounds or loop forever.  `nwords` is the bitset word-pool size
/// every BitsRef must stay inside.
void validate_frozen(const bdd::FlatBddNode* bdd, std::size_t nb,
                     const FlatTreeNode* tree, std::size_t nt, std::int32_t root,
                     std::size_t atom_capacity, const ArenaBox* boxes,
                     std::size_t nboxes, const ArenaPortEntry* ports,
                     std::size_t nports, const ArenaInAcl* acls,
                     std::size_t nacls, std::size_t nwords,
                     const std::string& path) {
  if (nb < 2) fail_corrupt(path, "missing BDD terminals");
  for (std::size_t i = 2; i < nb; ++i) {
    const bdd::FlatBddNode& n = bdd[i];
    if (n.lo >= nb || n.hi >= nb) fail_corrupt(path, "BDD child out of range");
    if (n.var >= PacketHeader::kMaxBits) fail_corrupt(path, "BDD variable out of range");
    // ROBDD invariant: variables strictly increase toward the terminals —
    // also the termination guarantee for the eval walk.
    if (n.lo > bdd::kTrue && bdd[n.lo].var <= n.var)
      fail_corrupt(path, "BDD variable order violated");
    if (n.hi > bdd::kTrue && bdd[n.hi].var <= n.var)
      fail_corrupt(path, "BDD variable order violated");
  }
  if (nt == 0 || root != 0) fail_corrupt(path, "bad tree root");
  for (std::size_t i = 0; i < nt; ++i) {
    const FlatTreeNode& t = tree[i];
    if (t.right == kLeaf) {
      if (t.bdd_root >= atom_capacity)
        fail_corrupt(path, "leaf atom out of range");
    } else {
      if (t.bdd_root >= nb) fail_corrupt(path, "tree predicate out of range");
      // DFS preorder: both children sit strictly after the node (true child
      // is i+1), so every walk makes forward progress and terminates.
      if (t.right <= static_cast<std::int32_t>(i) ||
          t.right >= static_cast<std::int32_t>(nt))
        fail_corrupt(path, "tree edge not DFS-forward");
    }
  }
  const auto bits_ok = [&](const BitsRef& r) {
    if (r.nbits == 0) return true;
    const std::uint64_t wc = r.word_count();
    return r.word_off <= nwords && wc <= nwords - r.word_off;
  };
  for (std::size_t b = 0; b < nboxes; ++b) {
    const ArenaBox& fb = boxes[b];
    if (std::uint64_t{fb.port_begin} + fb.port_count > nports)
      fail_corrupt(path, "box port range out of bounds");
    if (std::uint64_t{fb.acl_begin} + fb.acl_count > nacls)
      fail_corrupt(path, "box ACL range out of bounds");
  }
  for (std::size_t i = 0; i < nports; ++i) {
    const ArenaPortEntry& e = ports[i];
    if (e.peer_box >= static_cast<std::int32_t>(nboxes) || e.peer_box < -1)
      fail_corrupt(path, "peer box out of range");
    if (!bits_ok(e.fwd_atoms) || !bits_ok(e.out_acl_atoms))
      fail_corrupt(path, "port bitset out of bounds");
  }
  for (std::size_t i = 0; i < nacls; ++i)
    if (!bits_ok(acls[i].atoms)) fail_corrupt(path, "ACL bitset out of bounds");
}

/// Validates a whole arena: header sanity, section bounds, the frozen-core
/// structural checks, and the match program's jump targets, word indices and
/// acyclicity (the kernels index headers and code with NO runtime checks and
/// loop until a leaf with no step bound, so both must be proven here).
void validate_arena(const Arena& a, const std::string& path) {
  if (a.size() < sizeof(ArenaHeader)) fail_corrupt(path, "arena shorter than header");
  const ArenaHeader& h = a.header();
  if (std::memcmp(h.magic, ArenaHeader::kMagic, sizeof(h.magic)) != 0)
    fail_corrupt(path, "bad arena magic");
  if (h.layout_version != ArenaHeader::kLayoutVersion)
    fail_corrupt(path, "unsupported arena layout version");
  if (h.arena_bytes != a.size()) fail_corrupt(path, "arena length mismatch");
  constexpr std::uint32_t kKnownFlags = ArenaHeader::kHasMiddleboxes |
                                        ArenaHeader::kTracksVisits |
                                        ArenaHeader::kHasProgram;
  if ((h.flags & ~kKnownFlags) != 0) fail_corrupt(path, "unknown arena flags");
  if (!a.ref_ok<bdd::FlatBddNode>(h.bdd_nodes) || !a.ref_ok<FlatTreeNode>(h.tree) ||
      !a.ref_ok<ArenaBox>(h.boxes) || !a.ref_ok<ArenaPortEntry>(h.ports) ||
      !a.ref_ok<ArenaInAcl>(h.in_acls) || !a.ref_ok<std::uint64_t>(h.words) ||
      !a.ref_ok<MatchInsn>(h.program))
    fail_corrupt(path, "arena section out of bounds");

  validate_frozen(a.ptr<bdd::FlatBddNode>(h.bdd_nodes), h.bdd_nodes.count,
                  a.ptr<FlatTreeNode>(h.tree), h.tree.count, h.tree_root,
                  h.atom_capacity, a.ptr<ArenaBox>(h.boxes), h.boxes.count,
                  a.ptr<ArenaPortEntry>(h.ports), h.ports.count,
                  a.ptr<ArenaInAcl>(h.in_acls), h.in_acls.count, h.words.count,
                  path);

  if ((h.flags & ArenaHeader::kHasProgram) != 0) {
    const MatchInsn* code = a.ptr<MatchInsn>(h.program);
    const std::uint64_t n = h.program.count;
    if (n > MatchProgram::kMaxInstructions) fail_corrupt(path, "program too long");
    const auto jump_ok = [&](std::uint32_t j) {
      const std::uint32_t word =
          (j >> MatchProgram::kWordShift) & MatchProgram::kWordFieldMask;
      if (word >= PacketHeader::kWords32) return false;
      const std::uint32_t target = j & MatchProgram::kTargetMask;
      return (j & MatchProgram::kLeafBit) != 0 ? target < h.atom_capacity
                                               : target < n;
    };
    // The entry carries no word index when leaf-encoded; a non-leaf entry
    // must land inside the code.
    if ((h.program_entry & MatchProgram::kLeafBit) != 0) {
      if ((h.program_entry & MatchProgram::kTargetMask) >= h.atom_capacity)
        fail_corrupt(path, "program entry atom out of range");
    } else if ((h.program_entry & MatchProgram::kTargetMask) >= n) {
      fail_corrupt(path, "program entry out of range");
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      if (!jump_ok(code[i].on_match) || !jump_ok(code[i].on_fail))
        fail_corrupt(path, "program jump out of range");
    }
    // Acyclic jumps (Kahn's algorithm).  Forward-only jumps would be too
    // strict: compile() numbers instructions in DFS preorder, so a shared
    // instruction is legitimately reached backward.  Leaf jumps count
    // against a sink slot `n`, which keeps the passes free of data-dependent
    // branches.
    const std::uint32_t sink = static_cast<std::uint32_t>(n);
    const auto slot = [sink](std::uint32_t j) {
      return (j & MatchProgram::kLeafBit) != 0 ? sink : j & MatchProgram::kTargetMask;
    };
    std::vector<std::uint32_t> indegree(n + 1, 0);
    for (std::uint64_t i = 0; i < n; ++i) {
      ++indegree[slot(code[i].on_match)];
      ++indegree[slot(code[i].on_fail)];
    }
    std::vector<std::uint32_t> ready(n + 1);  // FIFO of pcs whose in-degree hit 0
    std::uint64_t queued = 0;
    for (std::uint32_t pc = 0; pc < sink; ++pc) {
      ready[queued] = pc;
      queued += indegree[pc] == 0;
    }
    for (std::uint64_t head = 0; head < queued; ++head) {
      const MatchInsn& insn = code[ready[head]];
      for (const std::uint32_t t : {slot(insn.on_match), slot(insn.on_fail)}) {
        ready[queued] = t;
        queued += (--indegree[t] == 0) & (t != sink);
      }
    }
    if (queued != n) fail_corrupt(path, "program jump cycle");
  } else if (h.program.count != 0) {
    fail_corrupt(path, "program section without program flag");
  }
}

}  // namespace

void save_snapshot(const FlatSnapshot& snap, const std::string& path) {
  require(!path.empty(), ErrorCode::kInvalidArgument, "save_snapshot: empty path");
  const Arena& arena = *snap.arena_;

  std::string head;
  head.reserve(kV2HeaderBytes);
  put_bytes(head, kMagicV2, sizeof(kMagicV2));
  put_u32(head, kVersion2);
  put_u32(head, kEndianSentinel);
  put_u64(head, arena.size());
  put_u32(head, util::crc32c_mask(util::crc32c(
                    reinterpret_cast<const char*>(arena.base()), arena.size())));
  head.resize(kV2HeaderBytes, '\0');  // pad: the arena starts page-aligned

  atomic_write_file(
      path, {{head.data(), head.size()},
             {reinterpret_cast<const char*>(arena.base()), arena.size()}});
}

std::shared_ptr<const FlatSnapshot> load_snapshot(const std::string& path,
                                                  const FlatSnapshot::Options& opts) {
  if (const int err = util::fault_errno("snapshot.load.read"))
    fail_io("snapshot: read " + path, err);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail_io("snapshot: open " + path, errno);

  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};

  struct ::stat st{};
  if (::fstat(fd, &st) != 0) fail_io("snapshot: stat " + path, errno);
  const std::size_t file_size = static_cast<std::size_t>(st.st_size);

  char magic[8] = {};
  if (file_size < sizeof(magic)) fail_corrupt(path, "file shorter than header");
  read_exact_fd(fd, 0, magic, sizeof(magic), path);
  if (std::memcmp(magic, kMagicV2, sizeof(magic)) != 0)
    fail_corrupt(path, "bad magic");

  if (file_size < kV2HeaderBytes) fail_corrupt(path, "file shorter than header");
  std::string head(kV2HeaderBytes, '\0');
  read_exact_fd(fd, 0, head.data(), head.size(), path);
  Reader hdr{head.data() + sizeof(magic), head.size() - sizeof(magic), path};
  if (hdr.u32() != kVersion2) fail_corrupt(path, "unsupported version");
  if (hdr.u32() != kEndianSentinel) fail_corrupt(path, "endianness mismatch");
  const std::uint64_t arena_len = hdr.u64();
  const std::uint32_t stored_crc = util::crc32c_unmask(hdr.u32());
  // Everything between the fixed fields and the page boundary must be
  // zero: the pad is not CRC-covered, so any flipped bit there is caught
  // here instead of silently accepted.
  for (std::size_t i = 0; i < hdr.left; ++i)
    if (hdr.p[i] != '\0') fail_corrupt(path, "nonzero header padding");
  if (arena_len < sizeof(ArenaHeader) || arena_len % Arena::kAlign != 0)
    fail_corrupt(path, "bad arena length");
  if (file_size != kV2HeaderBytes + arena_len)
    fail_corrupt(path, "file length does not match arena length");

  std::shared_ptr<const Arena> arena;
  if (opts.mmap_load && Arena::mmap_supported()) {
    try {
      arena = Arena::map_file(fd, kV2HeaderBytes, arena_len);
    } catch (const Error&) {
      arena = nullptr;  // e.g. a filesystem that refuses mmap: owned read
    }
  }
  if (arena != nullptr) {
    // Prefault the sections every query touches: the tree and the program.
    if (arena->size() >= sizeof(ArenaHeader)) {
      const ArenaHeader& h = arena->header();
      arena->prefault(h.tree, sizeof(FlatTreeNode));
      arena->prefault(h.program, sizeof(MatchInsn));
    }
  } else {
    // Owned fallback: same bytes, same validation, heap storage.
    const std::size_t alloc = (arena_len + Arena::kAlign - 1) &
                              ~(std::size_t{Arena::kAlign} - 1);
    void* buf = std::aligned_alloc(Arena::kAlign, alloc);
    if (buf == nullptr)
      throw Error(ErrorCode::kResourceExhausted, "snapshot: arena allocation");
    try {
      read_exact_fd(fd, kV2HeaderBytes, buf, arena_len, path);
    } catch (...) {
      std::free(buf);
      throw;
    }
    arena = Arena::adopt_owned(buf, arena_len);
  }

  if (util::crc32c(reinterpret_cast<const char*>(arena->base()),
                   arena->size()) != stored_crc)
    fail_corrupt(path, "checksum mismatch");
  validate_arena(*arena, path);
  return FlatSnapshot::from_arena(std::move(arena), opts);
}

}  // namespace apc::engine
