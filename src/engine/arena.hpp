// Arena — a single relocatable, page-aligned, offset-addressed allocation
// holding everything a frozen FlatSnapshot needs at query time: the flat BDD
// node array, the DFS-preorder tree, the stage-2 boxes/ports/ACL records,
// the shared bitset word pool, the compiled match program, and the atom
// metadata (header).
//
// Why one arena instead of a bag of vectors: the on-disk snapshot format can
// then BE the in-memory format.  Every internal reference is a byte offset
// from the arena base (ArenaRef) or a word index into the shared bitset pool
// (BitsRef) — never a pointer — so the same bytes are valid at any base
// address.  snapshot_io.cpp saves an arena with one contiguous write and
// restores it either by mmap'ing the file (warm restore costs page faults,
// not a parse) or by reading it into an owned buffer when mmap is
// unavailable (APC_FORCE_NO_MMAP, non-POSIX) or disabled by options.
//
// Invariants (enforced by ArenaBuilder, revalidated by snapshot_io on load):
//   * The ArenaHeader lives at offset 0; `magic`/`layout_version` gate every
//     other read.
//   * Every section offset is kAlign (64)-byte aligned and the payload of
//     section records is plain-old-data with fixed sizes (static_asserts
//     below), so in-place reinterpret_cast is portable across processes of
//     the same ABI (the file header's endian sentinel rejects the rest).
//   * Sections never overlap and stay inside [0, size) — ref_ok() is the
//     loader's bounds check.
//   * Bytes between sections (alignment padding, header reserve) are zero,
//     so a saved arena's CRC is a pure function of its logical content.
//
// Lifetime: arenas are immutable after ArenaBuilder::finish() and always
// held by shared_ptr<const Arena>.  FlatSnapshot keeps one reference and the
// adopted MatchProgram keeps another, so RCU republication can retire a
// snapshot whose storage is a mapped file safely: the munmap happens only
// when the last reader drops its reference.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "packet/header.hpp"
#include "util/error.hpp"

namespace apc::engine {

/// A section of the arena: `off` bytes from the arena base, `count`
/// elements.  The element size is implied by the section (the templated
/// accessors take it), keeping the record layout-version-stable.
struct ArenaRef {
  std::uint64_t off = 0;
  std::uint64_t count = 0;
};
static_assert(sizeof(ArenaRef) == 16);

/// A bitset stored in the arena's shared word pool: `word_off` indexes u64
/// words (not bytes), `nbits` is the logical domain.  nbits == 0 is the
/// frozen form of a deleted predicate: test() is false for every atom.
struct BitsRef {
  std::uint64_t word_off = 0;
  std::uint64_t nbits = 0;

  std::uint64_t word_count() const { return (nbits + 63) / 64; }
  /// Test bit `i` against the pool this ref indexes into.
  bool test(const std::uint64_t* pool, std::size_t i) const {
    return i < nbits && ((pool[word_off + (i >> 6)] >> (i & 63)) & 1) != 0;
  }
};
static_assert(sizeof(BitsRef) == 16);

/// Frozen per-port stage-2 entry (one element of the global `ports`
/// section; a box's ports are the contiguous run its ArenaBox names).
struct ArenaPortEntry {
  std::uint32_t port = 0;
  std::int32_t peer_box = -1;  ///< -1: host port (delivery terminates)
  std::uint32_t peer_port = 0;
  std::uint32_t has_out_acl = 0;
  BitsRef fwd_atoms;     ///< forwarding set R(p)
  BitsRef out_acl_atoms;
};
static_assert(sizeof(ArenaPortEntry) == 48);

/// Frozen input-ACL slot (indexed by in-port within a box's `acl` run).
struct ArenaInAcl {
  std::uint32_t present = 0;
  std::uint32_t pad_ = 0;
  BitsRef atoms;
};
static_assert(sizeof(ArenaInAcl) == 24);

/// One network box: index ranges into the global `ports` / `in_acls`
/// sections.
struct ArenaBox {
  std::uint32_t port_begin = 0;
  std::uint32_t port_count = 0;
  std::uint32_t acl_begin = 0;
  std::uint32_t acl_count = 0;
};
static_assert(sizeof(ArenaBox) == 16);

/// A set of header bits, one word per PacketHeader word: header bit v is
/// bit v & 63 of word v >> 6.
using HeaderBits = std::array<std::uint64_t, PacketHeader::kWords>;

/// Offset 0 of every arena.  192 bytes = 3 cache lines, all sections named
/// by ArenaRef so the layout can evolve without moving the header.
struct ArenaHeader {
  static constexpr char kMagic[8] = {'A', 'P', 'C', 'A', 'R', 'N', 'A', '1'};
  static constexpr std::uint32_t kLayoutVersion = 1;

  enum Flags : std::uint32_t {
    kHasMiddleboxes = 1u << 0,
    kTracksVisits = 1u << 1,
    kHasProgram = 1u << 2,  ///< the `program` section holds a compiled MatchProgram;
                            ///< a loaded arena without it is refused
  };

  char magic[8] = {};
  std::uint32_t layout_version = 0;
  std::uint32_t flags = 0;
  std::uint64_t arena_bytes = 0;  ///< total size including this header
  std::uint64_t atom_capacity = 0;
  std::int32_t tree_root = -1;
  std::uint32_t program_entry = 0;  ///< MatchProgram entry jump (valid iff kHasProgram)
  /// Union of header bits any frozen BDD node tests: engine::prove_program
  /// bounds every atom's support by it.  Persisted so a mapped load never
  /// re-derives it.
  std::uint64_t tested_bits[PacketHeader::kWords] = {};

  ArenaRef bdd_nodes;  ///< bdd::FlatBddNode
  ArenaRef tree;       ///< FlatTreeNode
  ArenaRef boxes;      ///< ArenaBox
  ArenaRef ports;      ///< ArenaPortEntry
  ArenaRef in_acls;    ///< ArenaInAcl
  ArenaRef words;      ///< std::uint64_t bitset word pool
  ArenaRef program;    ///< MatchInsn
};
static_assert(PacketHeader::kWords == 5, "ArenaHeader::tested_bits layout");
static_assert(sizeof(ArenaHeader) == 192, "header must stay 3 cache lines");

class Arena {
 public:
  static constexpr std::size_t kAlign = 64;

  enum class Storage : std::uint8_t {
    kOwned,   ///< 64-byte-aligned heap buffer this Arena frees
    kMapped,  ///< read-only file mapping this Arena munmaps
  };

  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  const std::byte* base() const { return base_; }
  std::size_t size() const { return size_; }
  Storage storage() const { return storage_; }
  bool mapped() const { return storage_ == Storage::kMapped; }
  const ArenaHeader& header() const {
    return *reinterpret_cast<const ArenaHeader*>(base_);
  }

  template <typename T>
  const T* ptr(const ArenaRef& r) const {
    return reinterpret_cast<const T*>(base_ + r.off);
  }

  /// Loader-side bounds check: the section lies inside the arena, is
  /// kAlign-aligned, and count * sizeof(T) does not overflow.
  template <typename T>
  bool ref_ok(const ArenaRef& r) const {
    if (r.count == 0) return r.off <= size_;
    if (r.off % kAlign != 0 || r.off < sizeof(ArenaHeader) || r.off > size_)
      return false;
    return r.count <= (size_ - r.off) / sizeof(T);
  }

  /// Hints the kernel to fault in a section ahead of use (madvise
  /// WILLNEED).  No-op for owned storage or when mmap support is compiled
  /// out.  Never fails: prefaulting is purely advisory.
  void prefault(const ArenaRef& r, std::size_t elem_size) const;

  /// Wraps a buffer produced by ArenaBuilder (64-byte-aligned, allocated
  /// with std::aligned_alloc; ownership transfers).
  static std::shared_ptr<const Arena> adopt_owned(void* buf, std::size_t size);

  /// Maps `[file_offset, file_offset + len)` of `fd` read-only and treats it
  /// as the arena (file_offset must be page-aligned; the fd may be closed by
  /// the caller afterwards).  Throws Error(kIo) on mmap failure and
  /// Error(kUnavailable) when mmap support is compiled out
  /// (APC_FORCE_NO_MMAP) — callers fall back to an owned read.
  static std::shared_ptr<const Arena> map_file(int fd, std::size_t file_offset,
                                               std::size_t len);

  /// False when the mmap path is compiled out (APC_FORCE_NO_MMAP or a
  /// non-POSIX build) — load_snapshot then always takes the owned-read path.
  static bool mmap_supported();

 private:
  Arena() = default;

  const std::byte* base_ = nullptr;
  std::size_t size_ = 0;
  Storage storage_ = Storage::kOwned;
  void* map_addr_ = nullptr;  ///< mmap base (== base_ - page offset slack)
  std::size_t map_len_ = 0;
};

/// Two-phase builder: reserve() every section (recording 64-byte-aligned
/// offsets), allocate() once, copy the payloads in, finish().  The single
/// exact-size aligned allocation is what makes "save = one contiguous
/// write" true, and the zero-fill before the copies is what makes padding
/// deterministic.
class ArenaBuilder {
 public:
  ArenaBuilder() { cursor_ = align_up(sizeof(ArenaHeader)); }
  ~ArenaBuilder();
  ArenaBuilder(const ArenaBuilder&) = delete;
  ArenaBuilder& operator=(const ArenaBuilder&) = delete;

  /// Phase 1: lay out a section of `count` elements of type T.
  template <typename T>
  ArenaRef reserve(std::size_t count) {
    require(buf_ == nullptr, "ArenaBuilder: reserve after allocate");
    ArenaRef r;
    r.off = cursor_;
    r.count = count;
    cursor_ = align_up(cursor_ + count * sizeof(T));
    return r;
  }

  /// Phase 2: allocate the zero-filled buffer (all reserves done).
  void allocate();

  /// Phase 3: writable view of a reserved section.
  template <typename T>
  T* section(const ArenaRef& r) {
    require(buf_ != nullptr, "ArenaBuilder: section before allocate");
    return reinterpret_cast<T*>(static_cast<std::byte*>(buf_) + r.off);
  }
  /// The header (valid after allocate; magic/version/arena_bytes are set by
  /// allocate, everything else is the caller's).
  ArenaHeader& header() {
    require(buf_ != nullptr, "ArenaBuilder: header before allocate");
    return *static_cast<ArenaHeader*>(buf_);
  }

  /// Seals the arena and transfers ownership.
  std::shared_ptr<const Arena> finish();

 private:
  static std::size_t align_up(std::size_t n) {
    return (n + Arena::kAlign - 1) & ~(Arena::kAlign - 1);
  }

  std::size_t cursor_ = 0;
  std::size_t size_ = 0;
  void* buf_ = nullptr;
};

}  // namespace apc::engine
