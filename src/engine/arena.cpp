#include "engine/arena.hpp"

#include <cstdlib>
#include <cstring>

// The mmap path is POSIX-only and can be compiled out to prove the fallback
// (CMake option APC_FORCE_NO_MMAP, exercised by a dedicated CI job).
#if !defined(APC_FORCE_NO_MMAP) && defined(__unix__)
#define APC_HAVE_MMAP 1
#include <sys/mman.h>
#include <unistd.h>
#else
#define APC_HAVE_MMAP 0
#endif

namespace apc::engine {

Arena::~Arena() {
  if (storage_ == Storage::kOwned) {
    std::free(const_cast<std::byte*>(base_));
  } else {
#if APC_HAVE_MMAP
    if (map_addr_ != nullptr) ::munmap(map_addr_, map_len_);
#endif
  }
}

std::shared_ptr<const Arena> Arena::adopt_owned(void* buf, std::size_t size) {
  auto a = std::shared_ptr<Arena>(new Arena());
  a->base_ = static_cast<const std::byte*>(buf);
  a->size_ = size;
  a->storage_ = Storage::kOwned;
  return a;
}

bool Arena::mmap_supported() { return APC_HAVE_MMAP != 0; }

std::shared_ptr<const Arena> Arena::map_file(int fd, std::size_t file_offset,
                                             std::size_t len) {
#if APC_HAVE_MMAP
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  require(file_offset % page == 0, ErrorCode::kInvalidArgument,
          "Arena::map_file: offset not page-aligned");
  // Map from file offset 0 so any page size works; the arena base is the
  // page-aligned map plus the (page-multiple) header offset.
  const std::size_t map_len = file_offset + len;
  void* addr = ::mmap(nullptr, map_len, PROT_READ, MAP_PRIVATE, fd, 0);
  if (addr == MAP_FAILED)
    throw Error(ErrorCode::kIo, std::string("Arena::map_file: mmap: ") +
                                    std::strerror(errno));
  auto a = std::shared_ptr<Arena>(new Arena());
  a->map_addr_ = addr;
  a->map_len_ = map_len;
  a->base_ = static_cast<const std::byte*>(addr) + file_offset;
  a->size_ = len;
  a->storage_ = Storage::kMapped;
  return a;
#else
  (void)fd;
  (void)file_offset;
  (void)len;
  throw Error(ErrorCode::kUnavailable, "Arena::map_file: mmap compiled out");
#endif
}

void Arena::prefault(const ArenaRef& r, std::size_t elem_size) const {
#if APC_HAVE_MMAP
  if (storage_ != Storage::kMapped || r.count == 0) return;
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::uintptr_t begin =
      reinterpret_cast<std::uintptr_t>(base_ + r.off) & ~(page - 1);
  const std::uintptr_t end =
      reinterpret_cast<std::uintptr_t>(base_ + r.off + r.count * elem_size);
  ::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_WILLNEED);
#else
  (void)r;
  (void)elem_size;
#endif
}

ArenaBuilder::~ArenaBuilder() { std::free(buf_); }

void ArenaBuilder::allocate() {
  require(buf_ == nullptr, "ArenaBuilder: allocate twice");
  // aligned_alloc wants the size to be a multiple of the alignment; the
  // cursor already is (reserve() rounds).
  size_ = cursor_;
  buf_ = std::aligned_alloc(Arena::kAlign, size_);
  require(buf_ != nullptr, ErrorCode::kResourceExhausted,
          "ArenaBuilder: allocation failed");
  std::memset(buf_, 0, size_);
  ArenaHeader& h = *static_cast<ArenaHeader*>(buf_);
  std::memcpy(h.magic, ArenaHeader::kMagic, sizeof(h.magic));
  h.layout_version = ArenaHeader::kLayoutVersion;
  h.arena_bytes = size_;
}

std::shared_ptr<const Arena> ArenaBuilder::finish() {
  require(buf_ != nullptr, "ArenaBuilder: finish before allocate");
  void* buf = buf_;
  const std::size_t size = size_;
  buf_ = nullptr;
  size_ = 0;
  return Arena::adopt_owned(buf, size);
}

}  // namespace apc::engine
