// MmapArena: an immutable byte arena backing a zero-copy snapshot load. On
// POSIX hosts the file is mapped read-only (MAP_PRIVATE), so standing up an
// engine touches only the pages the decoder actually reads —
// O(resident-pages) memory per venue, the property the multi-venue
// VenueRegistry relies on. Where mmap is unavailable (or fails, e.g. on a
// filesystem without mmap support) the arena falls back to a 64-byte-
// aligned heap buffer (common/aligned.h) filled by a plain read; callers
// cannot tell the difference except through mapped(). Either way data() is
// at least 64-byte aligned (page-aligned when mapped), so FlatMatrix rows
// aliased out of the arena are SIMD-loadable in both modes.
//
// Lifetime: Storage<T> views created over the arena's bytes do NOT keep it
// alive (common/storage.h); the owner of the views (engine::VenueBundle)
// must hold the arena for as long as any index aliases it.

#ifndef VIPTREE_IO_MMAP_ARENA_H_
#define VIPTREE_IO_MMAP_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/aligned.h"
#include "common/span.h"
#include "io/binary_io.h"

namespace viptree {
namespace io {

class MmapArena {
 public:
  MmapArena() = default;
  ~MmapArena() { Release(); }

  MmapArena(MmapArena&& other) noexcept { *this = std::move(other); }
  MmapArena& operator=(MmapArena&& other) noexcept;

  MmapArena(const MmapArena&) = delete;
  MmapArena& operator=(const MmapArena&) = delete;

  // Maps `path` read-only into `out` (replacing its previous contents).
  // Falls back to a heap read when mmap is unavailable; pass
  // `allow_mmap = false` to force the heap path (benchmarks compare both).
  // Errors (missing file, directory, I/O failure) come back as a Status
  // with a human-readable message.
  static Status Map(const std::string& path, MmapArena* out,
                    bool allow_mmap = true);

  // The whole arena. data() is at least 64-byte aligned (page-aligned when
  // mapped, kIndexBufferAlign on the heap path), which lets the v2
  // snapshot decoder alias u64/f64 arrays in place and keeps them
  // SIMD-loadable.
  Span<const uint8_t> bytes() const { return {data_, size_}; }
  size_t size() const { return size_; }

  // True when the bytes are a file mapping (paged lazily), false for the
  // heap fallback (fully resident).
  bool mapped() const { return mapped_; }

  // Returns the arena's resident file-backed pages to the OS
  // (madvise(MADV_DONTNEED) on the read-only private mapping — later
  // accesses transparently re-fault from the file). Returns the number of
  // bytes advised, 0 for heap-backed arenas or hosts without madvise.
  // Const because page residency is not logical state: the bytes read back
  // identical. Safe to call concurrently with readers — dropped pages
  // re-fault, they do not invalidate.
  size_t DropResidentPages() const;

 private:
  void Release();

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  AlignedVector<uint8_t> heap_;  // fallback buffer, 64-byte aligned
};

}  // namespace io
}  // namespace viptree

#endif  // VIPTREE_IO_MMAP_ARENA_H_
