#include "io/mmap_arena.h"

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#if defined(_WIN32)
#define VIPTREE_HAS_MMAP 0
#else
#define VIPTREE_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace viptree {
namespace io {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::Error(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

MmapArena& MmapArena::operator=(MmapArena&& other) noexcept {
  if (this != &other) {
    Release();
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    heap_ = std::move(other.heap_);
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

void MmapArena::Release() {
#if VIPTREE_HAS_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  heap_.clear();
  heap_.shrink_to_fit();
}

Status MmapArena::Map(const std::string& path, MmapArena* out,
                      bool allow_mmap) {
  out->Release();
#if VIPTREE_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Errno("cannot open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = Errno("cannot stat", path);
    ::close(fd);
    return status;
  }
  if (S_ISDIR(st.st_mode)) {
    ::close(fd);
    return Status::Error("cannot open '" + path + "': is a directory");
  }
  const size_t size = static_cast<size_t>(st.st_size);

  if (allow_mmap && size > 0) {
    void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (mapping != MAP_FAILED) {
      ::close(fd);
      out->data_ = static_cast<const uint8_t*>(mapping);
      out->size_ = size;
      out->mapped_ = true;
      return Status::Ok();
    }
    // Fall through to the heap read (e.g. a filesystem without mmap).
  }

  out->heap_.resize(size);
  uint8_t* dst = out->heap_.data();
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, dst + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Errno("cannot read", path);
      ::close(fd);
      out->Release();
      return status;
    }
    if (n == 0) break;  // file shrank underneath us; decoder will reject
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  out->data_ = dst;
  out->size_ = done;
  out->mapped_ = false;
  return Status::Ok();
#else
  (void)allow_mmap;
  std::vector<uint8_t> bytes;
  Status status = ReadFileBytes(path, &bytes);
  if (!status.ok()) return status;
  out->heap_.assign(bytes.begin(), bytes.end());
  out->data_ = out->heap_.data();
  out->size_ = out->heap_.size();
  out->mapped_ = false;
  return Status::Ok();
#endif
}

}  // namespace io
}  // namespace viptree
