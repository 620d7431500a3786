// Low-level binary serialization: an append-only little-endian Writer, a
// bounds-checked Reader with sticky error reporting, CRC-32 checksums, and
// whole-file helpers. Byte order is fixed little-endian regardless of host,
// so snapshots are portable across machines ("build once, load anywhere");
// on little-endian hosts every scalar and array moves with memcpy, so the
// load path runs at memory bandwidth rather than a byte at a time.
//
// Error model (no exceptions, matching the rest of the library): the Reader
// records the *first* failure and every subsequent read returns a default
// value without advancing, so decoding code can run straight-line and check
// ok() once at the end. File helpers return a Status with a human-readable
// message instead of aborting — a corrupted or truncated snapshot must be a
// reportable condition, never a crash.

#ifndef VIPTREE_IO_BINARY_IO_H_
#define VIPTREE_IO_BINARY_IO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/span.h"

namespace viptree {
namespace io {

// Outcome of an I/O operation; empty error means success.
struct Status {
  std::string error;

  bool ok() const { return error.empty(); }
  static Status Ok() { return Status{}; }
  static Status Error(std::string message) { return Status{std::move(message)}; }
};

// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, slice-by-8) over `size` bytes,
// seeded by `seed` so checksums can be computed incrementally.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

namespace detail {

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
inline constexpr bool kHostIsLittleEndian = false;
#else
inline constexpr bool kHostIsLittleEndian = true;
#endif

inline uint16_t ByteSwap(uint16_t v) { return __builtin_bswap16(v); }
inline uint32_t ByteSwap(uint32_t v) { return __builtin_bswap32(v); }
inline uint64_t ByteSwap(uint64_t v) { return __builtin_bswap64(v); }

template <typename T>
inline T ToLittle(T v) {
  return kHostIsLittleEndian ? v : ByteSwap(v);
}

}  // namespace detail

// Append-only little-endian encoder.
class Writer {
 public:
  void U8(uint8_t v) { buffer_.push_back(v); }
  void U32(uint32_t v) { AppendScalar(detail::ToLittle(v)); }
  void U64(uint64_t v) { AppendScalar(detail::ToLittle(v)); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void F32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U32(bits);
  }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void String(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void Bytes(const void* data, size_t size) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buffer_.insert(buffer_.end(), p, p + size);
  }

  // Bulk little-endian array appends (single memcpy on LE hosts).
  void I32Array(Span<const int32_t> v) {
    AppendArray(Span<const uint32_t>(
        reinterpret_cast<const uint32_t*>(v.data()), v.size()));
  }
  void F64Array(Span<const double> v) {
    AppendArray(Span<const uint64_t>(
        reinterpret_cast<const uint64_t*>(v.data()), v.size()));
  }

  size_t size() const { return buffer_.size(); }
  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buffer_); }

 private:
  template <typename T>
  void AppendScalar(T little) {
    const size_t at = buffer_.size();
    buffer_.resize(at + sizeof(T));
    std::memcpy(buffer_.data() + at, &little, sizeof(T));
  }

  template <typename T>
  void AppendArray(Span<const T> v) {
    if (detail::kHostIsLittleEndian) {
      const size_t at = buffer_.size();
      buffer_.resize(at + v.size() * sizeof(T));
      if (!v.empty()) {
        std::memcpy(buffer_.data() + at, v.data(), v.size() * sizeof(T));
      }
    } else {
      for (T x : v) AppendScalar(detail::ByteSwap(x));
    }
  }

  std::vector<uint8_t> buffer_;
};

// Bounds-checked little-endian decoder over a borrowed byte range.
class Reader {
 public:
  explicit Reader(Span<const uint8_t> data) : data_(data) {}

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  size_t position() const { return pos_; }
  size_t remaining() const { return ok() ? data_.size() - pos_ : 0; }

  // Records the first failure; subsequent reads return defaults.
  void Fail(std::string message) {
    if (error_.empty()) error_ = std::move(message);
  }

  uint8_t U8() {
    if (!Want(1, "u8")) return 0;
    return data_[pos_++];
  }
  uint32_t U32() { return ReadScalar<uint32_t>("u32"); }
  uint64_t U64() { return ReadScalar<uint64_t>("u64"); }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  float F32() {
    const uint32_t bits = U32();
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string String() {
    const uint64_t size = U64();
    if (!Want(size, "string payload")) return {};
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), size);
    pos_ += size;
    return s;
  }
  // Borrows `size` raw bytes from the underlying buffer.
  Span<const uint8_t> Raw(uint64_t size) {
    if (!Want(size, "raw bytes")) return {};
    const Span<const uint8_t> out{data_.data() + pos_,
                                  static_cast<size_t>(size)};
    pos_ += size;
    return out;
  }

  // Bulk little-endian array reads into pre-sized destinations (single
  // memcpy on LE hosts). On failure the destination contents are
  // unspecified and the reader carries the error.
  void I32Array(int32_t* out, size_t n) {
    ReadArray(reinterpret_cast<uint32_t*>(out), n);
  }
  void F64Array(double* out, size_t n) {
    ReadArray(reinterpret_cast<uint64_t*>(out), n);
  }

  // Reads a u64 element count and fails (with `what` in the message) if the
  // remaining bytes cannot possibly hold that many `element_size`d items —
  // the guard that keeps a corrupted count from driving a giant allocation.
  uint64_t ArraySize(size_t element_size, const char* what) {
    const uint64_t count = U64();
    if (ok() && element_size != 0 &&
        count > (data_.size() - pos_) / element_size) {
      Fail(std::string("truncated: ") + what + " claims " +
           std::to_string(count) + " elements but only " +
           std::to_string(data_.size() - pos_) + " bytes remain");
    }
    return ok() ? count : 0;
  }

 private:
  bool Want(uint64_t bytes, const char* what) {
    if (!ok()) return false;
    if (bytes > data_.size() - pos_) {
      Fail(std::string("truncated while reading ") + what + " at offset " +
           std::to_string(pos_));
      return false;
    }
    return true;
  }

  template <typename T>
  T ReadScalar(const char* what) {
    if (!Want(sizeof(T), what)) return 0;
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return detail::ToLittle(v);
  }

  template <typename T>
  void ReadArray(T* out, size_t n) {
    if (n > data_.size() / sizeof(T)) {  // n * sizeof(T) cannot overflow
      Fail("truncated: array payload larger than the buffer");
      return;
    }
    if (!Want(n * sizeof(T), "array payload")) return;
    if (n != 0) std::memcpy(out, data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    if (!detail::kHostIsLittleEndian) {
      for (size_t i = 0; i < n; ++i) out[i] = detail::ByteSwap(out[i]);
    }
  }

  Span<const uint8_t> data_;
  size_t pos_ = 0;
  std::string error_;
};

// Writes `bytes` to `path` atomically enough for snapshots (write to the
// final path directly; partial writes are caught by checksums on load).
Status WriteFileBytes(const std::string& path, Span<const uint8_t> bytes);

// Reads the whole file into `out`.
Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out);

}  // namespace io
}  // namespace viptree

#endif  // VIPTREE_IO_BINARY_IO_H_
