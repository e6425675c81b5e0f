#ifndef HC2L_COMMON_BINARY_IO_H_
#define HC2L_COMMON_BINARY_IO_H_

/// Minimal binary serialization helpers shared by the index and hierarchy
/// Save/Load paths (no exceptions; plain fwrite/fread). The read side goes
/// through a bounded Reader that knows how many bytes the file still holds:
/// every size field is validated against that bound BEFORE any allocation, so a
/// bit-flipped or truncated size field becomes a clean load failure instead of
/// a multi-gigabyte resize (which would throw bad_alloc — an abort under this
/// library's no-exceptions policy) or an out-of-memory kill. Pinned by
/// tests/load_fuzz_test.cc over systematic truncations and seeded bit flips of
/// every format. The label stores themselves are written and read by the
/// section codec (common/section_file.h).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "common/fault_injection.h"

namespace hc2l::io {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

inline bool WritePod(std::FILE* f, const void* p, size_t bytes) {
  return std::fwrite(p, 1, bytes, f) == bytes;
}

template <typename T>
bool WriteValue(std::FILE* f, const T& value) {
  return WritePod(f, &value, sizeof(T));
}

template <typename T>
bool WriteVector(std::FILE* f, const std::vector<T>& v) {
  const uint64_t size = v.size();
  return WriteValue(f, size) &&
         (size == 0 || WritePod(f, v.data(), size * sizeof(T)));
}

/// Bounded read cursor over an open file. Construction measures how many
/// bytes remain between the current position and EOF (via fseek/ftell);
/// every Read decrements the bound and fails before touching the file once
/// the bound is exhausted — so a size field can never make a loader
/// allocate more than the file could possibly back. The "index.load.read"
/// fault point fails individual reads under HC2L_FAULT_INJECTION, driving
/// the mid-load-failure chaos cases.
class Reader {
 public:
  /// `f` must be a regular (seekable) file; on a non-seekable stream every
  /// read fails, which the loaders report as data loss.
  explicit Reader(std::FILE* f) : f_(f) {
    const long pos = std::ftell(f);
    if (pos >= 0 && std::fseek(f, 0, SEEK_END) == 0) {
      const long end = std::ftell(f);
      if (end >= pos) remaining_ = static_cast<uint64_t>(end - pos);
      if (std::fseek(f, pos, SEEK_SET) != 0) remaining_ = 0;
    }
  }

  /// Memory-backed cursor over `bytes` at `data`: mmap opens parse the
  /// meta section straight out of the file mapping, through the
  /// same bounded interface (and the same fault point) as the file path.
  Reader(const uint8_t* data, uint64_t bytes) : mem_(data), remaining_(bytes) {}

  bool Read(void* p, size_t bytes) {
    if (HC2L_FAULT_SHOULD_FAIL("index.load.read")) return false;
    if (bytes > remaining_) return false;
    if (mem_ != nullptr) {
      std::memcpy(p, mem_, bytes);
      mem_ += bytes;
    } else if (std::fread(p, 1, bytes, f_) != bytes) {
      return false;
    }
    remaining_ -= bytes;
    return true;
  }

  /// Bytes left in the file — the hard upper bound for any claimed size.
  uint64_t remaining() const { return remaining_; }

  /// Tightens the bound to `bytes` (no-op when the file holds less). Used
  /// by the section codec: a section's parser is clamped to that section
  /// so a corrupt size field cannot read into the next one.
  void LimitTo(uint64_t bytes) {
    if (bytes < remaining_) remaining_ = bytes;
  }

  /// True when `count` elements of `elem_bytes` each could still be backed
  /// by the file. Overflow-safe: implies count * elem_bytes <= remaining().
  bool CanHold(uint64_t count, size_t elem_bytes) const {
    return count <= remaining_ / elem_bytes;
  }

 private:
  std::FILE* f_ = nullptr;
  const uint8_t* mem_ = nullptr;
  uint64_t remaining_ = 0;
};

template <typename T>
bool ReadValue(Reader* r, T* value) {
  return r->Read(value, sizeof(T));
}

template <typename T>
bool ReadVector(Reader* r, std::vector<T>* v) {
  uint64_t size = 0;
  if (!ReadValue(r, &size)) return false;
  if (!r->CanHold(size, sizeof(T))) return false;  // cannot be backed: corrupt
  v->resize(size);
  return size == 0 || r->Read(v->data(), size * sizeof(T));
}

}  // namespace hc2l::io

#endif  // HC2L_COMMON_BINARY_IO_H_
