#ifndef HC2L_COMMON_MMAP_FILE_H_
#define HC2L_COMMON_MMAP_FILE_H_

/// Read-only memory-mapped file, the substrate of OpenMode::kMmap. The
/// mapping is shared (shared_ptr) between an index and any clones-in-flight
/// so the pages stay valid for as long as any label-arena view points into
/// them. PROT_READ only: a stray write through a mapped index is a fault,
/// not silent file corruption.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace hc2l {

class MappedFile {
 public:
  /// Maps `path` read-only. Returns nullptr on any failure (missing file,
  /// empty file, mmap refusal) — callers report it as a load error.
  static std::shared_ptr<MappedFile> Open(const std::string& path);

  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

  /// Reserves `size` bytes of address space for this process alone:
  /// PROT_NONE, no backing, nothing readable until MapInto fills it (a
  /// shard manifest's member slices are mapped into one such range, so its
  /// arenas are contiguous views). nullptr when it cannot be reserved.
  static std::shared_ptr<MappedFile> Reserve(size_t size);

  /// Maps `bytes` of the open file `fd` from `file_offset`, read-only, at
  /// `offset` inside this reservation (MAP_FIXED; all three page multiples,
  /// the range inside the reservation). False on failure.
  bool MapInto(size_t offset, int fd, uint64_t file_offset, size_t bytes);

  static size_t PageSize();

  /// madvise(MADV_RANDOM) on the byte range [offset, offset + bytes): label
  /// lookups are pointer-chases, so read-ahead only pollutes the page
  /// cache. Best effort; rounding to page boundaries happens here.
  void AdviseRandom(size_t offset, size_t bytes) const;

 private:
  MappedFile(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace hc2l

#endif  // HC2L_COMMON_MMAP_FILE_H_
