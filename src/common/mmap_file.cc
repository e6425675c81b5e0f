#include "common/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>

namespace hc2l {

std::shared_ptr<MappedFile> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return nullptr;
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return nullptr;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the pages alive without the descriptor
  if (base == MAP_FAILED) return nullptr;
  return std::shared_ptr<MappedFile>(
      new MappedFile(static_cast<const uint8_t*>(base), size));
}

std::shared_ptr<MappedFile> MappedFile::Reserve(size_t size) {
  if (size == 0) return nullptr;
  void* base = ::mmap(nullptr, size, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) return nullptr;
  return std::shared_ptr<MappedFile>(
      new MappedFile(static_cast<const uint8_t*>(base), size));
}

bool MappedFile::MapInto(size_t offset, int fd, uint64_t file_offset,
                         size_t bytes) {
  if (offset > size_ || bytes > size_ - offset) return false;
  void* at = const_cast<uint8_t*>(data_) + offset;
  void* mapped = ::mmap(at, bytes, PROT_READ, MAP_PRIVATE | MAP_FIXED, fd,
                        static_cast<off_t>(file_offset));
  return mapped == at;
}

size_t MappedFile::PageSize() {
  return static_cast<size_t>(::sysconf(_SC_PAGESIZE));
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

void MappedFile::AdviseRandom(size_t offset, size_t bytes) const {
  if (bytes == 0 || offset >= size_) return;
  const size_t page = PageSize();
  const size_t begin = offset & ~(page - 1);
  const size_t end = offset + std::min(bytes, size_ - offset);
  [[maybe_unused]] const int rc =
      ::madvise(const_cast<uint8_t*>(data_) + begin, end - begin, MADV_RANDOM);
}

}  // namespace hc2l
