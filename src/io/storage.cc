#include "io/storage.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace sj {

Result<const uint8_t*> StorageBackend::ViewPage(uint64_t page,
                                                uint8_t* scratch) {
  SJ_RETURN_IF_ERROR(ReadPage(page, scratch));
  return scratch;
}

// The mutex guards only the page *table*; the 8 KB copies and in-place
// views run outside it. Safe because a page's allocation is created once
// and never freed or replaced while the backend lives (the table only
// grows, and vector reallocation moves the unique_ptrs, not the blocks
// they own), so a pointer fetched under the lock stays valid: that is
// also what keeps a ViewPage result valid. Concurrent access to the
// *same* page's bytes remains the caller's contract, as before — this
// only stops distinct-page readers and writers (parallel run formation,
// parallel refinement) from serializing on one lock per 8 KB copy.
const uint8_t* MemoryBackend::Block(uint64_t page) const {
  std::lock_guard<std::mutex> lock(mu_);
  return page < pages_.size() ? pages_[page].get() : nullptr;
}

Status MemoryBackend::ReadPage(uint64_t page, void* buf) {
  const uint8_t* src = Block(page);
  if (src == nullptr) {
    std::memset(buf, 0, kPageSize);
    return Status::OK();
  }
  std::memcpy(buf, src, kPageSize);
  return Status::OK();
}

Result<const uint8_t*> MemoryBackend::ViewPage(uint64_t page,
                                               uint8_t* scratch) {
  const uint8_t* src = Block(page);
  if (src != nullptr) return src;
  std::memset(scratch, 0, kPageSize);
  return scratch;
}

Status MemoryBackend::WritePage(uint64_t page, const void* buf) {
  uint8_t* dst = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (page >= pages_.size()) pages_.resize(page + 1);
    if (pages_[page] == nullptr) {
      pages_[page] = std::make_unique<uint8_t[]>(kPageSize);
    }
    dst = pages_[page].get();
  }
  std::memcpy(dst, buf, kPageSize);
  return Status::OK();
}

namespace io_internal {

Result<size_t> ReadFull(const PReadFn& pread_fn, void* buf, size_t len,
                        off_t offset) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = pread_fn(static_cast<uint8_t*>(buf) + got, len - got,
                               offset + static_cast<off_t>(got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pread: ") + std::strerror(errno));
    }
    if (n == 0) break;  // EOF; the caller judges whether it is legitimate.
    got += static_cast<size_t>(n);
  }
  return got;
}

Status WriteFull(const PWriteFn& pwrite_fn, const void* buf, size_t len,
                 off_t offset) {
  size_t put = 0;
  while (put < len) {
    const ssize_t n =
        pwrite_fn(static_cast<const uint8_t*>(buf) + put, len - put,
                  offset + static_cast<off_t>(put));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pwrite: ") + std::strerror(errno));
    }
    if (n == 0) {
      return Status::IoError("pwrite: no forward progress (wrote 0 bytes)");
    }
    put += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace io_internal

Status FileBackend::Open(const std::string& path,
                         std::unique_ptr<FileBackend>* out) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("fstat " + path + ": " + std::strerror(errno));
  }
  *out = std::unique_ptr<FileBackend>(
      new FileBackend(fd, static_cast<uint64_t>(st.st_size)));
  return Status::OK();
}

FileBackend::~FileBackend() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileBackend::ReadPage(uint64_t page, void* buf) {
  if (page >= page_count_.load(std::memory_order_acquire)) {
    std::memset(buf, 0, kPageSize);
    return Status::OK();
  }
  const off_t off = static_cast<off_t>(page * kPageSize);
  SJ_ASSIGN_OR_RETURN(
      const size_t got,
      io_internal::ReadFull(
          [this](void* b, size_t l, off_t o) { return ::pread(fd_, b, l, o); },
          buf, kPageSize, off));
  if (got < kPageSize) {
    // EOF. Legitimate only past the known end of file (the last page of a
    // file whose length is not page-aligned, or a hole); anything earlier
    // means the file shrank under us.
    if (static_cast<uint64_t>(off) + got <
        size_bytes_.load(std::memory_order_acquire)) {
      return Status::IoError("short read mid-file at page " +
                             std::to_string(page) + ": got " +
                             std::to_string(got) + " of " +
                             std::to_string(kPageSize) + " bytes");
    }
    std::memset(static_cast<uint8_t*>(buf) + got, 0, kPageSize - got);
  }
  return Status::OK();
}

Status FileBackend::WritePage(uint64_t page, const void* buf) {
  const off_t off = static_cast<off_t>(page * kPageSize);
  SJ_RETURN_IF_ERROR(io_internal::WriteFull(
      [this](const void* b, size_t l, off_t o) {
        return ::pwrite(fd_, b, l, o);
      },
      buf, kPageSize, off));
  const uint64_t end = (page + 1) * kPageSize;
  uint64_t cur = size_bytes_.load(std::memory_order_relaxed);
  while (cur < end && !size_bytes_.compare_exchange_weak(
                          cur, end, std::memory_order_release)) {
  }
  uint64_t pages = page_count_.load(std::memory_order_relaxed);
  while (pages <= page && !page_count_.compare_exchange_weak(
                              pages, page + 1, std::memory_order_release)) {
  }
  return Status::OK();
}

Result<std::unique_ptr<StorageBackend>> MemoryStorageFactory::Create(
    const std::string&) {
  return {std::make_unique<MemoryBackend>()};
}

Result<std::unique_ptr<TmpFileStorageFactory>> TmpFileStorageFactory::Make(
    const std::string& dir_hint) {
  std::string base = dir_hint;
  if (base.empty()) {
    const char* env = std::getenv("TMPDIR");
    base = (env != nullptr && *env != '\0') ? env : "/tmp";
  }
  std::string tmpl = base + "/sj.storage.XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    return Status::IoError("mkdtemp " + tmpl + ": " + std::strerror(errno));
  }
  return {std::unique_ptr<TmpFileStorageFactory>(
      new TmpFileStorageFactory(std::string(buf.data())))};
}

TmpFileStorageFactory::~TmpFileStorageFactory() {
  // Files are unlinked at Create(); only the (empty) directory remains.
  ::rmdir(dir_.c_str());
}

Result<std::unique_ptr<StorageBackend>> TmpFileStorageFactory::Create(
    const std::string& name) {
  uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = next_file_++;
  }
  // The device name is for diagnostics only; the sequence number makes the
  // path unique (names repeat across shards and retries).
  std::string sanitized;
  sanitized.reserve(name.size());
  for (char c : name) {
    sanitized.push_back(
        (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '.' ||
         c == '-' || c == '_')
            ? c
            : '_');
  }
  const std::string path = dir_ + "/" + std::to_string(seq) + "." + sanitized;
  std::unique_ptr<FileBackend> file;
  SJ_RETURN_IF_ERROR(FileBackend::Open(path, &file));
  ::unlink(path.c_str());  // The fd keeps it alive; nothing leaks on abort.
  return {std::unique_ptr<StorageBackend>(std::move(file))};
}

}  // namespace sj
