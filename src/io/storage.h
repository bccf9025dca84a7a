#ifndef USJ_IO_STORAGE_H_
#define USJ_IO_STORAGE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/disk_model.h"
#include "util/result.h"
#include "util/status.h"

namespace sj {

/// Raw page-addressed storage for one logical file. Implementations hold
/// the actual bytes; cost accounting lives in the Pager/DiskModel layer.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Copies page `page` into `buf` (kPageSize bytes). Reading a page that
  /// was never written yields zero bytes (sparse semantics).
  virtual Status ReadPage(uint64_t page, void* buf) = 0;

  /// Writes kPageSize bytes from `buf`; grows the file as needed.
  virtual Status WritePage(uint64_t page, const void* buf) = 0;

  /// Number of pages the file currently spans.
  virtual uint64_t PageCount() const = 0;

  /// Returns page `page`'s kPageSize bytes for reading. The default reads
  /// them into `scratch` (kPageSize bytes) with ReadPage and returns
  /// `scratch`; a backend that already holds the page in memory returns a
  /// pointer to it instead, so the caller reads the page in place. The
  /// view stays valid until that page is rewritten or the backend is
  /// destroyed, so view only pages that no longer change (a finished
  /// stream's).
  virtual Result<const uint8_t*> ViewPage(uint64_t page, uint8_t* scratch);
};

/// Heap-backed storage. The default for experiments: the simulated
/// DiskModel provides the timing, so there is no reason to touch the real
/// disk, and page images stay byte-exact.
///
/// Thread-safe at page granularity (a mutex guards the page table), so
/// parallel workers may read finished pages of a file while the owner
/// appends new ones. Reading a page *while it is being written* still
/// yields an unspecified mix — callers must only fetch immutable ranges.
class MemoryBackend : public StorageBackend {
 public:
  MemoryBackend() = default;

  Status ReadPage(uint64_t page, void* buf) override;
  Status WritePage(uint64_t page, const void* buf) override;
  uint64_t PageCount() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return pages_.size();
  }
  /// The page's own block, without a copy; a never-written page
  /// zero-fills `scratch` and returns it. A later WritePage of the page
  /// lands in the same block, so it shows through an earlier view.
  Result<const uint8_t*> ViewPage(uint64_t page, uint8_t* scratch) override;

 private:
  /// The page's block, or null for a page never written.
  const uint8_t* Block(uint64_t page) const;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<uint8_t[]>> pages_;
};

namespace io_internal {

/// pread-shaped callable: (buf, len, offset) -> bytes moved, 0 on EOF,
/// -1 with errno on error.
using PReadFn = std::function<ssize_t(void*, size_t, off_t)>;
using PWriteFn = std::function<ssize_t(const void*, size_t, off_t)>;

/// Reads until `len` bytes landed in `buf` or EOF, retrying EINTR and
/// continuing after short counts. Returns the bytes actually read
/// (< len only when EOF was hit); the caller decides whether that EOF is
/// legitimate (read past the known end of file) or a mid-file truncation.
Result<size_t> ReadFull(const PReadFn& pread_fn, void* buf, size_t len,
                        off_t offset);

/// Writes all `len` bytes, retrying EINTR and continuing after short
/// counts. A zero return from the callable is an error (no forward
/// progress), not EOF.
Status WriteFull(const PWriteFn& pwrite_fn, const void* buf, size_t len,
                 off_t offset);

}  // namespace io_internal

/// File-backed storage via pread/pwrite, for datasets larger than RAM,
/// for persisting generated inputs between runs, and for grounding the
/// cost model against a real device (bench_io_calibration). Reads and
/// writes retry EINTR and short counts to the full page length; a short
/// read is zero-filled only when it is a true end-of-file, never when it
/// happens in the middle of the known file extent.
class FileBackend : public StorageBackend {
 public:
  /// Opens (creating if necessary) `path` for read/write (O_CLOEXEC).
  static Status Open(const std::string& path,
                     std::unique_ptr<FileBackend>* out);

  ~FileBackend() override;

  FileBackend(const FileBackend&) = delete;
  FileBackend& operator=(const FileBackend&) = delete;

  Status ReadPage(uint64_t page, void* buf) override;
  Status WritePage(uint64_t page, const void* buf) override;
  uint64_t PageCount() const override {
    return page_count_.load(std::memory_order_acquire);
  }

 private:
  FileBackend(int fd, uint64_t size_bytes)
      : fd_(fd),
        size_bytes_(size_bytes),
        page_count_((size_bytes + kPageSize - 1) / kPageSize) {}

  int fd_;
  /// Byte length of everything written through (or present at open of)
  /// this backend; an EOF before this offset is a mid-file short read —
  /// an I/O error — not sparse zero territory. Atomic so concurrent
  /// page reads may overlap appends (pread/pwrite themselves are
  /// position-independent and safe to mix across threads).
  std::atomic<uint64_t> size_bytes_;
  std::atomic<uint64_t> page_count_;
};

/// Chooses the StorageBackend every pager of one join (or one service)
/// runs on. The factory is consulted once per logical file — inputs,
/// sort runs, partition files, spill streams, result streams — and must
/// be thread-safe: parallel phases create scratch files concurrently.
class StorageFactory {
 public:
  virtual ~StorageFactory() = default;

  /// Creates the backing storage for one logical file named `name` (the
  /// pager/device name, for diagnostics; names repeat across shards).
  virtual Result<std::unique_ptr<StorageBackend>> Create(
      const std::string& name) = 0;

  /// Human-readable backend choice ("memory", "file:/tmp/sj.x3Kb1").
  virtual std::string description() const = 0;
};

/// The default: every file is a MemoryBackend (what a null factory means).
class MemoryStorageFactory : public StorageFactory {
 public:
  Result<std::unique_ptr<StorageBackend>> Create(
      const std::string& name) override;
  std::string description() const override { return "memory"; }
};

/// Real files in a private mkdtemp directory. Each Create() opens a fresh
/// uniquely-named file and unlinks it immediately (the fd keeps it alive),
/// so storage is reclaimed even on abnormal exit; the directory itself is
/// removed by the destructor.
class TmpFileStorageFactory : public StorageFactory {
 public:
  /// Creates the backing directory under `dir_hint`, or $TMPDIR, or /tmp.
  static Result<std::unique_ptr<TmpFileStorageFactory>> Make(
      const std::string& dir_hint = "");

  ~TmpFileStorageFactory() override;

  Result<std::unique_ptr<StorageBackend>> Create(
      const std::string& name) override;
  std::string description() const override { return "file:" + dir_; }
  const std::string& dir() const { return dir_; }

 private:
  explicit TmpFileStorageFactory(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
  std::mutex mu_;
  uint64_t next_file_ = 0;
};

}  // namespace sj

#endif  // USJ_IO_STORAGE_H_
