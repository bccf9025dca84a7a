#ifndef USJ_IO_STREAM_H_
#define USJ_IO_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

#include "io/pager.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/status.h"

namespace sj {

/// Default logical block for stream I/O: 64 pages = 512 KB, the block size
/// the paper's stream BTE uses so that sequential scans amortize
/// positioning costs.
inline constexpr uint32_t kStreamBlockPages = 64;

/// Appends fixed-size records to a pager, packing `kPageSize / sizeof(T)`
/// records per page (records never straddle pages) and issuing one write
/// request per logical block.
///
/// T must be trivially copyable; RectF (20 bytes -> 409 records/page) and
/// IdPair are the only instantiations used by the joins.
template <typename T>
class StreamWriter {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  static constexpr uint32_t kRecordsPerPage =
      static_cast<uint32_t>(kPageSize / sizeof(T));

  /// Writes records starting at the pager's current end. `block_pages`
  /// trades buffer memory for request size (PBSM uses small blocks because
  /// it keeps one writer open per partition).
  explicit StreamWriter(Pager* pager, uint32_t block_pages = kStreamBlockPages)
      : pager_(pager),
        block_pages_(block_pages),
        buffer_(block_pages * kPageSize) {
    SJ_CHECK(block_pages_ > 0);
    first_page_ = pager_->Allocate(0);  // Current end; pages allocated on flush.
  }

  ~StreamWriter() {
    SJ_CHECK(finished_)
        << "StreamWriter destroyed without Finish() or Abandon()";
  }

  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  void Append(const T& rec) {
    SJ_DCHECK(!finished_);
    const uint32_t page_in_block =
        static_cast<uint32_t>(records_in_block_ / kRecordsPerPage);
    const uint32_t slot =
        static_cast<uint32_t>(records_in_block_ % kRecordsPerPage);
    std::memcpy(buffer_.data() + page_in_block * kPageSize + slot * sizeof(T),
                &rec, sizeof(T));
    records_in_block_++;
    count_++;
    if (records_in_block_ == uint64_t{kRecordsPerPage} * block_pages_) {
      FlushBlock();
    }
  }

  /// Flushes buffered records; returns the total record count, or the
  /// first write error the stream hit (deferred from Append's flushes).
  Result<uint64_t> Finish() {
    if (!finished_) {
      FlushBlock();
      finished_ = true;
    }
    if (!status_.ok()) return status_;
    return count_;
  }

  /// Declares the stream dead without flushing: buffered records are
  /// dropped and the destructor will not abort. For error-path unwinding
  /// (a failed distribution pass destroys its open writers); the pages
  /// already flushed stay allocated but are never read.
  void Abandon() {
    records_in_block_ = 0;
    finished_ = true;
  }

  /// First page of the stream within the pager.
  PageId first_page() const { return first_page_; }
  uint64_t count() const { return count_; }

  /// First error any flush hit; sticky, surfaced by Finish(). Append
  /// keeps accepting records after an error (they are dropped at flush)
  /// so producers need no per-record checks.
  const Status& status() const { return status_; }

 private:
  void FlushBlock() {
    if (records_in_block_ == 0) return;
    if (!status_.ok()) {
      records_in_block_ = 0;
      return;
    }
    const uint32_t npages = static_cast<uint32_t>(
        (records_in_block_ + kRecordsPerPage - 1) / kRecordsPerPage);
    // Zero the tail of the last partial page so page images are
    // deterministic.
    const uint64_t used_in_last =
        records_in_block_ - uint64_t{npages - 1} * kRecordsPerPage;
    uint8_t* last = buffer_.data() + (npages - 1) * kPageSize;
    std::memset(last + used_in_last * sizeof(T), 0,
                kPageSize - used_in_last * sizeof(T));
    const PageId start = pager_->Allocate(npages);
    status_ = pager_->WriteRun(start, npages, buffer_.data());
    records_in_block_ = 0;
  }

  Pager* pager_;
  uint32_t block_pages_;
  std::vector<uint8_t> buffer_;
  PageId first_page_ = 0;
  uint64_t records_in_block_ = 0;
  uint64_t count_ = 0;
  bool finished_ = false;
  Status status_;
};

/// Sequentially reads records written by a StreamWriter<T>.
template <typename T>
class StreamReader {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  static constexpr uint32_t kRecordsPerPage = StreamWriter<T>::kRecordsPerPage;

  /// Reads `record_count` records starting at `first_page` of `pager`.
  StreamReader(Pager* pager, PageId first_page, uint64_t record_count,
               uint32_t block_pages = kStreamBlockPages)
      : pager_(pager),
        first_page_(first_page),
        remaining_(record_count),
        block_pages_(block_pages),
        buffer_(block_pages * kPageSize) {
    SJ_CHECK(block_pages_ > 0);
  }

  StreamReader(const StreamReader&) = delete;
  StreamReader& operator=(const StreamReader&) = delete;

  /// Next record, or nullopt at end of stream.
  std::optional<T> Next() {
    if (remaining_ == 0) return std::nullopt;
    if (records_left_in_block_ == 0) FillBlock();
    const uint32_t idx = block_record_cursor_++;
    records_left_in_block_--;
    remaining_--;
    const uint32_t page_in_block = idx / kRecordsPerPage;
    const uint32_t slot = idx % kRecordsPerPage;
    T rec;
    std::memcpy(&rec,
                buffer_.data() + page_in_block * kPageSize + slot * sizeof(T),
                sizeof(T));
    return rec;
  }

  /// Records not yet returned.
  uint64_t remaining() const { return remaining_; }
  bool Done() const { return remaining_ == 0; }

 private:
  void FillBlock() {
    const uint64_t per_block = uint64_t{kRecordsPerPage} * block_pages_;
    const uint64_t take = std::min<uint64_t>(remaining_, per_block);
    const uint32_t npages = static_cast<uint32_t>(
        (take + kRecordsPerPage - 1) / kRecordsPerPage);
    const uint64_t first = first_page_ + pages_consumed_;
    SJ_CHECK(first + npages <= uint64_t{kInvalidPageId})
        << "stream on pager '" << pager_->name() << "' reads past the "
        << "32-bit PageId space (block at page " << first << " + " << npages
        << " pages)";
    SJ_CHECK_OK(pager_->ReadRun(static_cast<PageId>(first), npages,
                                buffer_.data()));
    pages_consumed_ += npages;
    records_left_in_block_ = take;
    block_record_cursor_ = 0;
  }

  Pager* pager_;
  PageId first_page_;
  uint64_t remaining_;
  uint32_t block_pages_;
  std::vector<uint8_t> buffer_;
  uint64_t pages_consumed_ = 0;
  uint64_t records_left_in_block_ = 0;
  uint32_t block_record_cursor_ = 0;
};

}  // namespace sj

#endif  // USJ_IO_STREAM_H_
