#ifndef USJ_IO_PAGER_H_
#define USJ_IO_PAGER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "io/disk_model.h"
#include "io/storage.h"
#include "util/result.h"
#include "util/status.h"

namespace sj {

/// Identifies a page within one Pager (logical file).
using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = 0xFFFFFFFFu;

/// One logical file: a storage backend plus cost accounting on a shared
/// DiskModel. All algorithm I/O goes through Pagers (directly for index
/// nodes, via Stream for scans), so every byte moved is charged.
class Pager {
 public:
  /// `disk` must outlive the pager. The pager registers itself as a device.
  Pager(std::unique_ptr<StorageBackend> backend, DiskModel* disk,
        std::string name);

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Reads one page (a single-page disk request).
  Status ReadPage(PageId page, void* buf);
  /// Reads `npages` consecutive pages as one request (streaming).
  Status ReadRun(PageId first, uint32_t npages, void* buf);
  /// Writes one page.
  Status WritePage(PageId page, const void* buf);
  /// Writes `npages` consecutive pages as one request (streaming).
  Status WriteRun(PageId first, uint32_t npages, const void* buf);

  /// Reserves `npages` consecutive new pages; returns the first id.
  PageId Allocate(uint32_t npages);

  /// Charge-only halves of ReadRun/WriteRun: issue the modeled DiskModel
  /// request without moving bytes. The deterministic-I/O contract (same
  /// modeled io_seconds at any thread count) requires charges to happen
  /// on the consumer/producer thread in serial order even when the byte
  /// transfer ran early or late on a worker — parallel run formation
  /// replays the serial charge sequence after its workers moved the
  /// bytes. ChargeWrite advances the allocation watermark like WriteRun.
  void ChargeRead(PageId first, uint32_t npages);
  void ChargeWrite(PageId first, uint32_t npages);

  /// Releases the storage backend; the pager must not be used afterwards.
  /// Used by RehomePager() to move a finished file between DiskModels.
  std::unique_ptr<StorageBackend> ReleaseBackend() {
    return std::move(backend_);
  }

  /// Direct access to the backing storage for readers that do their own
  /// cost accounting (the parallel refinement executor reads a shared
  /// feature store from many workers and charges each worker's private
  /// DiskModel shard; parallel run formation moves its runs' bytes
  /// through it). Both backends are safe for concurrent page-granular
  /// access, but a page's *content* is only stable once its stream is
  /// finished — fetch immutable ranges only.
  StorageBackend* backend() const { return backend_.get(); }

  /// Pages allocated so far (>= backend page count until they are written).
  uint64_t page_count() const { return allocated_; }

  DiskModel* disk() const { return disk_; }
  uint32_t device_id() const { return device_; }
  const std::string& name() const { return name_; }

 private:
  std::unique_ptr<StorageBackend> backend_;
  DiskModel* disk_;
  uint32_t device_;
  std::string name_;
  uint64_t allocated_ = 0;
};

/// Convenience factory: a memory-backed pager on `disk`.
std::unique_ptr<Pager> MakeMemoryPager(DiskModel* disk, std::string name);

/// Factory-aware pager creation: the storage choice of the query/service
/// (`factory`, null = MemoryBackend) decides what backs the file. All
/// algorithm scratch/spill pager creation goes through here so a single
/// JoinOptions knob switches the whole pipeline onto real files.
Result<std::unique_ptr<Pager>> MakePager(StorageFactory* factory,
                                         DiskModel* disk, std::string name);

/// Moves a finished file onto another DiskModel: the returned pager owns
/// `pager`'s backend (same bytes, same page ids, same allocation count)
/// but charges its I/O to `disk`. This is how the parallel join engine
/// hands a partition file written on the shared disk to a worker whose
/// modeled I/O accumulates on a private shard.
std::unique_ptr<Pager> RehomePager(std::unique_ptr<Pager> pager,
                                   DiskModel* disk);

}  // namespace sj

#endif  // USJ_IO_PAGER_H_
