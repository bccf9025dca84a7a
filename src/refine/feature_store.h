#ifndef USJ_REFINE_FEATURE_STORE_H_
#define USJ_REFINE_FEATURE_STORE_H_

#include <string>
#include <vector>

#include "geometry/segment.h"
#include "io/disk_model.h"
#include "io/pager.h"
#include "io/stream.h"
#include "util/result.h"
#include "util/span.h"

namespace sj {

/// On-disk layout of a feature store: page `header_page` holds this
/// header, geometry records follow from the next page in
/// StreamWriter<Segment> layout (16-byte records, 512 per 8 KB page,
/// never straddling pages).
struct FeatureStoreHeader {
  static constexpr uint32_t kMagic = 0x534a4653;  // "SJFS"
  static constexpr uint32_t kVersion = 1;

  uint32_t magic = kMagic;
  uint32_t version = kVersion;
  uint64_t count = 0;
  ObjectId base_id = 0;
  char name[64] = {};
};

/// A paged store of exact geometry payloads keyed by record id — the
/// refinement-step companion of a DatasetRef: the MBR stream feeds the
/// filter join, this store resolves the candidate pairs it produces.
///
/// Records are stored densely by id (ids base_id .. base_id+count-1,
/// which is what the generators emit), so the page of a record is pure
/// arithmetic and a fetch costs exactly one page read. All I/O goes
/// through the Pager/DiskModel layer, so refinement is cost-accounted
/// like every other part of a join.
class FeatureStore {
 public:
  /// Records are laid out by StreamWriter<Segment>; tying the reader's
  /// page arithmetic to the writer's constant keeps them in lockstep.
  static constexpr uint32_t kRecordsPerPage =
      StreamWriter<Segment>::kRecordsPerPage;

  /// Writes `geom` (geom[i] is the record with id base_id + i) at the
  /// current end of `pager` and returns a store reading it back.
  static Result<FeatureStore> Build(Pager* pager, Span<const Segment> geom,
                                    const std::string& name,
                                    ObjectId base_id = 0);

  /// Opens a store previously written at page `header_page` of `pager`
  /// (0 for a dedicated file). Fails with Corruption when the header is
  /// not a store's, or when it claims more records than the pager holds
  /// pages for (both backends read missing pages as zeros).
  static Result<FeatureStore> Open(Pager* pager, PageId header_page = 0);

  /// Records in the store.
  uint64_t count() const { return count_; }
  /// Smallest stored id; ids cover [base_id, base_id + count).
  ObjectId base_id() const { return base_id_; }
  /// Geometry pages (excluding the header page).
  uint64_t data_pages() const {
    return count_ / kRecordsPerPage + (count_ % kRecordsPerPage != 0);
  }
  Pager* pager() const { return pager_; }

  /// One record, charged to the store's pager as a single-page read: a
  /// FetchBatch of one id.
  Result<Segment> Fetch(ObjectId id) const;

  /// Scratch FetchBatch holds per id: a (record, output slot) key and
  /// its copy in the radix pass that groups the keys by page.
  static constexpr size_t kFetchBytesPerId = 2 * sizeof(uint64_t);
  /// Scratch FetchBatch holds per call: the one page buffer (it backs
  /// the page views of backends that cannot read in place) and the radix
  /// pass's 257 digit counts.
  static constexpr size_t kFetchFixedBytes =
      kPageSize + 257 * sizeof(uint32_t);

  /// Gathers the geometry of every id in `ids` (appended to `out` in
  /// input order; duplicates allowed). Every id is validated before any
  /// I/O is charged. Each distinct page is then viewed once, in ascending
  /// page order (StorageBackend::ViewPage: in place on a memory backend,
  /// through one page-sized buffer otherwise), and each record is copied
  /// straight from the view to its output slot. Consecutive pages are
  /// charged as one request of up to kStreamBlockPages pages, so ids that
  /// cluster on disk read at partially-streaming cost. Besides `out` the
  /// call holds kFetchBytesPerId bytes per id and kFetchFixedBytes.
  /// Returns the number of data pages read.
  ///
  /// When `charge` is null the store's own pager (and DiskModel) is
  /// charged. Otherwise page bytes are read directly from the backing
  /// storage and the modeled I/O is charged to `charge` under device
  /// `charge_dev`: this is how refinement accounts a shared store against
  /// its own DiskModel, apart from the query's.
  Result<uint64_t> FetchBatch(Span<const ObjectId> ids,
                              std::vector<Segment>* out,
                              DiskModel* charge = nullptr,
                              uint32_t charge_dev = 0) const;

 private:
  FeatureStore(Pager* pager, PageId header_page, uint64_t count,
               ObjectId base_id)
      : pager_(pager),
        first_data_page_(header_page + 1),
        count_(count),
        base_id_(base_id) {}

  bool Contains(ObjectId id) const {
    return id >= base_id_ && uint64_t{id - base_id_} < count_;
  }
  /// The error for an id outside [base_id, base_id + count).
  Status OutsideStore(ObjectId id) const;

  Pager* pager_;
  PageId first_data_page_;
  uint64_t count_;
  ObjectId base_id_;
};

}  // namespace sj

#endif  // USJ_REFINE_FEATURE_STORE_H_
