#ifndef USJ_OP_RECT_RESOLVER_H_
#define USJ_OP_RECT_RESOLVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/memory_arbiter.h"
#include "io/pager.h"
#include "io/storage.h"
#include "join/executor.h"
#include "util/result.h"

namespace sj {

/// Orders RectF records by object id — the sort order of a RectResolver's
/// lookup table (ids within one relation are unique).
struct OrderById {
  bool operator()(const RectF& a, const RectF& b) const { return a.id < b.id; }
};

/// Grant-governed id -> MBR lookup over one JoinInput.
///
/// Join executors emit bare id pairs (the merge buffers of the parallel
/// paths carry 8-byte IdPairs, not geometry), so a pipeline that needs the
/// geometry of a join result — aggregate it into cells, rank it by
/// distance — has to resolve ids back to rectangles. A RectResolver is
/// that lookup, built once per join input under the pipeline's
/// MemoryArbiter:
///
///  * In-memory path: when the "op.rectmap" grant covers the whole
///    relation (count * sizeof(RectF)), the records are loaded, sorted by
///    id, and looked up by binary search.
///  * External path: under memory pressure the records are external-sorted
///    by id into a scratch pager (MakePager — the query's storage backend
///    choice applies) and lookups go through a tiny in-memory page index
///    (first id of each sorted page). Batched lookups sort their ids, so
///    page fetches arrive in ascending page order and consecutive ids
///    coalesce onto one page read — the same access-clustering idea as the
///    refinement step's batch fetches.
///
/// Either path returns identical rectangles; only the modeled I/O differs
/// (the external build adds sort passes, each cold lookup page is a
/// charged random read). Thread-compatible: one resolver serves one
/// pipeline thread.
class RectResolver {
 public:
  /// Builds a resolver over `input` (stream, sorted stream, or R-tree).
  /// The build scan is charged to `disk`; scratch files for the external
  /// path come from `storage` (null = in-memory backend). `name` prefixes
  /// the scratch pager name. `sort_config` shapes the external path's
  /// id-sort (formation threads / fan-in; same table bytes either way).
  static Result<std::unique_ptr<RectResolver>> Build(
      const JoinInput& input, DiskModel* disk, MemoryArbiter* arbiter,
      StorageFactory* storage, const std::string& name,
      const SortConfig& sort_config = SortConfig());

  /// Resolves ids[i] into (*out)[i] (out is resized). Every id must exist
  /// in the input; an unknown id is an Internal error (it would mean the
  /// join emitted an id its own input never contained).
  Status Lookup(const std::vector<ObjectId>& ids, std::vector<RectF>* out);

  /// Pages fetched by external-path lookups so far (0 on the in-memory
  /// path; the build's sort I/O is charged to the DiskModel directly).
  uint64_t lookup_pages_read() const { return lookup_pages_read_; }
  bool external() const { return external_; }
  uint64_t count() const { return count_; }

 private:
  RectResolver() = default;

  Status LookupExternal(const std::vector<ObjectId>& ids,
                        std::vector<RectF>* out);

  bool external_ = false;
  uint64_t count_ = 0;
  MemoryGrant grant_;

  // In-memory path: records sorted by id.
  std::vector<RectF> sorted_;

  // External path: id-sorted stream plus the first id of each page.
  std::unique_ptr<Pager> scratch_;
  PageId first_page_ = 0;
  std::vector<ObjectId> page_first_ids_;
  std::vector<uint8_t> page_buf_;
  uint64_t cached_page_ = ~uint64_t{0};
  uint64_t lookup_pages_read_ = 0;
};

}  // namespace sj

#endif  // USJ_OP_RECT_RESOLVER_H_
