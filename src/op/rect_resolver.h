#ifndef USJ_OP_RECT_RESOLVER_H_
#define USJ_OP_RECT_RESOLVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/memory_arbiter.h"
#include "io/pager.h"
#include "io/storage.h"
#include "join/executor.h"
#include "sort/sort_config.h"
#include "util/result.h"

namespace sj {

/// Orders RectF records by object id — the sort order of a RectResolver's
/// external table (ids within one relation are unique).
struct OrderById {
  bool operator()(const RectF& a, const RectF& b) const { return a.id < b.id; }
};

/// Bytes of a RectResolver's in-memory table over `count` records: the
/// records plus the hash index over their ids (4-byte slots, a power of
/// two at least twice `count`, so the index is at most half full). The
/// op.rectmap request and its NoteUsage size the table with this.
uint64_t RectTableBytes(uint64_t count);

/// Bytes a resident table (RectResolver::StartTable) holds for room for
/// `capacity` records while a scan fills it and Seal sorts it: the
/// records and the radix sort's scratch copy of them. The hash index
/// Seal builds after the sort needs less than the scratch, so the table
/// never holds more than this.
uint64_t ResidentTableBytes(uint64_t capacity);

/// The most one of a pipeline's `inputs` RectResolvers asks of a
/// `budget_bytes` query budget: budget / (2 x inputs), so the tables take
/// at most half the budget together and the join keeps the rest. Never
/// below the external path's 2-page floor, which still binds (and can
/// overrun the budget) where that share is under 16 KiB.
size_t RectMapGrantBytes(size_t budget_bytes, size_t inputs);

/// Grant-governed id -> MBR lookup over one JoinInput.
///
/// Join executors emit bare id pairs (the merge buffers of the parallel
/// paths carry 8-byte IdPairs, not geometry), so a pipeline that needs the
/// geometry of a join result — aggregate it into cells, rank it by
/// distance — has to resolve ids back to rectangles. A RectResolver is
/// that lookup, built once per join input under the pipeline's
/// MemoryArbiter:
///
///  * In-memory path: when the "op.rectmap" grant covers the whole table
///    (RectTableBytes), the records are loaded in input order and indexed
///    in one pass by an open-addressing hash table: each 32-bit slot holds
///    a record position + 1 (0 = empty), probed linearly from the high
///    bits of a multiplicative hash of the id. A lookup is O(1) per id.
///  * Resident path (StartTable, a windowed pipeline's): a window scan
///    fills the table record by record under a grant that grows with it,
///    and Seal sorts it by OrderByYLo and indexes it in that order. The
///    sorted records are then also the join's input
///    (JoinInput::FromSortedRects), so one copy serves both. A table that
///    would outgrow its cap is abandoned by its caller, which then takes
///    the stream path (Build).
///  * External path: when the grant (capped by the caller, or shrunk by
///    the arbiter) cannot hold the table, the records are external-sorted
///    by id into a scratch pager (MakePager — the query's storage backend
///    choice applies) and lookups go through a tiny in-memory page index
///    (first id of each sorted page). Batched lookups sort their ids, so
///    page fetches arrive in ascending page order and consecutive ids
///    coalesce onto one page read — the same access-clustering idea as the
///    refinement step's chunk fetches.
///
/// Either path returns identical rectangles; only the modeled I/O differs
/// (the external build adds sort passes, each cold lookup page is a
/// charged random read). Thread-compatible: one resolver serves one
/// pipeline thread.
class RectResolver {
 public:
  /// Builds a resolver over `input` (stream, sorted stream, or R-tree).
  /// The op.rectmap request is the table's RectTableBytes, capped at
  /// `max_grant_bytes` (a pipeline passes its RectMapGrantBytes share).
  /// The build scan is charged to `disk`; scratch files for the external
  /// path come from `storage` (null = in-memory backend). `name` prefixes
  /// the scratch pager name. `sort_config` shapes the external path's
  /// id-sort (formation threads / fan-in; same table bytes either way).
  static Result<std::unique_ptr<RectResolver>> Build(
      const JoinInput& input, DiskModel* disk, MemoryArbiter* arbiter,
      size_t max_grant_bytes, StorageFactory* storage, const std::string& name,
      const SortConfig& sort_config = SortConfig());

  /// The op.rectmap request Build makes over `count` records: the table's
  /// RectTableBytes capped at `max_grant_bytes`, floored at the external
  /// path's 2 pages. PipelineQuery::Explain plans each table from it.
  static GrantRequest Request(uint64_t count, size_t max_grant_bytes);

  /// Starts an empty resident table for a scan expected to hold
  /// `expected_count` records. Its op.rectmap grant starts at
  /// ResidentRequest and grows with the table (Add), never beyond
  /// `max_grant_bytes`.
  static std::unique_ptr<RectResolver> StartTable(MemoryArbiter* arbiter,
                                                  uint64_t expected_count,
                                                  size_t max_grant_bytes);

  /// The op.rectmap request StartTable makes: the ResidentTableBytes of
  /// `expected_count` records capped at `max_grant_bytes`, with no floor
  /// (a table granted nothing spills its first record).
  /// PipelineQuery::Explain plans a resident table from it.
  static GrantRequest ResidentRequest(uint64_t expected_count,
                                      size_t max_grant_bytes);

  /// Appends `r` to a started table. False, with nothing appended, when
  /// holding one more record would take the table past its cap or past
  /// what the arbiter can grant.
  bool Add(const RectF& r);

  /// Ends a started table: sorts its records by OrderByYLo
  /// (RadixSortByYLo) and indexes them in that order, inside the grant
  /// the table grew to.
  void Seal();

  /// The in-memory table's records (in OrderByYLo order once sealed).
  const std::vector<RectF>& records() const { return records_; }

  /// Resolves ids[i] into (*out)[i] (out is resized). Every id must exist
  /// in the input; an unknown id is an Internal error (it would mean the
  /// join emitted an id its own input never contained).
  Status Lookup(const std::vector<ObjectId>& ids, std::vector<RectF>* out);

  /// Pages fetched by external-path lookups so far (0 on the in-memory
  /// path; the build's sort I/O is charged to the DiskModel directly).
  uint64_t lookup_pages_read() const { return lookup_pages_read_; }
  bool external() const { return external_; }
  uint64_t count() const { return count_; }
  /// What the external path's id-sort did (zeros on the in-memory path);
  /// its worker_cpu_seconds is CPU the building thread's clock missed.
  const SortStats& sort_stats() const { return sort_stats_; }

 private:
  RectResolver() = default;

  /// The in-memory path: loads `input` and indexes it.
  Status LoadTable(const JoinInput& input);
  /// Builds the hash index over records_ in their order.
  void IndexRecords();
  uint32_t HomeSlot(ObjectId id) const;
  Status LookupExternal(const std::vector<ObjectId>& ids,
                        std::vector<RectF>* out);

  bool external_ = false;
  uint64_t count_ = 0;
  MemoryGrant grant_;
  /// A started table's cap (StartTable's max_grant_bytes).
  size_t max_grant_bytes_ = 0;
  SortStats sort_stats_;

  // In-memory path: records in load order (in OrderByYLo order once a
  // resident table is sealed), and the hash index over them
  // (slots_.size() is a power of two; slot_shift_ = 64 - its log2).
  std::vector<RectF> records_;
  std::vector<uint32_t> slots_;
  int slot_shift_ = 0;

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
