#ifndef USJ_RTREE_RTREE_H_
#define USJ_RTREE_RTREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "geometry/rect.h"
#include "io/pager.h"
#include "rtree/node.h"
#include "sort/external_sort.h"
#include "util/result.h"
#include "util/status.h"

namespace sj {

/// Tuning parameters for R-tree construction.
struct RTreeParams {
  /// Fanout. 400 = the paper's setting for 8 KB pages and 20-byte entries.
  uint32_t max_entries = 400;
  /// Minimum entries after a Guttman split; 0 means max_entries / 4.
  uint32_t min_entries = 0;
  /// Bulk-load base fill factor: nodes are first filled to this fraction
  /// of max_entries (the paper packs to 75 %).
  double bulk_fill = 0.75;
  /// After the base fill, further rectangles are added only while they
  /// grow the node's covered area by at most this fraction (the paper's
  /// 20 % rule); the resulting average packing is ~90 %.
  double bulk_area_slack = 0.20;
  /// Bits per axis of the Hilbert grid used to order rectangle centers.
  int hilbert_order = 16;

  uint32_t EffectiveMinEntries() const {
    return min_entries > 0 ? min_entries : max_entries / 4;
  }
};

/// Construction and occupancy statistics of a built tree.
struct RTreeMeta {
  PageId root = kInvalidPageId;
  uint16_t height = 0;  ///< Number of levels; 1 = root is a leaf.
  uint64_t node_count = 0;
  uint64_t leaf_count = 0;
  uint64_t entry_count = 0;  ///< Data rectangles stored.
  RectF bounding_box = RectF::Empty();
};

/// A disk-resident R-tree over RectF entries.
///
/// Nodes are 8 KB pages read and written through a Pager, so every node
/// touch is charged to the experiment's DiskModel. Two construction
/// paths are provided:
///
///  * BulkLoadHilbert — the paper's index: centers ordered along a Hilbert
///    curve (Kamel & Faloutsos), packed bottom-up with the 75 % fill +
///    ≤20 % area-growth top-off. Sibling nodes are allocated contiguously,
///    which is what gives ST its sequential leaf reads (§6.2). Each leaf
///    stores its entries in OrderByYLo order, the order PQ drains them in.
///  * CreateEmpty + Insert — Guttman's dynamic R-tree (quadratic split),
///    used to study how update-built ("ad-hoc") indexes degrade the
///    traversal locality that bulk loading provides.
class RTree {
 public:
  /// Bulk loads from an unsorted stream of rectangles. `scratch` holds the
  /// Hilbert-keyed runs during sorting; `memory_bytes` bounds the sorter.
  /// `sort_config` carries the formation threads and merge fan-in for the
  /// key sort (the built tree is identical either way).
  static Result<RTree> BulkLoadHilbert(Pager* tree_pager,
                                       const StreamRange& input,
                                       Pager* scratch,
                                       const RTreeParams& params,
                                       size_t memory_bytes,
                                       const SortConfig& sort_config =
                                           SortConfig());
  /// The "rtree.bulkload" grant a query's tree rebuild asks under a
  /// `budget_bytes` budget: half of it, shrinkable to the sort's floor.
  static GrantRequest BulkLoadRequest(size_t budget_bytes) {
    return GrantRequest{grants::kRTreeBulkLoad, budget_bytes / 2,
                        RunLayout::kMinSortMemoryBytes};
  }

  /// An empty dynamic tree (a single empty leaf as root).
  static Result<RTree> CreateEmpty(Pager* tree_pager,
                                   const RTreeParams& params);

  /// Guttman insertion with quadratic split.
  Status Insert(const RectF& rect);

  /// Guttman deletion with tree condensation: removes the entry exactly
  /// matching `rect` (coordinates and id). Underfull nodes are dissolved
  /// and their entries reinserted at their original level; a root with a
  /// single child is collapsed. Returns NotFound if no such entry exists.
  /// Freed node pages are not recycled (no free list), matching the
  /// append-only pager.
  Status Delete(const RectF& rect);

  /// One data rectangle handed over by ScanLeaves.
  using EntryVisitor = std::function<void(const RectF&)>;

  /// The leaf-order traversal: every reader of the leaf level (window
  /// scans, leaf extraction, rect maps, the ε-expansion) goes through
  /// it. It visits each data rectangle intersecting `window` (closed-rect
  /// semantics) and returns the pages it read: the root and every node
  /// whose parent entry meets the window, each once.
  ///
  /// The internal levels are read top-down, one request per node, each
  /// level in ascending page order. The in-window children of level-1
  /// nodes are then sorted by page id, and each run of consecutive leaf
  /// pages, at most kStreamBlockPages long, is charged as one request.
  /// BulkLoadHilbert packs the leaves on consecutive pages, so a packed
  /// leaf level reads like a stream; an insert-built tree's scattered
  /// leaves still turn near neighbours into continuations. `visit` sees
  /// the records in leaf-page order, and in entry order within a leaf:
  /// (ylo, id) order in a bulk-loaded one.
  ///
  /// Pages are viewed in place on a memory backend, and read into one
  /// page of scratch on any other. Besides that page the traversal holds
  /// 4 bytes per touched node. Several threads may scan one tree at once,
  /// as long as none modifies it.
  Result<uint64_t> ScanLeaves(const RectF& window,
                              const EntryVisitor& visit) const;

  /// Appends all data rectangles intersecting `window` to `out`, in
  /// leaf-page order (ScanLeaves).
  Status WindowQuery(const RectF& window, std::vector<RectF>* out) const;

  /// Checks structural invariants: header levels, parent MBRs exactly
  /// covering children, entry counts, and bounding box consistency.
  Status Validate() const;

  /// Appends every stored data rectangle to `out`, in leaf-page order
  /// (ScanLeaves over the bounding box).
  Status CollectAll(std::vector<RectF>* out) const;

  const RTreeMeta& meta() const { return meta_; }
  const RTreeParams& params() const { return params_; }
  Pager* pager() const { return pager_; }
  PageId root() const { return meta_.root; }
  uint16_t height() const { return meta_.height; }
  /// Total pages the index occupies — the paper's per-tree "lower bound"
  /// on page requests for a full traversal.
  uint64_t node_count() const { return meta_.node_count; }
  const RectF& bounding_box() const { return meta_.bounding_box; }

  /// Average node occupancy as a fraction of max_entries (the paper
  /// reports ~0.90 for its bulk-loaded trees).
  double AveragePacking() const;

  /// Node `page`'s bytes, charged to the disk model as a one-page read:
  /// in place on a memory backend, else read into `scratch` (kPageSize
  /// bytes). The view stays valid until the tree changes. PQ's traversal
  /// reads its nodes this way.
  Result<const uint8_t*> ViewNode(PageId page, uint8_t* scratch) const;

 private:
  RTree(Pager* pager, RTreeParams params, RTreeMeta meta)
      : pager_(pager), params_(params), meta_(meta) {}

  // ViewNode without the charge, timed into the disk model's I/O wall.
  Result<const uint8_t*> ViewUncharged(PageId page, uint8_t* scratch) const;

  // Packs one level's worth of entries into nodes at `level`, appending
  // the resulting parent entries (child MBR + child page id) to `parents`.
  // Entries must arrive in the intended packing order.
  static Status PackLevel(Pager* pager, const RTreeParams& params,
                          uint16_t level, const std::vector<RectF>& entries,
                          std::vector<RectF>* parents, uint64_t* nodes_written);

  // Builds internal levels bottom-up from leaf refs and fills `meta`.
  static Status BuildUpperLevels(Pager* pager, const RTreeParams& params,
                                 std::vector<RectF> level_refs,
                                 uint64_t leaf_count, uint64_t entry_count,
                                 RectF bbox, RTreeMeta* meta);

  // Insertion helpers (Guttman). `target_level` is the level the entry
  // belongs at: 0 for data rectangles, >0 for orphaned subtree roots
  // reinserted during deletion.
  struct SplitResult {
    RectF new_entry;  // MBR + page id of the newly allocated sibling.
    bool split = false;
  };
  Status InsertEntry(const RectF& entry, uint16_t target_level);
  Status InsertRec(PageId page, const RectF& rect, uint16_t target_level,
                   RectF* mbr_out, SplitResult* split);
  Status SplitNode(NodeBuilder* node, const RectF& extra, uint16_t level,
                   SplitResult* out);

  // Deletion helpers. Orphans are (entry, level) pairs whose subtrees must
  // be reinserted after condensation.
  struct Orphan {
    RectF entry;
    uint16_t level;
  };
  Status DeleteRec(PageId page, uint16_t level, const RectF& rect,
                   bool* found, bool* underflow, std::vector<Orphan>* orphans);

  Status ValidateRec(PageId page, uint16_t expected_level,
                     const RectF* expected_mbr, uint64_t* nodes,
                     uint64_t* leaves, uint64_t* entries) const;

  Pager* pager_;
  RTreeParams params_;
  RTreeMeta meta_;
};

}  // namespace sj

#endif  // USJ_RTREE_RTREE_H_
