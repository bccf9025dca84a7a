#ifndef USJ_JOIN_SOURCES_H_
#define USJ_JOIN_SOURCES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "geometry/rect.h"
#include "histogram/grid_histogram.h"
#include "io/stream.h"
#include "join/join_types.h"
#include "rtree/rtree.h"
#include "sort/external_sort.h"

namespace sj {

class FeatureStore;

/// One side of a join in the unified API: a relation that is a stream of
/// MBRs (sorted or not), records already sorted in memory, or a packed
/// R-tree.
class JoinInput {
 public:
  enum class Kind { kStream, kSortedStream, kSortedRects, kRTree };

  static JoinInput FromStream(const DatasetRef& ref) {
    return JoinInput(Kind::kStream, ref, nullptr);
  }
  /// The stream must already be sorted by OrderByYLo.
  static JoinInput FromSortedStream(const DatasetRef& ref) {
    return JoinInput(Kind::kSortedStream, ref, nullptr);
  }
  /// `count` records in memory at `rects`, sorted by OrderByYLo, whose
  /// bounding box is `extent` (a windowed pipeline's resident rect maps).
  /// The caller keeps them alive through the join. Explain describes
  /// records it has not read by their estimated count and null `rects`.
  static JoinInput FromSortedRects(const RectF* rects, uint64_t count,
                                   const RectF& extent) {
    JoinInput input(Kind::kSortedRects,
                    DatasetRef{StreamRange{nullptr, 0, count}, extent},
                    nullptr);
    input.rects_ = rects;
    return input;
  }
  /// The tree must outlive the join.
  static JoinInput FromRTree(const RTree* tree) {
    return JoinInput(Kind::kRTree, DatasetRef{}, tree);
  }

  /// Attaches the relation's exact geometry (refinement step, see
  /// JoinOptions::refine). The store must outlive the join. Chainable:
  /// `JoinInput::FromStream(ref).WithFeatures(&store)` — the rvalue
  /// overload returns by value, so chaining off a temporary never hands
  /// out a dangling reference.
  JoinInput& WithFeatures(const FeatureStore* store) & {
    features_ = store;
    return *this;
  }
  JoinInput WithFeatures(const FeatureStore* store) && {
    features_ = store;
    return *this;
  }

  Kind kind() const { return kind_; }
  bool indexed() const { return kind_ == Kind::kRTree; }
  /// Already in OrderByYLo order: a sweep reads it without sorting it.
  bool sorted() const {
    return kind_ == Kind::kSortedStream || kind_ == Kind::kSortedRects;
  }
  bool resident() const { return kind_ == Kind::kSortedRects; }
  /// A stream input's stream (a resident input's holds only its count
  /// and extent).
  const DatasetRef& stream() const { return stream_; }
  const RectF* rects() const { return rects_; }
  const RTree* rtree() const { return rtree_; }
  const FeatureStore* features() const { return features_; }

  /// Number of MBR records in the relation.
  uint64_t count() const {
    return indexed() ? rtree_->meta().entry_count : stream_.count();
  }
  /// Pages occupied by the relation (index pages for trees; resident
  /// records count the pages they would fill as a stream).
  uint64_t pages() const;
  /// Spatial extent (must be computable without I/O for indexed inputs).
  RectF extent() const {
    return indexed() ? rtree_->bounding_box() : stream_.extent;
  }

 private:
  JoinInput(Kind kind, const DatasetRef& stream, const RTree* rtree)
      : kind_(kind), stream_(stream), rtree_(rtree) {}

  Kind kind_;
  DatasetRef stream_;
  const RTree* rtree_;
  const RectF* rects_ = nullptr;
  const FeatureStore* features_ = nullptr;
};

/// Visits every record of `input` in its own order: a tree's leaf level
/// in page order (RTree::ScanLeaves), a stream front to back, resident
/// records as they lie. Returns the first read error.
Status VisitRecords(const JoinInput& input,
                    const std::function<void(const RectF&)>& visit);

/// Writes every record of `input` (VisitRecords), each through `map` when
/// one is given, as a new stream on `out`: how a tree or resident records
/// become a stream for the plans that read one, and how the ε-expansion
/// writes its expanded side.
Result<StreamRange> WriteRecords(
    const JoinInput& input, Pager* out,
    const std::function<RectF(const RectF&)>& map = nullptr);

/// A tree's leaf level (in page order) or resident records as a plain
/// stream with the input's extent, written by WriteRecords to a new
/// "extract.leaves" or "extract.rects" pager on `disk`, which `*pager`
/// receives: what PBSM, SSSJ's strips and SSSJ over a tree read.
Result<DatasetRef> ExtractStream(const JoinInput& input,
                                 StorageFactory* storage, DiskModel* disk,
                                 std::unique_ptr<Pager>* pager);

/// The input's extent: a stream without one is scanned for it (charged),
/// as EnsureExtent scans; a tree's and resident records' are known.
Result<RectF> EnsureExtent(const JoinInput& input);

/// A producer of rectangles in nondecreasing ylo order — the unified input
/// representation of the paper's joins (§4): every input, indexed or not,
/// is reduced to one of these (PrepareSource below) and fed to the same
/// plane sweep, SSSJ's, PQ's or the k-way chain's.
class SortedRectSource {
 public:
  virtual ~SortedRectSource() = default;

  /// Next rectangle in ylo order, or nullopt at end of input.
  virtual std::optional<RectF> Next() = 0;

  /// Bytes of internal state right now (priority queues + leaf buffers for
  /// the index adapter); sampled by the join for Table 3.
  virtual size_t MemoryBytes() const { return 0; }

  /// The read error that ended the input early, else OK. SSSJJoin,
  /// PQJoinSources and MultiwayJoinSources return it after their sweep.
  virtual Status status() const { return Status::OK(); }
};

/// A y-sorted stream (a non-indexed input after external sorting).
class SortedStreamSource final : public SortedRectSource {
 public:
  explicit SortedStreamSource(const StreamRange& range)
      : reader_(range.pager, range.first_page, range.count) {}

  /// Defined out of line, as RTreePQSource::Next is: an inline body
  /// invites the compiler to inline it speculatively into every sweep
  /// over a SortedRectSource*, which bloats PQ's loop when the other side
  /// is an index.
  std::optional<RectF> Next() override;
  Status status() const override { return reader_.status(); }

 private:
  StreamReader<RectF> reader_;
};

/// Records already sorted by OrderByYLo in memory: a resident JoinInput,
/// a loaded partitioned unit, a test's vector.
class SortedRectsSource final : public SortedRectSource {
 public:
  /// `rects` must outlive the source.
  SortedRectsSource(const RectF* rects, uint64_t count)
      : next_(rects), end_(rects + count) {}

  /// Out of line, as SortedStreamSource::Next is.
  std::optional<RectF> Next() override;

 private:
  const RectF* next_;
  const RectF* end_;
};

/// Sorted runs merged as they are read: SSSJ's fused merge, which feeds
/// the sweep without writing the merged stream. Constructing it reads
/// each run's first block.
class MergedRunsSource final : public SortedRectSource {
 public:
  explicit MergedRunsSource(std::vector<StreamRange> runs)
      : merge_(std::move(runs), /*block_pages=*/8) {}

  /// Out of line, as SortedStreamSource::Next is.
  std::optional<RectF> Next() override;
  Status status() const override { return merge_.status(); }

 private:
  MergingReader<RectF, OrderByYLo> merge_;
};

/// The PQ index adapter: drains a packed R-tree in ylo order using a
/// priority-queue-driven traversal (Figure 1 of the paper), touching every
/// node at most once.
///
/// Following the paper's implementation notes, two queues are kept: one of
/// internal-node references (ylo + page id only) and one of per-leaf
/// cursors. When a leaf is loaded, its rectangles are copied, in ylo
/// order, into a slot of a slab the source reuses, and only the head
/// enters the leaf queue; popping the head pushes its successor. This
/// keeps queue operations on small keys and bounds queue size by the
/// number of *active* leaves. Nodes are viewed in place where the
/// backend allows (RTree::ViewNode). A bulk-loaded leaf is stored in
/// OrderByYLo order, so its copy needs no sort; a leaf found out of
/// order while copying (an insert-built tree's) is sorted in its slot.
///
/// The selective variant (§4, §6.3): a filter rectangle and/or occupancy
/// grid of the other input prunes subtrees that cannot produce join
/// results, so localized joins touch only the relevant part of the index.
///
/// A node read that fails ends the traversal: Next() returns nullopt from
/// then on and status() holds the read's error.
class RTreePQSource final : public SortedRectSource {
 public:
  struct Options {
    /// Skip subtrees whose MBR does not intersect this rectangle
    /// (typically the other input's extent). nullptr = no pruning.
    const RectF* filter = nullptr;
    /// Skip subtrees in regions where this grid (built over the other
    /// input) is empty. nullptr = no pruning. Must outlive the source.
    const GridHistogram* occupancy = nullptr;
  };

  /// Unpruned traversal (the Table 4 configuration).
  explicit RTreePQSource(const RTree* tree);
  /// Selective traversal with pruning options.
  RTreePQSource(const RTree* tree, Options options);

  std::optional<RectF> Next() override;
  size_t MemoryBytes() const override;
  Status status() const override { return status_; }

  /// Index pages this traversal has read (<= tree->node_count(), with
  /// equality for unpruned traversals — the paper's "optimal" count).
  uint64_t pages_read() const { return pages_read_; }

 private:
  struct NodeRef {
    float ylo;
    PageId page;
    uint16_t level;
  };
  struct NodeRefGreater {
    bool operator()(const NodeRef& a, const NodeRef& b) const {
      if (a.ylo != b.ylo) return a.ylo > b.ylo;
      return a.page > b.page;
    }
  };
  struct LeafHead {
    float ylo;
    uint32_t buffer;
  };
  struct LeafHeadGreater {
    bool operator()(const LeafHead& a, const LeafHead& b) const {
      if (a.ylo != b.ylo) return a.ylo > b.ylo;
      return a.buffer > b.buffer;
    }
  };
  /// An active leaf's cursor over its slab slot.
  struct LeafBuffer {
    uint32_t next = 0;
    uint32_t end = 0;
  };

  bool Pruned(const RectF& mbr) const;
  void ExpandNode(const NodeRef& ref);
  /// Slot `buffer` of the slab: kNodeCapacity records.
  RectF* Slot(uint32_t buffer) {
    return slab_.data() + static_cast<size_t>(buffer) * kNodeCapacity;
  }

  const RTree* tree_;
  Options options_;
  std::priority_queue<NodeRef, std::vector<NodeRef>, NodeRefGreater>
      node_queue_;
  std::priority_queue<LeafHead, std::vector<LeafHead>, LeafHeadGreater>
      leaf_queue_;
  std::vector<LeafBuffer> buffers_;
  std::vector<RectF> slab_;  // One slot per entry of buffers_.
  std::vector<uint32_t> free_buffers_;
  uint8_t scratch_[kPageSize];  // Backs node views off a memory backend.
  size_t buffer_bytes_ = 0;
  uint64_t pages_read_ = 0;
  Status status_;
};

/// How PrepareSource sorts a plain stream: under the caller's sort
/// request, into a runs pager and an output pager of the caller's names.
struct SourceSort {
  size_t memory_bytes = 0;
  std::string runs_name;
  std::string sorted_name;
};

/// One input as a sorted source, with what the source reads from: the
/// pagers of a plain stream's sort (or of a fused merge's runs) and a
/// tree's pruning rectangle. They must stay alive as long as the source.
struct PreparedSource {
  std::unique_ptr<SortedRectSource> source;
  std::unique_ptr<Pager> scratch;
  std::unique_ptr<Pager> sorted;
  std::unique_ptr<RectF> filter;  // Owned pruning rectangle.
  RTreePQSource* pq = nullptr;  // Set when the source is an index adapter.
  SortStats sort;  // What a stream input's sort did.

  uint64_t index_pages_read() const {
    return pq != nullptr ? pq->pages_read() : 0;
  }
};

/// The one place an input becomes a SortedRectSource:
///  - resident records are read where they lie;
///  - a sorted stream is read as it is;
///  - a plain stream is sorted by SortRectsByYLo under `sort`, with its
///    grant from `arbiter` and its pagers on `disk` (options.storage
///    backs them, options' threads form its runs);
///  - a tree becomes PQ's traversal, selective when the other input's
///    extent (`other_extent`, when valid) or occupancy histogram
///    (`other_occupancy`) is given: the §6.3 refinement that makes
///    localized joins touch only the relevant part of the index.
/// SSSJ, PQ and the k-way chain prepare their inputs here.
Result<PreparedSource> PrepareSource(
    const JoinInput& input, const SourceSort& sort, DiskModel* disk,
    const JoinOptions& options, MemoryArbiter* arbiter,
    const RectF* other_extent = nullptr,
    const GridHistogram* other_occupancy = nullptr);

}  // namespace sj

#endif  // USJ_JOIN_SOURCES_H_
