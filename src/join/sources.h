#ifndef USJ_JOIN_SOURCES_H_
#define USJ_JOIN_SOURCES_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "geometry/rect.h"
#include "histogram/grid_histogram.h"
#include "io/stream.h"
#include "rtree/rtree.h"
#include "sort/external_sort.h"

namespace sj {

/// A producer of rectangles in nondecreasing ylo order — the unified input
/// representation of the PQ join (§4): every input, indexed or not, is
/// reduced to one of these and fed to the same plane sweep.
class SortedRectSource {
 public:
  virtual ~SortedRectSource() = default;

  /// Next rectangle in ylo order, or nullopt at end of input.
  virtual std::optional<RectF> Next() = 0;

  /// Bytes of internal state right now (priority queues + leaf buffers for
  /// the index adapter); sampled by the join for Table 3.
  virtual size_t MemoryBytes() const { return 0; }

  /// The read error that ended the input early, else OK. PQJoinSources
  /// and MultiwayJoinSources return it after their sweep.
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

/// Records already sorted in memory (a resident JoinInput).
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

/// The PQ index adapter: drains a packed R-tree in ylo order using a
/// priority-queue-driven traversal (Figure 1 of the paper), touching every
/// node at most once.
///
/// Following the paper's implementation notes, two queues are kept: one of
/// internal-node references (ylo + page id only) and one of per-leaf
/// cursors. When a leaf is loaded, its rectangles are sorted by ylo once
/// and only the head enters the leaf queue; popping the head pushes its
/// successor. This keeps queue operations on small keys and bounds queue
/// size by the number of *active* leaves.
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
  struct LeafBuffer {
    std::vector<RectF> rects;
    uint32_t next = 0;
  };

  bool Pruned(const RectF& mbr) const;
  void ExpandNode(const NodeRef& ref);

  const RTree* tree_;
  Options options_;
  std::priority_queue<NodeRef, std::vector<NodeRef>, NodeRefGreater>
      node_queue_;
  std::priority_queue<LeafHead, std::vector<LeafHead>, LeafHeadGreater>
      leaf_queue_;
  std::vector<LeafBuffer> buffers_;
  std::vector<uint32_t> free_buffers_;
  size_t buffer_bytes_ = 0;
  uint64_t pages_read_ = 0;
  Status status_;
};

}  // namespace sj

#endif  // USJ_JOIN_SOURCES_H_
