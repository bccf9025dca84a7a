#include "join/sources.h"

#include <algorithm>
#include <utility>

#include "rtree/node.h"
#include "util/logging.h"

namespace sj {

uint64_t JoinInput::pages() const {
  if (indexed()) return rtree_->node_count();
  constexpr uint64_t per_page = kPageSize / sizeof(RectF);
  return (count() + per_page - 1) / per_page;
}

Status VisitRecords(const JoinInput& input,
                    const std::function<void(const RectF&)>& visit) {
  switch (input.kind()) {
    case JoinInput::Kind::kRTree: {
      const RTree& tree = *input.rtree();
      return tree.ScanLeaves(tree.bounding_box(), visit).status();
    }
    case JoinInput::Kind::kSortedRects:
      for (uint64_t i = 0; i < input.count(); ++i) visit(input.rects()[i]);
      return Status::OK();
    case JoinInput::Kind::kStream:
    case JoinInput::Kind::kSortedStream: {
      const StreamRange& range = input.stream().range;
      StreamReader<RectF> reader(range.pager, range.first_page, range.count);
      while (std::optional<RectF> r = reader.Next()) visit(*r);
      return reader.status();
    }
  }
  return Status::Internal("unreachable join input kind");
}

Result<StreamRange> WriteRecords(
    const JoinInput& input, Pager* out,
    const std::function<RectF(const RectF&)>& map) {
  StreamWriter<RectF> writer(out);
  const PageId first = writer.first_page();
  const Status read = VisitRecords(input, [&](const RectF& r) {
    writer.Append(map ? map(r) : r);
  });
  if (!read.ok()) {
    writer.Abandon();
    return read;
  }
  SJ_ASSIGN_OR_RETURN(uint64_t n, writer.Finish());
  return StreamRange{out, first, n};
}

Result<DatasetRef> ExtractStream(const JoinInput& input,
                                 StorageFactory* storage, DiskModel* disk,
                                 std::unique_ptr<Pager>* pager) {
  SJ_ASSIGN_OR_RETURN(
      *pager, MakePager(storage, disk,
                        input.indexed() ? "extract.leaves" : "extract.rects"));
  DatasetRef ref;
  SJ_ASSIGN_OR_RETURN(ref.range, WriteRecords(input, pager->get()));
  ref.extent = input.extent();
  return ref;
}

Result<RectF> EnsureExtent(const JoinInput& input) {
  if (input.indexed() || input.resident()) return input.extent();
  return EnsureExtent(input.stream());
}

std::optional<RectF> SortedStreamSource::Next() { return reader_.Next(); }

std::optional<RectF> SortedRectsSource::Next() {
  if (next_ == end_) return std::nullopt;
  return *next_++;
}

std::optional<RectF> MergedRunsSource::Next() { return merge_.Next(); }

RTreePQSource::RTreePQSource(const RTree* tree)
    : RTreePQSource(tree, Options()) {}

RTreePQSource::RTreePQSource(const RTree* tree, Options options)
    : tree_(tree), options_(options) {
  if (tree_->meta().entry_count == 0) return;
  const RectF& bbox = tree_->bounding_box();
  if (Pruned(bbox)) return;
  node_queue_.push(NodeRef{bbox.ylo, tree_->root(),
                           static_cast<uint16_t>(tree_->height() - 1)});
}

bool RTreePQSource::Pruned(const RectF& mbr) const {
  if (options_.filter != nullptr && !mbr.Intersects(*options_.filter)) {
    return true;
  }
  if (options_.occupancy != nullptr && !options_.occupancy->MightIntersect(mbr)) {
    return true;
  }
  return false;
}

void RTreePQSource::ExpandNode(const NodeRef& ref) {
  Result<const uint8_t*> bytes = tree_->ViewNode(ref.page, scratch_);
  if (!bytes.ok()) {
    status_ = bytes.status();
    return;
  }
  pages_read_++;
  const NodeView node(*bytes);
  SJ_CHECK(node.level() == ref.level) << "R-tree level corruption";
  if (ref.level > 0) {
    for (uint32_t i = 0; i < node.count(); ++i) {
      const RectF e = node.Entry(i);
      if (Pruned(e)) continue;
      node_queue_.push(
          NodeRef{e.ylo, e.id, static_cast<uint16_t>(ref.level - 1)});
    }
    return;
  }
  // Leaf: copy its rectangles into a free slot in ylo order and enqueue
  // only the head. Data rectangles that cannot join (outside the
  // filter/occupancy region) are dropped here — they could only be
  // discarded by the sweep anyway. The slot is taken only once the leaf
  // turns out to hold a record: slot numbers break ylo ties in the leaf
  // queue, so a leaf that contributes nothing must not consume one.
  const bool reuse = !free_buffers_.empty();
  const uint32_t idx =
      reuse ? free_buffers_.back() : static_cast<uint32_t>(buffers_.size());
  if (slab_.size() < (static_cast<size_t>(idx) + 1) * kNodeCapacity) {
    slab_.resize((static_cast<size_t>(idx) + 1) * kNodeCapacity);
  }
  RectF* slot = Slot(idx);
  uint32_t n = 0;
  bool sorted = true;
  for (uint32_t i = 0; i < node.count(); ++i) {
    const RectF e = node.Entry(i);
    if (Pruned(e)) continue;
    if (n > 0 && OrderByYLo()(e, slot[n - 1])) sorted = false;
    slot[n++] = e;
  }
  if (n == 0) return;
  if (!sorted) std::sort(slot, slot + n, OrderByYLo());
  if (reuse) {
    free_buffers_.pop_back();
  } else {
    buffers_.emplace_back();
  }
  buffers_[idx] = LeafBuffer{0, n};
  buffer_bytes_ += n * sizeof(RectF);
  leaf_queue_.push(LeafHead{slot[0].ylo, idx});
}

std::optional<RectF> RTreePQSource::Next() {
  while (status_.ok()) {
    const bool have_node = !node_queue_.empty();
    const bool have_leaf = !leaf_queue_.empty();
    if (!have_node && !have_leaf) return std::nullopt;
    // Expand internal nodes until the smallest pending key is a data
    // rectangle.
    if (have_node &&
        (!have_leaf || node_queue_.top().ylo < leaf_queue_.top().ylo)) {
      const NodeRef ref = node_queue_.top();
      node_queue_.pop();
      ExpandNode(ref);
      continue;
    }
    const LeafHead head = leaf_queue_.top();
    leaf_queue_.pop();
    LeafBuffer& buffer = buffers_[head.buffer];
    const RectF* slot = Slot(head.buffer);
    const RectF rect = slot[buffer.next++];
    if (buffer.next < buffer.end) {
      leaf_queue_.push(LeafHead{slot[buffer.next].ylo, head.buffer});
    } else {
      buffer_bytes_ -= buffer.end * sizeof(RectF);
      free_buffers_.push_back(head.buffer);
    }
    return rect;
  }
  return std::nullopt;
}

size_t RTreePQSource::MemoryBytes() const {
  return node_queue_.size() * sizeof(NodeRef) +
         leaf_queue_.size() * sizeof(LeafHead) + buffer_bytes_;
}

Result<PreparedSource> PrepareSource(const JoinInput& input,
                                     const SourceSort& sort, DiskModel* disk,
                                     const JoinOptions& options,
                                     MemoryArbiter* arbiter,
                                     const RectF* other_extent,
                                     const GridHistogram* other_occupancy) {
  PreparedSource prepared;
  switch (input.kind()) {
    case JoinInput::Kind::kRTree: {
      RTreePQSource::Options pruning;
      if (other_extent != nullptr && other_extent->Valid()) {
        prepared.filter = std::make_unique<RectF>(*other_extent);
        pruning.filter = prepared.filter.get();
      }
      pruning.occupancy = other_occupancy;
      auto source = std::make_unique<RTreePQSource>(input.rtree(), pruning);
      prepared.pq = source.get();
      prepared.source = std::move(source);
      return prepared;
    }
    case JoinInput::Kind::kSortedRects:
      prepared.source =
          std::make_unique<SortedRectsSource>(input.rects(), input.count());
      return prepared;
    case JoinInput::Kind::kSortedStream:
      prepared.source =
          std::make_unique<SortedStreamSource>(input.stream().range);
      return prepared;
    case JoinInput::Kind::kStream: {
      StorageFactory* storage = options.storage.get();
      SJ_ASSIGN_OR_RETURN(prepared.scratch,
                          MakePager(storage, disk, sort.runs_name));
      SJ_ASSIGN_OR_RETURN(prepared.sorted,
                          MakePager(storage, disk, sort.sorted_name));
      SJ_ASSIGN_OR_RETURN(
          const StreamRange sorted,
          SortRectsByYLo(input.stream().range, prepared.scratch.get(),
                         prepared.sorted.get(), sort.memory_bytes, arbiter,
                         SortConfigOf(options), &prepared.sort));
      prepared.source = std::make_unique<SortedStreamSource>(sorted);
      return prepared;
    }
  }
  return Status::Internal("unreachable join input kind");
}

}  // namespace sj
