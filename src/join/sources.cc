#include "join/sources.h"

#include <algorithm>
#include <utility>

#include "rtree/node.h"
#include "util/logging.h"

namespace sj {

std::optional<RectF> SortedStreamSource::Next() { return reader_.Next(); }

std::optional<RectF> SortedRectsSource::Next() {
  if (next_ == end_) return std::nullopt;
  return *next_++;
}

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
  uint8_t buf[kPageSize];
  Status read = tree_->ReadNode(ref.page, buf);
  if (!read.ok()) {
    status_ = std::move(read);
    return;
  }
  pages_read_++;
  const NodeView node(buf);
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
  // Leaf: sort its rectangles by ylo and enqueue only the head. Data
  // rectangles that cannot join (outside the filter/occupancy region) are
  // dropped here — they could only be discarded by the sweep anyway.
  LeafBuffer leaf;
  leaf.rects.reserve(node.count());
  for (uint32_t i = 0; i < node.count(); ++i) {
    const RectF e = node.Entry(i);
    if (Pruned(e)) continue;
    leaf.rects.push_back(e);
  }
  if (leaf.rects.empty()) return;
  std::sort(leaf.rects.begin(), leaf.rects.end(), OrderByYLo());
  uint32_t idx;
  if (!free_buffers_.empty()) {
    idx = free_buffers_.back();
    free_buffers_.pop_back();
    buffers_[idx] = std::move(leaf);
  } else {
    idx = static_cast<uint32_t>(buffers_.size());
    buffers_.push_back(std::move(leaf));
  }
  buffer_bytes_ += buffers_[idx].rects.size() * sizeof(RectF);
  leaf_queue_.push(LeafHead{buffers_[idx].rects[0].ylo, idx});
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
    const RectF rect = buffer.rects[buffer.next++];
    if (buffer.next < buffer.rects.size()) {
      leaf_queue_.push(
          LeafHead{buffer.rects[buffer.next].ylo, head.buffer});
    } else {
      buffer_bytes_ -= buffer.rects.size() * sizeof(RectF);
      buffer.rects.clear();
      buffer.rects.shrink_to_fit();
      buffer.next = 0;
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

}  // namespace sj
