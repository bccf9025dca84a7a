#ifndef USJ_RTREE_NODE_H_
#define USJ_RTREE_NODE_H_

#include <cstdint>
#include <cstring>

#include "geometry/rect.h"
#include "io/disk_model.h"
#include "util/logging.h"

namespace sj {

/// On-page header of an R-tree node. Level 0 is a leaf; the root has level
/// `height - 1`.
struct NodeHeader {
  uint16_t level = 0;
  uint16_t count = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(NodeHeader) == 8);

/// Hard capacity of an 8 KB node page: (8192 - 8) / 20 = 409 entries. The
/// paper configures the *fanout* to 400 (RTreeParams::max_entries); the
/// remaining slots are simply unused.
inline constexpr uint32_t kNodeCapacity =
    static_cast<uint32_t>((kPageSize - sizeof(NodeHeader)) / sizeof(RectF));

/// Entries of a node: in leaves, RectF::id is the data object id; in
/// internal nodes, RectF::id is the child PageId and the rectangle is the
/// child's MBR.
///
/// NodeView/NodeBuilder interpret a caller-owned kPageSize buffer; they
/// never own memory, so they can wrap stack buffers, buffer-pool copies, or
/// stream blocks alike.
class NodeView {
 public:
  /// `page` must point at kPageSize readable bytes.
  explicit NodeView(const void* page)
      : page_(static_cast<const uint8_t*>(page)) {
    std::memcpy(&header_, page_, sizeof(header_));
    SJ_DCHECK(header_.count <= kNodeCapacity);
  }

  uint16_t level() const { return header_.level; }
  bool IsLeaf() const { return header_.level == 0; }
  uint32_t count() const { return header_.count; }

  RectF Entry(uint32_t i) const {
    SJ_DCHECK(i < header_.count);
    RectF r;
    std::memcpy(&r, page_ + sizeof(NodeHeader) + i * sizeof(RectF),
                sizeof(RectF));
    return r;
  }

  /// MBR of all entries (the node's bounding rectangle).
  RectF ComputeMbr() const {
    RectF mbr = RectF::Empty();
    for (uint32_t i = 0; i < count(); ++i) mbr.ExtendTo(Entry(i));
    mbr.id = 0;
    return mbr;
  }

 private:
  const uint8_t* page_;
  NodeHeader header_;
};

/// Mutable counterpart of NodeView for constructing or updating a node
/// page in place.
class NodeBuilder {
 public:
  /// Wraps (without clearing) a caller-owned kPageSize buffer.
  explicit NodeBuilder(void* page) : page_(static_cast<uint8_t*>(page)) {}

  /// Zeroes the page and writes a fresh header.
  void Reset(uint16_t level) {
    std::memset(page_, 0, kPageSize);
    NodeHeader h;
    h.level = level;
    std::memcpy(page_, &h, sizeof(h));
  }

  uint16_t level() const { return Header().level; }
  uint32_t count() const { return Header().count; }
  bool Full(uint32_t max_entries) const { return count() >= max_entries; }

  RectF Entry(uint32_t i) const {
    SJ_DCHECK(i < count());
    RectF r;
    std::memcpy(&r, page_ + sizeof(NodeHeader) + i * sizeof(RectF),
                sizeof(RectF));
    return r;
  }

  void SetEntry(uint32_t i, const RectF& r) {
    SJ_DCHECK(i < count());
    std::memcpy(page_ + sizeof(NodeHeader) + i * sizeof(RectF), &r,
                sizeof(RectF));
  }

  void Append(const RectF& r) {
    NodeHeader h = Header();
    SJ_CHECK(h.count < kNodeCapacity) << "node page overflow";
    std::memcpy(page_ + sizeof(NodeHeader) + h.count * sizeof(RectF), &r,
                sizeof(RectF));
    h.count++;
    std::memcpy(page_, &h, sizeof(h));
  }

  /// Removes entry `i` by swapping in the last entry (order not
  /// preserved).
  void RemoveEntry(uint32_t i) {
    NodeHeader h = Header();
    SJ_DCHECK(i < h.count);
    SetEntry(i, Entry(h.count - 1));
    h.count--;
    std::memcpy(page_, &h, sizeof(h));
  }

  RectF ComputeMbr() const { return NodeView(page_).ComputeMbr(); }

  const uint8_t* data() const { return page_; }

 private:
  NodeHeader Header() const {
    NodeHeader h;
    std::memcpy(&h, page_, sizeof(h));
    return h;
  }

  uint8_t* page_;
};

}  // namespace sj

#endif  // USJ_RTREE_NODE_H_
