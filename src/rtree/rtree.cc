#include "rtree/rtree.h"

#include <algorithm>
#include <cmath>

#include "geometry/hilbert.h"
#include "io/stream.h"
#include "util/logging.h"
#include "util/timer.h"

namespace sj {
namespace {

/// Hilbert-keyed rectangle, the record type sorted during bulk loading.
/// Split 64-bit key into two 32-bit halves to keep 4-byte alignment and a
/// 28-byte record (no padding).
struct HilbertRect {
  uint32_t key_hi = 0;
  uint32_t key_lo = 0;
  RectF rect;
};
static_assert(sizeof(HilbertRect) == 28);

struct HilbertLess {
  bool operator()(const HilbertRect& a, const HilbertRect& b) const {
    if (a.key_hi != b.key_hi) return a.key_hi < b.key_hi;
    if (a.key_lo != b.key_lo) return a.key_lo < b.key_lo;
    return a.rect.id < b.rect.id;
  }
};

Result<RectF> ComputeStreamExtent(const StreamRange& input) {
  StreamReader<RectF> reader(input.pager, input.first_page, input.count);
  RectF extent = RectF::Empty();
  while (std::optional<RectF> r = reader.Next()) {
    if (!r->Valid()) {
      return Status::InvalidArgument("malformed rectangle in bulk-load input: " +
                                     r->ToString());
    }
    extent.ExtendTo(*r);
  }
  SJ_RETURN_IF_ERROR(reader.status());
  extent.id = 0;
  return extent;
}

/// Incremental node packer implementing the paper's fill heuristic: fill
/// to `bulk_fill * max_entries`, then keep adding while the area grows by
/// at most `bulk_area_slack` per added rectangle.
class NodePacker {
 public:
  NodePacker(Pager* pager, const RTreeParams& params, uint16_t level,
             std::vector<RectF>* parents)
      : pager_(pager),
        params_(params),
        level_(level),
        parents_(parents),
        builder_(buf_) {
    base_fill_ = std::max<uint32_t>(
        1, static_cast<uint32_t>(std::lround(params.bulk_fill *
                                             params.max_entries)));
    base_fill_ = std::min(base_fill_, params.max_entries);
    builder_.Reset(level_);
  }

  Status Add(const RectF& r) {
    if (builder_.count() >= base_fill_) {
      const bool full = builder_.count() >= params_.max_entries;
      const double area = mbr_.Area();
      RectF grown = mbr_;
      grown.ExtendTo(r);
      const bool grows_too_much =
          area > 0.0 ? grown.Area() > (1.0 + params_.bulk_area_slack) * area
                     : grown.Area() > 0.0;
      if (full || grows_too_much) SJ_RETURN_IF_ERROR(Flush());
    }
    if (builder_.count() == 0) mbr_ = RectF::Empty();
    builder_.Append(r);
    mbr_.ExtendTo(r);
    return Status::OK();
  }

  /// Writes the final partial node (if any); returns nodes written.
  Result<uint64_t> Finish() {
    if (builder_.count() > 0) SJ_RETURN_IF_ERROR(Flush());
    return nodes_written_;
  }

 private:
  Status Flush() {
    if (level_ == 0) SortLeafEntries();
    const PageId page = pager_->Allocate(1);
    SJ_RETURN_IF_ERROR(pager_->WritePage(page, builder_.data()));
    RectF parent_ref = mbr_;
    parent_ref.id = page;
    parents_->push_back(parent_ref);
    nodes_written_++;
    builder_.Reset(level_);
    mbr_ = RectF::Empty();
    return Status::OK();
  }

  /// A leaf goes to disk with its entries in OrderByYLo order, the order
  /// PQ's traversal drains them in, so it reads them in place instead of
  /// sorting them on every query. Which leaf an entry lands in does not
  /// depend on the order inside one.
  void SortLeafEntries() {
    const uint32_t n = builder_.count();
    leaf_.clear();
    for (uint32_t i = 0; i < n; ++i) leaf_.push_back(builder_.Entry(i));
    std::sort(leaf_.begin(), leaf_.end(), OrderByYLo());
    for (uint32_t i = 0; i < n; ++i) builder_.SetEntry(i, leaf_[i]);
  }

  Pager* pager_;
  const RTreeParams& params_;
  uint16_t level_;
  std::vector<RectF>* parents_;
  uint8_t buf_[kPageSize] = {};
  NodeBuilder builder_;
  RectF mbr_ = RectF::Empty();
  uint32_t base_fill_;
  uint64_t nodes_written_ = 0;
  std::vector<RectF> leaf_;  // SortLeafEntries' scratch.
};

}  // namespace

Status RTree::PackLevel(Pager* pager, const RTreeParams& params,
                        uint16_t level, const std::vector<RectF>& entries,
                        std::vector<RectF>* parents, uint64_t* nodes_written) {
  NodePacker packer(pager, params, level, parents);
  for (const RectF& e : entries) SJ_RETURN_IF_ERROR(packer.Add(e));
  SJ_ASSIGN_OR_RETURN(*nodes_written, packer.Finish());
  return Status::OK();
}

Status RTree::BuildUpperLevels(Pager* pager, const RTreeParams& params,
                               std::vector<RectF> level_refs,
                               uint64_t leaf_count, uint64_t entry_count,
                               RectF bbox, RTreeMeta* meta) {
  uint64_t nodes = leaf_count;
  uint16_t level = 1;
  while (level_refs.size() > 1) {
    std::vector<RectF> parents;
    uint64_t written = 0;
    SJ_RETURN_IF_ERROR(PackLevel(pager, params, level, level_refs, &parents,
                                 &written));
    nodes += written;
    level_refs = std::move(parents);
    level++;
  }
  SJ_CHECK(level_refs.size() == 1);
  meta->root = level_refs[0].id;
  meta->height = level;  // Levels 0 .. level-1 exist.
  meta->node_count = nodes;
  meta->leaf_count = leaf_count;
  meta->entry_count = entry_count;
  meta->bounding_box = bbox;
  return Status::OK();
}

Result<RTree> RTree::BulkLoadHilbert(Pager* tree_pager,
                                     const StreamRange& input, Pager* scratch,
                                     const RTreeParams& params,
                                     size_t memory_bytes,
                                     const SortConfig& sort_config) {
  SJ_CHECK(params.max_entries >= 2 && params.max_entries <= kNodeCapacity)
      << "fanout out of range" << params.max_entries;
  if (input.count == 0) return CreateEmpty(tree_pager, params);

  // Pass 1: global extent (needed to grid the Hilbert curve).
  SJ_ASSIGN_OR_RETURN(RectF extent, ComputeStreamExtent(input));

  // Pass 2: attach Hilbert keys of rectangle centers.
  const HilbertCurve curve(params.hilbert_order);
  StreamRange keyed;
  {
    StreamReader<RectF> reader(input.pager, input.first_page, input.count);
    StreamWriter<HilbertRect> writer(scratch);
    const PageId first = writer.first_page();
    while (std::optional<RectF> r = reader.Next()) {
      const uint64_t key = HilbertKey(curve, extent, r->CenterX(), r->CenterY());
      HilbertRect hr;
      hr.key_hi = static_cast<uint32_t>(key >> 32);
      hr.key_lo = static_cast<uint32_t>(key);
      hr.rect = *r;
      writer.Append(hr);
    }
    SJ_ASSIGN_OR_RETURN(uint64_t n, writer.Finish());
    SJ_RETURN_IF_ERROR(reader.status());
    keyed = StreamRange{scratch, first, n};
  }

  // Sort by Hilbert key.
  ExternalSorter<HilbertRect, HilbertLess> sorter(
      memory_bytes, scratch, HilbertLess(), /*arbiter=*/nullptr, sort_config);
  SJ_ASSIGN_OR_RETURN(StreamRange sorted, sorter.Sort(keyed, scratch));

  // Pass 3: pack leaves in key order; leaves land on consecutive pages.
  std::vector<RectF> leaf_refs;
  uint64_t leaf_count = 0;
  {
    NodePacker packer(tree_pager, params, /*level=*/0, &leaf_refs);
    StreamReader<HilbertRect> reader(sorted.pager, sorted.first_page,
                                     sorted.count);
    while (std::optional<HilbertRect> hr = reader.Next()) {
      SJ_RETURN_IF_ERROR(packer.Add(hr->rect));
    }
    SJ_RETURN_IF_ERROR(reader.status());
    SJ_ASSIGN_OR_RETURN(leaf_count, packer.Finish());
  }

  RTreeMeta meta;
  SJ_RETURN_IF_ERROR(BuildUpperLevels(tree_pager, params, std::move(leaf_refs),
                                      leaf_count, input.count, extent, &meta));
  return RTree(tree_pager, params, meta);
}

Result<RTree> RTree::CreateEmpty(Pager* tree_pager, const RTreeParams& params) {
  SJ_CHECK(params.max_entries >= 2 && params.max_entries <= kNodeCapacity);
  uint8_t buf[kPageSize];
  NodeBuilder builder(buf);
  builder.Reset(/*level=*/0);
  const PageId root = tree_pager->Allocate(1);
  SJ_RETURN_IF_ERROR(tree_pager->WritePage(root, buf));
  RTreeMeta meta;
  meta.root = root;
  meta.height = 1;
  meta.node_count = 1;
  meta.leaf_count = 1;
  meta.entry_count = 0;
  meta.bounding_box = RectF::Empty();
  return RTree(tree_pager, params, meta);
}

Result<const uint8_t*> RTree::ViewNode(PageId page, uint8_t* scratch) const {
  pager_->ChargeRead(page, 1);
  return ViewUncharged(page, scratch);
}

Result<const uint8_t*> RTree::ViewUncharged(PageId page,
                                          uint8_t* scratch) const {
  WallTimer wall;
  Result<const uint8_t*> bytes = pager_->backend()->ViewPage(page, scratch);
  pager_->disk()->AddIoWall(wall.Elapsed());
  return bytes;
}

namespace {

/// Quadratic-split group assignment (Guttman 1984). Returns the entries
/// partitioned into two groups, each holding at least `min_entries`.
void QuadraticSplit(std::vector<RectF> all, uint32_t min_entries,
                    std::vector<RectF>* g1, std::vector<RectF>* g2) {
  SJ_CHECK(all.size() >= 2);
  // PickSeeds: the pair wasting the most area when combined.
  size_t seed1 = 0, seed2 = 1;
  double worst = -1.0;
  for (size_t i = 0; i < all.size(); ++i) {
    for (size_t j = i + 1; j < all.size(); ++j) {
      RectF u = all[i];
      u.ExtendTo(all[j]);
      const double d = u.Area() - all[i].Area() - all[j].Area();
      if (d > worst) {
        worst = d;
        seed1 = i;
        seed2 = j;
      }
    }
  }
  RectF mbr1 = all[seed1], mbr2 = all[seed2];
  g1->push_back(all[seed1]);
  g2->push_back(all[seed2]);
  // Erase the larger index first so the smaller stays valid.
  all.erase(all.begin() + static_cast<ptrdiff_t>(seed2));
  all.erase(all.begin() + static_cast<ptrdiff_t>(seed1));

  while (!all.empty()) {
    // If one group must absorb the rest to reach the minimum, do so.
    if (g1->size() + all.size() == min_entries) {
      for (const RectF& r : all) g1->push_back(r);
      break;
    }
    if (g2->size() + all.size() == min_entries) {
      for (const RectF& r : all) g2->push_back(r);
      break;
    }
    // PickNext: the entry with the strongest preference.
    size_t best = 0;
    double best_diff = -1.0;
    for (size_t i = 0; i < all.size(); ++i) {
      const double d1 = mbr1.Enlargement(all[i]);
      const double d2 = mbr2.Enlargement(all[i]);
      const double diff = std::abs(d1 - d2);
      if (diff > best_diff) {
        best_diff = diff;
        best = i;
      }
    }
    const RectF r = all[best];
    all.erase(all.begin() + static_cast<ptrdiff_t>(best));
    const double d1 = mbr1.Enlargement(r);
    const double d2 = mbr2.Enlargement(r);
    bool to_first;
    if (d1 != d2) {
      to_first = d1 < d2;
    } else if (mbr1.Area() != mbr2.Area()) {
      to_first = mbr1.Area() < mbr2.Area();
    } else {
      to_first = g1->size() <= g2->size();
    }
    if (to_first) {
      g1->push_back(r);
      mbr1.ExtendTo(r);
    } else {
      g2->push_back(r);
      mbr2.ExtendTo(r);
    }
  }
}

void FillNode(NodeBuilder* builder, uint16_t level,
              const std::vector<RectF>& entries) {
  builder->Reset(level);
  for (const RectF& r : entries) builder->Append(r);
}

}  // namespace

Status RTree::Insert(const RectF& rect) {
  if (!rect.Valid()) {
    return Status::InvalidArgument("Insert of malformed rectangle: " +
                                   rect.ToString());
  }
  SJ_RETURN_IF_ERROR(InsertEntry(rect, /*target_level=*/0));
  meta_.entry_count++;
  meta_.bounding_box.ExtendTo(rect);
  return Status::OK();
}

Status RTree::InsertEntry(const RectF& entry, uint16_t target_level) {
  RectF root_mbr;
  SplitResult split;
  SJ_RETURN_IF_ERROR(
      InsertRec(meta_.root, entry, target_level, &root_mbr, &split));
  if (split.split) {
    // Grow the tree: new root with the old root and its new sibling.
    uint8_t buf[kPageSize];
    NodeBuilder builder(buf);
    builder.Reset(meta_.height);  // New level above the old root.
    root_mbr.id = meta_.root;
    builder.Append(root_mbr);
    builder.Append(split.new_entry);
    const PageId new_root = pager_->Allocate(1);
    SJ_RETURN_IF_ERROR(pager_->WritePage(new_root, buf));
    meta_.root = new_root;
    meta_.height++;
    meta_.node_count++;
  }
  return Status::OK();
}

Status RTree::InsertRec(PageId page, const RectF& rect, uint16_t target_level,
                        RectF* mbr_out, SplitResult* split) {
  uint8_t buf[kPageSize];
  SJ_RETURN_IF_ERROR(pager_->ReadPage(page, buf));
  NodeBuilder node(buf);
  split->split = false;

  if (node.level() == target_level) {
    if (node.count() < params_.max_entries) {
      node.Append(rect);
      SJ_RETURN_IF_ERROR(pager_->WritePage(page, buf));
      *mbr_out = node.ComputeMbr();
      return Status::OK();
    }
    SJ_RETURN_IF_ERROR(SplitNode(&node, rect, node.level(), split));
    SJ_RETURN_IF_ERROR(pager_->WritePage(page, buf));
    *mbr_out = node.ComputeMbr();
    return Status::OK();
  }

  // ChooseSubtree: least enlargement, then least area, then lowest index.
  uint32_t best = 0;
  double best_enlarge = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (uint32_t i = 0; i < node.count(); ++i) {
    const RectF e = node.Entry(i);
    const double enlarge = e.Enlargement(rect);
    const double area = e.Area();
    if (enlarge < best_enlarge ||
        (enlarge == best_enlarge && area < best_area)) {
      best = i;
      best_enlarge = enlarge;
      best_area = area;
    }
  }
  const RectF child_ref = node.Entry(best);
  RectF child_mbr;
  SplitResult child_split;
  SJ_RETURN_IF_ERROR(
      InsertRec(child_ref.id, rect, target_level, &child_mbr, &child_split));
  child_mbr.id = child_ref.id;
  node.SetEntry(best, child_mbr);

  if (child_split.split) {
    if (node.count() < params_.max_entries) {
      node.Append(child_split.new_entry);
    } else {
      SJ_RETURN_IF_ERROR(
          SplitNode(&node, child_split.new_entry, node.level(), split));
    }
  }
  SJ_RETURN_IF_ERROR(pager_->WritePage(page, buf));
  *mbr_out = node.ComputeMbr();
  return Status::OK();
}

Status RTree::SplitNode(NodeBuilder* node, const RectF& extra, uint16_t level,
                        SplitResult* out) {
  std::vector<RectF> all;
  all.reserve(node->count() + 1);
  for (uint32_t i = 0; i < node->count(); ++i) all.push_back(node->Entry(i));
  all.push_back(extra);

  std::vector<RectF> g1, g2;
  QuadraticSplit(std::move(all), params_.EffectiveMinEntries(), &g1, &g2);

  FillNode(node, level, g1);

  uint8_t buf[kPageSize];
  NodeBuilder sibling(buf);
  FillNode(&sibling, level, g2);
  const PageId new_page = pager_->Allocate(1);
  SJ_RETURN_IF_ERROR(pager_->WritePage(new_page, buf));

  out->split = true;
  out->new_entry = sibling.ComputeMbr();
  out->new_entry.id = new_page;
  meta_.node_count++;
  if (level == 0) meta_.leaf_count++;
  return Status::OK();
}

Status RTree::Delete(const RectF& rect) {
  bool found = false;
  bool underflow = false;
  std::vector<Orphan> orphans;
  SJ_RETURN_IF_ERROR(DeleteRec(meta_.root,
                               static_cast<uint16_t>(meta_.height - 1), rect,
                               &found, &underflow, &orphans));
  if (!found) {
    return Status::NotFound("no entry matching " + rect.ToString());
  }
  meta_.entry_count--;

  // Reinsert orphaned subtrees at their original levels (deepest first so
  // the tree never has to grow to host them).
  std::sort(orphans.begin(), orphans.end(),
            [](const Orphan& a, const Orphan& b) { return a.level > b.level; });
  for (const Orphan& orphan : orphans) {
    SJ_RETURN_IF_ERROR(InsertEntry(orphan.entry, orphan.level));
  }

  // Collapse a root that has dwindled to a single child.
  uint8_t buf[kPageSize];
  SJ_RETURN_IF_ERROR(pager_->ReadPage(meta_.root, buf));
  NodeView root(buf);
  while (root.level() > 0 && root.count() == 1) {
    meta_.root = root.Entry(0).id;
    meta_.height--;
    meta_.node_count--;
    SJ_RETURN_IF_ERROR(pager_->ReadPage(meta_.root, buf));
    root = NodeView(buf);
  }
  // Tighten the cached bounding box.
  meta_.bounding_box = meta_.entry_count == 0 ? RectF::Empty()
                                              : NodeView(buf).ComputeMbr();
  return Status::OK();
}

Status RTree::DeleteRec(PageId page, uint16_t level, const RectF& rect,
                        bool* found, bool* underflow,
                        std::vector<Orphan>* orphans) {
  uint8_t buf[kPageSize];
  SJ_RETURN_IF_ERROR(pager_->ReadPage(page, buf));
  NodeBuilder node(buf);
  *underflow = false;

  if (level == 0) {
    for (uint32_t i = 0; i < node.count(); ++i) {
      if (!(node.Entry(i) == rect)) continue;
      node.RemoveEntry(i);
      SJ_RETURN_IF_ERROR(pager_->WritePage(page, buf));
      *found = true;
      *underflow = node.count() < params_.EffectiveMinEntries();
      return Status::OK();
    }
    return Status::OK();  // Not in this leaf.
  }

  for (uint32_t i = 0; i < node.count(); ++i) {
    const RectF child_ref = node.Entry(i);
    if (!child_ref.Intersects(rect)) continue;
    bool child_underflow = false;
    SJ_RETURN_IF_ERROR(DeleteRec(child_ref.id,
                                 static_cast<uint16_t>(level - 1), rect,
                                 found, &child_underflow, orphans));
    if (!*found) continue;

    if (child_underflow) {
      // Dissolve the child: collect its remaining entries as orphans and
      // drop it from this node.
      uint8_t child_buf[kPageSize];
      SJ_RETURN_IF_ERROR(pager_->ReadPage(child_ref.id, child_buf));
      const NodeView child(child_buf);
      for (uint32_t j = 0; j < child.count(); ++j) {
        orphans->push_back(
            Orphan{child.Entry(j), static_cast<uint16_t>(level - 1)});
      }
      meta_.node_count--;
      if (level - 1 == 0) meta_.leaf_count--;
      node.RemoveEntry(i);
    } else {
      // Tighten this child's bounding rectangle.
      uint8_t child_buf[kPageSize];
      SJ_RETURN_IF_ERROR(pager_->ReadPage(child_ref.id, child_buf));
      RectF tightened = NodeView(child_buf).ComputeMbr();
      tightened.id = child_ref.id;
      node.SetEntry(i, tightened);
    }
    SJ_RETURN_IF_ERROR(pager_->WritePage(page, buf));
    *underflow = node.count() < params_.EffectiveMinEntries();
    return Status::OK();
  }
  return Status::OK();  // Not under this node.
}

Result<uint64_t> RTree::ScanLeaves(const RectF& window,
                                   const EntryVisitor& visit) const {
  // Backs the views only where the backend cannot read in place. Only
  // the views are timed: the visitor's own I/O (a leaf extraction's
  // writes) adds its own wall time.
  uint8_t scratch[kPageSize];
  uint64_t pages_read = 0;

  // The internal levels, top-down, each in page order; a root that is a
  // leaf is the whole leaf level.
  std::vector<PageId> level = {meta_.root};
  std::vector<PageId> leaves;
  if (meta_.height <= 1) leaves.swap(level);
  while (!level.empty()) {
    std::vector<PageId> below;
    for (const PageId page : level) {
      pager_->ChargeRead(page, 1);
      pages_read++;
      SJ_ASSIGN_OR_RETURN(const uint8_t* bytes,
                          ViewUncharged(page, scratch));
      const NodeView node(bytes);
      std::vector<PageId>& children = node.level() == 1 ? leaves : below;
      for (uint32_t i = 0; i < node.count(); ++i) {
        const RectF e = node.Entry(i);
        if (e.Intersects(window)) children.push_back(e.id);
      }
    }
    std::sort(below.begin(), below.end());
    level.swap(below);
  }

  // The leaves in page order: each run of consecutive pages is one
  // request, as a stream block is.
  std::sort(leaves.begin(), leaves.end());
  for (size_t k = 0; k < leaves.size();) {
    size_t end = k + 1;
    while (end < leaves.size() && leaves[end] == leaves[end - 1] + 1 &&
           end - k < kStreamBlockPages) {
      end++;
    }
    pager_->ChargeRead(leaves[k], static_cast<uint32_t>(end - k));
    pages_read += end - k;
    for (; k < end; ++k) {
      SJ_ASSIGN_OR_RETURN(const uint8_t* bytes,
                          ViewUncharged(leaves[k], scratch));
      const NodeView leaf(bytes);
      for (uint32_t i = 0; i < leaf.count(); ++i) {
        const RectF e = leaf.Entry(i);
        if (e.Intersects(window)) visit(e);
      }
    }
  }
  return pages_read;
}

Status RTree::WindowQuery(const RectF& window, std::vector<RectF>* out) const {
  return ScanLeaves(window, [out](const RectF& e) { out->push_back(e); })
      .status();
}

Status RTree::CollectAll(std::vector<RectF>* out) const {
  return WindowQuery(meta_.bounding_box, out);
}

double RTree::AveragePacking() const {
  if (meta_.leaf_count == 0) return 0.0;
  return static_cast<double>(meta_.entry_count) /
         (static_cast<double>(meta_.leaf_count) * params_.max_entries);
}

Status RTree::Validate() const {
  uint64_t nodes = 0, leaves = 0, entries = 0;
  SJ_RETURN_IF_ERROR(ValidateRec(meta_.root,
                                 static_cast<uint16_t>(meta_.height - 1),
                                 nullptr, &nodes, &leaves, &entries));
  if (nodes != meta_.node_count) {
    return Status::Corruption("node count mismatch");
  }
  if (leaves != meta_.leaf_count) {
    return Status::Corruption("leaf count mismatch");
  }
  if (entries != meta_.entry_count) {
    return Status::Corruption("entry count mismatch");
  }
  return Status::OK();
}

Status RTree::ValidateRec(PageId page, uint16_t expected_level,
                          const RectF* expected_mbr, uint64_t* nodes,
                          uint64_t* leaves, uint64_t* entries) const {
  uint8_t buf[kPageSize];
  SJ_RETURN_IF_ERROR(pager_->ReadPage(page, buf));
  const NodeView node(buf);
  if (node.level() != expected_level) {
    return Status::Corruption("node level mismatch");
  }
  if (node.count() > params_.max_entries) {
    return Status::Corruption("node over fanout");
  }
  if (node.count() == 0 && !(expected_level == 0 && meta_.entry_count == 0)) {
    return Status::Corruption("empty non-root node");
  }
  if (expected_mbr != nullptr) {
    RectF actual = node.ComputeMbr();
    if (!(actual.xlo == expected_mbr->xlo && actual.ylo == expected_mbr->ylo &&
          actual.xhi == expected_mbr->xhi && actual.yhi == expected_mbr->yhi)) {
      return Status::Corruption("parent MBR does not match child contents");
    }
  }
  (*nodes)++;
  if (node.IsLeaf()) {
    (*leaves)++;
    *entries += node.count();
    return Status::OK();
  }
  for (uint32_t i = 0; i < node.count(); ++i) {
    const RectF e = node.Entry(i);
    SJ_RETURN_IF_ERROR(ValidateRec(e.id,
                                   static_cast<uint16_t>(expected_level - 1),
                                   &e, nodes, leaves, entries));
  }
  return Status::OK();
}

}  // namespace sj
