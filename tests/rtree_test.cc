#include "rtree/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "datagen/synthetic.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::MakeDataset;
using testing_util::TestDisk;

struct TreeFixture {
  TreeFixture() = default;

  Result<RTree> Build(const std::vector<RectF>& rects, RTreeParams params) {
    tree_pager = td.NewPager("tree");
    scratch = td.NewPager("scratch");
    const DatasetRef ref = MakeDataset(&td, rects, "data", &keep);
    return RTree::BulkLoadHilbert(tree_pager.get(), ref.range, scratch.get(),
                                  params, 1 << 22);
  }

  TestDisk td;
  std::unique_ptr<Pager> tree_pager;
  std::unique_ptr<Pager> scratch;
  std::vector<std::unique_ptr<Pager>> keep;
};

TEST(RTreeBulkLoad, NodeCapacityFitsPaperFanout) {
  // (8192 - 8) / 20 = 409 >= the paper's fanout of 400.
  EXPECT_EQ(kNodeCapacity, 409u);
  EXPECT_GE(kNodeCapacity, RTreeParams().max_entries);
}

TEST(RTreeBulkLoad, ValidatesAndCountsEntries) {
  TreeFixture f;
  const auto rects = UniformRects(20000, RectF(0, 0, 500, 500), 1.0f, 42);
  RTreeParams params;
  params.max_entries = 64;
  auto tree = f.Build(rects, params);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
  EXPECT_EQ(tree->meta().entry_count, 20000u);
  EXPECT_GE(tree->height(), 2u);
  std::vector<RectF> all;
  ASSERT_TRUE(tree->CollectAll(&all).ok());
  EXPECT_EQ(all.size(), 20000u);
}

TEST(RTreeBulkLoad, PaperPackingIsAboutNinetyPercent) {
  TreeFixture f;
  const auto rects = UniformRects(60000, RectF(0, 0, 500, 500), 0.5f, 7);
  RTreeParams params;  // 400 fanout, 75 % fill, 20 % slack.
  auto tree = f.Build(rects, params);
  ASSERT_TRUE(tree.ok());
  // The paper reports ~90 % average packing with this heuristic; accept a
  // broad band since the exact value is data dependent.
  EXPECT_GT(tree->AveragePacking(), 0.74);
  EXPECT_LE(tree->AveragePacking(), 1.0);
}

TEST(RTreeBulkLoad, LeavesAreContiguousLowPages) {
  // Bulk loading writes all leaves before any internal node, so sibling
  // leaves sit on consecutive pages — the layout property behind ST's
  // sequential reads (§6.2).
  TreeFixture f;
  const auto rects = UniformRects(5000, RectF(0, 0, 100, 100), 0.5f, 3);
  RTreeParams params;
  params.max_entries = 32;
  auto tree = f.Build(rects, params);
  ASSERT_TRUE(tree.ok());
  // Root is the last allocated page.
  EXPECT_EQ(tree->root(), tree->node_count() - 1);
  EXPECT_EQ(f.tree_pager->page_count(), tree->node_count());
  // Leaves occupy pages [0, leaf_count).
  uint8_t buf[kPageSize];
  for (PageId p = 0; p < tree->meta().leaf_count; ++p) {
    ASSERT_TRUE(tree->ReadNode(p, buf).ok());
    EXPECT_EQ(NodeView(buf).level(), 0);
  }
}

TEST(RTreeBulkLoad, EmptyInputGivesEmptyTree) {
  TreeFixture f;
  auto tree = f.Build({}, RTreeParams());
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->meta().entry_count, 0u);
  EXPECT_EQ(tree->height(), 1u);
  EXPECT_TRUE(tree->Validate().ok());
  std::vector<RectF> out;
  ASSERT_TRUE(tree->WindowQuery(RectF(-1e9f, -1e9f, 1e9f, 1e9f), &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(RTreeBulkLoad, SingleRect) {
  TreeFixture f;
  auto tree = f.Build({RectF(1, 2, 3, 4, 99)}, RTreeParams());
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->height(), 1u);
  EXPECT_EQ(tree->node_count(), 1u);
  std::vector<RectF> out;
  ASSERT_TRUE(tree->WindowQuery(RectF(2, 3, 2, 3), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 99u);
}

TEST(RTreeInsert, BuildsValidTreeAndAnswersQueries) {
  TestDisk td;
  auto pager = td.NewPager("tree");
  RTreeParams params;
  params.max_entries = 16;  // Many splits.
  auto tree = RTree::CreateEmpty(pager.get(), params);
  ASSERT_TRUE(tree.ok());
  const auto rects = UniformRects(3000, RectF(0, 0, 300, 300), 2.0f, 5);
  for (const RectF& r : rects) {
    ASSERT_TRUE(tree->Insert(r).ok());
  }
  EXPECT_EQ(tree->meta().entry_count, 3000u);
  EXPECT_GE(tree->height(), 3u);
  ASSERT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();

  const RectF window(50, 50, 120, 90);
  std::vector<RectF> got;
  ASSERT_TRUE(tree->WindowQuery(window, &got).ok());
  size_t want = 0;
  for (const RectF& r : rects) {
    if (r.Intersects(window)) want++;
  }
  EXPECT_EQ(got.size(), want);
}

TEST(RTreeInsert, RejectsMalformedRect) {
  TestDisk td;
  auto pager = td.NewPager("tree");
  auto tree = RTree::CreateEmpty(pager.get(), RTreeParams());
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->Insert(RectF(5, 0, 4, 1)).code(),
            StatusCode::kInvalidArgument);
}

TEST(RTreeInsert, SplitRespectsMinEntries) {
  TestDisk td;
  auto pager = td.NewPager("tree");
  RTreeParams params;
  params.max_entries = 8;
  params.min_entries = 3;
  auto tree = RTree::CreateEmpty(pager.get(), params);
  ASSERT_TRUE(tree.ok());
  // Adversarial: two far-apart clusters, so quadratic split is tempted to
  // make a singleton group.
  for (int i = 0; i < 200; ++i) {
    const float base = (i % 2 == 0) ? 0.0f : 1000.0f;
    const float off = static_cast<float>(i) * 0.01f;
    ASSERT_TRUE(tree->Insert(RectF(base + off, base + off, base + off + 1,
                                   base + off + 1,
                                   static_cast<ObjectId>(i)))
                    .ok());
  }
  ASSERT_TRUE(tree->Validate().ok());
  // Every non-root node must hold >= min_entries.
  uint8_t buf[kPageSize];
  for (PageId p = 0; p < pager->page_count(); ++p) {
    ASSERT_TRUE(tree->ReadNode(p, buf).ok());
    const NodeView node(buf);
    if (p != tree->root()) {
      EXPECT_GE(node.count(), params.min_entries);
    }
  }
}

TEST(RTreeInsert, BulkLoadedTreeAcceptsInserts) {
  TreeFixture f;
  const auto rects = UniformRects(2000, RectF(0, 0, 100, 100), 1.0f, 9);
  RTreeParams params;
  params.max_entries = 32;
  auto tree = f.Build(rects, params);
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 500; ++i) {
    const float x = static_cast<float>(i % 100);
    ASSERT_TRUE(
        tree->Insert(RectF(x, x, x + 1, x + 1, 100000u + i)).ok());
  }
  EXPECT_EQ(tree->meta().entry_count, 2500u);
  EXPECT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
}

TEST(RTreeBulkLoad, PageRequestAccountingDuringBuild) {
  TreeFixture f;
  const auto rects = UniformRects(20000, RectF(0, 0, 100, 100), 0.2f, 21);
  f.td.disk.ResetStats();
  RTreeParams params;
  auto tree = f.Build(rects, params);
  ASSERT_TRUE(tree.ok());
  // Tree pages were written exactly once each.
  // device_stats() returns a snapshot by value; copy the element out.
  const DeviceStats dev = f.td.disk.device_stats()[f.tree_pager->device_id()];
  EXPECT_EQ(dev.pages_written, tree->node_count());
  EXPECT_EQ(dev.pages_read, 0u);
}

}  // namespace
}  // namespace sj
