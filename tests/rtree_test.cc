#include "rtree/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "datagen/synthetic.h"
#include "io/storage.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::FailingBackend;
using testing_util::MakeDataset;
using testing_util::TestDisk;

struct TreeFixture {
  TreeFixture() = default;

  Result<RTree> Build(const std::vector<RectF>& rects, RTreeParams params) {
    return BuildOn(td.NewPager("tree"), rects, params);
  }

  /// Bulk-loads `rects` into a tree on `pager`, which the fixture keeps.
  Result<RTree> BuildOn(std::unique_ptr<Pager> pager,
                        const std::vector<RectF>& rects, RTreeParams params) {
    tree_pager = std::move(pager);
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

/// A memory-held file that logs every page read from it. It does not read
/// in place, so each view of a page goes through ReadPage and is logged.
class RecordingBackend final : public StorageBackend {
 public:
  Status ReadPage(uint64_t page, void* buf) override {
    reads.push_back(page);
    return inner_.ReadPage(page, buf);
  }
  Status WritePage(uint64_t page, const void* buf) override {
    return inner_.WritePage(page, buf);
  }
  uint64_t PageCount() const override { return inner_.PageCount(); }

  std::vector<uint64_t> reads;

 private:
  MemoryBackend inner_;
};

std::vector<RectF> ById(std::vector<RectF> rects) {
  std::sort(rects.begin(), rects.end(),
            [](const RectF& x, const RectF& y) { return x.id < y.id; });
  return rects;
}

std::vector<RectF> BruteForceWindow(const std::vector<RectF>& rects,
                                    const RectF& window) {
  std::vector<RectF> hits;
  for (const RectF& r : rects) {
    if (r.Intersects(window)) hits.push_back(r);
  }
  return ById(std::move(hits));
}

/// The pages a window query must read, found by walking the tree through
/// its backend (uncharged), depth first: the root, and every node whose
/// parent entry meets `window`. Sorted.
std::vector<uint64_t> PagesUnder(const RTree& tree, const RectF& window) {
  std::vector<uint64_t> pages;
  std::vector<PageId> todo = {tree.root()};
  uint8_t buf[kPageSize];
  while (!todo.empty()) {
    const PageId page = todo.back();
    todo.pop_back();
    pages.push_back(page);
    SJ_CHECK_OK(tree.pager()->backend()->ReadPage(page, buf));
    const NodeView node(buf);
    if (node.IsLeaf()) continue;
    for (uint32_t i = 0; i < node.count(); ++i) {
      if (node.Entry(i).Intersects(window)) todo.push_back(node.Entry(i).id);
    }
  }
  std::sort(pages.begin(), pages.end());
  return pages;
}

/// A pager over a RecordingBackend, and the backend.
std::pair<std::unique_ptr<Pager>, RecordingBackend*> RecordingPager(
    DiskModel* disk) {
  auto backend = std::make_unique<RecordingBackend>();
  RecordingBackend* log = backend.get();
  return {std::make_unique<Pager>(std::move(backend), disk, "tree"), log};
}

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
    Result<const uint8_t*> node = tree->ViewNode(p, buf);
    ASSERT_TRUE(node.ok());
    EXPECT_EQ(NodeView(*node).level(), 0);
  }
}

TEST(RTreeBulkLoad, LeavesHoldTheirEntriesInYLoOrder) {
  // Each leaf is written in (ylo, id) order, PQ's drain order, and the
  // tree still validates. Ties in ylo (a coarse grid) exercise the id.
  TreeFixture f;
  std::vector<RectF> rects =
      UniformRects(6000, RectF(0, 0, 100, 100), 0.5f, 4);
  for (RectF& r : rects) {
    r.ylo = std::floor(r.ylo);
    r.yhi = std::max(r.yhi, r.ylo);
  }
  RTreeParams params;
  params.max_entries = 48;
  auto tree = f.Build(rects, params);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Validate().ok());
  uint8_t buf[kPageSize];
  uint64_t entries = 0;
  for (PageId p = 0; p < tree->meta().leaf_count; ++p) {
    Result<const uint8_t*> bytes = tree->ViewNode(p, buf);
    ASSERT_TRUE(bytes.ok());
    const NodeView leaf(*bytes);
    ASSERT_EQ(leaf.level(), 0);
    std::vector<RectF> stored;
    for (uint32_t i = 0; i < leaf.count(); ++i) {
      stored.push_back(leaf.Entry(i));
    }
    // Strictly increasing: the ids are unique.
    EXPECT_EQ(std::adjacent_find(stored.begin(), stored.end(),
                                 [](const RectF& a, const RectF& b) {
                                   return !OrderByYLo()(a, b);
                                 }),
              stored.end())
        << "leaf " << p;
    entries += leaf.count();
  }
  EXPECT_EQ(entries, rects.size());
}

// A root that is a leaf is the whole read: one page in one request,
// whether the window meets a record or not.
void ExpectRootLeafScan(TreeFixture& f, const RTree& tree, const RectF& window,
                        const std::vector<RectF>& want) {
  f.td.disk.ResetStats();
  std::vector<RectF> got;
  auto pages =
      tree.ScanLeaves(window, [&got](const RectF& r) { got.push_back(r); });
  ASSERT_TRUE(pages.ok()) << pages.status().ToString();
  EXPECT_EQ(*pages, 1u);
  EXPECT_EQ(f.td.disk.stats().read_requests, 1u);
  EXPECT_EQ(got, want);
}

TEST(RTreeBulkLoad, EmptyInputGivesEmptyTree) {
  TreeFixture f;
  auto tree = f.Build({}, RTreeParams());
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->meta().entry_count, 0u);
  EXPECT_EQ(tree->height(), 1u);
  EXPECT_TRUE(tree->Validate().ok());
  ExpectRootLeafScan(f, *tree, RectF(-1e9f, -1e9f, 1e9f, 1e9f), {});
  std::vector<RectF> out;
  ASSERT_TRUE(tree->CollectAll(&out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(RTreeBulkLoad, SingleRect) {
  TreeFixture f;
  const RectF record(1, 2, 3, 4, 99);
  auto tree = f.Build({record}, RTreeParams());
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->height(), 1u);
  EXPECT_EQ(tree->node_count(), 1u);
  ExpectRootLeafScan(f, *tree, RectF(2, 3, 2, 3), {record});
  ExpectRootLeafScan(f, *tree, RectF(50, 50, 60, 60), {});
}

// Guttman insertion scatters the leaves over the file; the leaf-order
// traversal still reads each touched page once and returns the
// brute-force records.
TEST(RTreeInsert, BuildsValidTreeAndAnswersQueries) {
  TestDisk td;
  auto [pager, log] = RecordingPager(&td.disk);
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

  for (const RectF& window :
       {RectF(50, 50, 120, 90), RectF(0, 0, 300, 300), RectF(299, 0, 400, 5)}) {
    SCOPED_TRACE(window.ToString());
    const std::vector<uint64_t> want_pages = PagesUnder(*tree, window);
    log->reads.clear();
    std::vector<RectF> got;
    ASSERT_TRUE(tree->WindowQuery(window, &got).ok());
    EXPECT_EQ(ById(got), BruteForceWindow(rects, window));
    std::sort(log->reads.begin(), log->reads.end());
    EXPECT_EQ(log->reads, want_pages);
  }
  std::vector<RectF> all;
  ASSERT_TRUE(tree->CollectAll(&all).ok());
  EXPECT_EQ(ById(all), ById(rects));
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
    Result<const uint8_t*> bytes = tree->ViewNode(p, buf);
    ASSERT_TRUE(bytes.ok());
    const NodeView node(*bytes);
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

// ---------------------------------------------------------------------------
// The leaf-order traversal (ScanLeaves, WindowQuery, CollectAll)
// ---------------------------------------------------------------------------

// A bulk-loaded tree packs its leaves on consecutive pages, so a full
// scan reads each node once and its leaf level in runs of up to
// kStreamBlockPages pages: the read-ahead model charges the first
// request of each level as a seek and continues the rest.
TEST(RTreeScan, FullScansReadEveryNodeOnceInPageRuns) {
  TreeFixture f;
  const auto rects = UniformRects(60000, RectF(0, 0, 1000, 1000), 1.0f, 17);
  RTreeParams params;
  params.max_entries = 64;
  auto [pager, log] = RecordingPager(&f.td.disk);
  auto tree = f.BuildOn(std::move(pager), rects, params);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_GE(tree->height(), 3u);
  const uint64_t leaves = tree->meta().leaf_count;
  const uint64_t internal = tree->node_count() - leaves;
  ASSERT_GT(leaves, 4 * uint64_t{kStreamBlockPages});

  std::vector<uint64_t> every_page(tree->node_count());
  for (uint64_t p = 0; p < every_page.size(); ++p) every_page[p] = p;
  const RectF full_box(-1e9f, -1e9f, 1e9f, 1e9f);
  for (const bool collect_all : {true, false}) {
    SCOPED_TRACE(collect_all ? "CollectAll" : "full-box WindowQuery");
    log->reads.clear();
    f.td.disk.ResetStats();
    std::vector<RectF> out;
    ASSERT_TRUE((collect_all ? tree->CollectAll(&out)
                             : tree->WindowQuery(full_box, &out))
                    .ok());
    EXPECT_EQ(ById(out), ById(rects));
    std::sort(log->reads.begin(), log->reads.end());
    EXPECT_EQ(log->reads, every_page);
    const DiskStats charged = f.td.disk.stats();
    EXPECT_EQ(charged.pages_read, tree->node_count());
    EXPECT_LE(charged.read_requests,
              internal + (leaves + kStreamBlockPages - 1) / kStreamBlockPages);
    EXPECT_LE(charged.random_read_requests, internal + 1);
  }
}

// A window reads exactly the pages a depth-first descent reads, and
// returns the brute-force selection; the traversal reports those pages.
TEST(RTreeScan, WindowReadsTheDescentsPagesAndBruteForceRecords) {
  TreeFixture f;
  const auto rects = UniformRects(30000, RectF(0, 0, 1000, 1000), 2.0f, 23);
  RTreeParams params;
  params.max_entries = 48;
  auto [pager, log] = RecordingPager(&f.td.disk);
  auto tree = f.BuildOn(std::move(pager), rects, params);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_GE(tree->height(), 3u);
  for (const RectF& window :
       {RectF(100, 100, 180, 140), RectF(0, 0, 1000, 30),
        RectF(400, 0, 420, 1000), RectF(250, 600, 750, 900),
        RectF(5000, 5000, 6000, 6000), RectF::Empty()}) {
    SCOPED_TRACE(window.ToString());
    const std::vector<uint64_t> want_pages = PagesUnder(*tree, window);
    log->reads.clear();
    f.td.disk.ResetStats();
    std::vector<RectF> got;
    auto pages = tree->ScanLeaves(window,
                                  [&got](const RectF& r) { got.push_back(r); });
    ASSERT_TRUE(pages.ok()) << pages.status().ToString();
    EXPECT_EQ(ById(got), BruteForceWindow(rects, window));
    std::sort(log->reads.begin(), log->reads.end());
    EXPECT_EQ(log->reads, want_pages);
    EXPECT_EQ(*pages, want_pages.size());
    EXPECT_EQ(f.td.disk.stats().pages_read, want_pages.size());
  }
}

// Four threads scan one tree at once, in memory and on real files: each
// sees the serial records in the serial order, and the shared model is
// charged four scans' pages. Runs in the concurrency tier.
TEST(RTreeScan, ConcurrentScansSeeTheSerialRecords) {
  auto files = TmpFileStorageFactory::Make();
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  const auto rects = UniformRects(20000, RectF(0, 0, 1000, 1000), 2.0f, 31);
  RTreeParams params;
  params.max_entries = 64;
  const RectF window(100, 50, 900, 700);
  for (StorageFactory* storage :
       {static_cast<StorageFactory*>(nullptr),
        static_cast<StorageFactory*>(files->get())}) {
    SCOPED_TRACE(storage == nullptr ? "memory" : "file");
    TreeFixture f;
    auto pager = MakePager(storage, &f.td.disk, "tree");
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    auto tree = f.BuildOn(std::move(*pager), rects, params);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();

    std::vector<RectF> serial;
    auto serial_pages = tree->ScanLeaves(
        window, [&serial](const RectF& r) { serial.push_back(r); });
    ASSERT_TRUE(serial_pages.ok());
    ASSERT_FALSE(serial.empty());

    constexpr int kThreads = 4;
    std::vector<std::vector<RectF>> seen(kThreads);
    std::vector<Result<uint64_t>> pages(kThreads, Status::Internal("unset"));
    f.td.disk.ResetStats();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        pages[t] = tree->ScanLeaves(
            window, [&seen, t](const RectF& r) { seen[t].push_back(r); });
      });
    }
    for (std::thread& t : threads) t.join();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(pages[t].ok()) << pages[t].status().ToString();
      EXPECT_EQ(*pages[t], *serial_pages) << "thread " << t;
      EXPECT_EQ(seen[t], serial) << "thread " << t;
    }
    EXPECT_EQ(f.td.disk.stats().pages_read, kThreads * *serial_pages);
  }
}

// A tree whose reads fail after the bulk load: every reader of the leaf
// level ends in the read's IoError.
TEST(RTreeScan, ReadFaultsEndInIoError) {
  TreeFixture f;
  auto failing = std::make_unique<FailingBackend>();
  FailingBackend* faults = failing.get();
  auto tree = f.BuildOn(
      std::make_unique<Pager>(std::move(failing), &f.td.disk, "tree"),
      UniformRects(5000, RectF(0, 0, 100, 100), 1.0f, 13), RTreeParams());
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  faults->fail_reads = true;
  std::vector<RectF> out;
  EXPECT_EQ(tree->WindowQuery(RectF(10, 10, 20, 20), &out).code(),
            StatusCode::kIoError);
  EXPECT_EQ(tree->CollectAll(&out).code(), StatusCode::kIoError);
  EXPECT_EQ(tree->ScanLeaves(RectF(0, 0, 100, 100), [](const RectF&) {})
                .status()
                .code(),
            StatusCode::kIoError);
  faults->fail_reads = false;
  out.clear();
  ASSERT_TRUE(tree->CollectAll(&out).ok());
  EXPECT_EQ(out.size(), 5000u);
}

}  // namespace
}  // namespace sj
