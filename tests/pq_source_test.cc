#include "join/sources.h"

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::MakeDataset;
using testing_util::TestDisk;

class PQSourceFixture {
 public:
  RTree Build(const std::vector<RectF>& rects, uint32_t fanout) {
    pagers_.push_back(td.NewPager("tree"));
    Pager* tree_pager = pagers_.back().get();
    auto scratch = td.NewPager("scratch");
    const DatasetRef ref = MakeDataset(&td, rects, "data", &pagers_);
    RTreeParams params;
    params.max_entries = fanout;
    auto tree = RTree::BulkLoadHilbert(tree_pager, ref.range, scratch.get(),
                                       params, 1 << 22);
    SJ_CHECK(tree.ok()) << tree.status().ToString();
    pagers_.push_back(std::move(scratch));
    return std::move(tree).value();
  }

  TestDisk td;

 private:
  std::vector<std::unique_ptr<Pager>> pagers_;
};

TEST(RTreePQSource, DrainsTreeInSortedOrder) {
  PQSourceFixture f;
  const auto rects = UniformRects(7000, RectF(0, 0, 300, 300), 2.0f, 1);
  RTree tree = f.Build(rects, 32);

  RTreePQSource source(&tree);
  std::vector<RectF> drained;
  float prev = -1e30f;
  while (auto r = source.Next()) {
    EXPECT_GE(r->ylo, prev) << "out of order at record " << drained.size();
    prev = r->ylo;
    drained.push_back(*r);
  }
  ASSERT_EQ(drained.size(), rects.size());
  // Same multiset of ids.
  std::vector<ObjectId> got, want;
  for (const RectF& r : drained) got.push_back(r.id);
  for (const RectF& r : rects) want.push_back(r.id);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(RTreePQSource, TouchesEveryPageExactlyOnce) {
  // The paper's "optimal" page-access guarantee (Table 4: PQ == lower
  // bound).
  PQSourceFixture f;
  const auto rects = UniformRects(10000, RectF(0, 0, 300, 300), 1.0f, 2);
  RTree tree = f.Build(rects, 32);
  const uint64_t dev_before =
      f.td.disk.device_stats()[tree.pager()->device_id()].pages_read;
  RTreePQSource source(&tree);
  while (source.Next().has_value()) {
  }
  EXPECT_EQ(source.pages_read(), tree.node_count());
  const uint64_t dev_after =
      f.td.disk.device_stats()[tree.pager()->device_id()].pages_read;
  EXPECT_EQ(dev_after - dev_before, tree.node_count());
}

TEST(RTreePQSource, MemoryStaysFarBelowDataSize) {
  // Table 3: the priority queues + leaf buffers are ~1 % of the data.
  PQSourceFixture f;
  const auto rects = ClusteredRects(60000, RectF(0, 0, 1000, 1000), 30,
                                    10.0f, 0.5f, 3);
  RTree tree = f.Build(rects, 400);
  RTreePQSource source(&tree);
  size_t max_bytes = 0;
  while (source.Next().has_value()) {
    max_bytes = std::max(max_bytes, source.MemoryBytes());
  }
  EXPECT_GT(max_bytes, 0u);
  EXPECT_LT(max_bytes, rects.size() * sizeof(RectF) / 4);
}

TEST(RTreePQSource, EmptyTree) {
  PQSourceFixture f;
  RTree tree = f.Build({}, 32);
  RTreePQSource source(&tree);
  EXPECT_FALSE(source.Next().has_value());
  EXPECT_EQ(source.pages_read(), 0u);
}

TEST(RTreePQSource, FilterPrunesSubtrees) {
  PQSourceFixture f;
  // Two well-separated clusters; filtering to one halves the traversal.
  std::vector<RectF> rects = UniformRects(5000, RectF(0, 0, 10, 10), 0.2f, 4);
  auto far = UniformRects(5000, RectF(1000, 1000, 1010, 1010), 0.2f, 5, 5000);
  rects.insert(rects.end(), far.begin(), far.end());
  RTree tree = f.Build(rects, 32);

  const RectF filter(0, 0, 20, 20);
  RTreePQSource::Options options;
  options.filter = &filter;
  RTreePQSource source(&tree, options);
  uint64_t produced = 0;
  float prev = -1e30f;
  while (auto r = source.Next()) {
    EXPECT_TRUE(r->Intersects(filter)) << "unpruned rect escaped the filter";
    EXPECT_GE(r->ylo, prev);
    prev = r->ylo;
    produced++;
  }
  EXPECT_EQ(produced, 5000u);  // Exactly the near cluster.
  EXPECT_LT(source.pages_read(), tree.node_count() * 3 / 4);
}

TEST(RTreePQSource, OccupancyGridPrunes) {
  PQSourceFixture f;
  std::vector<RectF> rects = UniformRects(4000, RectF(0, 0, 10, 10), 0.2f, 6);
  auto far = UniformRects(4000, RectF(500, 500, 510, 510), 0.2f, 7, 4000);
  rects.insert(rects.end(), far.begin(), far.end());
  RTree tree = f.Build(rects, 32);

  // Occupancy of a hypothetical other input living only near the origin.
  GridHistogram occupancy(RectF(0, 0, 600, 600), 64, 64);
  for (const RectF& r : UniformRects(100, RectF(0, 0, 12, 12), 1.0f, 8)) {
    occupancy.Add(r);
  }
  RTreePQSource::Options options;
  options.occupancy = &occupancy;
  RTreePQSource source(&tree, options);
  uint64_t produced = 0;
  while (source.Next().has_value()) produced++;
  EXPECT_GE(produced, 4000u);   // The near cluster survives...
  EXPECT_LT(produced, 8000u);   // ...the far one is pruned.
  EXPECT_LT(source.pages_read(), tree.node_count());
}

/// Records with pairwise distinct ylo, so the drain order of any tree
/// over them is their OrderByYLo order.
std::vector<RectF> DistinctYLoRects(uint64_t n, uint64_t seed) {
  std::vector<RectF> rects =
      UniformRects(n, RectF(0, 0, 300, 300), 2.0f, seed);
  std::vector<float> ylos;
  std::vector<RectF> out;
  for (const RectF& r : rects) ylos.push_back(r.ylo);
  std::sort(ylos.begin(), ylos.end());
  for (const RectF& r : rects) {
    const auto [lo, hi] = std::equal_range(ylos.begin(), ylos.end(), r.ylo);
    if (hi - lo == 1) out.push_back(r);
  }
  return out;
}

/// One drain: the records in order, the pages read, and MemoryBytes()
/// sampled after every record, summed and at its peak.
struct Drain {
  std::vector<RectF> records;
  uint64_t pages_read = 0;
  uint64_t memory_sum = 0;
  size_t memory_peak = 0;
};

Drain DrainSource(const RTree& tree, const RectF* filter) {
  RTreePQSource::Options options;
  options.filter = filter;
  RTreePQSource source(&tree, options);
  Drain drain;
  while (std::optional<RectF> r = source.Next()) {
    drain.records.push_back(*r);
    drain.memory_sum += source.MemoryBytes();
    drain.memory_peak = std::max(drain.memory_peak, source.MemoryBytes());
  }
  EXPECT_TRUE(source.status().ok());
  drain.pages_read = source.pages_read();
  return drain;
}

TEST(RTreePQSource, InsertBuiltTreeDrainsTheBulkLoadedSequence) {
  // A bulk-loaded leaf is stored in (ylo, id) order and read in place; an
  // insert-built leaf is not, so the source sorts it in its slot. Both
  // drains are the records in OrderByYLo order, with and without a
  // pruning filter. The pages read and the sampled MemoryBytes() are
  // pinned: they are what the traversal reported when every leaf was
  // sorted into a vector of its own on every query.
  PQSourceFixture f;
  const std::vector<RectF> rects = DistinctYLoRects(4000, 11);
  ASSERT_GT(rects.size(), 3900u);
  RTree bulk = f.Build(rects, 32);
  auto pager = f.td.NewPager("inserted");
  RTreeParams params;
  params.max_entries = 32;
  Result<RTree> inserted = RTree::CreateEmpty(pager.get(), params);
  ASSERT_TRUE(inserted.ok());
  for (const RectF& r : rects) ASSERT_TRUE(inserted->Insert(r).ok());

  const RectF filter(40, 60, 220, 170);
  struct Expected {
    uint64_t pages_read;
    uint64_t memory_sum;
    size_t memory_peak;
  };
  const Expected bulk_expected[] = {{139, 31394756, 10468},
                                    {46, 3721192, 6304}};
  const Expected inserted_expected[] = {{199, 39073932, 12608},
                                        {66, 4434308, 6608}};
  for (int pruned = 0; pruned < 2; ++pruned) {
    SCOPED_TRACE(pruned ? "filtered" : "unfiltered");
    std::vector<RectF> want;
    for (const RectF& r : rects) {
      if (!pruned || r.Intersects(filter)) want.push_back(r);
    }
    std::sort(want.begin(), want.end(), OrderByYLo());
    const Drain from_bulk = DrainSource(bulk, pruned ? &filter : nullptr);
    const Drain from_inserted =
        DrainSource(*inserted, pruned ? &filter : nullptr);
    EXPECT_TRUE(from_bulk.records == want);
    EXPECT_TRUE(from_inserted.records == want);
    const Expected& b = bulk_expected[pruned];
    const Expected& i = inserted_expected[pruned];
    EXPECT_EQ(from_bulk.pages_read, b.pages_read);
    EXPECT_EQ(from_bulk.memory_sum, b.memory_sum);
    EXPECT_EQ(from_bulk.memory_peak, b.memory_peak);
    EXPECT_EQ(from_inserted.pages_read, i.pages_read);
    EXPECT_EQ(from_inserted.memory_sum, i.memory_sum);
    EXPECT_EQ(from_inserted.memory_peak, i.memory_peak);
  }
}

TEST(SortedStreamSource, ReadsBack) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  auto rects = UniformRects(1000, RectF(0, 0, 50, 50), 1.0f, 9);
  std::sort(rects.begin(), rects.end(), OrderByYLo());
  const DatasetRef ref = MakeDataset(&td, rects, "sorted", &keep);
  SortedStreamSource source(ref.range);
  size_t i = 0;
  while (auto r = source.Next()) {
    EXPECT_EQ(*r, rects[i]);
    i++;
  }
  EXPECT_EQ(i, rects.size());
}

}  // namespace
}  // namespace sj
