#include <gtest/gtest.h>

#include "core/spatial_join.h"
#include "datagen/synthetic.h"
#include "join/pbsm.h"
#include "join/pq_join.h"
#include "join/sssj.h"
#include "join/st_join.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::BruteForcePairs;
using testing_util::MakeDataset;
using testing_util::Sorted;
using testing_util::TestDisk;

TEST(Smoke, AllFourAlgorithmsAgreeWithBruteForce) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF region(0, 0, 100, 100);
  const auto a = UniformRects(800, region, 2.0f, /*seed=*/1);
  const auto b = UniformRects(600, region, 3.0f, /*seed=*/2);
  const auto expected = BruteForcePairs(a, b);

  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  JoinOptions options;

  // SSSJ.
  {
    CollectingSink sink;
    auto stats = SSSJJoin(JoinInput::FromStream(da),
                          JoinInput::FromStream(db), &td.disk, options, &sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(Sorted(sink.pairs()), expected);
    EXPECT_EQ(stats->output_count, expected.size());
  }
  // PBSM.
  {
    CollectingSink sink;
    auto stats = PBSMJoin(da, db, &td.disk, options, &sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(Sorted(sink.pairs()), expected);
  }
  // Build trees for the index-based joins.
  auto tree_pager_a = td.NewPager("tree.a");
  auto tree_pager_b = td.NewPager("tree.b");
  auto scratch = td.NewPager("scratch");
  RTreeParams params;
  params.max_entries = 32;  // Small fanout so the trees have height > 1.
  auto ta = RTree::BulkLoadHilbert(tree_pager_a.get(), da.range,
                                   scratch.get(), params, 1 << 20);
  ASSERT_TRUE(ta.ok()) << ta.status().ToString();
  auto tb = RTree::BulkLoadHilbert(tree_pager_b.get(), db.range,
                                   scratch.get(), params, 1 << 20);
  ASSERT_TRUE(tb.ok()) << tb.status().ToString();
  ASSERT_TRUE(ta->Validate().ok());
  ASSERT_TRUE(tb->Validate().ok());
  // ST.
  {
    CollectingSink sink;
    auto stats = STJoin(*ta, *tb, &td.disk, options, &sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(Sorted(sink.pairs()), expected);
  }
  // PQ, unpruned: each traversal reads every node exactly once.
  {
    RTreePQSource source_a(&*ta);
    RTreePQSource source_b(&*tb);
    RectF extent = ta->bounding_box();
    extent.ExtendTo(tb->bounding_box());
    CollectingSink sink;
    auto stats = PQJoinSources(&source_a, &source_b, extent, &td.disk,
                               options, &sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(Sorted(sink.pairs()), expected);
    EXPECT_EQ(source_a.pages_read() + source_b.pages_read(),
              ta->node_count() + tb->node_count());
  }
}

}  // namespace
}  // namespace sj
