// Joins over *dynamically built* (insert/delete churned) trees: the
// algorithms must be exact regardless of index quality — only the I/O
// profile may change (which paper_repro's §6.2 rows measure).

#include <gtest/gtest.h>

#include "core/join_query.h"
#include "core/spatial_join.h"
#include "datagen/synthetic.h"
#include "test_util.h"
#include "util/random.h"

namespace sj {
namespace {

using testing_util::BruteForcePairs;
using testing_util::MakeDataset;
using testing_util::Sorted;
using testing_util::TestDisk;

TEST(DynamicTreeJoin, AllAlgorithmsExactOnChurnedIndexes) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF region(0, 0, 300, 300);
  auto a = UniformRects(2500, region, 2.0f, 1);
  auto b = ClusteredRects(2500, region, 10, 12.0f, 2.0f, 2);

  // Build by insertion, then churn: delete a third, reinsert fresh rects.
  RTreeParams params;
  params.max_entries = 24;
  auto build_churned = [&](std::vector<RectF>* rects, const char* name,
                           uint64_t seed) {
    keep.push_back(td.NewPager(std::string("tree.") + name));
    auto tree = RTree::CreateEmpty(keep.back().get(), params);
    SJ_CHECK(tree.ok());
    for (const RectF& r : *rects) SJ_CHECK_OK(tree->Insert(r));
    Random rng(seed);
    // Delete a random third...
    std::vector<RectF> survivors;
    for (const RectF& r : *rects) {
      if (rng.OneIn(0.33)) {
        SJ_CHECK_OK(tree->Delete(r));
      } else {
        survivors.push_back(r);
      }
    }
    // ...and insert replacements.
    const ObjectId base = 1000000;
    for (int i = 0; i < 500; ++i) {
      const float x = static_cast<float>(rng.UniformDouble(0, 295));
      const float y = static_cast<float>(rng.UniformDouble(0, 295));
      const RectF r(x, y, x + 2, y + 2, base + static_cast<ObjectId>(i));
      SJ_CHECK_OK(tree->Insert(r));
      survivors.push_back(r);
    }
    SJ_CHECK_OK(tree->Validate());
    *rects = survivors;
    return std::move(tree).value();
  };

  RTree ta = build_churned(&a, "a", 11);
  RTree tb = build_churned(&b, "b", 12);
  const auto expected = BruteForcePairs(a, b);

  SpatialJoiner joiner(&td.disk, JoinOptions());
  for (JoinAlgorithm algo : {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM,
                             JoinAlgorithm::kST, JoinAlgorithm::kPQ}) {
    CollectingSink sink;
    auto stats = JoinQuery(joiner)
                     .Input(JoinInput::FromRTree(&ta))
                     .Input(JoinInput::FromRTree(&tb))
                     .Algorithm(algo)
                     .Run(&sink);
    ASSERT_TRUE(stats.ok()) << ToString(algo);
    EXPECT_EQ(Sorted(sink.pairs()), expected) << ToString(algo);
  }
}

TEST(DynamicTreeJoin, PqStillTouchesEachPageOnce) {
  // The optimality guarantee is a property of the traversal, not of the
  // packing: it holds for insert-built trees too.
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  keep.push_back(td.NewPager("tree"));
  RTreeParams params;
  params.max_entries = 16;
  auto tree = RTree::CreateEmpty(keep.back().get(), params);
  ASSERT_TRUE(tree.ok());
  for (const RectF& r : UniformRects(4000, RectF(0, 0, 200, 200), 1.0f, 3)) {
    ASSERT_TRUE(tree->Insert(r).ok());
  }
  RTreePQSource source(&*tree);
  uint64_t produced = 0;
  float prev = -1e30f;
  while (auto r = source.Next()) {
    EXPECT_GE(r->ylo, prev);
    prev = r->ylo;
    produced++;
  }
  EXPECT_EQ(produced, 4000u);
  EXPECT_EQ(source.pages_read(), tree->node_count());
}

}  // namespace
}  // namespace sj
