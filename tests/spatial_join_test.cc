#include "core/spatial_join.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/join_query.h"
#include "datagen/synthetic.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::BruteForcePairs;
using testing_util::MakeDataset;
using testing_util::Sorted;
using testing_util::TestDisk;

class SpatialJoinerTest : public ::testing::Test {
 protected:
  RTree BuildTree(const std::vector<RectF>& rects, const std::string& name) {
    pagers_.push_back(td_.NewPager("tree." + name));
    Pager* tree_pager = pagers_.back().get();
    auto scratch = td_.NewPager("scratch." + name);
    const DatasetRef ref = MakeDataset(&td_, rects, name, &pagers_);
    RTreeParams params;
    params.max_entries = 32;
    auto tree = RTree::BulkLoadHilbert(tree_pager, ref.range, scratch.get(),
                                       params, 1 << 22);
    SJ_CHECK(tree.ok());
    pagers_.push_back(std::move(scratch));
    return std::move(tree).value();
  }

  DatasetRef Dataset(const std::vector<RectF>& rects,
                     const std::string& name) {
    return MakeDataset(&td_, rects, name, &pagers_);
  }

  TestDisk td_;
  std::vector<std::unique_ptr<Pager>> pagers_;
};

TEST_F(SpatialJoinerTest, AllAlgorithmPathsAgree) {
  const RectF region(0, 0, 300, 300);
  const auto a = UniformRects(2500, region, 2.0f, 1);
  const auto b = UniformRects(2500, region, 2.0f, 2);
  const auto expected = BruteForcePairs(a, b);

  RTree ta = BuildTree(a, "a");
  RTree tb = BuildTree(b, "b");
  const DatasetRef da = Dataset(a, "a.s");
  const DatasetRef db = Dataset(b, "b.s");

  SpatialJoiner joiner(&td_.disk, JoinOptions());
  const JoinInput ia = JoinInput::FromRTree(&ta);
  const JoinInput ib = JoinInput::FromRTree(&tb);
  const JoinInput sa = JoinInput::FromStream(da);
  const JoinInput sb = JoinInput::FromStream(db);

  for (JoinAlgorithm algo : {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM,
                             JoinAlgorithm::kST, JoinAlgorithm::kPQ}) {
    CollectingSink sink;
    auto stats = JoinQuery(joiner).Input(ia).Input(ib).Algorithm(algo).Run(
        &sink);
    ASSERT_TRUE(stats.ok()) << ToString(algo) << ": "
                            << stats.status().ToString();
    EXPECT_EQ(Sorted(sink.pairs()), expected) << ToString(algo);
  }
  // Mixed representations through the unified API.
  for (JoinAlgorithm algo :
       {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM, JoinAlgorithm::kPQ}) {
    CollectingSink sink;
    auto stats = JoinQuery(joiner).Input(ia).Input(sb).Algorithm(algo).Run(
        &sink);
    ASSERT_TRUE(stats.ok()) << ToString(algo);
    EXPECT_EQ(Sorted(sink.pairs()), expected) << ToString(algo);
  }
  {
    CollectingSink sink;
    auto stats = JoinQuery(joiner)
                     .Input(sa)
                     .Input(sb)
                     .Algorithm(JoinAlgorithm::kSSSJ)
                     .Run(&sink);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(Sorted(sink.pairs()), expected);
  }
}

TEST_F(SpatialJoinerTest, StRequiresBothIndexes) {
  const auto a = UniformRects(100, RectF(0, 0, 10, 10), 1.0f, 3);
  RTree ta = BuildTree(a, "a");
  const DatasetRef db = Dataset(a, "b");
  SpatialJoiner joiner(&td_.disk, JoinOptions());
  CountingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromRTree(&ta))
                   .Input(JoinInput::FromStream(db))
                   .Algorithm(JoinAlgorithm::kST)
                   .Run(&sink);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SpatialJoinerTest, PlannerPrefersStreamingForFullOverlap) {
  const RectF region(0, 0, 200, 200);
  const auto a = UniformRects(4000, region, 1.0f, 4);
  const auto b = UniformRects(4000, region, 1.0f, 5);
  RTree ta = BuildTree(a, "a");
  RTree tb = BuildTree(b, "b");
  SpatialJoiner joiner(&td_.disk, JoinOptions());
  const PlanDecision d =
      joiner.Plan(JoinInput::FromRTree(&ta), JoinInput::FromRTree(&tb));
  // Same-extent inputs: the traversal touches ~everything, streaming wins
  // (the paper's headline conclusion).
  EXPECT_EQ(d.algorithm, JoinAlgorithm::kSSSJ);
  EXPECT_GT(d.touched_fraction, 0.9);
}

TEST_F(SpatialJoinerTest, PlannerPrefersIndexForLocalizedJoin) {
  // §6.3's Minnesota-vs-US case: one input localized to a corner.
  const auto a = UniformRects(8000, RectF(0, 0, 1000, 1000), 1.0f, 6);
  const auto b = UniformRects(400, RectF(10, 10, 60, 60), 1.0f, 7);
  RTree ta = BuildTree(a, "a");
  const DatasetRef db = Dataset(b, "b");

  // Histograms sharpen the estimate.
  const RectF extent(0, 0, 1000, 1000);
  GridHistogram ha(extent, 32, 32), hb(extent, 32, 32);
  for (const RectF& r : a) ha.Add(r);
  for (const RectF& r : b) hb.Add(r);

  SpatialJoiner joiner(&td_.disk, JoinOptions());
  const PlanDecision d = joiner.Plan(JoinInput::FromRTree(&ta),
                                     JoinInput::FromStream(db), &ha, &hb);
  EXPECT_EQ(d.algorithm, JoinAlgorithm::kPQ) << d.rationale;
  EXPECT_LT(d.touched_fraction, 0.2);

  // And the auto-join is correct.
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromRTree(&ta))
                   .Input(JoinInput::FromStream(db))
                   .WithHistogram(0, &ha)
                   .WithHistogram(1, &hb)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(Sorted(sink.pairs()), BruteForcePairs(a, b));
}

TEST_F(SpatialJoinerTest, NoIndexMeansStreamPlan) {
  const auto a = UniformRects(500, RectF(0, 0, 50, 50), 1.0f, 8);
  const DatasetRef da = Dataset(a, "a");
  const DatasetRef db = Dataset(a, "b");
  SpatialJoiner joiner(&td_.disk, JoinOptions());
  const PlanDecision d =
      joiner.Plan(JoinInput::FromStream(da), JoinInput::FromStream(db));
  EXPECT_EQ(d.algorithm, JoinAlgorithm::kSSSJ);
}

TEST_F(SpatialJoinerTest, MultiwayThroughFacade) {
  const RectF region(0, 0, 80, 80);
  const auto a = UniformRects(400, region, 4.0f, 9);
  const auto b = UniformRects(400, region, 4.0f, 10);
  const auto c = UniformRects(400, region, 4.0f, 11);
  RTree ta = BuildTree(a, "a");
  const DatasetRef db = Dataset(b, "b");
  const DatasetRef dc = Dataset(c, "c");

  SpatialJoiner joiner(&td_.disk, JoinOptions());
  CountingTupleSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromRTree(&ta))
                   .Input(JoinInput::FromStream(db))
                   .Input(JoinInput::FromStream(dc))
                   .Run(static_cast<TupleSink*>(&sink));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  uint64_t expected = 0;
  for (const RectF& ra : a) {
    for (const RectF& rb : b) {
      if (!ra.Intersects(rb)) continue;
      const RectF ab = ra.IntersectionWith(rb);
      for (const RectF& rc : c) {
        if (ab.Intersects(rc)) expected++;
      }
    }
  }
  EXPECT_EQ(stats->output_count, expected);
}

TEST_F(SpatialJoinerTest, SortedStreamInputSkipsSorting) {
  auto a = UniformRects(1000, RectF(0, 0, 100, 100), 1.0f, 12);
  auto b = UniformRects(1000, RectF(0, 0, 100, 100), 1.0f, 13);
  const auto expected = BruteForcePairs(a, b);
  std::sort(a.begin(), a.end(), OrderByYLo());
  std::sort(b.begin(), b.end(), OrderByYLo());
  const DatasetRef da = Dataset(a, "a");
  const DatasetRef db = Dataset(b, "b");
  SpatialJoiner joiner(&td_.disk, JoinOptions());
  // PQ, and SSSJ forced or chosen (kAuto: no index), sweep the sorted
  // streams as they are.
  for (const JoinAlgorithm algorithm :
       {JoinAlgorithm::kPQ, JoinAlgorithm::kSSSJ, JoinAlgorithm::kAuto}) {
    SCOPED_TRACE(ToString(algorithm));
    td_.disk.ResetStats();
    CollectingSink sink;
    auto stats = JoinQuery(joiner)
                     .Input(JoinInput::FromSortedStream(da))
                     .Input(JoinInput::FromSortedStream(db))
                     .Algorithm(algorithm)
                     .Run(&sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_NE(stats->algorithm, JoinAlgorithm::kPBSM);
    EXPECT_EQ(Sorted(sink.pairs()), expected);
    // One read pass, no writes (no sorting happened).
    EXPECT_EQ(stats->disk.pages_written, 0u);
    EXPECT_EQ(stats->disk.pages_read, da.range.count / 409 + 1 +
                                          db.range.count / 409 + 1);
  }
}

// Records sorted in memory (JoinInput::FromSortedRects) join with every
// pairwise algorithm and in the k-way chain. The sweeps read them where
// they lie; PBSM and SSSJ's strip fallback read streams, so they write
// the records out first.
TEST_F(SpatialJoinerTest, SortedRectsInputsJoinInMemory) {
  auto a = UniformRects(3000, RectF(0, 0, 100, 100), 1.0f, 21);
  auto b = UniformRects(2000, RectF(0, 0, 100, 100), 1.0f, 22);
  auto c = UniformRects(1000, RectF(0, 0, 100, 100), 1.0f, 23);
  const auto expected = BruteForcePairs(a, b);
  for (auto* rects : {&a, &b, &c}) {
    std::sort(rects->begin(), rects->end(), OrderByYLo());
  }
  auto resident = [](const std::vector<RectF>& rects) {
    RectF extent = RectF::Empty();
    for (const RectF& r : rects) extent.ExtendTo(r);
    return JoinInput::FromSortedRects(rects.data(), rects.size(), extent);
  };
  RTree tb = BuildTree(b, "b");
  SpatialJoiner joiner(&td_.disk, JoinOptions());
  struct Case {
    JoinAlgorithm algorithm;
    JoinInput other;
    bool writes;
  };
  for (const Case& c : {Case{JoinAlgorithm::kAuto, resident(b), false},
                        Case{JoinAlgorithm::kSSSJ, resident(b), false},
                        Case{JoinAlgorithm::kPQ, resident(b), false},
                        Case{JoinAlgorithm::kPBSM, resident(b), true},
                        // A tree side is flattened and sorted; PQ
                        // traverses it.
                        Case{JoinAlgorithm::kSSSJ, JoinInput::FromRTree(&tb),
                             true},
                        Case{JoinAlgorithm::kPQ, JoinInput::FromRTree(&tb),
                             false}}) {
    SCOPED_TRACE(std::string(ToString(c.algorithm)) +
                 (c.other.indexed() ? " x tree" : " x resident"));
    JoinQuery q(joiner);
    q.Input(resident(a)).Input(c.other).Algorithm(c.algorithm);
    auto plan = q.Explain();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    CollectingSink sink;
    const DiskStats before = td_.disk.stats();
    auto stats = q.Run(&sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(Sorted(sink.pairs()), expected);
    EXPECT_EQ(stats->algorithm, plan->algorithm);
    EXPECT_EQ(td_.disk.stats().pages_written > before.pages_written, c.writes);
    // Explain replays the run's grants: no sort for a sorted side.
    testing_util::ExpectPlanIsRunGrants(
        plan->memory, stats->memory_components,
        testing_util::DataDependentGrants(*stats, plan->memory));
  }

  // Too little memory for one sweep: SSSJ falls back to strips, which
  // read the records as streams.
  auto big_a = UniformRects(60000, RectF(0, 0, 1000, 1000), 1.0f, 24);
  auto big_b = UniformRects(60000, RectF(0, 0, 1000, 1000), 1.0f, 25);
  CollectingSink reference;
  ASSERT_TRUE(JoinQuery(joiner)
                  .Input(JoinInput::FromStream(Dataset(big_a, "big_a")))
                  .Input(JoinInput::FromStream(Dataset(big_b, "big_b")))
                  .Run(&reference)
                  .ok());
  std::sort(big_a.begin(), big_a.end(), OrderByYLo());
  std::sort(big_b.begin(), big_b.end(), OrderByYLo());
  CollectingSink strips;
  auto stats = JoinQuery(joiner)
                   .Input(resident(big_a))
                   .Input(resident(big_b))
                   .MemoryBytes(kMinMemoryBytes)
                   .Run(&strips);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->partitions_total, 0u);
  EXPECT_EQ(Sorted(strips.pairs()), Sorted(reference.pairs()));

  // The k-way chain sweeps resident inputs as PQ does.
  CountingTupleSink tuples;
  auto kway = JoinQuery(joiner)
                  .Input(resident(a))
                  .Input(resident(b))
                  .Input(resident(c))
                  .Run(static_cast<TupleSink*>(&tuples));
  ASSERT_TRUE(kway.ok()) << kway.status().ToString();
  uint64_t triples = 0;
  for (const RectF& ra : a) {
    for (const RectF& rb : b) {
      if (!ra.Intersects(rb)) continue;
      const RectF ab = ra.IntersectionWith(rb);
      for (const RectF& rc : c) {
        if (ab.Intersects(rc)) triples++;
      }
    }
  }
  EXPECT_EQ(kway->output_count, triples);
  EXPECT_EQ(kway->disk.pages_written, 0u);
}

}  // namespace
}  // namespace sj
