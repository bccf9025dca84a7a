// PartitionPlanner / PartitionMap unit and property tests, including the
// reference-point duplicate-suppression property the ISSUE demands:
// under adaptive grids with recursive tile splits, every result pair is
// emitted exactly once at every thread count.

#include "join/partition_plan.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "datagen/synthetic.h"
#include "join/pbsm.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::BruteForcePairs;
using testing_util::MakeDataset;
using testing_util::TestDisk;

GridHistogram HistogramOf(const std::vector<RectF>& rects,
                          const RectF& extent, uint32_t res) {
  GridHistogram hist(extent, res, res);
  for (const RectF& r : rects) hist.Add(r);
  return hist;
}

// ---------------------------------------------------------------------------
// Planner shape
// ---------------------------------------------------------------------------

TEST(PartitionPlanner, UniformDataStaysOnBaseGrid) {
  const RectF extent(0, 0, 100, 100);
  const auto a = UniformRects(4000, extent, 1.0f, 1);
  const auto b = UniformRects(4000, extent, 1.0f, 2);
  PartitionPlannerConfig config;
  config.memory_bytes = 64u << 10;
  const auto plan = PartitionPlanner::Plan(extent, HistogramOf(a, extent, 64),
                                           HistogramOf(b, extent, 64), config);
  // 8000 records * 20 B = 160 KB over ~61 KB partitions: a handful of
  // partitions, and uniform density leaves no tile above the split
  // threshold.
  EXPECT_GE(plan->partitions(), 3u);
  EXPECT_EQ(plan->split_tiles(), 0u);
  EXPECT_EQ(plan->leaf_tiles(), plan->tiles_x() * plan->tiles_y());
}

TEST(PartitionPlanner, HotTileIsSplitRecursively) {
  const RectF extent(0, 0, 100, 100);
  // Everything inside one ~2x2 hot square: the covering tile exceeds any
  // reasonable threshold and must be split repeatedly.
  const auto a = UniformRects(6000, RectF(40, 40, 42, 42), 0.2f, 3);
  const auto b = UniformRects(6000, RectF(40, 40, 42, 42), 0.2f, 4);
  PartitionPlannerConfig config;
  config.memory_bytes = 32u << 10;
  const auto plan =
      PartitionPlanner::Plan(extent, HistogramOf(a, extent, 128),
                             HistogramOf(b, extent, 128), config);
  EXPECT_GT(plan->split_tiles(), 0u);
  EXPECT_GT(plan->leaf_tiles(), plan->tiles_x() * plan->tiles_y());
  EXPECT_GT(plan->partitions(), 1u);
}

TEST(PartitionPlanner, EmptyHistogramsYieldOnePartition) {
  const RectF extent(0, 0, 100, 100);
  PartitionPlannerConfig config;
  const auto plan =
      PartitionPlanner::Plan(extent, GridHistogram(extent, 16, 16),
                             GridHistogram(extent, 16, 16), config);
  EXPECT_EQ(plan->partitions(), 1u);
  EXPECT_EQ(plan->split_tiles(), 0u);
}

TEST(PartitionPlanner, WriterBlocksScaleWithTheMemoryBudget) {
  const RectF extent(0, 0, 100, 100);
  const auto a = UniformRects(4000, extent, 1.0f, 5);
  const auto hist = HistogramOf(a, extent, 64);
  PartitionPlannerConfig small;
  small.memory_bytes = 32u << 10;
  PartitionPlannerConfig large;
  large.memory_bytes = 24u << 20;
  const auto plan_small = PartitionPlanner::Plan(extent, hist, hist, small);
  const auto plan_large = PartitionPlanner::Plan(extent, hist, hist, large);
  const uint32_t blocks_small =
      PbsmWriterBlockPages(small.memory_bytes, plan_small->partitions());
  EXPECT_GE(blocks_small, 4u);
  EXPECT_GT(PbsmWriterBlockPages(large.memory_bytes, plan_large->partitions()),
            blocks_small);
}

// ---------------------------------------------------------------------------
// The correctness contract: the reference-point partition of any pair is
// among the partitions either rectangle replicates into — for random
// rectangles against a plan with real recursive splits.
// ---------------------------------------------------------------------------

TEST(PartitionMap, ReferencePartitionIsAlwaysReplicatedInto) {
  const RectF extent(0, 0, 100, 100);
  const auto hot_a = UniformRects(5000, RectF(10, 10, 12, 12), 0.3f, 6);
  const auto hot_b = UniformRects(5000, RectF(10, 10, 12, 12), 0.3f, 7);
  PartitionPlannerConfig config;
  config.memory_bytes = 32u << 10;
  const auto plan =
      PartitionPlanner::Plan(extent, HistogramOf(hot_a, extent, 128),
                             HistogramOf(hot_b, extent, 128), config);
  ASSERT_GT(plan->split_tiles(), 0u);

  // Random pairs, including degenerate points, tile-boundary-aligned
  // rects and rects straddling the hot region.
  Random rng(99);
  std::vector<uint32_t> parts_a, parts_b;
  for (int trial = 0; trial < 20000; ++trial) {
    auto rect = [&](bool hot) {
      const double span = hot ? 4.0 : 100.0;
      const double ox = hot ? 9.0 : 0.0;
      const float xlo = static_cast<float>(ox + rng.UniformDouble(0, span));
      const float ylo = static_cast<float>(ox + rng.UniformDouble(0, span));
      const float w = static_cast<float>(rng.UniformDouble(0, span / 8));
      const float h = static_cast<float>(rng.UniformDouble(0, span / 8));
      return RectF(xlo, ylo, xlo + w, ylo + h, 0);
    };
    const RectF ra = rect(trial % 2 == 0);
    const RectF rb = rect(trial % 3 == 0);
    if (!ra.Intersects(rb)) continue;
    const uint32_t ref = plan->ReferencePartition(ra, rb);
    plan->PartitionsOf(ra, &parts_a);
    plan->PartitionsOf(rb, &parts_b);
    ASSERT_NE(std::find(parts_a.begin(), parts_a.end(), ref), parts_a.end())
        << "pair's reference partition missing from side a's replicas";
    ASSERT_NE(std::find(parts_b.begin(), parts_b.end(), ref), parts_b.end())
        << "pair's reference partition missing from side b's replicas";
  }
}

// ---------------------------------------------------------------------------
// The duplicate-suppression property, end to end through PBSMJoin: a
// counting sink that records per-pair multiplicities must see every
// brute-force pair exactly once — under adaptive grids with recursive
// splits and under fixed grids, at 1/2/8 threads.
// ---------------------------------------------------------------------------

class DuplicateCountingSink final : public JoinSink {
 public:
  void Emit(ObjectId a, ObjectId b) override { counts_[{a, b}]++; }
  const std::map<IdPair, uint64_t>& counts() const { return counts_; }

 private:
  std::map<IdPair, uint64_t> counts_;
};

TEST(PBSMDuplicateSuppression, EveryPairEmittedExactlyOnce) {
  const RectF region(0, 0, 200, 200);
  // A dense city on uniform background: forces recursive splits on the
  // city tiles while the background exercises plain base-grid leaves.
  const auto a = UniformWithCityRects(4000, region, 0.6, 6.0f, 1.0f, 11);
  const auto b = UniformWithCityRects(4000, region, 0.6, 6.0f, 1.2f, 12);
  const auto expected = BruteForcePairs(a, b);
  ASSERT_FALSE(expected.empty());

  for (const bool adaptive : {true, false}) {
    for (const uint32_t threads : {1u, 2u, 8u}) {
      TestDisk td;
      std::vector<std::unique_ptr<Pager>> keep;
      const DatasetRef da = MakeDataset(&td, a, "a", &keep);
      const DatasetRef db = MakeDataset(&td, b, "b", &keep);
      JoinOptions options;
      options.adaptive_partitioning = adaptive;
      options.memory_bytes = 24u << 10;  // Many partitions, real splits.
      options.num_threads = threads;
      DuplicateCountingSink sink;
      auto stats = PBSMJoin(da, db, &td.disk, options, &sink);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      if (adaptive) {
        EXPECT_GT(stats->pbsm_split_tiles, 0u)
            << "workload was meant to force recursive splits";
      }
      ASSERT_EQ(sink.counts().size(), expected.size())
          << (adaptive ? "adaptive" : "fixed") << " t" << threads;
      for (const auto& [pair, count] : sink.counts()) {
        ASSERT_EQ(count, 1u)
            << "pair (" << pair.a << ", " << pair.b << ") emitted " << count
            << " times under " << (adaptive ? "adaptive" : "fixed")
            << " partitioning with " << threads << " threads";
      }
      size_t i = 0;
      for (const auto& [pair, count] : sink.counts()) {
        ASSERT_EQ(pair, expected[i++]);
      }
    }
  }
}

}  // namespace
}  // namespace sj
