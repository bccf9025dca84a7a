#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "datagen/synthetic.h"
#include "join/sssj.h"
#include "join/strip_map.h"
#include "rtree/rtree.h"
#include "test_util.h"
#include "util/random.h"

namespace sj {
namespace {

using testing_util::BruteForcePairs;
using testing_util::MakeDataset;
using testing_util::Sorted;
using testing_util::TestDisk;

/// Adversarial input for a plane sweep: tall, thin rectangles spanning the
/// whole y-extent stay active for the entire sweep, so the interval
/// structures hold *all* of them at once.
std::vector<RectF> TallColumns(uint64_t n, float width, uint64_t seed,
                               ObjectId base = 0) {
  Random rng(seed);
  std::vector<RectF> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const float x = static_cast<float>(rng.UniformDouble(0, 1000));
    out.push_back(
        RectF(x, 0, x + width, 1000, base + static_cast<ObjectId>(i)));
  }
  return out;
}

TEST(SSSJStrip, MatchesPlainSSSJOnBenignData) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF region(0, 0, 300, 300);
  const auto a = UniformRects(2000, region, 2.0f, 1);
  const auto b = UniformRects(2000, region, 2.0f, 2);
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  CollectingSink sink;
  auto stats = SSSJStripJoin(da, db, /*strips=*/8, &td.disk, JoinOptions(),
                             &sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(Sorted(sink.pairs()), BruteForcePairs(a, b));
  EXPECT_EQ(stats->partitions_total, 8u);
}

TEST(SSSJStrip, HandlesAdversarialDataThePlainSweepCannot) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const auto a = TallColumns(6000, 0.05f, 3);
  const auto b = TallColumns(6000, 0.05f, 4);
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);

  JoinOptions tiny;
  tiny.memory_bytes = 64u << 10;  // 12000 always-active rects = 240 KB.

  // The partitioned variant stays within budget and is exact.
  CollectingSink sink;
  auto stats = SSSJStripJoin(da, db, /*strips=*/16, &td.disk, tiny, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(Sorted(sink.pairs()), BruteForcePairs(a, b));
  EXPECT_LE(stats->max_sweep_bytes, tiny.memory_bytes);
}

TEST(SSSJStripDeathTest, StrictArbiterAbortsOnUngovernedSweepGrowth) {
  // The always-active columns defeat the sweep grant's square-root
  // estimate; a *strict* arbiter turns that ungoverned growth into an
  // abort (the old hard SJ_CHECK, now opt-in via
  // JoinOptions::strict_memory_accounting).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        TestDisk td;
        std::vector<std::unique_ptr<Pager>> keep;
        const auto a = TallColumns(6000, 0.05f, 3);
        const auto b = TallColumns(6000, 0.05f, 4);
        const DatasetRef da = MakeDataset(&td, a, "a", &keep);
        const DatasetRef db = MakeDataset(&td, b, "b", &keep);
        JoinOptions tiny;
        tiny.memory_bytes = 64u << 10;
        tiny.strict_memory_accounting = true;
        CountingSink sink;
        SSSJJoin(JoinInput::FromStream(da), JoinInput::FromStream(db),
                 &td.disk, tiny, &sink)
            .status();
      },
      "ungoverned allocation");
}

TEST(SSSJStrip, PlainSweepRecordsOvershootInsteadOfAborting) {
  // Same adversarial input without strict accounting: the join stays
  // exact and the overshoot surfaces in the memory high-water marks
  // (usage above the sweep grant) rather than killing the process.
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const auto a = TallColumns(6000, 0.05f, 3);
  const auto b = TallColumns(6000, 0.05f, 4);
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  JoinOptions tiny;
  tiny.memory_bytes = 64u << 10;
  CollectingSink sink;
  auto stats = SSSJJoin(JoinInput::FromStream(da), JoinInput::FromStream(db),
                        &td.disk, tiny, &sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(Sorted(sink.pairs()), BruteForcePairs(a, b));
  EXPECT_GT(stats->max_sweep_bytes, tiny.memory_bytes);
  bool recorded = false;
  for (const MemoryComponentStats& c : stats->memory_components) {
    if (c.component == grants::kSweep) {
      EXPECT_GE(c.used_high_water, stats->max_sweep_bytes);
      recorded = true;
    }
  }
  EXPECT_TRUE(recorded) << "sweep component missing from memory stats";
}

TEST(SSSJStrip, WideRectanglesReplicateButReportOnce) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  // Rows spanning all strips crossed with columns: every pair intersects.
  std::vector<RectF> rows, cols;
  for (ObjectId i = 0; i < 40; ++i) {
    rows.push_back(RectF(0, static_cast<float>(i * 10),
                         1000, static_cast<float>(i * 10 + 5), i));
    cols.push_back(RectF(static_cast<float>(i * 25), 0,
                         static_cast<float>(i * 25 + 5), 1000, i));
  }
  const DatasetRef da = MakeDataset(&td, rows, "rows", &keep);
  const DatasetRef db = MakeDataset(&td, cols, "cols", &keep);
  CollectingSink sink;
  auto stats = SSSJStripJoin(da, db, 16, &td.disk, JoinOptions(), &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(sink.pairs().size(), 40u * 40u);
  EXPECT_EQ(Sorted(sink.pairs()), BruteForcePairs(rows, cols));
}

// Each strip unit sweeps its own strip's x-range, striped for its own
// records: the join reports the largest unit's ceil(2 sqrt(n)), well
// below the whole input's, and the pairs match brute force at every
// thread count. The left eighth of the extent holds most of the data,
// so the units differ in size.
TEST(SSSJStrip, UnitsStripeTheirSweepsForTheirOwnRecords) {
  auto a = UniformRects(3000, RectF(0, 0, 125, 1000), 3.0f, 11);
  auto b = UniformRects(2500, RectF(0, 0, 125, 1000), 3.0f, 12);
  const auto a_rest = UniformRects(1000, RectF(125, 0, 1000, 1000), 3.0f, 13,
                                   /*base_id=*/3000);
  const auto b_rest = UniformRects(800, RectF(125, 0, 1000, 1000), 3.0f, 14,
                                   /*base_id=*/2500);
  a.insert(a.end(), a_rest.begin(), a_rest.end());
  b.insert(b.end(), b_rest.begin(), b_rest.end());
  constexpr uint32_t kUnits = 8;

  RectF extent = ComputeExtent(a);
  extent.ExtendTo(ComputeExtent(b));
  const StripMap map(extent, kUnits);
  std::vector<uint64_t> unit_records(kUnits);
  std::vector<uint32_t> strips;
  for (const auto* input : {&a, &b}) {
    for (const RectF& r : *input) {
      map.StripsOf(r, &strips);
      for (const uint32_t s : strips) unit_records[s]++;
    }
  }
  uint32_t largest_unit = 0;
  for (const uint64_t n : unit_records) {
    largest_unit = std::max(largest_unit, SweepStrips(n, 1024));
  }
  ASSERT_LT(largest_unit, SweepStrips(a.size() + b.size(), 1024));

  const auto expected = BruteForcePairs(a, b);
  for (const uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    TestDisk td;
    std::vector<std::unique_ptr<Pager>> keep;
    const DatasetRef da = MakeDataset(&td, a, "a", &keep);
    const DatasetRef db = MakeDataset(&td, b, "b", &keep);
    JoinOptions options;
    options.num_threads = threads;
    CollectingSink sink;
    auto stats = SSSJStripJoin(da, db, kUnits, &td.disk, options, &sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->partitions_total, kUnits);
    EXPECT_EQ(stats->sweep_strips, largest_unit);
    EXPECT_FALSE(stats->sweep_strips_collapsed);
    EXPECT_EQ(Sorted(sink.pairs()), expected);
  }
}

TEST(SSSJStrip, SingleStripEqualsPlain) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const auto a = UniformRects(800, RectF(0, 0, 50, 50), 1.0f, 5);
  const auto b = UniformRects(800, RectF(0, 0, 50, 50), 1.0f, 6);
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  CollectingSink strip_sink, plain_sink;
  ASSERT_TRUE(
      SSSJStripJoin(da, db, 1, &td.disk, JoinOptions(), &strip_sink).ok());
  ASSERT_TRUE(SSSJJoin(JoinInput::FromStream(da), JoinInput::FromStream(db),
                       &td.disk, JoinOptions(), &plain_sink)
                  .ok());
  EXPECT_EQ(Sorted(strip_sink.pairs()), Sorted(plain_sink.pairs()));
}

// SSSJ's one body over every pair of input kinds, where the grant is short
// and where it is not: a sorted or resident side is swept as it is, a tree
// side is read as a stream, and the strip fallback writes a resident or
// tree side out. 22,000 records a side put the sweep estimate above 64 KiB
// (the differential harness's workloads stay below it at any budget).
TEST(SSSJStrip, EveryInputKindFallsBackAndMatchesPlainStreams) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF region(0, 0, 1000, 1000);
  std::vector<RectF> data[2] = {UniformRects(22000, region, 1.0f, 1),
                                UniformRects(22000, region, 1.0f, 2)};
  std::vector<RectF> sorted[2];
  std::vector<std::unique_ptr<RTree>> trees;
  std::vector<JoinInput> kinds[2];
  for (int side = 0; side < 2; ++side) {
    const std::string name = side == 0 ? "a" : "b";
    const DatasetRef plain = MakeDataset(&td, data[side], name, &keep);
    sorted[side] = data[side];
    std::sort(sorted[side].begin(), sorted[side].end(), OrderByYLo());
    const DatasetRef sorted_ref =
        MakeDataset(&td, sorted[side], "sorted." + name, &keep);
    keep.push_back(td.NewPager("tree." + name));
    Pager* tree_pager = keep.back().get();
    keep.push_back(td.NewPager("tree.scratch"));
    auto tree = RTree::BulkLoadHilbert(tree_pager, plain.range,
                                       keep.back().get(), RTreeParams(),
                                       1 << 22);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    trees.push_back(std::make_unique<RTree>(std::move(*tree)));
    kinds[side] = {JoinInput::FromStream(plain),
                   JoinInput::FromSortedStream(sorted_ref),
                   JoinInput::FromSortedRects(sorted[side].data(),
                                              sorted[side].size(),
                                              plain.extent),
                   JoinInput::FromRTree(trees.back().get())};
  }
  CollectingSink reference;
  ASSERT_TRUE(SSSJJoin(kinds[0][0], kinds[1][0], &td.disk, JoinOptions(),
                       &reference)
                  .ok());
  const std::vector<IdPair> expected = Sorted(reference.pairs());
  ASSERT_FALSE(expected.empty());

  const char* names[] = {"stream", "sorted stream", "resident", "tree"};
  for (const size_t budget : {size_t{64} << 10, size_t{24} << 20}) {
    JoinOptions options;
    options.memory_bytes = budget;
    for (int ka = 0; ka < 4; ++ka) {
      for (int kb = 0; kb < 4; ++kb) {
        SCOPED_TRACE(std::string(names[ka]) + " x " + names[kb] +
                     ", budget " + std::to_string(budget));
        CollectingSink sink;
        auto stats =
            SSSJJoin(kinds[0][ka], kinds[1][kb], &td.disk, options, &sink);
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        EXPECT_EQ(stats->partitions_total > 0, budget == (size_t{64} << 10));
        EXPECT_EQ(Sorted(sink.pairs()), expected);
      }
    }
  }
}

}  // namespace
}  // namespace sj
