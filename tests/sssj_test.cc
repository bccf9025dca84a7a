#include "join/sssj.h"

#include <gtest/gtest.h>

#include <string>

#include "core/join_query.h"
#include "core/spatial_join.h"
#include "datagen/synthetic.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::BruteForcePairs;
using testing_util::MakeDataset;
using testing_util::Sorted;
using testing_util::TestDisk;

TEST(SSSJ, MatchesBruteForceOnClusteredData) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF region(0, 0, 1000, 1000);
  const auto a = ClusteredRects(3000, region, 10, 20.0f, 3.0f, 1);
  const auto b = ClusteredRects(2500, region, 10, 20.0f, 3.0f, 2);
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);

  CollectingSink sink;
  auto stats = SSSJJoin(da, db, &td.disk, JoinOptions(), &sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(Sorted(sink.pairs()), BruteForcePairs(a, b));
}

TEST(SSSJ, EmptyInputs) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const DatasetRef empty = MakeDataset(&td, {}, "e", &keep);
  const DatasetRef one =
      MakeDataset(&td, {RectF(0, 0, 1, 1, 7)}, "o", &keep);
  CountingSink sink;
  auto stats = SSSJJoin(empty, one, &td.disk, JoinOptions(), &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->output_count, 0u);
}

TEST(SSSJ, ComputesExtentWhenMissing) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const auto a = UniformRects(500, RectF(0, 0, 50, 50), 2.0f, 3);
  const auto b = UniformRects(500, RectF(0, 0, 50, 50), 2.0f, 4);
  DatasetRef da = MakeDataset(&td, a, "a", &keep);
  DatasetRef db = MakeDataset(&td, b, "b", &keep);
  da.extent = RectF::Empty();  // Force the extra extent scan.
  db.extent = RectF::Empty();
  CollectingSink sink;
  auto stats = SSSJJoin(da, db, &td.disk, JoinOptions(), &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(Sorted(sink.pairs()), BruteForcePairs(a, b));
}

TEST(SSSJ, IoPassStructureMatchesPaper) {
  // "SSSJ performs two sequential read passes, one non-sequential read
  // pass (while merging), and two sequential write passes over the data."
  // Machine 2's two-segment disk cache cannot track the many merge-input
  // runs, so the merge pass is genuinely non-sequential there.
  TestDisk td(MachineModel::Machine2());
  std::vector<std::unique_ptr<Pager>> keep;
  const auto a = UniformRects(80000, RectF(0, 0, 1000, 1000), 0.5f, 5);
  const auto b = UniformRects(80000, RectF(0, 0, 1000, 1000), 0.5f, 6);
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  td.disk.ResetStats();

  JoinOptions options;
  options.memory_bytes = 1 << 20;  // Small memory so sorting forms many runs.
  CountingSink sink;
  auto stats = SSSJJoin(da, db, &td.disk, options, &sink);
  ASSERT_TRUE(stats.ok());

  const uint64_t data_pages = 2 * ((80000 + 408) / 409);
  // 3 read passes (input, merge, sorted scan), 2 write passes (runs,
  // sorted). Extents are known, so no extra scan.
  EXPECT_NEAR(static_cast<double>(stats->disk.pages_read), 3.0 * data_pages,
              0.1 * data_pages);
  EXPECT_NEAR(static_cast<double>(stats->disk.pages_written),
              2.0 * data_pages, 0.1 * data_pages);
}

// The fused merge reads every run of an input at once, so the join only
// fuses when one merge pass holds them. In the second case (100k rects per
// side in 256 KiB) each input forms more runs than a merge can take; the
// join must fall back to the materializing path with the same pairs, not
// abort.
TEST(SSSJ, FusedVariantSavesAPassAndAgrees) {
  struct Case {
    uint64_t n;
    size_t memory_bytes;
    bool fuses;
  };
  for (const Case& c :
       {Case{40000, 1 << 20, true}, Case{100000, 256 << 10, false}}) {
    SCOPED_TRACE("n=" + std::to_string(c.n) +
                 " memory=" + std::to_string(c.memory_bytes));
    TestDisk td;
    std::vector<std::unique_ptr<Pager>> keep;
    const auto a = UniformRects(c.n, RectF(0, 0, 500, 500), 0.5f, 7);
    const auto b = UniformRects(c.n, RectF(0, 0, 500, 500), 0.5f, 8);
    const DatasetRef da = MakeDataset(&td, a, "a", &keep);
    const DatasetRef db = MakeDataset(&td, b, "b", &keep);
    SpatialJoiner joiner(&td.disk, JoinOptions());
    auto run = [&](bool fuse, CollectingSink* sink) {
      return JoinQuery(joiner)
          .Input(JoinInput::FromStream(da))
          .Input(JoinInput::FromStream(db))
          .Algorithm(JoinAlgorithm::kSSSJ)
          .FuseMergeSweep(fuse)
          .MemoryBytes(c.memory_bytes)
          .Run(sink);
    };

    CollectingSink plain, fused;
    auto stats_plain = run(false, &plain);
    ASSERT_TRUE(stats_plain.ok()) << stats_plain.status().ToString();
    auto stats_fused = run(true, &fused);
    ASSERT_TRUE(stats_fused.ok()) << stats_fused.status().ToString();

    EXPECT_GT(plain.pairs().size(), 0u);
    EXPECT_EQ(Sorted(fused.pairs()), Sorted(plain.pairs()));
    if (c.fuses) {
      EXPECT_LT(stats_fused->disk.pages_read, stats_plain->disk.pages_read);
      EXPECT_LT(stats_fused->disk.pages_written,
                stats_plain->disk.pages_written);
    } else {
      EXPECT_EQ(stats_fused->disk.pages_read, stats_plain->disk.pages_read);
      EXPECT_EQ(stats_fused->disk.pages_written,
                stats_plain->disk.pages_written);
    }
  }
}

TEST(SSSJ, SweepStructureStaysSmall) {
  // The square-root rule: the sweep structure is tiny relative to the
  // input (Table 3's "Sweep Structure" row).
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const auto a = ClusteredRects(50000, RectF(0, 0, 1000, 1000), 40, 10.0f,
                                0.5f, 9);
  const auto b = ClusteredRects(50000, RectF(0, 0, 1000, 1000), 40, 10.0f,
                                0.5f, 10);
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  CountingSink sink;
  auto stats = SSSJJoin(da, db, &td.disk, JoinOptions(), &sink);
  ASSERT_TRUE(stats.ok());
  const size_t input_bytes = (a.size() + b.size()) * sizeof(RectF);
  EXPECT_LT(stats->max_sweep_bytes, input_bytes / 10);
}

}  // namespace
}  // namespace sj
