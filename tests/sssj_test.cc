#include "join/sssj.h"

#include <gtest/gtest.h>

#include <string>

#include "core/join_query.h"
#include "core/spatial_join.h"
#include "datagen/synthetic.h"
#include "test_util.h"
#include "util/timer.h"

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
  auto stats = SSSJJoin(JoinInput::FromStream(da), JoinInput::FromStream(db),
                        &td.disk, JoinOptions(), &sink);
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
  auto stats = SSSJJoin(JoinInput::FromStream(empty),
                        JoinInput::FromStream(one), &td.disk, JoinOptions(),
                        &sink);
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
  auto stats = SSSJJoin(JoinInput::FromStream(da), JoinInput::FromStream(db),
                        &td.disk, JoinOptions(), &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(Sorted(sink.pairs()), BruteForcePairs(a, b));
}

TEST(SSSJ, SweepStripsAreTwiceTheRootOfTheRecordCount) {
  // ceil(2 sqrt(N)), exact on both sides of each perfect square.
  EXPECT_EQ(SweepStrips(0, 1024), 1u);
  EXPECT_EQ(SweepStrips(1, 1024), 2u);
  EXPECT_EQ(SweepStrips(4, 1024), 4u);
  EXPECT_EQ(SweepStrips(5, 1024), 5u);
  EXPECT_EQ(SweepStrips(935, 1024), 62u);
  EXPECT_EQ(SweepStrips(9979, 1024), 200u);
  EXPECT_EQ(SweepStrips(261632, 1024), 1023u);
  EXPECT_EQ(SweepStrips(261633, 1024), 1024u);
  // The cap: every N from 262,144 on takes striped_strips' default.
  EXPECT_EQ(SweepStrips(262144, 1024), 1024u);
  EXPECT_EQ(SweepStrips(365014, 1024), 1024u);
  EXPECT_EQ(SweepStrips(365014, 4096), 1209u);
  EXPECT_EQ(SweepStrips(1000, 16), 16u);
  EXPECT_EQ(SweepStrips(1000, 0), 1u);
}

// A JoinQuery's SSSJ stripes its sweep for the records it sweeps, in the
// materializing and the fused branch alike, and reports the count; at
// 300,000 records the 1,024 cap holds instead of ceil(2 sqrt(N)) = 1,096.
TEST(SSSJ, QueryReportsTheStripsItSweptWith) {
  struct Case {
    uint64_t na, nb;
    uint32_t strips;
  };
  for (const Case c : {Case{700, 700, 75}, Case{6000, 4000, 200},
                       Case{150000, 150000, 1024}}) {
    const bool small = c.na + c.nb < 20000;
    for (const bool fused : {false, true}) {
      SCOPED_TRACE("N = " + std::to_string(c.na + c.nb) +
                   (fused ? ", fused" : ""));
      TestDisk td;
      std::vector<std::unique_ptr<Pager>> keep;
      const RectF region(0, 0, 1000, 1000);
      const float size = small ? 8.0f : 0.5f;
      const auto a = UniformRects(c.na, region, size, 31);
      const auto b = UniformRects(c.nb, region, size, 32);
      SpatialJoiner joiner(&td.disk, JoinOptions());
      CollectingSink sink;
      auto stats = JoinQuery(joiner)
                       .Input(JoinInput::FromStream(
                           MakeDataset(&td, a, "a", &keep)))
                       .Input(JoinInput::FromStream(
                           MakeDataset(&td, b, "b", &keep)))
                       .Algorithm(JoinAlgorithm::kSSSJ)
                       .FuseMergeSweep(fused)
                       .Run(&sink);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(stats->partitions_total, 0u);
      EXPECT_EQ(stats->sweep_strips, c.strips);
      EXPECT_NE(stats->Describe().find(std::to_string(c.strips) +
                                       " sweep strips"),
                std::string::npos)
          << stats->Describe();
      bool keyed = false;
      for (const auto& [key, value] : stats->ToKeyValues()) {
        if (key == "sweep_strips") keyed = value == std::to_string(c.strips);
      }
      EXPECT_TRUE(keyed);
      if (small) {
        EXPECT_EQ(Sorted(sink.pairs()), BruteForcePairs(a, b));
      }
    }
  }
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
  auto stats = SSSJJoin(JoinInput::FromStream(da), JoinInput::FromStream(db),
                        &td.disk, options, &sink);
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
  auto stats = SSSJJoin(JoinInput::FromStream(da), JoinInput::FromStream(db),
                        &td.disk, JoinOptions(), &sink);
  ASSERT_TRUE(stats.ok());
  const size_t input_bytes = (a.size() + b.size()) * sizeof(RectF);
  EXPECT_LT(stats->max_sweep_bytes, input_bytes / 10);
}

// Parallel run formation forms its runs on a private team, off the
// calling thread's clock: the join's CPU must still cover them, so it
// exceeds what the calling thread spent. Output and modeled I/O match the
// serial sort.
TEST(SSSJ, HostCpuCoversParallelRunFormation) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF region(0, 0, 1000, 1000);
  const auto a = UniformRects(60000, region, 2.0f, 71);
  const auto b = UniformRects(50000, region, 2.0f, 72);
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  JoinOptions options;
  options.memory_bytes = 512 << 10;  // 10+ runs per input.
  uint64_t serial_pairs = 0;
  double serial_io = 0.0;
  for (uint32_t threads : {1u, 4u}) {
    options.num_threads = threads;
    td.disk.ResetStats();
    CountingSink sink;
    ThreadCpuTimer caller;
    auto stats = SSSJJoin(JoinInput::FromStream(da),
                          JoinInput::FromStream(db), &td.disk, options, &sink);
    const double caller_cpu = caller.Elapsed();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    if (threads == 1) {
      EXPECT_EQ(stats->sort_parallel_units, 0u);
      serial_pairs = sink.count();
      serial_io = stats->disk.io_seconds;
    } else {
      EXPECT_GT(stats->sort_parallel_units, 1u);
      EXPECT_GT(stats->host_cpu_seconds, caller_cpu);
      EXPECT_EQ(sink.count(), serial_pairs);
      EXPECT_DOUBLE_EQ(stats->disk.io_seconds, serial_io);
    }
  }
}

}  // namespace
}  // namespace sj
