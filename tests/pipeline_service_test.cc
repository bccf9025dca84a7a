// Pipelines as first-class service citizens: PipelineQuery submissions
// share the SpatialService's global memory budget, worker pool, and
// buffer pool with plain join queries, and N pipelines run concurrently
// compute exactly what each computes standalone. Runs in the concurrency
// test tier (meaningful under -DSJ_TSAN=ON).

#include "service/spatial_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/join_query.h"
#include "core/pipeline_query.h"
#include "core/spatial_join.h"
#include "datagen/synthetic.h"
#include "rtree/rtree.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::BlockingSink;
using testing_util::BruteForcePairs;
using testing_util::MakeDataset;
using testing_util::Sorted;
using testing_util::TestDisk;

struct ServiceFixture {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  std::vector<RectF> a, b;
  DatasetRef da, db;
  std::optional<SpatialJoiner> joiner;

  ServiceFixture() {
    const RectF region(0, 0, 90, 90);
    a = UniformRects(400, region, 2.0f, 51);
    b = UniformRects(350, region, 2.5f, 52);
    da = MakeDataset(&td, a, "a", &keep);
    db = MakeDataset(&td, b, "b", &keep);
    joiner.emplace(&td.disk, JoinOptions());
  }

  PipelineQuery HeatmapQuery(uint32_t nx, uint32_t ny) {
    PipelineQuery q(*joiner);
    q.Input(JoinInput::FromStream(da))
        .Input(JoinInput::FromStream(db))
        .AggregateByCell(AggregateMode::kCount, nx, ny, RectF(0, 0, 90, 90))
        .MemoryBytes(2u << 20);
    return q;
  }

  /// A join holding `budget` bytes of the service while it blocks in its
  /// sink (ContendedServiceTest's holder in service_test.cc).
  JoinQuery HolderQuery(size_t budget) {
    JoinQuery q(*joiner);
    q.Input(JoinInput::FromStream(da))
        .Input(JoinInput::FromStream(db))
        .Algorithm(JoinAlgorithm::kSSSJ)
        .MemoryBytes(budget);
    return q;
  }

  PipelineQuery ScanQuery(const RectF& window) {
    PipelineQuery q(*joiner);
    q.Input(JoinInput::FromStream(da))
        .Window(window)
        .TopKByDistance(16, 45, 45)
        .MemoryBytes(1u << 20);
    return q;
  }
};

TEST(PipelineService, RunThroughServiceMatchesStandalone) {
  ServiceFixture f;

  // Standalone reference.
  CollectingRowSink standalone;
  PipelineQuery q0 = f.HeatmapQuery(16, 16);
  auto direct = q0.Run(&standalone);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  // Through a multi-tenant service with workers and a shared pool.
  ServiceOptions options;
  options.global_memory_bytes = 64u << 20;
  options.worker_threads = 4;
  options.buffer_pool_pages = 256;
  SpatialService service(options);
  CollectingRowSink via_service;
  PipelineQuery q1 = f.HeatmapQuery(16, 16);
  auto result = service.Run(q1, &via_service);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(via_service.rows(), standalone.rows());
  EXPECT_EQ(result->output_count, direct->output_count);
  EXPECT_FALSE(via_service.rows().empty());
  EXPECT_EQ(service.stats().admitted_full, 1u);
}

TEST(PipelineService, ConcurrentPipelinesAndJoinsShareTheBudget) {
  ServiceFixture f;

  // Standalone references.
  CollectingRowSink heat_ref, scan_ref;
  {
    PipelineQuery q = f.HeatmapQuery(12, 12);
    SJ_CHECK_OK(q.Run(&heat_ref).status());
  }
  {
    PipelineQuery q = f.ScanQuery(RectF(10, 10, 70, 70));
    SJ_CHECK_OK(q.Run(&scan_ref).status());
  }
  const auto pair_ref = BruteForcePairs(f.a, f.b);

  ServiceOptions options;
  options.global_memory_bytes = 24u << 20;  // Forces queueing under load.
  options.worker_threads = 4;
  options.buffer_pool_pages = 128;
  SpatialService service(options);

  constexpr int kRounds = 4;
  std::vector<CollectingRowSink> heat_sinks(kRounds), scan_sinks(kRounds);
  std::vector<CollectingSink> join_sinks(kRounds);
  std::vector<SubmittedPipeline> heat_subs(kRounds), scan_subs(kRounds);
  std::vector<SubmittedQuery> join_subs(kRounds);

  for (int i = 0; i < kRounds; ++i) {
    PipelineQuery heat = f.HeatmapQuery(12, 12);
    heat_subs[i] = service.Submit(heat, &heat_sinks[i]);
    PipelineQuery scan = f.ScanQuery(RectF(10, 10, 70, 70));
    scan_subs[i] = service.Submit(scan, &scan_sinks[i]);
    JoinQuery join(*f.joiner);
    join.Input(JoinInput::FromStream(f.da))
        .Input(JoinInput::FromStream(f.db))
        .MemoryBytes(2u << 20);
    join_subs[i] = service.Submit(join, &join_sinks[i]);
  }

  for (int i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(heat_subs[i].Result().ok())
        << heat_subs[i].Result().status().ToString();
    ASSERT_TRUE(scan_subs[i].Result().ok())
        << scan_subs[i].Result().status().ToString();
    ASSERT_TRUE(join_subs[i].Result().ok())
        << join_subs[i].Result().status().ToString();
    EXPECT_EQ(heat_sinks[i].rows(), heat_ref.rows()) << "round " << i;
    EXPECT_EQ(scan_sinks[i].rows(), scan_ref.rows()) << "round " << i;
    EXPECT_EQ(Sorted(join_sinks[i].pairs()), pair_ref) << "round " << i;
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 3u * kRounds);
  // The global peak never exceeded the budget.
  EXPECT_LE(stats.global_peak_bytes, options.global_memory_bytes);
  EXPECT_GT(stats.global_peak_bytes, 0u);
}

TEST(PipelineService, RejectsOversizedAndUndersizedPipelines) {
  ServiceFixture f;
  ServiceOptions options;
  options.global_memory_bytes = 8u << 20;
  SpatialService service(options);

  // Budget above the whole global budget: unsatisfiable.
  {
    CollectingRowSink sink;
    PipelineQuery q = f.HeatmapQuery(8, 8);
    q.MemoryBytes(64u << 20);
    SubmitOptions submit;
    submit.allow_degraded = false;
    auto result = service.Run(q, &sink, submit);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  }
  // Budget below the floor: misuse.
  {
    CollectingRowSink sink;
    PipelineQuery q = f.HeatmapQuery(8, 8);
    q.MemoryBytes(kMinMemoryBytes - 1);
    auto result = service.Run(q, &sink);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  }
  // A validation error inside the pipeline surfaces through the service.
  {
    CollectingRowSink sink;
    PipelineQuery q(*f.joiner);
    q.Input(JoinInput::FromStream(f.da))
        .TopKByDistance(0, 1, 1)
        .MemoryBytes(2u << 20);
    auto result = service.Run(q, &sink);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

// Pipeline handles share the join handles' cancel and deadline paths:
// each case queues a pipeline behind a query holding the whole budget.
TEST(PipelineService, CancelResolvesAQueuedPipeline) {
  ServiceFixture f;
  ServiceOptions options;
  options.global_memory_bytes = 8u << 20;
  options.worker_threads = 1;
  SpatialService service(options);

  BlockingSink blocker;
  SubmittedQuery holder = service.Submit(f.HolderQuery(8u << 20), &blocker);
  blocker.WaitEntered();  // The whole budget is now held.

  SubmitOptions no_degrade;
  no_degrade.allow_degraded = false;
  CollectingRowSink rows;
  SubmittedPipeline queued =
      service.Submit(f.HeatmapQuery(8, 8), &rows, no_degrade);
  EXPECT_FALSE(queued.done());  // Queued: nothing to run it with.
  EXPECT_TRUE(queued.Cancel());
  EXPECT_FALSE(queued.Cancel());  // Idempotent: already resolved.
  EXPECT_EQ(queued.Result().status().code(), StatusCode::kCancelled);
  EXPECT_EQ(service.stats().cancelled, 1u);

  blocker.Release();
  ASSERT_TRUE(holder.Result().ok());
  EXPECT_TRUE(rows.rows().empty());  // Never ran.
}

TEST(PipelineService, QueueDeadlineExpiresAQueuedPipeline) {
  ServiceFixture f;
  ServiceOptions options;
  options.global_memory_bytes = 8u << 20;
  options.worker_threads = 1;
  SpatialService service(options);

  BlockingSink blocker;
  SubmittedQuery holder = service.Submit(f.HolderQuery(8u << 20), &blocker);
  blocker.WaitEntered();

  SubmitOptions short_deadline;
  short_deadline.allow_degraded = false;
  short_deadline.queue_deadline_seconds = 0.05;
  CollectingRowSink rows;
  SubmittedPipeline starved =
      service.Submit(f.HeatmapQuery(8, 8), &rows, short_deadline);
  const auto& result = starved.Result();  // The reaper expires it.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.stats().deadline_expired, 1u);

  blocker.Release();
  ASSERT_TRUE(holder.Result().ok());
  EXPECT_TRUE(rows.rows().empty());
}

TEST(PipelineService, HandleOutlivesServiceSafely) {
  ServiceFixture f;
  SubmittedPipeline handle;
  CollectingRowSink sink;
  {
    ServiceOptions options;
    options.worker_threads = 2;
    SpatialService service(options);
    PipelineQuery q = f.HeatmapQuery(8, 8);
    handle = service.Submit(q, &sink);
    // The service destructor drains or resolves everything outstanding.
  }
  handle.Wait();
  ASSERT_TRUE(handle.done());
  // Either it ran to completion before the destructor, or it was
  // resolved with an error — never a hang or a crash.
  if (handle.Result().ok()) {
    EXPECT_FALSE(sink.rows().empty());
  }
}

// A window scan counts the pages it read itself, not a delta of the
// DiskModel its neighbours share: each windowed pipeline over two R-trees
// reports the same WindowScan pages through a 2-worker service, with
// three clients submitting at once, as it does alone.
TEST(PipelineService, WindowScanPagesLeaveOutNeighbours) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  std::vector<std::unique_ptr<RTree>> trees;
  for (const uint64_t seed : {61, 62}) {
    const DatasetRef data = MakeDataset(
        &td, UniformRects(20000, RectF(0, 0, 1000, 1000), 4.0f, seed),
        "data", &keep);
    keep.push_back(td.NewPager("tree"));
    Pager* tree_pager = keep.back().get();
    keep.push_back(td.NewPager("scratch"));
    auto tree = RTree::BulkLoadHilbert(tree_pager, data.range,
                                       keep.back().get(), RTreeParams(),
                                       1 << 22);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    trees.push_back(std::make_unique<RTree>(std::move(*tree)));
  }
  SpatialJoiner joiner(&td.disk, JoinOptions());
  constexpr size_t kBudget = 4u << 20;
  std::vector<RectF> windows;
  for (int i = 0; i < 24; ++i) {
    const float x = static_cast<float>((i * 137) % 750);
    const float y = static_cast<float>((i * 311) % 750);
    const float side = 150.0f + static_cast<float>((i * 53) % 100);
    windows.emplace_back(x, y, x + side, y + side);
  }
  auto query = [&](const RectF& w) {
    PipelineQuery q(joiner);
    q.Input(JoinInput::FromRTree(trees[0].get()))
        .Input(JoinInput::FromRTree(trees[1].get()))
        .Window(w)
        .AggregateByCell(AggregateMode::kCount, 32, 32)
        .TopKByDistance(8, 0.5f * (w.xlo + w.xhi), 0.5f * (w.ylo + w.yhi))
        .MemoryBytes(kBudget);
    return q;
  };
  auto scan_pages = [](const PipelineStats& stats) {
    std::vector<uint64_t> pages;
    for (const OperatorStats& op : stats.operators) {
      if (op.name == "WindowScan") pages.push_back(op.pages_read);
    }
    return pages;
  };

  std::vector<std::vector<uint64_t>> alone;
  for (const RectF& w : windows) {
    CountingRowSink sink;
    auto stats = query(w).Run(&sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    alone.push_back(scan_pages(*stats));
    ASSERT_EQ(alone.back().size(), 2u);
  }

  ServiceOptions options;
  options.global_memory_bytes = 2 * kBudget;
  options.worker_threads = 2;
  SpatialService service(options);
  constexpr size_t kClients = 3;
  std::vector<CountingRowSink> sinks(windows.size());
  std::vector<SubmittedPipeline> subs(windows.size());
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < windows.size(); i += kClients) {
        subs[i] = service.Submit(query(windows[i]), &sinks[i]);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (size_t i = 0; i < windows.size(); ++i) {
    const auto& result = subs[i].Result();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(scan_pages(*result), alone[i]) << "window " << i;
  }
}

}  // namespace
}  // namespace sj
