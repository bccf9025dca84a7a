// The SpatialService scheduler: admission control against one global
// memory budget (FIFO queueing, degraded admission, rejection), the
// unified Status taxonomy on every failure path, SubmittedQuery handle
// semantics (Wait/Cancel/Result), and the central differential property —
// N queries run concurrently through one service compute exactly what
// each computes standalone, across every algorithm, with the global peak
// never exceeding the budget.

#include "service/spatial_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

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

/// A sink whose first Emit blocks until the test releases it — the lever
/// for holding a query "running" (budget occupied) while others queue.
class BlockingSink final : public JoinSink {
 public:
  void Emit(ObjectId, ObjectId) override {
    if (!released_.load(std::memory_order_acquire)) {
      std::unique_lock<std::mutex> lock(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_.load(); });
    }
    ++count_;
  }

  /// Blocks the test until the query is inside Emit (budget held).
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
  }

  uint64_t count() const { return count_; }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  std::atomic<bool> released_{false};
  uint64_t count_ = 0;
};

class ServiceTest : public ::testing::Test {
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

// ---------------------------------------------------------------------------
// The differential property: a mixed concurrent workload through one
// service — every algorithm, mixed budgets, a shared buffer pool, fewer
// full-budget slots than queries — produces exactly the standalone
// results, and the global arbiter's peak stays under the global budget.
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, ConcurrentMatchesSerialAcrossAlgorithms) {
  const RectF region(0, 0, 120, 120);
  const auto a = UniformRects(1200, region, 2.0f, 21);
  const auto b = UniformRects(1100, region, 2.2f, 22);
  const auto expected = BruteForcePairs(a, b);
  RTree ta = BuildTree(a, "a");
  RTree tb = BuildTree(b, "b");
  SpatialJoiner joiner(&td_.disk, JoinOptions());
  const JoinInput ia = JoinInput::FromRTree(&ta);
  const JoinInput ib = JoinInput::FromRTree(&tb);

  const std::vector<JoinAlgorithm> algos = {
      JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM, JoinAlgorithm::kST,
      JoinAlgorithm::kPQ, JoinAlgorithm::kAuto};

  ServiceOptions so;
  so.global_memory_bytes = 20u << 20;  // Two full 8 MB queries at a time.
  so.worker_threads = 4;
  so.buffer_pool_pages = 256;
  so.degraded_min_bytes = 2u << 20;
  SpatialService service(so);

  std::vector<CollectingSink> sinks(algos.size());
  std::vector<SubmittedQuery> handles;
  for (size_t i = 0; i < algos.size(); ++i) {
    JoinQuery q(joiner);
    q.Input(ia).Input(ib).Algorithm(algos[i]).MemoryBytes(8u << 20);
    handles.push_back(service.Submit(q, &sinks[i]));
  }
  for (size_t i = 0; i < algos.size(); ++i) {
    const auto& result = handles[i].Result();
    ASSERT_TRUE(result.ok())
        << ToString(algos[i]) << ": " << result.status().ToString();
    EXPECT_EQ(Sorted(sinks[i].pairs()), expected) << ToString(algos[i]);
    EXPECT_GT(handles[i].granted_bytes(), 0u);
    if (algos[i] == JoinAlgorithm::kST) {
      // ST read its index pages through the *shared* pool, attributed to
      // this query.
      EXPECT_GT(result->pool_requests, 0u);
    }
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, algos.size());
  EXPECT_EQ(stats.admitted_full + stats.admitted_degraded, algos.size());
  EXPECT_EQ(stats.rejected, 0u);
  // The hard invariant of the tentpole: the sum of concurrently admitted
  // budgets can never exceed the global one.
  EXPECT_LE(stats.global_peak_bytes, so.global_memory_bytes);
  EXPECT_EQ(stats.global_in_use_bytes, 0u);  // Everything released.
  EXPECT_GT(stats.pool.requests, 0u);        // ST went through the pool.
}

// Real files under the service: every admitted query's scratch and spill
// files are created concurrently on the shared worker pool. Three clients
// submit forced SSSJ and PBSM joins small enough in budget to spill; each
// result must match the same query on a memory-backed service, and every
// grant must be back after drain.
TEST_F(ServiceTest, FileBackedServiceMatchesMemoryBacked) {
  const RectF region(0, 0, 200, 200);
  const DatasetRef da = Dataset(UniformRects(20000, region, 1.5f, 31), "a");
  const DatasetRef db = Dataset(UniformRects(20000, region, 1.5f, 32), "b");
  SpatialJoiner joiner(&td_.disk, JoinOptions());
  auto file_factory = TmpFileStorageFactory::Make();
  ASSERT_TRUE(file_factory.ok()) << file_factory.status().ToString();
  std::shared_ptr<StorageFactory> files(std::move(*file_factory));

  constexpr size_t kClients = 3;
  const JoinAlgorithm algos[] = {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM};
  constexpr size_t kQueries = kClients * 2;
  auto run_all = [&](std::shared_ptr<StorageFactory> storage) {
    ServiceOptions so;
    so.worker_threads = 2;
    so.storage = std::move(storage);
    SpatialService service(so);
    std::vector<CollectingSink> sinks(kQueries);
    std::vector<std::optional<SubmittedQuery>> handles(kQueries);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t k = 0; k < 2; ++k) {
          JoinQuery q(joiner);
          q.Input(JoinInput::FromStream(da))
              .Input(JoinInput::FromStream(db))
              .Algorithm(algos[k])
              .MemoryBytes(256u << 10);
          handles[c * 2 + k].emplace(service.Submit(q, &sinks[c * 2 + k]));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    std::vector<std::vector<IdPair>> results;
    for (size_t i = 0; i < kQueries; ++i) {
      const auto& result = handles[i]->Result();
      EXPECT_TRUE(result.ok())
          << ToString(algos[i % 2]) << ": " << result.status().ToString();
      results.push_back(Sorted(sinks[i].pairs()));
    }
    EXPECT_EQ(service.stats().global_in_use_bytes, 0u);
    return results;
  };

  const std::vector<std::vector<IdPair>> memory = run_all(nullptr);
  const std::vector<std::vector<IdPair>> file = run_all(files);
  ASSERT_EQ(file.size(), memory.size());
  for (size_t i = 0; i < kQueries; ++i) {
    EXPECT_GT(memory[i].size(), 0u);
    EXPECT_EQ(file[i], memory[i]) << ToString(algos[i % 2]) << " query " << i;
  }
}

// ---------------------------------------------------------------------------
// Error taxonomy.
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, SubFloorBudgetIsFailedPrecondition) {
  const auto a = UniformRects(50, RectF(0, 0, 10, 10), 1.0f, 3);
  const DatasetRef da = Dataset(a, "a");
  SpatialJoiner joiner(&td_.disk, JoinOptions());
  SpatialService service;  // Inline defaults.
  CollectingSink sink;
  JoinQuery q(joiner);
  q.Input(JoinInput::FromStream(da))
      .Input(JoinInput::FromStream(da))
      .MemoryBytes(kMinMemoryBytes - 1);
  const auto result = service.Run(q, &sink);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("kMinMemoryBytes"),
            std::string::npos)
      << result.status().message();
  EXPECT_EQ(service.stats().rejected, 1u);
}

TEST_F(ServiceTest, RequestAboveGlobalBudgetIsResourceExhausted) {
  const auto a = UniformRects(50, RectF(0, 0, 10, 10), 1.0f, 3);
  const DatasetRef da = Dataset(a, "a");
  SpatialJoiner joiner(&td_.disk, JoinOptions());
  ServiceOptions so;
  so.global_memory_bytes = 8u << 20;
  SpatialService service(so);
  CollectingSink sink;
  JoinQuery q(joiner);
  q.Input(JoinInput::FromStream(da))
      .Input(JoinInput::FromStream(da))
      .MemoryBytes(32u << 20);  // No amount of queueing satisfies this.
  const auto result = service.Run(q, &sink);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().rejected, 1u);
}

// ---------------------------------------------------------------------------
// Admission control: queueing, degraded admission, overflow, deadlines,
// cancellation. Each test holds the budget with a query blocked inside
// its sink.
// ---------------------------------------------------------------------------

class ContendedServiceTest : public ServiceTest {
 protected:
  void SetUp() override {
    const RectF region(0, 0, 40, 40);
    a_ = UniformRects(300, region, 2.0f, 31);
    b_ = UniformRects(280, region, 2.0f, 32);
    expected_ = BruteForcePairs(a_, b_);
    da_ = Dataset(a_, "ca");
    db_ = Dataset(b_, "cb");
    joiner_.emplace(&td_.disk, JoinOptions());
  }

  /// A query requesting `budget` bytes over the shared fixture data.
  JoinQuery MakeQuery(size_t budget) {
    JoinQuery q(*joiner_);
    q.Input(JoinInput::FromStream(da_))
        .Input(JoinInput::FromStream(db_))
        .Algorithm(JoinAlgorithm::kSSSJ)
        .MemoryBytes(budget);
    return q;
  }

  std::vector<RectF> a_, b_;
  std::vector<IdPair> expected_;
  DatasetRef da_, db_;
  std::optional<SpatialJoiner> joiner_;
};

TEST_F(ContendedServiceTest, QueuedQueryRunsWhenBudgetFrees) {
  ServiceOptions so;
  so.global_memory_bytes = 8u << 20;
  so.worker_threads = 2;
  SpatialService service(so);

  BlockingSink blocker;
  SubmittedQuery holder = service.Submit(MakeQuery(8u << 20), &blocker);
  blocker.WaitEntered();  // The whole budget is now held.

  SubmitOptions no_degrade;
  no_degrade.allow_degraded = false;
  CollectingSink sink;
  SubmittedQuery waiter =
      service.Submit(MakeQuery(8u << 20), &sink, no_degrade);
  EXPECT_FALSE(waiter.done());  // Queued: nothing to run it with.

  blocker.Release();
  const auto& result = waiter.Result();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Sorted(sink.pairs()), expected_);
  ASSERT_TRUE(holder.Result().ok());
  EXPECT_EQ(blocker.count(), expected_.size());
}

TEST_F(ContendedServiceTest, DegradedAdmissionUsesTheFreeBudget) {
  ServiceOptions so;
  so.global_memory_bytes = 12u << 20;
  so.worker_threads = 2;
  so.degraded_min_bytes = 2u << 20;
  SpatialService service(so);

  BlockingSink blocker;
  SubmittedQuery holder = service.Submit(MakeQuery(8u << 20), &blocker);
  blocker.WaitEntered();  // 4 MB free.

  CollectingSink sink;
  SubmittedQuery degraded = service.Submit(MakeQuery(8u << 20), &sink);
  const auto& result = degraded.Result();  // Runs while the holder blocks.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(degraded.degraded());
  EXPECT_EQ(degraded.granted_bytes(), 4u << 20);
  EXPECT_EQ(Sorted(sink.pairs()), expected_);  // Identical results.
  EXPECT_EQ(service.stats().admitted_degraded, 1u);

  blocker.Release();
  ASSERT_TRUE(holder.Result().ok());
}

TEST_F(ContendedServiceTest, QueueOverflowIsResourceExhausted) {
  ServiceOptions so;
  so.global_memory_bytes = 8u << 20;
  so.worker_threads = 1;
  so.admission_queue_limit = 1;
  SpatialService service(so);

  BlockingSink blocker;
  SubmittedQuery holder = service.Submit(MakeQuery(8u << 20), &blocker);
  blocker.WaitEntered();

  SubmitOptions no_degrade;
  no_degrade.allow_degraded = false;
  CollectingSink s1, s2;
  SubmittedQuery queued = service.Submit(MakeQuery(8u << 20), &s1, no_degrade);
  SubmittedQuery rejected =
      service.Submit(MakeQuery(8u << 20), &s2, no_degrade);
  EXPECT_TRUE(rejected.done());  // Rejected synchronously.
  EXPECT_EQ(rejected.Result().status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().rejected, 1u);

  blocker.Release();
  ASSERT_TRUE(queued.Result().ok());
  ASSERT_TRUE(holder.Result().ok());
}

TEST_F(ContendedServiceTest, QueueDeadlineIsDeadlineExceeded) {
  ServiceOptions so;
  so.global_memory_bytes = 8u << 20;
  so.worker_threads = 1;
  SpatialService service(so);

  BlockingSink blocker;
  SubmittedQuery holder = service.Submit(MakeQuery(8u << 20), &blocker);
  blocker.WaitEntered();

  SubmitOptions opts;
  opts.allow_degraded = false;
  opts.queue_deadline_seconds = 0.05;
  CollectingSink sink;
  SubmittedQuery starved = service.Submit(MakeQuery(8u << 20), &sink, opts);
  const auto& result = starved.Result();  // The reaper expires it.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(service.stats().deadline_expired, 1u);

  blocker.Release();
  ASSERT_TRUE(holder.Result().ok());
}

TEST_F(ContendedServiceTest, CancelWorksOnQueuedNotRunning) {
  ServiceOptions so;
  so.global_memory_bytes = 8u << 20;
  so.worker_threads = 1;
  SpatialService service(so);

  BlockingSink blocker;
  SubmittedQuery holder = service.Submit(MakeQuery(8u << 20), &blocker);
  blocker.WaitEntered();
  EXPECT_FALSE(holder.Cancel());  // Running: too late to cancel.

  SubmitOptions no_degrade;
  no_degrade.allow_degraded = false;
  CollectingSink sink;
  SubmittedQuery queued = service.Submit(MakeQuery(8u << 20), &sink, no_degrade);
  EXPECT_TRUE(queued.Cancel());
  EXPECT_FALSE(queued.Cancel());  // Idempotent: already resolved.
  EXPECT_EQ(queued.Result().status().code(), StatusCode::kCancelled);
  EXPECT_EQ(service.stats().cancelled, 1u);

  blocker.Release();
  ASSERT_TRUE(holder.Result().ok());
  EXPECT_TRUE(sink.pairs().empty());  // Never ran.
}

// The reaper regression: an inadmissible head that expires must release
// the admittable queries behind it *at its deadline*, not at the next
// submit or completion (there is neither here — the holder stays blocked
// the whole time).
TEST_F(ContendedServiceTest, ExpiredHeadReleasesQueriesBehindItAtDeadline) {
  ServiceOptions so;
  so.global_memory_bytes = 8u << 20;
  so.worker_threads = 2;
  SpatialService service(so);

  BlockingSink blocker;
  SubmittedQuery holder = service.Submit(MakeQuery(6u << 20), &blocker);
  blocker.WaitEntered();  // 2 MB free.

  SubmitOptions head_opts;
  head_opts.allow_degraded = false;
  head_opts.queue_deadline_seconds = 0.05;
  CollectingSink head_sink, small_sink;
  // Inadmissible head (needs the full 8 MB) with a short deadline ...
  SubmittedQuery big = service.Submit(MakeQuery(8u << 20), &head_sink,
                                      head_opts);
  // ... and an admittable query stuck behind it (strict FIFO).
  SubmitOptions small_opts;
  small_opts.allow_degraded = false;
  SubmittedQuery small =
      service.Submit(MakeQuery(2u << 20), &small_sink, small_opts);

  EXPECT_EQ(big.Result().status().code(), StatusCode::kDeadlineExceeded);
  const auto& small_result = small.Result();  // Admitted at big's deadline.
  ASSERT_TRUE(small_result.ok()) << small_result.status().ToString();
  EXPECT_EQ(Sorted(small_sink.pairs()), expected_);
  EXPECT_GE(service.stats().deadline_expired, 1u);

  blocker.Release();
  ASSERT_TRUE(holder.Result().ok());
}

// Cancelling an inadmissible head must free its queue slot and admit the
// queries behind it immediately (again: no submit/completion happens
// until they finish).
TEST_F(ContendedServiceTest, CancelledHeadReleasesQueriesBehindIt) {
  ServiceOptions so;
  so.global_memory_bytes = 8u << 20;
  so.worker_threads = 2;
  SpatialService service(so);

  BlockingSink blocker;
  SubmittedQuery holder = service.Submit(MakeQuery(6u << 20), &blocker);
  blocker.WaitEntered();  // 2 MB free.

  SubmitOptions no_degrade;
  no_degrade.allow_degraded = false;
  CollectingSink head_sink, small_sink;
  SubmittedQuery big = service.Submit(MakeQuery(8u << 20), &head_sink,
                                      no_degrade);
  SubmittedQuery small =
      service.Submit(MakeQuery(2u << 20), &small_sink, no_degrade);
  EXPECT_FALSE(small.done());

  EXPECT_TRUE(big.Cancel());
  const auto& small_result = small.Result();  // Admitted by the cancel.
  ASSERT_TRUE(small_result.ok()) << small_result.status().ToString();
  EXPECT_EQ(Sorted(small_sink.pairs()), expected_);
  EXPECT_EQ(service.stats().cancelled, 1u);

  blocker.Release();
  ASSERT_TRUE(holder.Result().ok());
}

// The admission-commit TOCTOU regression: a Cancel() racing the admission
// pass that a completion triggers must either win (query never runs, sink
// stays empty) or lose (query runs to its normal result) — never both
// halves (a "cancelled" query that still executes).
TEST_F(ContendedServiceTest, CancelRacingAdmissionNeverRunsCancelledQuery) {
  for (int round = 0; round < 25; ++round) {
    ServiceOptions so;
    so.global_memory_bytes = 8u << 20;
    so.worker_threads = 2;
    SpatialService service(so);

    BlockingSink blocker;
    SubmittedQuery holder = service.Submit(MakeQuery(8u << 20), &blocker);
    blocker.WaitEntered();

    SubmitOptions no_degrade;
    no_degrade.allow_degraded = false;
    CollectingSink sink;
    SubmittedQuery queued =
        service.Submit(MakeQuery(8u << 20), &sink, no_degrade);

    bool cancel_won = false;
    std::thread canceller(
        [&queued, &cancel_won] { cancel_won = queued.Cancel(); });
    blocker.Release();  // Completion re-runs admission, racing the cancel.
    canceller.join();

    const auto& result = queued.Result();
    if (cancel_won) {
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
      EXPECT_TRUE(sink.pairs().empty()) << "cancelled query executed";
    } else {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(Sorted(sink.pairs()), expected_);
    }
    ASSERT_TRUE(holder.Result().ok());
  }
}

// Handles outliving the service: Cancel() after (or racing) destruction
// must not touch the dead service — the destructor's drain resolves the
// ticket, and the gate blocks the callback path.
TEST_F(ContendedServiceTest, CancelOnHandleOutlivingServiceIsSafe) {
  SubmittedQuery queued;
  CollectingSink sink;
  {
    // The blocker must outlive the service: its destructor's drain runs
    // the held query to completion, emitting into the blocker.
    BlockingSink blocker;
    ServiceOptions so;
    so.global_memory_bytes = 8u << 20;
    so.worker_threads = 1;
    SpatialService service(so);
    SubmittedQuery holder = service.Submit(MakeQuery(8u << 20), &blocker);
    blocker.WaitEntered();
    SubmitOptions no_degrade;
    no_degrade.allow_degraded = false;
    queued = service.Submit(MakeQuery(8u << 20), &sink, no_degrade);
    blocker.Release();
    queued.Cancel();  // May race the drain; both orders are fine.
  }  // Service destroyed; the handle lives on.
  EXPECT_FALSE(queued.Cancel());  // Long dead: nothing to cancel.
  const auto& result = queued.Result();
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    EXPECT_TRUE(sink.pairs().empty());
  } else {
    EXPECT_EQ(Sorted(sink.pairs()), expected_);  // Cancel lost the race.
  }
}

TEST_F(ContendedServiceTest, CancelRacingServiceDestructionIsSafe) {
  for (int round = 0; round < 25; ++round) {
    auto service = std::make_unique<SpatialService>([] {
      ServiceOptions so;
      so.global_memory_bytes = 8u << 20;
      so.worker_threads = 1;
      return so;
    }());
    BlockingSink blocker;
    SubmittedQuery holder = service->Submit(MakeQuery(8u << 20), &blocker);
    blocker.WaitEntered();
    SubmitOptions no_degrade;
    no_degrade.allow_degraded = false;
    CollectingSink sink;
    SubmittedQuery queued =
        service->Submit(MakeQuery(8u << 20), &sink, no_degrade);

    // Destruction's drain and the handle's Cancel race for the ticket;
    // whichever wins, the loser must not touch freed memory (TSan/ASan
    // guard this tier) and the query must never run.
    std::thread destroyer([&service] { service.reset(); });
    std::thread canceller([&queued] { queued.Cancel(); });
    blocker.Release();
    destroyer.join();
    canceller.join();

    // Three legal outcomes: cancelled by the handle, cancelled by the
    // drain, or admitted by the holder's completion before either — but
    // never a cancelled query that executed anyway.
    const auto& result = queued.Result();
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
      EXPECT_TRUE(sink.pairs().empty());
    } else {
      EXPECT_EQ(Sorted(sink.pairs()), expected_);
    }
    ASSERT_TRUE(holder.Result().ok());
  }
}

TEST_F(ContendedServiceTest, ShutdownCancelsQueuedAndDrainsRunning) {
  auto service = std::make_unique<SpatialService>([] {
    ServiceOptions so;
    so.global_memory_bytes = 8u << 20;
    so.worker_threads = 1;
    return so;
  }());

  BlockingSink blocker;
  SubmittedQuery holder = service->Submit(MakeQuery(8u << 20), &blocker);
  blocker.WaitEntered();
  SubmitOptions no_degrade;
  no_degrade.allow_degraded = false;
  CollectingSink sink;
  SubmittedQuery queued =
      service->Submit(MakeQuery(8u << 20), &sink, no_degrade);

  // Destroy the service while one query runs and one is queued: the
  // queued one resolves to Cancelled immediately, the running one is
  // drained to completion.
  std::thread destroyer([&service] { service.reset(); });
  EXPECT_EQ(queued.Result().status().code(), StatusCode::kCancelled);
  blocker.Release();
  destroyer.join();
  ASSERT_TRUE(holder.Result().ok());
  EXPECT_EQ(blocker.count(), expected_.size());
}

// ---------------------------------------------------------------------------
// Inline mode and the Run() wrapper.
// ---------------------------------------------------------------------------

TEST_F(ContendedServiceTest, InlineServiceMatchesJoinQueryRun) {
  CollectingSink direct_sink;
  auto direct = MakeQuery(8u << 20).Run(&direct_sink);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  SpatialService service;  // worker_threads = 0: runs on this thread.
  CollectingSink service_sink;
  auto via_service = service.Run(MakeQuery(8u << 20), &service_sink);
  ASSERT_TRUE(via_service.ok()) << via_service.status().ToString();
  EXPECT_EQ(Sorted(service_sink.pairs()), Sorted(direct_sink.pairs()));
  EXPECT_EQ(Sorted(service_sink.pairs()), expected_);
  EXPECT_EQ(via_service->output_count, direct->output_count);
  EXPECT_EQ(service.stats().admitted_full, 1u);
}

// ---------------------------------------------------------------------------
// Stress: many concurrent submitters against a small budget and a tiny
// shared pool (the TSan target for the scheduler + pool combination).
// ---------------------------------------------------------------------------

TEST_F(ContendedServiceTest, ConcurrentSubmittersStress) {
  ServiceOptions so;
  so.global_memory_bytes = 16u << 20;
  so.worker_threads = 4;
  so.buffer_pool_pages = 32;
  so.degraded_min_bytes = 1u << 20;
  so.default_queue_deadline_seconds = 60.0;
  SpatialService service(so);

  constexpr int kSubmitters = 6;
  constexpr int kPerThread = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        CollectingSink sink;
        // Mixed budgets: some full-slot, some small.
        const size_t budget =
            ((t + i) % 2 == 0) ? (8u << 20) : (2u << 20);
        const auto result = service.Run(MakeQuery(budget), &sink);
        if (!result.ok() || Sorted(sink.pairs()) != expected_) ++failures;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(kSubmitters) * kPerThread);
  EXPECT_EQ(stats.admitted_full + stats.admitted_degraded, stats.submitted);
  EXPECT_LE(stats.global_peak_bytes, so.global_memory_bytes);
  EXPECT_EQ(stats.global_in_use_bytes, 0u);
}

}  // namespace
}  // namespace sj
