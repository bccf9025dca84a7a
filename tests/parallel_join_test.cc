// The partitioned join paths — PBSM and SSSJ strip joins — run on one
// runner (join/partitioned.h). They must produce byte-identical output
// (same pairs, same order) and identical modeled I/O stats for every
// num_threads, because each unit runs against a private DiskModel shard
// that is merged in unit order; count each unit's CPU once; place
// records lying outside the declared extent in the boundary units; and
// unwind every injected storage fault into an error Status with the
// caller's arbiter drained. The k-way join is one lazy chain at every
// thread count, so its queries must not change with num_threads either,
// and a fault in their stream sorts must unwind the same way.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/join_query.h"
#include "core/memory_arbiter.h"
#include "core/pipeline_query.h"
#include "datagen/synthetic.h"
#include "io/storage.h"
#include "join/pbsm.h"
#include "join/sssj.h"
#include "rtree/rtree.h"
#include "service/spatial_service.h"
#include "test_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sj {
namespace {

using testing_util::BruteForcePairs;
using testing_util::MakeDataset;
using testing_util::Sorted;
using testing_util::TestDisk;

void ExpectSameDiskStats(const DiskStats& got, const DiskStats& want,
                         uint32_t threads) {
  EXPECT_EQ(got.read_requests, want.read_requests) << "threads=" << threads;
  EXPECT_EQ(got.sequential_read_requests, want.sequential_read_requests)
      << "threads=" << threads;
  EXPECT_EQ(got.random_read_requests, want.random_read_requests)
      << "threads=" << threads;
  EXPECT_EQ(got.write_requests, want.write_requests) << "threads=" << threads;
  EXPECT_EQ(got.sequential_write_requests, want.sequential_write_requests)
      << "threads=" << threads;
  EXPECT_EQ(got.random_write_requests, want.random_write_requests)
      << "threads=" << threads;
  EXPECT_EQ(got.pages_read, want.pages_read) << "threads=" << threads;
  EXPECT_EQ(got.pages_written, want.pages_written) << "threads=" << threads;
  // Exact double equality: the shards sum the same request sequences in
  // the same order for every thread count.
  EXPECT_EQ(got.io_seconds, want.io_seconds) << "threads=" << threads;
}

struct RunResult {
  std::vector<IdPair> pairs;
  JoinStats stats;
};

template <typename JoinFn>
RunResult RunWithThreads(const std::vector<RectF>& a,
                         const std::vector<RectF>& b, uint32_t threads,
                         size_t memory_bytes, JoinFn&& join) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  JoinOptions options;
  options.memory_bytes = memory_bytes;
  options.num_threads = threads;
  CollectingSink sink;
  RunResult result;
  auto stats = join(da, db, &td.disk, options, &sink);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  result.pairs = sink.pairs();
  result.stats = *stats;
  return result;
}

/// Everything in one hot tile plus two far corners: PBSM gets several
/// partitions and overflows the hot one at 48 KB.
std::pair<std::vector<RectF>, std::vector<RectF>> HotSpotInputs() {
  const RectF spot(50, 50, 51, 51);
  auto a = UniformRects(3000, spot, 0.1f, 23);
  auto b = UniformRects(3000, spot, 0.1f, 24);
  a.push_back(RectF(0, 0, 0.1f, 0.1f, 400000));
  b.push_back(RectF(99, 99, 99.1f, 99.1f, 400001));
  return {std::move(a), std::move(b)};
}

/// `k` uniform inputs, each sorted by ylo as a k-way join needs.
std::vector<std::vector<RectF>> SortedUniformInputs(size_t k, uint64_t n,
                                                    const RectF& region,
                                                    float mean_size,
                                                    uint64_t seed) {
  std::vector<std::vector<RectF>> inputs;
  for (uint64_t i = 0; i < k; ++i) {
    auto rects = UniformRects(n, region, mean_size, seed + i);
    std::sort(rects.begin(), rects.end(), OrderByYLo());
    inputs.push_back(std::move(rects));
  }
  return inputs;
}

/// Writes k-way `inputs` as datasets; returns them with their combined
/// extent.
std::vector<DatasetRef> MakeKWayInputs(
    TestDisk* td, const std::vector<std::vector<RectF>>& inputs,
    std::vector<std::unique_ptr<Pager>>* keep, RectF* extent) {
  std::vector<DatasetRef> refs;
  *extent = RectF::Empty();
  for (size_t k = 0; k < inputs.size(); ++k) {
    refs.push_back(MakeDataset(td, inputs[k], "in" + std::to_string(k), keep));
    extent->ExtendTo(refs.back().extent);
  }
  return refs;
}

TEST(ParallelJoin, PBSMDeterministicAcrossThreadCounts) {
  const RectF region(0, 0, 500, 500);
  // Memory small enough to force several partitions, so the pool has
  // real units to schedule.
  const auto a = UniformRects(4000, region, 2.0f, 21);
  const auto b = UniformRects(4000, region, 2.0f, 22);
  auto pbsm = [](const DatasetRef& da, const DatasetRef& db, DiskModel* disk,
                 const JoinOptions& options, JoinSink* sink) {
    return PBSMJoin(da, db, disk, options, sink);
  };
  const RunResult serial = RunWithThreads(a, b, 1, 48u << 10, pbsm);
  EXPECT_EQ(Sorted(serial.pairs), BruteForcePairs(a, b));
  EXPECT_GT(serial.stats.partitions_total, 1u);

  for (const uint32_t threads : {2u, 8u}) {
    const RunResult parallel = RunWithThreads(a, b, threads, 48u << 10, pbsm);
    EXPECT_EQ(parallel.pairs, serial.pairs) << "threads=" << threads;
    EXPECT_EQ(parallel.stats.output_count, serial.stats.output_count);
    EXPECT_EQ(parallel.stats.max_sweep_bytes, serial.stats.max_sweep_bytes);
    EXPECT_EQ(parallel.stats.partitions_total, serial.stats.partitions_total);
    EXPECT_EQ(parallel.stats.partitions_overflowed,
              serial.stats.partitions_overflowed);
    EXPECT_EQ(parallel.stats.max_partition_bytes,
              serial.stats.max_partition_bytes);
    ExpectSameDiskStats(parallel.stats.disk, serial.stats.disk, threads);
  }
}

TEST(ParallelJoin, PBSMOverflowPathDeterministic) {
  // Everything in one hot tile: the overflow (external sort) branch must
  // also be shard-deterministic.
  const auto [a, b] = HotSpotInputs();
  auto pbsm = [](const DatasetRef& da, const DatasetRef& db, DiskModel* disk,
                 const JoinOptions& options, JoinSink* sink) {
    return PBSMJoin(da, db, disk, options, sink);
  };
  const RunResult serial = RunWithThreads(a, b, 1, 48u << 10, pbsm);
  EXPECT_EQ(Sorted(serial.pairs), BruteForcePairs(a, b));
  EXPECT_GT(serial.stats.partitions_overflowed, 0u);
  for (const uint32_t threads : {2u, 8u}) {
    const RunResult parallel = RunWithThreads(a, b, threads, 48u << 10, pbsm);
    EXPECT_EQ(parallel.pairs, serial.pairs) << "threads=" << threads;
    ExpectSameDiskStats(parallel.stats.disk, serial.stats.disk, threads);
  }
}

TEST(ParallelJoin, SSSJStripDeterministicAcrossThreadCounts) {
  const RectF region(0, 0, 500, 500);
  const auto a = UniformRects(4000, region, 2.0f, 25);
  const auto b = UniformRects(4000, region, 2.0f, 26);
  auto strip_join = [](const DatasetRef& da, const DatasetRef& db,
                       DiskModel* disk, const JoinOptions& options,
                       JoinSink* sink) {
    return SSSJStripJoin(da, db, /*strips=*/8, disk, options, sink);
  };
  const RunResult serial = RunWithThreads(a, b, 1, 24u << 20, strip_join);
  EXPECT_EQ(Sorted(serial.pairs), BruteForcePairs(a, b));
  EXPECT_EQ(serial.stats.partitions_total, 8u);

  for (const uint32_t threads : {2u, 8u}) {
    const RunResult parallel =
        RunWithThreads(a, b, threads, 24u << 20, strip_join);
    EXPECT_EQ(parallel.pairs, serial.pairs) << "threads=" << threads;
    EXPECT_EQ(parallel.stats.output_count, serial.stats.output_count);
    EXPECT_EQ(parallel.stats.max_sweep_bytes, serial.stats.max_sweep_bytes);
    ExpectSameDiskStats(parallel.stats.disk, serial.stats.disk, threads);
  }
}

// A partitioned plan's units charge private shards, which the runner
// folds into the query's DiskModel: forced PBSM, and SSSJ pushed into its
// strip fallback by a 64 KiB budget (60,000 records estimate a 78 KiB
// sweep), report exactly the shared model's delta around Run, at 1 and 4
// threads alike.
TEST(ParallelJoin, PartitionedQueriesReportWhatTheirDiskWasCharged) {
  const RectF region(0, 0, 1000, 1000);
  const auto a = UniformRects(30000, region, 2.0f, 71);
  const auto b = UniformRects(30000, region, 2.0f, 72);
  struct Plan {
    const char* name;
    JoinAlgorithm algorithm;
    size_t memory_bytes;
  };
  std::optional<uint64_t> pairs;
  for (const Plan plan : {Plan{"PBSM", JoinAlgorithm::kPBSM, 256u << 10},
                          Plan{"SSSJ strips", JoinAlgorithm::kSSSJ,
                               kMinMemoryBytes}}) {
    for (const uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(plan.name) +
                   ", threads=" + std::to_string(threads));
      TestDisk td;
      std::vector<std::unique_ptr<Pager>> keep;
      const DatasetRef da = MakeDataset(&td, a, "a", &keep);
      const DatasetRef db = MakeDataset(&td, b, "b", &keep);
      SpatialJoiner joiner(&td.disk, JoinOptions());
      CountingSink sink;
      const DiskStats before = td.disk.stats();
      auto stats = JoinQuery(joiner)
                       .Input(JoinInput::FromStream(da))
                       .Input(JoinInput::FromStream(db))
                       .Algorithm(plan.algorithm)
                       .Threads(threads)
                       .MemoryBytes(plan.memory_bytes)
                       .Run(&sink);
      const DiskStats charged = td.disk.stats() - before;
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_GT(stats->partitions_total, 1u);
      ExpectSameDiskStats(stats->disk, charged, threads);
      if (!pairs.has_value()) pairs = sink.count();
      EXPECT_EQ(sink.count(), *pairs);
    }
  }
}

TEST(ParallelJoin, KWayQueriesIgnoreThreadCount) {
  // Threads(n) spreads only the stream inputs' run formation; the chain
  // itself is serial. So a k-way JoinQuery, and a 3-input pipeline over
  // the same inputs, emit the same tuples in the same order, with the
  // same DiskStats and granted peak, at every thread count and on memory
  // and file-backed scratch alike. 8000 records per input at a 256 KiB
  // budget give each stream sort three runs. The reported I/O covers
  // those sorts: a JoinQuery reports exactly what its DiskModel was
  // charged, and a pipeline at least that much.
  const RectF region(0, 0, 500, 500);
  std::vector<std::vector<RectF>> data;
  for (uint64_t i = 0; i < 3; ++i) {
    data.push_back(UniformRects(8000, region, 3.0f, 61 + i));
  }

  struct Outcome {
    std::vector<std::vector<ObjectId>> tuples;
    std::vector<PipeRow> rows;
    DiskStats disk;
    size_t peak_memory_bytes = 0;
  };
  // `indexed`: input 0 is an R-tree over data[0] instead of a stream.
  // `pipeline`: a PipelineQuery with no operators instead of a JoinQuery.
  auto run = [&](bool indexed, bool pipeline, bool file_backend,
                 uint32_t threads) {
    Outcome out;
    TestDisk td;
    std::vector<std::unique_ptr<Pager>> keep;
    RectF extent;
    const std::vector<DatasetRef> refs =
        MakeKWayInputs(&td, data, &keep, &extent);
    std::optional<RTree> tree;
    if (indexed) {
      keep.push_back(td.NewPager("tree"));
      Pager* tree_pager = keep.back().get();
      keep.push_back(td.NewPager("tree.scratch"));
      auto built = RTree::BulkLoadHilbert(tree_pager, refs[0].range,
                                          keep.back().get(), RTreeParams(),
                                          1 << 22);
      EXPECT_TRUE(built.ok()) << built.status().ToString();
      if (!built.ok()) return out;
      tree.emplace(std::move(built).value());
    }
    std::shared_ptr<StorageFactory> storage;
    if (file_backend) {
      auto files = TmpFileStorageFactory::Make();
      EXPECT_TRUE(files.ok()) << files.status().ToString();
      if (!files.ok()) return out;
      storage = std::move(*files);
    }
    SpatialJoiner joiner(&td.disk, JoinOptions());
    auto configure = [&](auto& query) {
      query.Input(indexed ? JoinInput::FromRTree(&*tree)
                          : JoinInput::FromStream(refs[0]));
      for (size_t i = 1; i < refs.size(); ++i) {
        query.Input(JoinInput::FromStream(refs[i]));
      }
      query.Threads(threads).MemoryBytes(256u << 10).Storage(storage);
    };
    if (pipeline) {
      PipelineQuery query(joiner);
      configure(query);
      CollectingRowSink sink;
      const DiskStats before = td.disk.stats();
      auto stats = query.Run(&sink);
      const DiskStats charged = td.disk.stats() - before;
      EXPECT_TRUE(stats.ok()) << stats.status().ToString();
      if (!stats.ok()) return out;
      EXPECT_GE(stats->disk.pages_written, charged.pages_written)
          << "threads=" << threads;
      out.rows = sink.rows();
      for (const PipeRow& row : out.rows) out.tuples.push_back(row.ids);
      out.disk = stats->disk;
      out.peak_memory_bytes = stats->peak_memory_bytes;
    } else {
      JoinQuery query(joiner);
      configure(query);
      CollectingTupleSink sink;
      const DiskStats before = td.disk.stats();
      auto stats = query.Run(&sink);
      const DiskStats charged = td.disk.stats() - before;
      EXPECT_TRUE(stats.ok()) << stats.status().ToString();
      if (!stats.ok()) return out;
      ExpectSameDiskStats(stats->disk, charged, threads);
      out.tuples = sink.tuples();
      out.disk = stats->disk;
      out.peak_memory_bytes = stats->peak_memory_bytes;
    }
    return out;
  };

  for (const bool indexed : {false, true}) {
    for (const bool pipeline : {false, true}) {
      SCOPED_TRACE(std::string(indexed ? "tree + 2 streams" : "3 streams") +
                   (pipeline ? ", PipelineQuery" : ", JoinQuery"));
      const Outcome reference = run(indexed, pipeline, false, 1);
      EXPECT_GT(reference.tuples.size(), 0u);
      for (const bool file_backend : {false, true}) {
        for (const uint32_t threads : {1u, 2u, 8u}) {
          if (!file_backend && threads == 1) continue;
          SCOPED_TRACE(file_backend ? "file" : "memory");
          const Outcome got = run(indexed, pipeline, file_backend, threads);
          EXPECT_EQ(got.tuples, reference.tuples) << "threads=" << threads;
          EXPECT_EQ(got.rows, reference.rows) << "threads=" << threads;
          ExpectSameDiskStats(got.disk, reference.disk, threads);
          EXPECT_EQ(got.peak_memory_bytes, reference.peak_memory_bytes)
              << "threads=" << threads;
        }
      }
    }
  }
}

TEST(ParallelJoin, InlineUnitsCountTheirCpuOnce) {
  // A shared pool without workers runs every unit on the calling thread,
  // whose own clock already covers it: the reported CPU stays within the
  // calling thread's CPU over the call instead of counting units twice.
  ThreadPool inline_pool(0);
  const auto inputs =
      SortedUniformInputs(2, 20000, RectF(0, 0, 1000, 1000), 2.0f, 41);
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  RectF extent;
  const std::vector<DatasetRef> refs =
      MakeKWayInputs(&td, inputs, &keep, &extent);
  JoinOptions options;
  options.num_threads = 4;
  options.worker_pool = &inline_pool;
  options.memory_bytes = 256u << 10;

  auto expect_cpu_once = [](const char* what, double reported,
                            double caller) {
    EXPECT_LE(reported, 1.1 * caller)
        << what << ": reported " << reported << " s, calling thread "
        << caller << " s";
  };
  {
    CountingSink sink;
    ThreadCpuTimer cpu;
    auto stats = PBSMJoin(refs[0], refs[1], &td.disk, options, &sink);
    const double caller = cpu.Elapsed();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats->partitions_total, 1u);
    expect_cpu_once("PBSM", stats->host_cpu_seconds, caller);
  }
  {
    CountingSink sink;
    ThreadCpuTimer cpu;
    auto stats = SSSJStripJoin(refs[0], refs[1], /*strips=*/16, &td.disk,
                               options, &sink);
    const double caller = cpu.Elapsed();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    expect_cpu_once("SSSJ strips", stats->host_cpu_seconds, caller);
  }
}

TEST(ParallelJoin, RecordsFarOutsideTheExtentReachTheirUnits) {
  // A declared extent that does not cover the data: a's one record
  // reaches x = 1e20. The strip and tile maps clamp such coordinates to
  // their boundary units before the integer cast, so the record is
  // replicated into every unit from its left edge on and its pairs are
  // found.
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const std::vector<RectF> a = {RectF(10, 1, 1e20f, 2, 0)};
  auto b = UniformRects(4000, RectF(0, 0, 100, 10), 0.5f, 51);
  std::sort(b.begin(), b.end(), OrderByYLo());
  DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  da.extent = RectF(0, 0, 100, 10);
  const std::vector<IdPair> want = BruteForcePairs(a, b);
  ASSERT_GT(want.size(), 0u);

  for (const bool adaptive : {false, true}) {
    JoinOptions options;
    options.adaptive_partitioning = adaptive;
    options.memory_bytes = 64u << 10;  // Several partitions.
    CollectingSink sink;
    auto stats = PBSMJoin(da, db, &td.disk, options, &sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats->partitions_total, 1u);
    EXPECT_EQ(Sorted(sink.pairs()), want) << "adaptive=" << adaptive;
  }
  {
    CollectingSink sink;
    auto stats =
        SSSJStripJoin(da, db, /*strips=*/8, &td.disk, JoinOptions(), &sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(Sorted(sink.pairs()), want);
  }
}

/// Storage whose files named `prefix`...`suffix` fail: either Create()
/// itself or every page write. Counts the failures it injected.
class FaultyStorageFactory final : public StorageFactory {
 public:
  enum class Fault { kCreate, kWrite };

  FaultyStorageFactory(std::string prefix, std::string suffix, Fault fault)
      : prefix_(std::move(prefix)), suffix_(std::move(suffix)), fault_(fault) {}

  Result<std::unique_ptr<StorageBackend>> Create(
      const std::string& name) override {
    const bool hit =
        name.size() >= prefix_.size() + suffix_.size() &&
        name.compare(0, prefix_.size(), prefix_) == 0 &&
        name.compare(name.size() - suffix_.size(), suffix_.size(),
                     suffix_) == 0;
    if (!hit) return std::unique_ptr<StorageBackend>(new MemoryBackend());
    if (fault_ == Fault::kCreate) {
      injected_.fetch_add(1);
      return Status::IoError("injected create failure: " + name);
    }
    return std::unique_ptr<StorageBackend>(new FailingWrites(&injected_));
  }
  std::string description() const override { return "faulty"; }

  uint64_t injected() const { return injected_.load(); }

 private:
  class FailingWrites final : public MemoryBackend {
   public:
    explicit FailingWrites(std::atomic<uint64_t>* injected)
        : injected_(injected) {}
    Status WritePage(uint64_t, const void*) override {
      injected_->fetch_add(1);
      return Status::IoError("injected write failure");
    }

   private:
    std::atomic<uint64_t>* injected_;
  };

  const std::string prefix_;
  const std::string suffix_;
  const Fault fault_;
  std::atomic<uint64_t> injected_{0};
};

TEST(ParallelJoin, StorageFaultsUnwindEveryPartitionedPath) {
  // At 48 KB the hot spot overflows, so PBSM writes its overflow
  // scratch.
  const auto [a, b] = HotSpotInputs();
  const auto kway =
      SortedUniformInputs(3, 1500, RectF(0, 0, 200, 200), 6.0f, 31);

  // A fault spot: one unit file of side b, a unit's scratch, every file
  // of side b, or the k-way query's stream sorts.
  struct Spot {
    const char* path;
    const char* prefix;
    const char* suffix;
  };
  const Spot spots[] = {
      {"sssj", "sssj.strip.b.4", ""},
      {"sssj", "sssj.strip.scratch", ""},
      {"sssj", "sssj.strip.b.", ""},
      {"pbsm", "pbsm.b.0", ""},
      {"pbsm", "pbsm.overflow.", ""},
      {"pbsm", "pbsm.b.", ""},
      {"kway", "join.sort.", ""},
  };
  using Fault = FaultyStorageFactory::Fault;
  for (const Spot& spot : spots) {
    for (const Fault fault : {Fault::kCreate, Fault::kWrite}) {
      for (const uint32_t threads : {1u, 4u}) {
        const std::string where =
            std::string(spot.path) + " " + spot.prefix + "*" + spot.suffix +
            (fault == Fault::kCreate ? " create" : " write") +
            " threads=" + std::to_string(threads);
        auto storage =
            std::make_shared<FaultyStorageFactory>(spot.prefix, spot.suffix,
                                                   fault);
        TestDisk td;
        std::vector<std::unique_ptr<Pager>> keep;
        JoinOptions options;
        options.num_threads = threads;
        options.storage = storage;
        options.memory_bytes = 48u << 10;
        MemoryArbiter arbiter(kMinMemoryBytes);
        Status status;
        const std::string path = spot.path;
        if (path == "kway") {
          // The query itself, then as a pipeline through a service: the
          // service's carve comes back whole only once every grant of
          // the query's arbiter is released.
          RectF extent;
          const std::vector<DatasetRef> refs =
              MakeKWayInputs(&td, kway, &keep, &extent);
          SpatialJoiner joiner(&td.disk, options);
          JoinQuery query(joiner);
          PipelineQuery pipeline(joiner);
          for (const DatasetRef& ref : refs) {
            query.Input(JoinInput::FromStream(ref));
            pipeline.Input(JoinInput::FromStream(ref));
          }
          CountingTupleSink sink;
          status = query.MemoryBytes(kMinMemoryBytes).Run(&sink).status();
          SpatialService service{ServiceOptions()};
          CountingRowSink rows;
          const Status served =
              service.Run(pipeline.MemoryBytes(kMinMemoryBytes), &rows)
                  .status();
          EXPECT_EQ(served.code(), StatusCode::kIoError)
              << where << ": " << served.ToString();
          EXPECT_EQ(service.global_arbiter()->in_use(), 0u) << where;
        } else {
          const DatasetRef da = MakeDataset(&td, a, "a", &keep);
          const DatasetRef db = MakeDataset(&td, b, "b", &keep);
          CountingSink sink;
          status = path == "sssj"
                       ? SSSJStripJoin(da, db, /*strips=*/8, &td.disk,
                                       options, &sink, &arbiter)
                             .status()
                       : PBSMJoin(da, db, &td.disk, options, &sink, nullptr,
                                  nullptr, &arbiter)
                             .status();
        }
        EXPECT_GT(storage->injected(), 0u) << where;
        EXPECT_EQ(status.code(), StatusCode::kIoError)
            << where << ": " << status.ToString();
        EXPECT_EQ(arbiter.in_use(), 0u) << where;
      }
    }
  }
}

}  // namespace
}  // namespace sj
