// The storage-backend invariant: where scratch bytes physically live
// (MemoryBackend vs real files in a tmpdir) must be invisible to
// everything except measured wall time. This file sweeps a randomized
// workload slice across {memory, file} x {1, 8 threads} for every
// algorithm and checks byte-identical results, identical candidate counts
// and identical modeled I/O against the memory/serial reference — plus a
// unit-level stream round trip on both backends and a k-way (multiway)
// slice.
//
// Every variant runs against its own freshly built DiskModel + datasets:
// the model's sequential-stream detection is stateful, so sharing one disk
// across runs would make each run's modeled charges depend on what ran
// before it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/join_query.h"
#include "core/spatial_join.h"
#include "datagen/synthetic.h"
#include "io/storage.h"
#include "io/stream.h"
#include "refine/feature_store.h"
#include "test_util.h"
#include "util/random.h"

namespace sj {
namespace {

using testing_util::BruteForceExactPairs;
using testing_util::BruteForcePairs;
using testing_util::MakeDataset;
using testing_util::Sorted;
using testing_util::TestDisk;

// ---------------------------------------------------------------------------
// Unit level: a stream written to and read back from either backend yields
// the same records and the same modeled charges.
// ---------------------------------------------------------------------------

std::vector<RectF> TestRecords(uint64_t n) {
  std::vector<RectF> rects;
  rects.reserve(n);
  Random rng(77);
  for (uint64_t i = 0; i < n; ++i) {
    const float x = static_cast<float>(rng.UniformDouble(0, 1000));
    const float y = static_cast<float>(rng.UniformDouble(0, 1000));
    rects.push_back(RectF(x, y, x + 1.0f, y + 1.0f, static_cast<ObjectId>(i)));
  }
  return rects;
}

TEST(StreamReader, BackendsAgreeOnRecordsAndCharges) {
  const std::vector<RectF> records = TestRecords(10000);
  auto file_factory = TmpFileStorageFactory::Make();
  ASSERT_TRUE(file_factory.ok()) << file_factory.status().ToString();

  std::vector<DiskStats> charged;
  StorageFactory* factories[] = {nullptr, file_factory->get()};
  for (StorageFactory* factory : factories) {
    SCOPED_TRACE(factory == nullptr ? "memory" : factory->description());
    DiskModel disk(MachineModel::Machine3());
    auto pager = MakePager(factory, &disk, "stream");
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    StreamWriter<RectF> writer(pager->get());
    for (const RectF& r : records) writer.Append(r);
    const PageId first_page = writer.first_page();
    ASSERT_TRUE(writer.Finish().ok());

    StreamReader<RectF> reader(pager->get(), first_page, records.size());
    size_t i = 0;
    while (std::optional<RectF> r = reader.Next()) {
      ASSERT_LT(i, records.size());
      ASSERT_EQ(*r, records[i]) << "record " << i;
      ++i;
    }
    EXPECT_EQ(i, records.size());
    charged.push_back(disk.stats());
  }
  // Same pages, same request runs, same sequential-detection outcome.
  EXPECT_EQ(charged[1].pages_read, charged[0].pages_read);
  EXPECT_EQ(charged[1].pages_written, charged[0].pages_written);
  EXPECT_EQ(charged[1].read_requests, charged[0].read_requests);
  EXPECT_EQ(charged[1].sequential_read_requests,
            charged[0].sequential_read_requests);
  EXPECT_DOUBLE_EQ(charged[1].io_seconds, charged[0].io_seconds);
}

// ---------------------------------------------------------------------------
// The join-level differential matrix.
// ---------------------------------------------------------------------------

struct StorageWorkload {
  std::vector<RectF> a, b;
  size_t memory_bytes;
  std::string description;
};

StorageWorkload MakeWorkload(uint64_t seed) {
  Random rng(seed);
  StorageWorkload w;
  const RectF region(0, 0, 400, 400);
  const uint64_t na = 500 + rng.Uniform(900);
  const uint64_t nb = 500 + rng.Uniform(900);
  std::ostringstream desc;
  // Side b stays uniform (covers the whole region) so the join is
  // non-empty no matter where side a's mass lands.
  if (rng.Uniform(2) == 0) {
    w.a = UniformRects(na, region, 2.5f, rng.Next());
    desc << "uniform";
  } else {
    w.a = ClusteredRects(na, region, 5, 14.0f, 2.0f, rng.Next());
    desc << "clustered";
  }
  w.b = UniformRects(nb, region, 2.0f, rng.Next());
  // Alternate a spill-heavy budget (every sort/partition goes through the
  // backend) with a comfortable one (mostly resident).
  w.memory_bytes = (seed & 1) ? (256u << 10) : (24u << 20);
  desc << " n=" << na << "x" << nb << " mem=" << (w.memory_bytes >> 10)
       << "KB";
  w.description = desc.str();
  return w;
}

struct RunResult {
  std::vector<IdPair> pairs;
  uint64_t candidate_count = 0;
  uint64_t pages_read = 0;
  uint64_t pages_written = 0;
  double io_seconds = 0.0;
  double io_wall_seconds = 0.0;
};

struct Variant {
  bool file_backend;
  uint32_t threads;

  std::string Name() const {
    std::ostringstream os;
    os << (file_backend ? "file" : "memory") << "/t" << threads;
    return os.str();
  }
};

// A freshly built environment for one variant run: its own DiskModel (the
// model's stream detection is stateful), datasets, trees and stores over
// identical data.
struct Environment {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  DatasetRef da, db;
  std::unique_ptr<Pager> geom_a_pager, geom_b_pager;
  std::unique_ptr<Pager> tree_a_pager, tree_b_pager, scratch;
  std::optional<FeatureStore> store_a, store_b;
  std::optional<RTree> ta, tb;
};

std::unique_ptr<Environment> BuildEnvironment(
    const StorageWorkload& w, const std::vector<Segment>& ga,
    const std::vector<Segment>& gb) {
  auto env = std::make_unique<Environment>();
  env->da = MakeDataset(&env->td, w.a, "a", &env->keep);
  env->db = MakeDataset(&env->td, w.b, "b", &env->keep);
  env->geom_a_pager = env->td.NewPager("geom.a");
  env->geom_b_pager = env->td.NewPager("geom.b");
  auto sa = FeatureStore::Build(env->geom_a_pager.get(), ga, "a");
  auto sb = FeatureStore::Build(env->geom_b_pager.get(), gb, "b");
  if (!sa.ok() || !sb.ok()) return nullptr;
  env->store_a.emplace(std::move(*sa));
  env->store_b.emplace(std::move(*sb));
  env->tree_a_pager = env->td.NewPager("tree.a");
  env->tree_b_pager = env->td.NewPager("tree.b");
  env->scratch = env->td.NewPager("scratch");
  RTreeParams params;
  params.max_entries = 16;
  auto ta = RTree::BulkLoadHilbert(env->tree_a_pager.get(), env->da.range,
                                   env->scratch.get(), params, 1 << 22);
  auto tb = RTree::BulkLoadHilbert(env->tree_b_pager.get(), env->db.range,
                                   env->scratch.get(), params, 1 << 22);
  if (!ta.ok() || !tb.ok()) return nullptr;
  env->ta.emplace(std::move(*ta));
  env->tb.emplace(std::move(*tb));
  return env;
}

TEST(StorageDifferential, BackendIsInvisibleToResults) {
  // SJ_DIFF_SEED / SJ_DIFF_WORKLOADS replay conventions match
  // join_equivalence_test's randomized harness.
  uint64_t base_seed = 0x570A6E26u;
  int workloads = 2;
  if (const char* n = std::getenv("SJ_DIFF_WORKLOADS")) {
    workloads = std::max(1, std::atoi(n));
  }
  if (const char* replay = std::getenv("SJ_DIFF_SEED")) {
    base_seed = std::strtoull(replay, nullptr, 0);
    if (std::getenv("SJ_DIFF_WORKLOADS") == nullptr) workloads = 1;
  }

  const Variant variants[] = {
      {false, 1},  // Reference: memory, serial.
      {false, 8},
      {true, 1},
      {true, 8},
  };

  for (int trial = 0; trial < workloads; ++trial) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(trial);
    const StorageWorkload w = MakeWorkload(seed);
    SCOPED_TRACE("workload [" + w.description +
                 "] — replay with SJ_DIFF_SEED=" + std::to_string(seed));

    const auto ga = SegmentsForRects(w.a);
    const auto gb = SegmentsForRects(w.b);
    const auto expected_filter = BruteForcePairs(w.a, w.b);
    const auto expected_exact = BruteForceExactPairs(w.a, w.b, ga, gb);
    ASSERT_FALSE(expected_filter.empty());

    // (algo, refine) -> reference result from the first (memory/t1)
    // variant.
    std::map<std::pair<int, bool>, RunResult> reference;

    for (const Variant& v : variants) {
      // Fresh disk + datasets + trees per variant: identical build I/O,
      // identical stream-detection state at query time.
      std::unique_ptr<Environment> env = BuildEnvironment(w, ga, gb);
      ASSERT_NE(env, nullptr);

      std::shared_ptr<StorageFactory> storage;
      if (v.file_backend) {
        auto file_factory = TmpFileStorageFactory::Make();
        ASSERT_TRUE(file_factory.ok()) << file_factory.status().ToString();
        storage = std::move(*file_factory);
      }

      JoinOptions base;
      base.memory_bytes = w.memory_bytes;
      SpatialJoiner joiner(&env->td.disk, base);

      for (JoinAlgorithm algo : {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM,
                                 JoinAlgorithm::kST, JoinAlgorithm::kPQ}) {
        const bool indexed =
            algo == JoinAlgorithm::kST || algo == JoinAlgorithm::kPQ;
        JoinInput ia = indexed ? JoinInput::FromRTree(&*env->ta)
                               : JoinInput::FromStream(env->da);
        JoinInput ib = indexed ? JoinInput::FromRTree(&*env->tb)
                               : JoinInput::FromStream(env->db);
        ia.WithFeatures(&*env->store_a);
        ib.WithFeatures(&*env->store_b);

        for (bool refine : {false, true}) {
          const auto& expected = refine ? expected_exact : expected_filter;
          const std::string variant_name =
              std::string(ToString(algo)) + (refine ? " refined " : " filter ") +
              v.Name();
          SCOPED_TRACE(variant_name);
          CollectingSink sink;
          auto stats = JoinQuery(joiner)
                           .Input(ia)
                           .Input(ib)
                           .Algorithm(algo)
                           .Threads(v.threads)
                           .Refine(refine)
                           .Storage(storage)
                           .Run(&sink);
          ASSERT_TRUE(stats.ok()) << stats.status().ToString();

          RunResult r;
          r.pairs = Sorted(sink.pairs());
          r.candidate_count = stats->candidate_count;
          r.pages_read = stats->disk.pages_read;
          r.pages_written = stats->disk.pages_written;
          r.io_seconds = stats->disk.io_seconds;
          r.io_wall_seconds = stats->disk.io_wall_seconds;

          EXPECT_EQ(r.pairs, expected);
          // Measured wall is the only quantity allowed to move; it must at
          // least stay sane.
          EXPECT_GE(r.io_wall_seconds, 0.0);

          const auto key = std::make_pair(static_cast<int>(algo), refine);
          auto it = reference.find(key);
          if (it == reference.end()) {
            reference.emplace(key, std::move(r));
            continue;
          }
          const RunResult& ref = it->second;
          EXPECT_EQ(r.candidate_count, ref.candidate_count);
          EXPECT_EQ(r.pages_read, ref.pages_read);
          EXPECT_EQ(r.pages_written, ref.pages_written);
          EXPECT_DOUBLE_EQ(r.io_seconds, ref.io_seconds);
        }
      }
    }
  }
}

// The k-way chain reads lazily sorted sources at every thread count;
// Threads(n) reaches only the stream sorts' run formation. Tuples (in
// emission order), candidates, pages and modeled I/O must match the
// memory/serial reference on every backend and thread count.
TEST(StorageDifferential, MultiwayBackendsAgree) {
  const RectF region(0, 0, 300, 300);
  Random rng(0xCAFE);
  std::vector<std::vector<RectF>> data;
  for (int i = 0; i < 3; ++i) {
    data.push_back(UniformRects(600, region, 3.0f, rng.Next()));
  }

  std::vector<std::vector<ObjectId>> reference_tuples;
  uint64_t reference_candidates = 0;
  double reference_io = 0.0;
  uint64_t reference_pages = 0;
  bool have_reference = false;

  for (uint32_t threads : {1u, 8u}) {
    const Variant variants[] = {
        {false, threads},  // Memory/serial first: the reference.
        {true, threads},
    };
    for (const Variant& v : variants) {
      SCOPED_TRACE(v.Name());
      TestDisk td;
      std::vector<std::unique_ptr<Pager>> keep;
      std::vector<DatasetRef> inputs;
      for (size_t i = 0; i < data.size(); ++i) {
        inputs.push_back(
            MakeDataset(&td, data[i], "in" + std::to_string(i), &keep));
      }
      std::shared_ptr<StorageFactory> storage;
      if (v.file_backend) {
        auto file_factory = TmpFileStorageFactory::Make();
        ASSERT_TRUE(file_factory.ok()) << file_factory.status().ToString();
        storage = std::move(*file_factory);
      }

      JoinOptions base;
      base.memory_bytes = 1u << 20;  // The sorts write through storage.
      SpatialJoiner joiner(&td.disk, base);

      CollectingTupleSink sink;
      JoinQuery q(joiner);
      for (const DatasetRef& in : inputs) q.Input(JoinInput::FromStream(in));
      auto stats = q.Threads(v.threads).Storage(storage).Run(&sink);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_GT(sink.tuples().size(), 0u);
      if (!have_reference) {
        reference_tuples = sink.tuples();
        reference_candidates = stats->candidate_count;
        reference_io = stats->disk.io_seconds;
        reference_pages = stats->disk.pages_read;
        have_reference = true;
        continue;
      }
      EXPECT_EQ(sink.tuples(), reference_tuples);
      EXPECT_EQ(stats->candidate_count, reference_candidates);
      EXPECT_EQ(stats->disk.pages_read, reference_pages);
      EXPECT_DOUBLE_EQ(stats->disk.io_seconds, reference_io);
    }
  }
}

}  // namespace
}  // namespace sj
