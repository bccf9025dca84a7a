// The refinement subsystem: paged FeatureStore semantics and cost
// accounting, the chunked refinement executor's correctness, page reads
// per chunk, thread-count/backend invariance, concurrent runs over one
// store pair, read faults, and the refine option end to end through
// JoinQuery (two-way and multiway).

#include "refine/refine.h"

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <thread>

#include "core/join_query.h"
#include "core/spatial_join.h"
#include "datagen/synthetic.h"
#include "refine/feature_store.h"
#include "service/spatial_service.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::BruteForceExactPairs;
using testing_util::BruteForcePairs;
using testing_util::FailingBackend;
using testing_util::MakeDataset;
using testing_util::Sorted;
using testing_util::TestDisk;

bool SameDiskStats(const DiskStats& x, const DiskStats& y) {
  return x.pages_read == y.pages_read && x.pages_written == y.pages_written &&
         x.read_requests == y.read_requests &&
         x.write_requests == y.write_requests &&
         x.io_seconds == y.io_seconds;
}

TEST(FeatureStore, BuildOpenFetchRoundtrip) {
  TestDisk td;
  auto pager = td.NewPager("geom");
  const RectF region(0, 0, 100, 100);
  const auto rects = UniformRects(1300, region, 2.0f, /*seed=*/11);
  const auto geom = SegmentsForRects(rects);
  auto built = FeatureStore::Build(pager.get(), geom, "roundtrip");
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->count(), geom.size());
  // 512 16-byte records per 8 KB page.
  EXPECT_EQ(built->data_pages(), (geom.size() + 511) / 512);

  auto opened = FeatureStore::Open(pager.get());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->count(), geom.size());
  for (ObjectId id : {ObjectId{0}, ObjectId{511}, ObjectId{512},
                      ObjectId{1299}}) {
    auto s = opened->Fetch(id);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s->x1, geom[id].x1);
    EXPECT_EQ(s->y1, geom[id].y1);
    EXPECT_EQ(s->x2, geom[id].x2);
    EXPECT_EQ(s->y2, geom[id].y2);
  }
  EXPECT_FALSE(opened->Fetch(1300).ok());
}

TEST(FeatureStore, OpenRejectsForeignPages) {
  TestDisk td;
  auto pager = td.NewPager("not.a.store");
  StreamWriter<RectF> writer(pager.get());
  writer.Append(RectF(0, 0, 1, 1, 7));
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_FALSE(FeatureStore::Open(pager.get()).ok());
}

TEST(FeatureStore, BaseIdOffsetsTheKeySpace) {
  TestDisk td;
  auto pager = td.NewPager("geom.base");
  const auto rects =
      UniformRects(100, RectF(0, 0, 10, 10), 1.0f, /*seed=*/3,
                   /*base_id=*/5000);
  const auto geom = SegmentsForRects(rects);
  auto store = FeatureStore::Build(pager.get(), geom, "based", 5000);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->Fetch(0).ok());
  EXPECT_FALSE(store->Fetch(4999).ok());
  auto s = store->Fetch(5042);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->x1, geom[42].x1);
}

TEST(FeatureStore, FetchBatchReadsEachPageOnce) {
  TestDisk td;
  auto pager = td.NewPager("geom.batch");
  const auto rects = UniformRects(2000, RectF(0, 0, 100, 100), 2.0f, 13);
  const auto geom = SegmentsForRects(rects);
  auto store = FeatureStore::Build(pager.get(), geom, "batch");
  ASSERT_TRUE(store.ok());

  // Ids spanning all 4 data pages, shuffled order, with duplicates.
  const std::vector<ObjectId> ids = {1999, 0, 511, 512, 1023, 0,
                                     1024, 700, 1536, 700};
  const DiskStats before = td.disk.stats();
  std::vector<Segment> out;
  auto pages = store->FetchBatch(ids, &out);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(*pages, 4u);  // 2000 records = 4 pages, each read once.
  const DiskStats delta = td.disk.stats() - before;
  EXPECT_EQ(delta.pages_read, 4u);
  // Consecutive pages coalesce into a single run request.
  EXPECT_EQ(delta.read_requests, 1u);
  // Results arrive in input order, duplicates included.
  ASSERT_EQ(out.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(out[i].x1, geom[ids[i]].x1) << "slot " << i;
    EXPECT_EQ(out[i].y2, geom[ids[i]].y2) << "slot " << i;
  }
  // An out-of-range id anywhere in the batch fails the whole fetch.
  std::vector<Segment> unused;
  const std::vector<ObjectId> out_of_range = {5, 2000};
  EXPECT_FALSE(store->FetchBatch(out_of_range, &unused).ok());
}

TEST(FeatureStore, FetchBatchChargesExternalShard) {
  TestDisk td;
  auto pager = td.NewPager("geom.shard");
  const auto rects = UniformRects(1000, RectF(0, 0, 50, 50), 1.0f, 17);
  auto store =
      FeatureStore::Build(pager.get(), SegmentsForRects(rects), "shard");
  ASSERT_TRUE(store.ok());

  DiskModel shard(td.disk.machine());
  const uint32_t dev = shard.RegisterDevice("refine.test");
  const DiskStats own_before = td.disk.stats();
  std::vector<Segment> out;
  const std::vector<ObjectId> ids = {0, 999};
  auto pages = store->FetchBatch(ids, &out, &shard, dev);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(*pages, 2u);
  // All modeled I/O lands on the shard; the store's own disk is untouched.
  EXPECT_EQ(shard.stats().pages_read, 2u);
  EXPECT_EQ((td.disk.stats() - own_before).pages_read, 0u);
  EXPECT_EQ(out[0].x1, SegmentForRect(rects[0]).x1);
  EXPECT_EQ(out[1].x1, SegmentForRect(rects[999]).x1);
}

TEST(FeatureStore, OpenRejectsHeaderClaimingMissingPages) {
  TestDisk td;
  auto pager = td.NewPager("geom.truncated");
  // A header that claims 2,000 records (4 data pages), followed by one.
  FeatureStoreHeader header;
  header.count = 2000;
  uint8_t page[kPageSize] = {};
  std::memcpy(page, &header, sizeof(header));
  ASSERT_TRUE(pager->WritePage(pager->Allocate(1), page).ok());
  const auto geom = SegmentsForRects(
      UniformRects(FeatureStore::kRecordsPerPage, RectF(0, 0, 10, 10), 1.0f,
                   19));
  StreamWriter<Segment> writer(pager.get());
  for (const Segment& s : geom) writer.Append(s);
  ASSERT_TRUE(writer.Finish().ok());
  ASSERT_EQ(pager->page_count(), 2u);

  auto opened = FeatureStore::Open(pager.get());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
      << opened.status().ToString();
}

// A feature page that cannot be read ends the fetch, the refinement and
// the refining query in IoError: no abort, and every grant comes back.
TEST(Refine, ReadFaultsEndInIoError) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF region(0, 0, 100, 100);
  const auto a = UniformRects(600, region, 3.0f, 81);
  const auto b = UniformRects(500, region, 3.0f, 82);
  auto failing = std::make_unique<FailingBackend>();
  FailingBackend* faults = failing.get();
  Pager pager_a(std::move(failing), &td.disk, "geom.a");
  auto pager_b = td.NewPager("geom.b");
  auto store_a = FeatureStore::Build(&pager_a, SegmentsForRects(a), "a");
  auto store_b = FeatureStore::Build(pager_b.get(), SegmentsForRects(b), "b");
  ASSERT_TRUE(store_a.ok() && store_b.ok());
  faults->fail_reads = true;

  std::vector<Segment> out;
  const std::vector<ObjectId> ids = {0, 599};
  EXPECT_EQ(store_a->FetchBatch(ids, &out).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(store_a->Fetch(7).status().code(), StatusCode::kIoError);

  // The executor on an arbiter the test holds.
  const std::vector<IdPair> candidates = BruteForcePairs(a, b);
  ASSERT_FALSE(candidates.empty());
  MemoryArbiter arbiter(kMinMemoryBytes, /*strict=*/true);
  CollectingSink sink;
  auto refined = RefinePairs(candidates, *store_a, *store_b, JoinOptions(),
                             &sink, PredicateSpec{}, &arbiter);
  EXPECT_EQ(refined.status().code(), StatusCode::kIoError);
  EXPECT_EQ(arbiter.in_use(), 0u);

  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  SpatialJoiner joiner(&td.disk, JoinOptions());
  JoinQuery query(joiner);
  query.Input(JoinInput::FromStream(da))
      .Input(JoinInput::FromStream(db))
      .WithFeatures(0, &*store_a)
      .WithFeatures(1, &*store_b)
      .Refine(true);
  CollectingSink standalone;
  auto stats = query.Run(&standalone);
  EXPECT_EQ(stats.status().code(), StatusCode::kIoError)
      << stats.status().ToString();

  // Through a service the query runs on an arbiter carved from the
  // service's: the carve comes back whole only once every grant of the
  // query's arbiter is released, and the service admits the next query.
  SpatialService service{ServiceOptions()};
  CollectingSink served;
  stats = service.Run(query, &served);
  EXPECT_EQ(stats.status().code(), StatusCode::kIoError)
      << stats.status().ToString();
  EXPECT_EQ(service.global_arbiter()->in_use(), 0u);
  faults->fail_reads = false;
  CollectingSink next;
  stats = service.Run(query, &next);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(Sorted(next.pairs()),
            BruteForceExactPairs(a, b, SegmentsForRects(a),
                                 SegmentsForRects(b)));
  EXPECT_EQ(service.global_arbiter()->in_use(), 0u);
}

/// A FeatureStore on a memory pager or on a real file.
struct StoreOnBackend {
  std::unique_ptr<Pager> pager;
  std::optional<FeatureStore> store;
};

StoreOnBackend BuildStore(TestDisk* td, StorageFactory* files,
                          const std::vector<Segment>& geom,
                          const std::string& name) {
  StoreOnBackend out;
  auto pager = MakePager(files, &td->disk, name);
  if (!pager.ok()) return out;
  out.pager = std::move(*pager);
  auto store = FeatureStore::Build(out.pager.get(), geom, name);
  if (store.ok()) out.store.emplace(std::move(*store));
  return out;
}

TEST(Refine, PairsMatchBruteForceAcrossThreadsAndBackends) {
  TestDisk td;
  const RectF region(0, 0, 300, 300);
  const auto a = UniformRects(3000, region, 5.0f, 21);
  const auto b = UniformRects(2800, region, 6.0f, 22);
  const auto ga = SegmentsForRects(a);
  const auto gb = SegmentsForRects(b);
  auto files = TmpFileStorageFactory::Make();
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  std::vector<StoreOnBackend> stores;  // a, b on memory, then on file.
  for (StorageFactory* storage : {static_cast<StorageFactory*>(nullptr),
                                  static_cast<StorageFactory*>(files->get())}) {
    stores.push_back(BuildStore(&td, storage, ga, "geom.a"));
    stores.push_back(BuildStore(&td, storage, gb, "geom.b"));
  }
  for (const StoreOnBackend& s : stores) ASSERT_TRUE(s.store);

  const std::vector<IdPair> candidates = BruteForcePairs(a, b);
  const std::vector<IdPair> expected = BruteForceExactPairs(a, b, ga, gb);
  ASSERT_GT(candidates.size(), expected.size());  // The filter over-approximates.
  ASSERT_FALSE(expected.empty());
  // The default budget refines every candidate in one chunk of several
  // predicate slices; the smallest budget takes several chunks.
  ASSERT_GT(candidates.size(), 2 * kRefineSliceCandidates);
  ASSERT_GT(candidates.size(),
            2 * RefineChunkCandidates(RefineGrantBytes(kMinMemoryBytes)));

  std::vector<IdPair> reference_pairs;
  for (size_t budget : {JoinOptions().memory_bytes, kMinMemoryBytes}) {
    RefineStats reference;
    bool have_reference = false;
    for (size_t backend = 0; backend < 2; ++backend) {
      for (uint32_t threads : {1u, 2u, 8u}) {
        const std::string variant =
            std::string(backend == 0 ? "memory" : "file") + ", " +
            std::to_string(threads) + " threads, budget " +
            std::to_string(budget);
        JoinOptions options;
        options.num_threads = threads;
        options.memory_bytes = budget;
        CollectingSink sink;
        auto stats = RefinePairs(candidates, *stores[2 * backend].store,
                                 *stores[2 * backend + 1].store, options,
                                 &sink);
        ASSERT_TRUE(stats.ok()) << variant << ": "
                                << stats.status().ToString();
        EXPECT_EQ(stats->candidates, candidates.size());
        EXPECT_EQ(stats->results, expected.size());
        EXPECT_GT(stats->pages_read, 0u);
        // Survivors come out in candidate order under every budget.
        if (reference_pairs.empty()) {
          EXPECT_EQ(Sorted(sink.pairs()), expected) << variant;
          reference_pairs = sink.pairs();
        }
        EXPECT_EQ(sink.pairs(), reference_pairs) << variant;
        if (!have_reference) {
          reference = *stats;
          have_reference = true;
          continue;
        }
        // Pages and modeled I/O identical for every thread count and
        // backend at one budget: chunks follow the budget alone.
        EXPECT_EQ(stats->pages_read, reference.pages_read) << variant;
        EXPECT_TRUE(SameDiskStats(stats->disk, reference.disk)) << variant;
      }
    }
  }
}

// Concurrent refinements over one shared store pair, as the service's
// concurrent windows run them: each run views the stores' pages (in place
// on memory, through its own scratch page on file) and charges its own
// DiskModel, so every run matches the single-threaded one exactly.
TEST(Refine, ConcurrentRunsShareOneStorePair) {
  TestDisk td;
  const RectF region(0, 0, 200, 200);
  const auto a = UniformRects(1500, region, 5.0f, 91);
  const auto b = UniformRects(1400, region, 6.0f, 92);
  const std::vector<IdPair> candidates = BruteForcePairs(a, b);
  JoinOptions options;
  options.memory_bytes = kMinMemoryBytes;  // Several chunks per run.
  ASSERT_GT(candidates.size(),
            2 * RefineChunkCandidates(RefineGrantBytes(kMinMemoryBytes)));
  auto files = TmpFileStorageFactory::Make();
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  for (StorageFactory* storage : {static_cast<StorageFactory*>(nullptr),
                                  static_cast<StorageFactory*>(files->get())}) {
    const std::string backend = storage == nullptr ? "memory" : "file";
    const StoreOnBackend sa =
        BuildStore(&td, storage, SegmentsForRects(a), "geom.a");
    const StoreOnBackend sb =
        BuildStore(&td, storage, SegmentsForRects(b), "geom.b");
    ASSERT_TRUE(sa.store && sb.store) << backend;
    CollectingSink reference_sink;
    auto reference = RefinePairs(candidates, *sa.store, *sb.store, options,
                                 &reference_sink);
    ASSERT_TRUE(reference.ok()) << backend << ": "
                                << reference.status().ToString();

    constexpr int kThreads = 4;
    std::vector<CollectingSink> sinks(kThreads);
    std::vector<std::optional<Result<RefineStats>>> runs(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        runs[t].emplace(RefinePairs(candidates, *sa.store, *sb.store,
                                    options, &sinks[t]));
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      const std::string where = backend + ", thread " + std::to_string(t);
      const Result<RefineStats>& run = *runs[t];
      ASSERT_TRUE(run.ok()) << where << ": " << run.status().ToString();
      EXPECT_EQ(sinks[t].pairs(), reference_sink.pairs()) << where;
      EXPECT_EQ(run->pages_read, reference->pages_read) << where;
      EXPECT_TRUE(SameDiskStats(run->disk, reference->disk)) << where;
    }
  }
}

TEST(Refine, ReadsEachPageOncePerChunk) {
  TestDisk td;
  constexpr uint32_t kPerPage = FeatureStore::kRecordsPerPage;
  constexpr uint32_t kPages = 4;
  const auto ga = SegmentsForRects(
      UniformRects(kPages * kPerPage, RectF(0, 0, 40, 40), 4.0f, 71));
  const auto gb = SegmentsForRects(
      UniformRects(kPages * kPerPage, RectF(0, 0, 40, 40), 4.0f, 72));
  auto pager_a = td.NewPager("geom.a");
  auto pager_b = td.NewPager("geom.b");
  auto store_a = FeatureStore::Build(pager_a.get(), ga, "a");
  auto store_b = FeatureStore::Build(pager_b.get(), gb, "b");
  ASSERT_TRUE(store_a.ok() && store_b.ok());

  // Consecutive candidates cycle over the 4 pages of each store, so any
  // run of them needs every page.
  std::vector<IdPair> candidates;
  for (uint32_t i = 0; i < 3000; ++i) {
    candidates.push_back({(i % kPages) * kPerPage + (i / kPages) % kPerPage,
                          ((i + 1) % kPages) * kPerPage + (i * 7) % kPerPage});
  }
  std::vector<IdPair> expected;
  for (const IdPair& c : candidates) {
    if (SegmentsIntersect(ga[c.a], gb[c.b])) expected.push_back(c);
  }
  ASSERT_FALSE(expected.empty());

  // The default budget holds all 3,000 candidates in one chunk: each page
  // is read once, in one coalesced request per side.
  {
    CollectingSink sink;
    auto stats = RefinePairs(candidates, *store_a, *store_b, JoinOptions(),
                             &sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(sink.pairs(), expected);
    EXPECT_EQ(stats->pages_read, 2u * kPages);
    EXPECT_EQ(stats->disk.pages_read, 2u * kPages);
    EXPECT_EQ(stats->disk.read_requests, 2u);
  }

  // A strict arbiter this small forces several chunks; each reads every
  // page once, never aborts, and stays within its grant.
  MemoryArbiter arbiter(kMinMemoryBytes, /*strict=*/true);
  const uint64_t chunk =
      RefineChunkCandidates(RefineGrantBytes(arbiter.budget()));
  const uint64_t chunks = (candidates.size() + chunk - 1) / chunk;
  ASSERT_GE(chunks, 3u);
  CollectingSink sink;
  JoinOptions options;
  options.num_threads = 2;
  auto stats = RefinePairs(candidates, *store_a, *store_b, options, &sink,
                           PredicateSpec{}, &arbiter);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(sink.pairs(), expected);
  EXPECT_EQ(stats->pages_read, 2u * kPages * chunks);
  EXPECT_EQ(stats->disk.read_requests, 2u * chunks);
  bool saw_grant = false;
  for (const MemoryComponentStats& c : arbiter.ComponentStats()) {
    if (c.component != grants::kRefineBatch) continue;
    saw_grant = true;
    EXPECT_GT(c.used_high_water, 0u);
    EXPECT_LE(c.used_high_water, c.granted_high_water);
    EXPECT_LE(c.granted_high_water, RefineGrantBytes(arbiter.budget()));
  }
  EXPECT_TRUE(saw_grant);
  EXPECT_EQ(arbiter.in_use(), 0u);

  // With the budget all but used up the grant is squeezed to its floor:
  // chunks of kMinRefineChunk candidates, still within the grant.
  auto held = arbiter.Acquire("held", arbiter.budget() - 1024);
  ASSERT_TRUE(held.ok());
  CollectingSink squeezed;
  stats = RefinePairs(candidates, *store_a, *store_b, options, &squeezed,
                      PredicateSpec{}, &arbiter);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(squeezed.pairs(), expected);
  const uint64_t floor_chunks =
      (candidates.size() + kMinRefineChunk - 1) / kMinRefineChunk;
  EXPECT_EQ(stats->pages_read, 2u * kPages * floor_chunks);
}

TEST(Refine, JoinerRefinesThroughEveryAlgorithm) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF region(0, 0, 200, 200);
  const auto a = UniformRects(700, region, 3.0f, 31);
  const auto b = UniformRects(600, region, 3.0f, 32);
  const auto ga = SegmentsForRects(a);
  const auto gb = SegmentsForRects(b);
  const auto expected = BruteForceExactPairs(a, b, ga, gb);
  const auto expected_candidates = BruteForcePairs(a, b);

  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  auto pager_a = td.NewPager("geom.a");
  auto pager_b = td.NewPager("geom.b");
  auto store_a = FeatureStore::Build(pager_a.get(), ga, "a");
  auto store_b = FeatureStore::Build(pager_b.get(), gb, "b");
  ASSERT_TRUE(store_a.ok() && store_b.ok());
  auto tree_a_pager = td.NewPager("tree.a");
  auto tree_b_pager = td.NewPager("tree.b");
  auto scratch = td.NewPager("scratch");
  auto ta = RTree::BulkLoadHilbert(tree_a_pager.get(), da.range,
                                   scratch.get(), RTreeParams(), 1 << 22);
  auto tb = RTree::BulkLoadHilbert(tree_b_pager.get(), db.range,
                                   scratch.get(), RTreeParams(), 1 << 22);
  ASSERT_TRUE(ta.ok() && tb.ok());

  JoinOptions options;
  options.refine = true;
  SpatialJoiner joiner(&td.disk, options);
  JoinInput ia = JoinInput::FromRTree(&*ta);
  JoinInput ib = JoinInput::FromRTree(&*tb);
  ia.WithFeatures(&*store_a);
  ib.WithFeatures(&*store_b);
  for (JoinAlgorithm algo : {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM,
                             JoinAlgorithm::kST, JoinAlgorithm::kPQ,
                             JoinAlgorithm::kAuto}) {
    CollectingSink sink;
    auto stats = JoinQuery(joiner).Input(ia).Input(ib).Algorithm(algo).Run(
        &sink);
    ASSERT_TRUE(stats.ok()) << ToString(algo) << ": "
                            << stats.status().ToString();
    EXPECT_EQ(Sorted(sink.pairs()), expected) << ToString(algo);
    EXPECT_EQ(stats->output_count, expected.size()) << ToString(algo);
    EXPECT_EQ(stats->candidate_count, expected_candidates.size())
        << ToString(algo);
    EXPECT_GT(stats->refine_pages_read, 0u) << ToString(algo);
  }
}

TEST(Refine, ExplainPlansTheGrantTheRunTakes) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF region(0, 0, 200, 200);
  const auto a = UniformRects(700, region, 3.0f, 33);
  const auto b = UniformRects(600, region, 3.0f, 34);
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  auto pager_a = td.NewPager("geom.a");
  auto pager_b = td.NewPager("geom.b");
  auto store_a = FeatureStore::Build(pager_a.get(), SegmentsForRects(a), "a");
  auto store_b = FeatureStore::Build(pager_b.get(), SegmentsForRects(b), "b");
  ASSERT_TRUE(store_a.ok() && store_b.ok());

  SpatialJoiner joiner(&td.disk, JoinOptions());
  for (size_t budget : {kMinMemoryBytes, size_t{1} << 20}) {
    JoinQuery query(joiner);
    query.Input(JoinInput::FromStream(da))
        .Input(JoinInput::FromStream(db))
        .WithFeatures(0, &*store_a)
        .WithFeatures(1, &*store_b)
        .Algorithm(JoinAlgorithm::kSSSJ)
        .Refine(true)
        .MemoryBytes(budget);
    auto plan = query.Explain();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const size_t planned = plan->memory.GrantFor(grants::kRefineBatch);
    EXPECT_EQ(planned, RefineGrantBytes(budget));
    CountingSink sink;
    auto stats = query.Run(&sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    bool saw_grant = false;
    for (const MemoryComponentStats& c : stats->memory_components) {
      if (c.component != grants::kRefineBatch) continue;
      saw_grant = true;
      EXPECT_EQ(c.granted_high_water, planned) << budget;
      EXPECT_LE(c.used_high_water, c.granted_high_water) << budget;
    }
    EXPECT_TRUE(saw_grant) << budget;
  }
}

TEST(Refine, JoinerWithoutStoresFailsPrecondition) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const auto a = UniformRects(50, RectF(0, 0, 10, 10), 1.0f, 41);
  const auto b = UniformRects(50, RectF(0, 0, 10, 10), 1.0f, 42);
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  JoinOptions options;
  options.refine = true;
  SpatialJoiner joiner(&td.disk, options);
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(da))
                   .Input(JoinInput::FromStream(db))
                   .Run(&sink);
  EXPECT_FALSE(stats.ok());
}

TEST(Refine, UnrefinedJoinReportsCandidatesEqualOutput) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const auto a = UniformRects(300, RectF(0, 0, 50, 50), 2.0f, 51);
  const auto b = UniformRects(300, RectF(0, 0, 50, 50), 2.0f, 52);
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  SpatialJoiner joiner(&td.disk, JoinOptions());
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(da))
                   .Input(JoinInput::FromStream(db))
                   .Algorithm(JoinAlgorithm::kSSSJ)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->candidate_count, stats->output_count);
  EXPECT_EQ(stats->refine_pages_read, 0u);
}

TEST(Refine, MultiwayTuplesPairwisePredicate) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF region(0, 0, 120, 120);
  const auto a = UniformRects(260, region, 6.0f, 61);
  const auto b = UniformRects(240, region, 6.0f, 62);
  const auto c = UniformRects(220, region, 6.0f, 63);
  const auto ga = SegmentsForRects(a);
  const auto gb = SegmentsForRects(b);
  const auto gc = SegmentsForRects(c);

  // Brute-force reference: MBR tuples with a common intersection point,
  // then the pairwise exact-segment predicate.
  std::vector<std::vector<ObjectId>> filter_tuples, exact_tuples;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      if (!a[i].Intersects(b[j])) continue;
      const RectF ab = a[i].IntersectionWith(b[j]);
      for (size_t k = 0; k < c.size(); ++k) {
        if (!ab.Intersects(c[k])) continue;
        filter_tuples.push_back({a[i].id, b[j].id, c[k].id});
        if (SegmentsIntersect(ga[i], gb[j]) &&
            SegmentsIntersect(ga[i], gc[k]) &&
            SegmentsIntersect(gb[j], gc[k])) {
          exact_tuples.push_back({a[i].id, b[j].id, c[k].id});
        }
      }
    }
  }
  std::sort(exact_tuples.begin(), exact_tuples.end());
  ASSERT_FALSE(filter_tuples.empty());
  // The smallest budget below refines the tuples in several chunks.
  ASSERT_GT(filter_tuples.size(),
            RefineChunkCandidates(RefineGrantBytes(kMinMemoryBytes),
                                  RefineBytesPerCandidate(3)));

  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  const DatasetRef dc = MakeDataset(&td, c, "c", &keep);
  auto pa = td.NewPager("geom.a");
  auto pb = td.NewPager("geom.b");
  auto pc = td.NewPager("geom.c");
  auto sa = FeatureStore::Build(pa.get(), ga, "a");
  auto sb = FeatureStore::Build(pb.get(), gb, "b");
  auto sc = FeatureStore::Build(pc.get(), gc, "c");
  ASSERT_TRUE(sa.ok() && sb.ok() && sc.ok());

  for (uint32_t threads : {1u, 2u, 8u}) {
    JoinOptions options;
    options.refine = true;
    // The smallest budget: several refinement chunks per run.
    options.memory_bytes = kMinMemoryBytes;
    options.num_threads = threads;
    SpatialJoiner joiner(&td.disk, options);
    JoinInput ia = JoinInput::FromStream(da);
    JoinInput ib = JoinInput::FromStream(db);
    JoinInput ic = JoinInput::FromStream(dc);
    ia.WithFeatures(&*sa);
    ib.WithFeatures(&*sb);
    ic.WithFeatures(&*sc);
    CollectingTupleSink sink;
    auto stats = JoinQuery(joiner).Input(ia).Input(ib).Input(ic).Run(
        static_cast<TupleSink*>(&sink));
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->candidate_count, filter_tuples.size());
    EXPECT_EQ(stats->output_count, exact_tuples.size());
    auto got = sink.tuples();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, exact_tuples) << threads << " threads";
  }
}

}  // namespace
}  // namespace sj
