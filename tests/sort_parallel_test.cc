// Differential suite for the external sort's perf layers (parallel run
// formation, loser-tree merge) on memory and file backends: every
// configuration must produce byte-identical output and identical modeled
// io_seconds to the serial in-memory pipeline — the determinism contract
// the whole-join differential harness relies on.
#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/memory_arbiter.h"
#include "datagen/synthetic.h"
#include "io/pager.h"
#include "io/storage.h"
#include "io/stream.h"
#include "sort/external_sort.h"
#include "sort/loser_tree.h"
#include "sort/run_layout.h"
#include "sort/sort_config.h"
#include "test_util.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace sj {
namespace {

using testing_util::TestDisk;

StreamRange WriteRects(Pager* pager, const std::vector<RectF>& rects) {
  StreamWriter<RectF> writer(pager);
  const PageId first = writer.first_page();
  for (const RectF& r : rects) writer.Append(r);
  auto n = writer.Finish();
  SJ_CHECK(n.ok());
  return StreamRange{pager, first, n.value()};
}

std::vector<RectF> ReadRects(const StreamRange& range) {
  std::vector<RectF> out;
  StreamReader<RectF> reader(range.pager, range.first_page, range.count);
  while (auto r = reader.Next()) out.push_back(*r);
  return out;
}

/// Raw page images of a sorted range — "byte-identical" means the pages,
/// not just the record sequence (page-tail slack included).
std::vector<uint8_t> ReadPages(const StreamRange& range) {
  constexpr uint32_t per_page = StreamWriter<RectF>::kRecordsPerPage;
  const uint64_t npages = (range.count + per_page - 1) / per_page;
  std::vector<uint8_t> bytes(npages * kPageSize);
  for (uint64_t p = 0; p < npages; ++p) {
    SJ_CHECK_OK(range.pager->backend()->ReadPage(
        static_cast<PageId>(range.first_page + p),
        bytes.data() + p * kPageSize));
  }
  return bytes;
}

/// Scratch storage for one run: null (MemoryBackend) or a private
/// directory of real files.
std::unique_ptr<TmpFileStorageFactory> MaybeFileStorage(bool file_backend) {
  if (!file_backend) return nullptr;
  auto made = TmpFileStorageFactory::Make();
  SJ_CHECK(made.ok()) << made.status().ToString();
  return std::move(made).value();
}

std::unique_ptr<Pager> MakeTestPager(StorageFactory* storage, DiskModel* disk,
                                const char* name) {
  Result<std::unique_ptr<Pager>> pager = MakePager(storage, disk, name);
  SJ_CHECK(pager.ok()) << pager.status().ToString();
  return std::move(pager).value();
}

struct RunOutcome {
  std::vector<uint8_t> pages;
  DiskStats disk;
  size_t peak_memory = 0;
  SortStats sort;
};

struct RunConfig {
  uint32_t threads = 1;
  uint32_t fan_in = 0;  // 0 = auto.
  bool file_backend = false;
};

/// One full sort under `config` on a fresh DiskModel; ~10 runs at the
/// given budget so both formation parallelism and multi-group merging
/// engage.
RunOutcome RunOnce(const std::vector<RectF>& rects, size_t memory_bytes,
                   const RunConfig& config) {
  TestDisk td;
  auto factory = MaybeFileStorage(config.file_backend);
  auto input = MakeTestPager(factory.get(), &td.disk, "input");
  auto scratch = MakeTestPager(factory.get(), &td.disk, "scratch");
  auto output = MakeTestPager(factory.get(), &td.disk, "output");
  const StreamRange in = WriteRects(input.get(), rects);
  td.disk.ResetStats();

  MemoryArbiter arbiter(memory_bytes, /*strict=*/false);
  SortConfig sort_config;
  sort_config.threads = config.threads;
  sort_config.merge_fan_in = config.fan_in;

  ExternalSorter<RectF, OrderByYLo> sorter(memory_bytes, scratch.get(),
                                           OrderByYLo(), &arbiter, sort_config);
  auto sorted = sorter.Sort(in, output.get());
  SJ_CHECK(sorted.ok()) << sorted.status().ToString();

  RunOutcome outcome;
  outcome.pages = ReadPages(*sorted);
  outcome.disk = td.disk.stats();
  outcome.peak_memory = arbiter.peak_bytes();
  outcome.sort = sorter.stats();
  return outcome;
}

// The seeded differential sweep: {1,2,8} threads x {fan-in 2, auto, max}
// x {memory, file} backends, all against the serial/memory reference of
// the same fan-in. Output pages must match byte for byte everywhere; modeled
// io_seconds and request counts must match within a fan-in group; the
// arbiter peak must stay within the grant.
TEST(ParallelSortDifferential, AllConfigsMatchSerialReference) {
  const uint64_t n = 30000;
  auto rects = UniformRects(n, RectF(0, 0, 1000, 1000), 4.0f, /*seed=*/42);

  // std::sort oracle: the output record sequence every config must hit.
  std::vector<RectF> oracle = rects;
  std::sort(oracle.begin(), oracle.end(), OrderByYLo());

  // Two budgets, 10+ formation units each: at 3,000 records a 1,771-record
  // chunk outgrows the 3-page write block and keeps std::sort; at 64 KiB a
  // 1,638-record chunk fits the 4-page write block and radix-sorts.
  for (size_t memory : {size_t{3000 * sizeof(RectF)}, size_t{64 << 10}}) {
    const RunLayout layout = RunLayout::For(memory, sizeof(RectF));
    const bool radix =
        layout.run_records * sizeof(RectF) <=
        uint64_t{layout.write_block_pages} * kPageSize;
    ASSERT_EQ(radix, memory == (64 << 10));
    // fan_in: 2 (narrowest), 0 (auto), 64 (clamped to the layout max).
    for (uint32_t fan_in : {0u, 2u, 64u}) {
      RunConfig ref_config;
      ref_config.fan_in = fan_in;
      const RunOutcome ref = RunOnce(rects, memory, ref_config);
      ASSERT_FALSE(ref.pages.empty());
      EXPECT_LE(ref.peak_memory, memory);
      EXPECT_EQ(ref.sort.parallel_units, 0u);

      // The oracle check once per fan-in (pages decode to the sorted
      // sequence).
      {
        TestDisk td;
        auto pager = td.NewPager("decode");
        const PageId first = pager->Allocate(
            static_cast<uint32_t>(ref.pages.size() / kPageSize));
        for (size_t p = 0; p < ref.pages.size() / kPageSize; ++p) {
          SJ_CHECK_OK(pager->backend()->WritePage(
              static_cast<PageId>(first + p),
              ref.pages.data() + p * kPageSize));
        }
        const std::vector<RectF> decoded =
            ReadRects(StreamRange{pager.get(), first, n});
        ASSERT_EQ(decoded.size(), oracle.size());
        for (size_t i = 0; i < oracle.size(); ++i) {
          ASSERT_EQ(decoded[i], oracle[i])
              << "memory " << memory << " fan_in " << fan_in << " at " << i;
        }
      }

      for (uint32_t threads : {1u, 2u, 8u}) {
        for (bool file_backend : {false, true}) {
          RunConfig config;
          config.threads = threads;
          config.fan_in = fan_in;
          config.file_backend = file_backend;
          const RunOutcome got = RunOnce(rects, memory, config);
          const std::string label = "memory=" + std::to_string(memory) +
                                    " threads=" + std::to_string(threads) +
                                    " fan_in=" + std::to_string(fan_in) +
                                    " file=" + std::to_string(file_backend);
          ASSERT_EQ(got.pages.size(), ref.pages.size()) << label;
          EXPECT_EQ(std::memcmp(got.pages.data(), ref.pages.data(),
                                ref.pages.size()),
                    0)
              << label;
          EXPECT_EQ(got.disk.io_seconds, ref.disk.io_seconds) << label;
          EXPECT_EQ(got.disk.pages_read, ref.disk.pages_read) << label;
          EXPECT_EQ(got.disk.pages_written, ref.disk.pages_written) << label;
          EXPECT_EQ(got.disk.read_requests, ref.disk.read_requests) << label;
          EXPECT_EQ(got.disk.write_requests, ref.disk.write_requests) << label;
          EXPECT_EQ(got.disk.random_read_requests,
                    ref.disk.random_read_requests)
              << label;
          EXPECT_LE(got.peak_memory, memory) << label;
          EXPECT_EQ(got.sort.merge_fan_in, ref.sort.merge_fan_in) << label;
          EXPECT_EQ(got.sort.merge_passes, ref.sort.merge_passes) << label;
          if (threads > 1) {
            EXPECT_GT(got.sort.parallel_units, 1u) << label;
          } else {
            EXPECT_EQ(got.sort.parallel_units, 0u) << label;
          }
        }
      }
    }
  }
}

// Formation units that run off the calling thread report their CPU. A
// private team runs every unit on its own threads, so the sum is
// positive; Threads(1) forms runs on the caller and reports none. The
// output and the modeled I/O do not depend on it.
TEST(ParallelSortDifferential, ReportsFormationWorkerCpu) {
  auto rects = UniformRects(30000, RectF(0, 0, 1000, 1000), 4.0f, /*seed=*/8);
  const size_t memory = 64 << 10;
  RunConfig serial_config;
  const RunOutcome serial = RunOnce(rects, memory, serial_config);
  EXPECT_EQ(serial.sort.parallel_units, 0u);
  EXPECT_EQ(serial.sort.worker_cpu_seconds, 0.0);
  RunConfig parallel_config;
  parallel_config.threads = 4;
  const RunOutcome parallel = RunOnce(rects, memory, parallel_config);
  EXPECT_GT(parallel.sort.parallel_units, 1u);
  EXPECT_GT(parallel.sort.worker_cpu_seconds, 0.0);
  EXPECT_EQ(parallel.pages, serial.pages);
  EXPECT_DOUBLE_EQ(parallel.disk.io_seconds, serial.disk.io_seconds);
  // Folding two sorts' stats sums their CPU; counts stay maxima.
  SortStats folded = serial.sort;
  folded.Fold(parallel.sort);
  folded.Fold(parallel.sort);
  EXPECT_DOUBLE_EQ(folded.worker_cpu_seconds,
                   2 * parallel.sort.worker_cpu_seconds);
  EXPECT_EQ(folded.parallel_units, parallel.sort.parallel_units);
}

// A shared morsel pool (service mode) must behave like private teams,
// here over file-backed pagers.
TEST(ParallelSortDifferential, SharedPoolMatchesPrivateTeam) {
  const size_t memory = 2000 * sizeof(RectF);
  auto rects = UniformRects(15000, RectF(0, 0, 500, 500), 3.0f, /*seed=*/13);
  RunConfig ref_config;
  const RunOutcome ref = RunOnce(rects, memory, ref_config);

  TestDisk td;
  auto factory = MaybeFileStorage(true);
  auto input = MakeTestPager(factory.get(), &td.disk, "input");
  auto scratch = MakeTestPager(factory.get(), &td.disk, "scratch");
  auto output = MakeTestPager(factory.get(), &td.disk, "output");
  const StreamRange in = WriteRects(input.get(), rects);
  td.disk.ResetStats();
  ThreadPool pool(4);
  SortConfig config;
  config.threads = 4;
  config.pool = &pool;
  ExternalSorter<RectF, OrderByYLo> sorter(memory, scratch.get(), OrderByYLo(),
                                           nullptr, config);
  auto sorted = sorter.Sort(in, output.get());
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  EXPECT_GT(sorter.stats().parallel_units, 1u);
  const std::vector<uint8_t> pages = ReadPages(*sorted);
  ASSERT_EQ(pages.size(), ref.pages.size());
  EXPECT_EQ(std::memcmp(pages.data(), ref.pages.data(), pages.size()), 0);
  EXPECT_DOUBLE_EQ(td.disk.stats().io_seconds, ref.disk.io_seconds);
}

// Satellite regression: FormRuns reports the *reserved* run-buffer
// capacity up front (not the transient fill of each chunk), so a strict
// arbiter — which aborts on usage above the grant — accepts runs whose
// short final chunk still holds the full reservation. The merge's block
// buffers fit the same grant, on memory and on file pagers alike.
TEST(ParallelSortDifferential, StrictArbiterAcceptsReservedChunkAccounting) {
  // 2.2 runs' worth at 2,000 records (std::sort chunks) and 2.4 at 64 KiB
  // (radix chunks, whose scratch lives in the write block's share): the
  // last run is short but reserves full capacity.
  auto rects = UniformRects(4000, RectF(0, 0, 500, 500), 3.0f, /*seed=*/17);
  for (size_t memory : {size_t{2000 * sizeof(RectF)}, size_t{64 << 10}}) {
    for (uint32_t threads : {1u, 2u}) {
      for (bool file_backend : {false, true}) {
        const std::string label = "memory=" + std::to_string(memory) +
                                  " threads=" + std::to_string(threads) +
                                  " file=" + std::to_string(file_backend);
        TestDisk td;
        auto factory = MaybeFileStorage(file_backend);
        auto input = MakeTestPager(factory.get(), &td.disk, "input");
        auto scratch = MakeTestPager(factory.get(), &td.disk, "scratch");
        auto output = MakeTestPager(factory.get(), &td.disk, "output");
        const StreamRange in = WriteRects(input.get(), rects);
        MemoryArbiter arbiter(memory, /*strict=*/true);
        SortConfig config;
        config.threads = threads;
        ExternalSorter<RectF, OrderByYLo> sorter(memory, scratch.get(),
                                                 OrderByYLo(), &arbiter,
                                                 config);
        ASSERT_TRUE(sorter.Sort(in, output.get()).ok()) << label;
        EXPECT_GE(sorter.stats().runs, 2u) << label;
        // The sort component reported its reserved capacity, never above
        // it (strict mode would have aborted on an overshoot).
        size_t used = 0, granted = 0;
        for (const MemoryComponentStats& c : arbiter.ComponentStats()) {
          if (c.component == grants::kSortRuns) {
            used = c.used_high_water;
            granted = c.granted_high_water;
          }
        }
        EXPECT_GT(used, 0u) << label;
        EXPECT_LE(used, granted) << label;
      }
    }
  }
}

// --- Loser tree unit tests --------------------------------------------

struct IntLess {
  bool operator()(int a, int b) const { return a < b; }
};

TEST(LoserTree, MergesWithSourceStableTies) {
  // Three sources with equal keys: ties must pop in source order.
  std::vector<std::optional<int>> heads = {5, 5, 5};
  LoserTree<int, IntLess> tree(std::move(heads), IntLess());
  EXPECT_EQ(tree.TopSource(), 0u);
  tree.ReplaceTop(std::nullopt);
  EXPECT_EQ(tree.TopSource(), 1u);
  tree.ReplaceTop(std::nullopt);
  EXPECT_EQ(tree.TopSource(), 2u);
  tree.ReplaceTop(std::nullopt);
  EXPECT_TRUE(tree.Empty());
}

TEST(LoserTree, SingleSourceAndEmpty) {
  {
    LoserTree<int, IntLess> tree({std::optional<int>(3)}, IntLess());
    EXPECT_FALSE(tree.Empty());
    EXPECT_EQ(tree.Top(), 3);
    tree.ReplaceTop(7);
    EXPECT_EQ(tree.Top(), 7);
    tree.ReplaceTop(std::nullopt);
    EXPECT_TRUE(tree.Empty());
  }
  {
    LoserTree<int, IntLess> tree({}, IntLess());
    EXPECT_TRUE(tree.Empty());
  }
}

// The tree's order is the stable (key, source) order: exactly what a
// std::stable_sort of the concatenated runs (source 0 first) produces.
TEST(LoserTree, MatchesStableSortOfConcatenatedRuns) {
  // Non-power-of-two source count with duplicates across sources.
  const int k = 5;
  std::vector<std::vector<int>> runs(k);
  uint64_t state = 12345;
  auto next_rand = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>((state >> 33) % 100);
  };
  std::vector<std::pair<int, size_t>> expected;
  for (int s = 0; s < k; ++s) {
    for (int i = 0; i < 200; ++i) runs[s].push_back(next_rand());
    std::sort(runs[s].begin(), runs[s].end());
    for (int v : runs[s]) expected.emplace_back(v, s);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const std::pair<int, size_t>& a,
                      const std::pair<int, size_t>& b) {
                     return a.first < b.first;
                   });

  std::vector<size_t> cursor(k, 0);
  std::vector<std::optional<int>> heads;
  for (int s = 0; s < k; ++s) heads.push_back(runs[s][cursor[s]++]);
  LoserTree<int, IntLess> tree(std::move(heads), IntLess());
  std::vector<std::pair<int, size_t>> merged;
  while (!tree.Empty()) {
    const size_t source = tree.TopSource();
    merged.emplace_back(tree.Top(), source);
    tree.ReplaceTop(cursor[source] < runs[source].size()
                        ? std::optional<int>(runs[source][cursor[source]++])
                        : std::nullopt);
  }
  ASSERT_EQ(merged.size(), size_t{k} * 200);
  EXPECT_EQ(merged, expected);
}

}  // namespace
}  // namespace sj
