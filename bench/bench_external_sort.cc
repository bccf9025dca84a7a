// External-sort ladder: serial baseline, then +parallel run formation (8
// threads), over TIGER-shaped relations at increasing sizes. Both rungs
// merge with the loser tree. Every rung must produce byte-identical
// output pages and identical modeled io_seconds to the serial baseline —
// asserted, not assumed — so the only thing the ladder moves is host wall
// time (records/s) and io_wall_seconds. One JSON summary line per
// (dataset, rung) for the tracking dashboards.
// `--n=...` overrides the largest size (CI smoke); `--threads=...` the
// parallel rung width.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "datagen/synthetic.h"
#include "io/pager.h"
#include "io/stream.h"
#include "sort/external_sort.h"
#include "sort/sort_config.h"
#include "util/timer.h"

namespace sj {
namespace bench {
namespace {

struct Rung {
  const char* name;
  bool parallel = false;
};

constexpr Rung kLadder[] = {
    {"serial", false},
    {"+parallel-runs", true},
};

struct SortRun {
  double wall_seconds = 0;
  double io_seconds = 0;
  double io_wall_seconds = 0;
  uint64_t checksum = 0;  // FNV over the output page images.
  uint32_t runs = 0;
  uint32_t fan_in = 0;
};

SortRun RunOnce(const std::vector<RectF>& rects, size_t memory_bytes,
                uint32_t threads, const Rung& rung) {
  DiskModel disk(MachineModel::Machine3());
  auto input = MakeMemoryPager(&disk, "sort.in");
  auto scratch = MakeMemoryPager(&disk, "sort.scratch");
  auto output = MakeMemoryPager(&disk, "sort.out");
  StreamWriter<RectF> writer(input.get());
  for (const RectF& r : rects) writer.Append(r);
  const uint64_t n = writer.Finish().value();
  disk.ResetStats();

  SortConfig config;
  config.threads = rung.parallel ? threads : 1;
  ExternalSorter<RectF, OrderByYLo> sorter(memory_bytes, scratch.get(),
                                           OrderByYLo(), nullptr, config);

  WallTimer wall;
  auto sorted = sorter.Sort(StreamRange{input.get(), 0, n}, output.get());
  SortRun run;
  run.wall_seconds = wall.Elapsed();
  SJ_CHECK(sorted.ok()) << sorted.status().ToString();
  run.io_seconds = disk.stats().io_seconds;
  run.io_wall_seconds = disk.stats().io_wall_seconds;
  run.runs = sorter.stats().runs;
  run.fan_in = sorter.stats().merge_fan_in;

  // FNV-1a over the raw output pages: byte-identity across rungs.
  constexpr uint32_t per_page = StreamWriter<RectF>::kRecordsPerPage;
  const uint64_t npages = (sorted->count + per_page - 1) / per_page;
  std::vector<uint8_t> page(kPageSize);
  uint64_t h = 1469598103934665603ULL;
  for (uint64_t p = 0; p < npages; ++p) {
    SJ_CHECK_OK(sorted->pager->backend()->ReadPage(
        static_cast<PageId>(sorted->first_page + p), page.data()));
    for (uint8_t byte : page) h = (h ^ byte) * 1099511628211ULL;
  }
  run.checksum = h;
  return run;
}

void RunLadder(const std::string& dataset, const std::vector<RectF>& rects,
               uint32_t threads) {
  // ~16 formation units at any size, so the parallel rung has real work
  // and the merge is multi-way.
  const size_t memory =
      std::max<size_t>(RunLayout::kMinSortMemoryBytes,
                       rects.size() * sizeof(RectF) / 16);
  std::printf("-- %s: %llu records, %.1f MB budget --\n", dataset.c_str(),
              static_cast<unsigned long long>(rects.size()),
              static_cast<double>(memory) / (1 << 20));
  std::printf("%16s %12s %12s %12s %12s %9s\n", "config", "wall(s)",
              "Mrec/s", "modeledIO(s)", "ioWall(s)", "speedup");
  PrintHeaderRule(78);
  SortRun base;
  for (const Rung& rung : kLadder) {
    const SortRun run = RunOnce(rects, memory, threads, rung);
    if (std::strcmp(rung.name, "serial") == 0) {
      base = run;
    } else {
      // The ladder's contract: a perf layer may never change the output
      // bytes or the modeled I/O.
      SJ_CHECK(run.checksum == base.checksum)
          << rung.name << " changed the output";
      SJ_CHECK(run.io_seconds == base.io_seconds)
          << rung.name << " changed modeled io_seconds: " << run.io_seconds
          << " vs " << base.io_seconds;
    }
    const double mrecs = static_cast<double>(rects.size()) /
                         run.wall_seconds / 1e6;
    std::printf("%16s %12.3f %12.2f %12.3f %12.3f %8.2fx\n", rung.name,
                run.wall_seconds, mrecs, run.io_seconds, run.io_wall_seconds,
                base.wall_seconds / run.wall_seconds);
    std::printf(
        "{\"bench\":\"external_sort\",\"dataset\":\"%s\",\"records\":%llu,"
        "\"config\":\"%s\",\"threads\":%u,\"wall_s\":%.6f,"
        "\"records_per_s\":%.0f,\"modeled_io_s\":%.6f,\"io_wall_s\":%.6f,"
        "\"runs\":%u,\"fan_in\":%u,\"speedup\":%.3f}\n",
        dataset.c_str(), static_cast<unsigned long long>(rects.size()),
        rung.name, rung.parallel ? threads : 1, run.wall_seconds,
        static_cast<double>(rects.size()) / run.wall_seconds, run.io_seconds,
        run.io_wall_seconds, run.runs, run.fan_in,
        base.wall_seconds / run.wall_seconds);
  }
  std::printf("\n");
}

void Run(uint64_t max_n, uint32_t threads) {
  std::printf("== External sort ladder (TIGER-shaped, %u threads) ==\n\n",
              threads);
  const RectF region(0, 0, 1000, 1000);
  // TIGER-like size ladder up to max_n (road-segment shaped rects:
  // small, skinny, near-uniform centers).
  for (const uint64_t n : {max_n / 8, max_n / 2, max_n}) {
    if (n == 0) continue;
    const std::vector<RectF> rects = UniformRects(n, region, 0.15f, 1971);
    RunLadder("uniform-" + std::to_string(n / 1000) + "k", rects, threads);
  }
  std::printf(
      "Ladder contract: output pages and modeled io_seconds are "
      "byte-identical on every rung;\nonly wall time and io_wall move. "
      "The +parallel-runs rung's speedup tracks the\nmachine's core count "
      "(run formation is compare-bound).\n");
}

}  // namespace
}  // namespace bench
}  // namespace sj

int main(int argc, char** argv) {
  uint64_t n = 2000000;
  uint32_t threads = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--n=", 4) == 0) {
      n = std::strtoull(argv[i] + 4, nullptr, 10);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<uint32_t>(std::strtoul(argv[i] + 10, nullptr, 10));
    }
  }
  sj::bench::Run(n, threads);
  return 0;
}
