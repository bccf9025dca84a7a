#include "join/pbsm.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "join/partition_plan.h"
#include "sort/external_sort.h"
#include "sweep/sweep_join.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sj {
namespace {

/// One side of one partition: its own device plus an open writer.
struct PartitionFile {
  std::unique_ptr<Pager> pager;
  std::unique_ptr<StreamWriter<RectF>> writer;
  StreamRange range;
};

// Partition writer flush blocks come from the PartitionMap: the paper's
// small constant (4 pages — one writer stays open per partition and
// side, so 512 KB blocks would blow the memory budget for large
// partition counts) on the fixed path, the plan-budgeted size on the
// adaptive path.

/// Error-path unwinding: declares every still-open writer dead so the
/// destructors do not abort mid-return.
void AbandonAll(std::vector<PartitionFile>* files) {
  for (PartitionFile& f : *files) {
    if (f.writer != nullptr) f.writer->Abandon();
  }
}

Status DistributeInput(const DatasetRef& input, const PartitionMap& grid,
                       std::vector<PartitionFile>* files) {
  StreamReader<RectF> reader(input.range.pager, input.range.first_page,
                             input.range.count);
  std::vector<uint32_t> parts;
  while (std::optional<RectF> r = reader.Next()) {
    grid.PartitionsOf(*r, &parts);
    for (uint32_t p : parts) (*files)[p].writer->Append(*r);
  }
  // Finish every writer even when one fails (abandoning the rest), so no
  // open writer outlives this function on the error path.
  Status status;
  for (PartitionFile& f : *files) {
    const PageId first = f.writer->first_page();
    if (status.ok()) {
      Result<uint64_t> n = f.writer->Finish();
      if (n.ok()) {
        f.range = StreamRange{f.pager.get(), first, *n};
      } else {
        status = n.status();
      }
    } else {
      f.writer->Abandon();
    }
    f.writer.reset();
  }
  return status;
}

Result<std::vector<PartitionFile>> MakePartitionFiles(StorageFactory* storage,
                                                      DiskModel* disk,
                                                      const char* side,
                                                      uint32_t p,
                                                      uint32_t block_pages) {
  std::vector<PartitionFile> files(p);
  for (uint32_t i = 0; i < p; ++i) {
    Result<std::unique_ptr<Pager>> pager =
        MakePager(storage, disk,
                  std::string("pbsm.") + side + "." + std::to_string(i));
    if (!pager.ok()) {
      AbandonAll(&files);  // Writers already opened for earlier partitions.
      return pager.status();
    }
    files[i].pager = std::move(pager).value();
    files[i].writer = std::make_unique<StreamWriter<RectF>>(
        files[i].pager.get(), block_pages);
  }
  return files;
}

Result<std::vector<RectF>> Drain(const StreamRange& range) {
  std::vector<RectF> out;
  out.reserve(range.count);
  StreamReader<RectF> reader(range.pager, range.first_page, range.count);
  while (std::optional<RectF> r = reader.Next()) out.push_back(*r);
  return out;
}

}  // namespace

Result<JoinStats> PBSMJoin(const DatasetRef& a, const DatasetRef& b,
                           DiskModel* disk, const JoinOptions& options,
                           JoinSink* sink, const GridHistogram* hist_a,
                           const GridHistogram* hist_b,
                           MemoryArbiter* arbiter) {
  const ArbiterScope scope(arbiter, options);
  JoinMeasurement measurement(disk);
  SJ_ASSIGN_OR_RETURN(RectF extent, CombinedExtent(a, b));

  // Partitioning plan. Adaptive: histogram-driven tile tree + weighted
  // bin-packing; missing histograms are built here with one extra scan
  // per side (charged to `disk`, so the pass shows up in the measured
  // stats exactly as the cost model prices it). Fixed: the paper's
  // uniform grid with round-robin assignment, p chosen so an average
  // partition pair fits comfortably in memory.
  std::unique_ptr<PartitionMap> grid_owned;
  if (options.adaptive_partitioning) {
    // Histograms live only as long as planning; they are released before
    // distribution so the writer buffers own the phase's memory. Built
    // histograms sample one block in kPbsmHistogramSampleOneInBlocks
    // (scaled to the exact record count) — the APR-style sampling
    // construction — so the density pass costs a fraction of a scan.
    constexpr uint32_t kSampleOneInBlocks = kPbsmHistogramSampleOneInBlocks;
    std::optional<GridHistogram> built_a, built_b;
    uint32_t res = std::max(1u, options.pbsm_histogram_resolution);
    // Attached histograms are the caller's memory; only on-the-fly
    // builds hold planner-side cells worth granting — and when the
    // grant comes back smaller than the configured resolution's cells,
    // the build resolution derates to fit (coarser planning evidence,
    // never an over-allocation; 16 cells per axis is the floor where a
    // histogram still says anything).
    const size_t builds = (hist_a == nullptr ? size_t{1} : 0) +
                          (hist_b == nullptr ? size_t{1} : 0);
    MemoryGrant histogram_grant;
    if (builds > 0) {
      histogram_grant = scope->AcquireShrinkable(
          grants::kPbsmHistogram,
          builds * res * res * sizeof(uint64_t), /*floor_bytes=*/0);
      const uint32_t fits = static_cast<uint32_t>(std::sqrt(
          static_cast<double>(histogram_grant.bytes() /
                              (builds * sizeof(uint64_t)))));
      res = std::clamp(fits, std::min(16u, res), res);
      histogram_grant.NoteUsage(builds * size_t{res} * res *
                                sizeof(uint64_t));
    }
    if (hist_a == nullptr) {
      auto built = GridHistogram::BuildSampled(a.range, extent, res, res,
                                               kSampleOneInBlocks);
      SJ_RETURN_IF_ERROR(built.status());
      built_a.emplace(std::move(*built));
      hist_a = &*built_a;
    }
    if (hist_b == nullptr) {
      auto built = GridHistogram::BuildSampled(b.range, extent, res, res,
                                               kSampleOneInBlocks);
      SJ_RETURN_IF_ERROR(built.status());
      built_b.emplace(std::move(*built));
      hist_b = &*built_b;
    }
    PartitionPlannerConfig config;
    config.memory_bytes = options.memory_bytes;
    // Splits may go below the histogram resolution (uniform-within-cell
    // estimates still quarter hot blobs geometrically), so the cap only
    // rises with a finer histogram, never falls.
    config.max_resolution = std::max(config.max_resolution, res);
    grid_owned = PartitionPlanner::Plan(extent, *hist_a, *hist_b, config);
  } else {
    const uint64_t total_bytes = (a.count() + b.count()) * sizeof(RectF);
    grid_owned = std::make_unique<FixedGridPartitionMap>(
        extent, options.pbsm_tiles_per_axis,
        PbsmPartitionCount(total_bytes, options.memory_bytes));
  }
  const PartitionMap& grid = *grid_owned;
  const uint32_t p = grid.partitions();

  // Phase 1: distribute both inputs into partition files. The 2p open
  // writers draw their flush blocks from one grant; when the budget
  // cannot cover the map's preferred block size for all of them, the
  // blocks shrink (more, smaller flushes — graceful, never over-budget).
  // The floor (one page per open writer) is capped at the budget: with
  // enormous partition counts even that is irreducible over-use, which
  // then shows up as usage above the grant instead of a granted peak
  // above the budget.
  MemoryGrant writer_grant = scope->AcquireShrinkable(
      grants::kPbsmWriters,
      size_t{2} * p * grid.writer_block_pages() * kPageSize,
      std::min<size_t>(size_t{2} * p * kPageSize, scope->budget()));
  const uint32_t writer_block_pages = static_cast<uint32_t>(std::clamp<size_t>(
      writer_grant.bytes() / (size_t{2} * p * kPageSize), 1,
      grid.writer_block_pages()));
  writer_grant.NoteUsage(size_t{2} * p * writer_block_pages * kPageSize);
  StorageFactory* storage = options.storage.get();
  SJ_ASSIGN_OR_RETURN(
      std::vector<PartitionFile> files_a,
      MakePartitionFiles(storage, disk, "a", p, writer_block_pages));
  Result<std::vector<PartitionFile>> made_b =
      MakePartitionFiles(storage, disk, "b", p, writer_block_pages);
  if (!made_b.ok()) {
    AbandonAll(&files_a);
    return made_b.status();
  }
  std::vector<PartitionFile> files_b = std::move(made_b).value();
  {
    const Status da = DistributeInput(a, grid, &files_a);
    if (!da.ok()) {
      AbandonAll(&files_b);  // DistributeInput settled only side a.
      return da;
    }
  }
  SJ_RETURN_IF_ERROR(DistributeInput(b, grid, &files_b));
  writer_grant.Release();

  // Phase 2: join each partition with a plane sweep, suppressing
  // cross-partition duplicates via the reference-point test. Partition
  // pairs are independent, so each one is a task: its partition files are
  // re-homed onto a private DiskModel shard and its results buffered in a
  // private sink. A shard starts from fresh disk state, so its modeled
  // I/O depends only on the task's own request sequence — never on which
  // thread ran it or what ran concurrently — and the merged stats and
  // output below are identical for every options.num_threads.
  struct PartitionTask {
    std::unique_ptr<DiskModel> disk;
    /// Serial-equivalent memory scope (one partition pair at a time on
    /// the paper's machine); folded as a max afterwards.
    std::unique_ptr<MemoryArbiter> memory;
    std::unique_ptr<Pager> pager_a, pager_b;
    StreamRange range_a, range_b;
    CollectingSink sink;
    uint64_t output = 0;
    size_t max_sweep_bytes = 0;
    bool strips_collapsed = false;
    uint64_t part_bytes = 0;
    bool overflowed = false;
    double cpu_seconds = 0;
    SortStats sort_stats;
  };
  // Matches ParallelFor's inline condition: when tasks run one after
  // another on this thread, pairs stream straight to the caller's sink
  // (in the same partition order the pooled merge below replays them),
  // so serial runs keep O(1) result buffering.
  const bool pooled = options.num_threads > 1 && p > 1;
  std::vector<PartitionTask> tasks(p);
  // The per-task budget is the partition-phase budget the planner sized
  // partitions for (the raw knob, not the query-floor-clamped budget):
  // a pair above it overflows exactly as the partition count formula
  // assumed, also for direct callers below kMinMemoryBytes.
  const size_t partition_budget =
      std::max(options.memory_bytes, RunLayout::kMinSortMemoryBytes);
  for (uint32_t i = 0; i < p; ++i) {
    PartitionTask& t = tasks[i];
    t.disk = std::make_unique<DiskModel>(disk->machine());
    t.memory = std::make_unique<MemoryArbiter>(partition_budget,
                                               scope->strict());
    t.pager_a = RehomePager(std::move(files_a[i].pager), t.disk.get());
    t.pager_b = RehomePager(std::move(files_b[i].pager), t.disk.get());
    t.range_a = StreamRange{t.pager_a.get(), files_a[i].range.first_page,
                            files_a[i].range.count};
    t.range_b = StreamRange{t.pager_b.get(), files_b[i].range.first_page,
                            files_b[i].range.count};
  }

  SJ_RETURN_IF_ERROR(ParallelFor(
      options.worker_pool, options.num_threads, p, [&](uint64_t i) -> Status {
        PartitionTask& t = tasks[i];
        ThreadCpuTimer cpu;
        JoinSink* out = pooled ? static_cast<JoinSink*>(&t.sink) : sink;
        auto emit = [&](const RectF& ra, const RectF& rb) {
          if (grid.ReferencePartition(ra, rb) == i) {
            out->Emit(ra.id, rb.id);
            t.output++;
          }
        };
        SweepRunStats sweep_stats;
        t.part_bytes = (t.range_a.count + t.range_b.count) * sizeof(RectF);
        // The partition pair's load is a grant; denial IS the overflow
        // signal (previously an ad-hoc comparison against the raw knob).
        Result<MemoryGrant> load =
            t.memory->Acquire(grants::kPbsmPartition, t.part_bytes);
        if (load.ok()) {
          SJ_ASSIGN_OR_RETURN(std::vector<RectF> ra, Drain(t.range_a));
          SJ_ASSIGN_OR_RETURN(std::vector<RectF> rb, Drain(t.range_b));
          std::sort(ra.begin(), ra.end(), OrderByYLo());
          std::sort(rb.begin(), rb.end(), OrderByYLo());
          VectorRectSource sa(&ra), sb(&rb);
          sweep_stats =
              SweepJoinWithKind(options.partition_sweep, extent,
                                options.striped_strips, sa, sb, emit);
          load->NoteUsage(t.part_bytes);
          // The deduplicating sweep may double-count in sweep_stats; the
          // sink's pair count is authoritative.
        } else {
          // Overflow fallback: external sort this partition and sweep the
          // sorted streams (grant-governed through the task's arbiter).
          t.overflowed = true;
          SJ_ASSIGN_OR_RETURN(
              std::unique_ptr<Pager> scratch,
              MakePager(options.storage.get(), t.disk.get(),
                        "pbsm.overflow." + std::to_string(i)));
          // Partitions are the parallel unit; their overflow sorts stay
          // single-threaded but keep the fan-in knob.
          SortConfig overflow_sort = SortConfigOf(options);
          overflow_sort.threads = 1;
          SJ_ASSIGN_OR_RETURN(
              StreamRange sa_range,
              SortRectsByYLo(t.range_a, scratch.get(), scratch.get(),
                             options.memory_bytes / 2, t.memory.get(),
                             overflow_sort, &t.sort_stats));
          SJ_ASSIGN_OR_RETURN(
              StreamRange sb_range,
              SortRectsByYLo(t.range_b, scratch.get(), scratch.get(),
                             options.memory_bytes / 2, t.memory.get(),
                             overflow_sort, &t.sort_stats));
          MemoryGrant sweep_grant = t.memory->AcquireShrinkable(
              grants::kSweep, t.part_bytes, /*floor_bytes=*/0);
          StreamReader<RectF> reader_a(sa_range.pager, sa_range.first_page,
                                       sa_range.count);
          StreamReader<RectF> reader_b(sb_range.pager, sb_range.first_page,
                                       sb_range.count);
          sweep_stats = SweepJoinWithKind(options.partition_sweep, extent,
                                          options.striped_strips, reader_a,
                                          reader_b, emit);
          sweep_grant.NoteUsage(sweep_stats.max_structure_bytes);
        }
        t.max_sweep_bytes = sweep_stats.max_structure_bytes;
        t.strips_collapsed = sweep_stats.strips_collapsed;
        t.cpu_seconds = cpu.Elapsed();
        return Status::OK();
      }));

  // Deterministic merge, in partition order.
  uint64_t output = 0;
  size_t max_sweep = 0;
  size_t max_partition_bytes = 0;
  uint32_t overflowed = 0;
  bool strips_collapsed = false;
  double worker_cpu = 0;
  DiskStats shard_disk;
  SortStats folded_sort;
  for (const PartitionTask& t : tasks) {
    folded_sort.Fold(t.sort_stats);
    if (pooled) {
      for (const IdPair& pair : t.sink.pairs()) sink->Emit(pair.a, pair.b);
    }
    output += t.output;
    max_sweep = std::max(max_sweep, t.max_sweep_bytes);
    max_partition_bytes =
        std::max<size_t>(max_partition_bytes, t.part_bytes);
    if (t.overflowed) overflowed++;
    strips_collapsed = strips_collapsed || t.strips_collapsed;
    worker_cpu += t.cpu_seconds;
    shard_disk += t.disk->stats();
    scope->FoldChild(*t.memory);
  }

  JoinStats stats = measurement.Finish();
  stats.disk += shard_disk;
  // Inline execution already ran on the measured thread; only pool
  // workers' CPU needs adding.
  if (pooled) stats.host_cpu_seconds += worker_cpu;
  stats.output_count = output;
  stats.max_sweep_bytes = max_sweep;
  stats.sweep_strips_collapsed = strips_collapsed;
  stats.partitions_total = p;
  stats.FoldSortStats(folded_sort);
  stats.partitions_overflowed = overflowed;
  stats.max_partition_bytes = max_partition_bytes;
  stats.pbsm_tiles_x = grid.tiles_x();
  stats.pbsm_tiles_y = grid.tiles_y();
  stats.pbsm_leaf_tiles = grid.leaf_tiles();
  stats.pbsm_split_tiles = grid.split_tiles();
  stats.pbsm_adaptive = grid.adaptive();
  FillMemoryStats(*scope, &stats);
  return stats;
}

}  // namespace sj
