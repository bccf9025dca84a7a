#include "join/pbsm.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "join/partition_plan.h"
#include "join/partitioned.h"

namespace sj {

PBSMGrants PBSMGrantRequests(const JoinOptions& options,
                             const GridHistogram* hist_a,
                             const GridHistogram* hist_b) {
  PBSMGrants requests;
  if (options.adaptive_partitioning) {
    requests.builds = (hist_a == nullptr ? 1 : 0) + (hist_b == nullptr ? 1 : 0);
  }
  if (requests.builds > 0) {
    const uint64_t res = kPbsmHistogramResolution;
    requests.histogram =
        GrantRequest{grants::kPbsmHistogram,
                     requests.builds * res * res * sizeof(uint64_t),
                     /*floor_bytes=*/0};
  }
  // The partition-phase budget the planner sized partitions for (the raw
  // knob, not the query-floor-clamped budget): a pair above it overflows
  // exactly as the partition count formula assumed, also for direct
  // callers below kMinMemoryBytes.
  requests.partition_budget =
      std::max(options.memory_bytes, RunLayout::kMinSortMemoryBytes);
  return requests;
}

uint32_t PbsmPartitions(uint64_t records, const JoinOptions& options) {
  // The adaptive planner packs to its own (higher) fill target; the fixed
  // grid keeps the paper's 0.8 slack.
  const uint64_t bytes = records * sizeof(RectF);
  return options.adaptive_partitioning
             ? PbsmPartitionCount(bytes, options.memory_bytes,
                                  PartitionPlannerConfig().partition_fill)
             : PbsmPartitionCount(bytes, options.memory_bytes);
}

std::unique_ptr<PartitionMap> PbsmPartitionMap(
    const RectF& extent, uint64_t records, const GridHistogram* hist_a,
    const GridHistogram* hist_b, uint32_t resolution,
    const JoinOptions& options) {
  if (!options.adaptive_partitioning) {
    // The paper's uniform grid with round-robin assignment, p chosen so
    // an average partition pair fits comfortably in memory.
    return std::make_unique<FixedGridPartitionMap>(
        extent, options.pbsm_tiles_per_axis, PbsmPartitions(records, options));
  }
  PartitionPlannerConfig config;
  config.memory_bytes = options.memory_bytes;
  // Splits may go below the histogram resolution (uniform-within-cell
  // estimates still quarter hot blobs geometrically), so the cap only
  // rises with a finer histogram, never falls.
  config.max_resolution = std::max(config.max_resolution, resolution);
  return PartitionPlanner::Plan(extent, *hist_a, *hist_b, config);
}

WriterBlocks PbsmWriters(uint32_t partitions, const JoinOptions& options) {
  return WriterBlocks{
      grants::kPbsmWriters, size_t{2} * partitions,
      options.adaptive_partitioning
          ? PbsmWriterBlockPages(options.memory_bytes, partitions)
          : 4};
}

Result<JoinStats> PBSMJoin(const DatasetRef& a, const DatasetRef& b,
                           DiskModel* disk, const JoinOptions& options,
                           JoinSink* sink, const GridHistogram* hist_a,
                           const GridHistogram* hist_b,
                           MemoryArbiter* arbiter) {
  const ArbiterScope scope(arbiter, options);
  JoinMeasurement measurement(disk);
  SJ_ASSIGN_OR_RETURN(RectF extent, CombinedExtent(a, b));
  // Attached histograms are the caller's memory; only on-the-fly builds
  // hold planner-side cells worth granting.
  const PBSMGrants requests = PBSMGrantRequests(options, hist_a, hist_b);

  // Partitioning plan. Adaptive: histogram-driven tile tree + weighted
  // bin-packing; missing histograms are built here with one extra scan
  // per side (charged to `disk`, so the pass shows up in the measured
  // stats exactly as the cost model prices it). Fixed: the paper's
  // uniform grid (PbsmPartitionMap).
  std::unique_ptr<PartitionMap> grid_owned;
  {
    // Histograms live only as long as planning; they are released before
    // distribution so the writer buffers own the phase's memory. Built
    // histograms sample one block in kPbsmHistogramSampleOneInBlocks
    // (scaled to the exact record count) — the APR-style sampling
    // construction — so the density pass costs a fraction of a scan.
    // When the grant comes back smaller than the configured resolution's
    // cells, the build resolution derates to fit (coarser planning
    // evidence, never an over-allocation; 16 cells per axis is the floor
    // where a histogram still says anything).
    const size_t builds = requests.builds;
    std::optional<GridHistogram> built[2];
    const GridHistogram* hist[2] = {hist_a, hist_b};
    uint32_t res = kPbsmHistogramResolution;
    MemoryGrant histogram_grant = scope->AcquireShrinkable(requests.histogram);
    if (builds > 0) {
      const uint32_t fits = static_cast<uint32_t>(std::sqrt(
          static_cast<double>(histogram_grant.bytes() /
                              (builds * sizeof(uint64_t)))));
      res = std::clamp(fits, std::min(16u, res), res);
      histogram_grant.NoteUsage(builds * size_t{res} * res *
                                sizeof(uint64_t));
    }
    for (int side = 0; side < 2; ++side) {
      if (!options.adaptive_partitioning || hist[side] != nullptr) continue;
      SJ_ASSIGN_OR_RETURN(
          GridHistogram h,
          GridHistogram::BuildSampled((side == 0 ? a : b).range, extent, res,
                                      res, kPbsmHistogramSampleOneInBlocks));
      hist[side] = &built[side].emplace(std::move(h));
    }
    grid_owned = PbsmPartitionMap(extent, a.count() + b.count(), hist[0],
                                  hist[1], res, options);
  }
  const PartitionMap& grid = *grid_owned;
  const uint32_t p = grid.partitions();

  // Phase 1: distribute both inputs into partition files, the writers'
  // flush blocks drawn from one grant.
  MemoryGrant writer_grant;
  const uint32_t writer_block_pages =
      PbsmWriters(p, options).Grant(scope.get(), &writer_grant);
  SJ_ASSIGN_OR_RETURN(
      PartitionedJoin join,
      PartitionedJoin::Distribute(
          {a.range, b.range}, p,
          [&grid](const RectF& r, std::vector<uint32_t>* out) {
            grid.PartitionsOf(r, out);
          },
          [](size_t input, uint32_t partition) {
            return std::string("pbsm.") + (input == 0 ? "a" : "b") + "." +
                   std::to_string(partition);
          },
          writer_block_pages, options.storage.get(), disk));
  writer_grant.Release();

  // Phase 2: sweep each partition pair, reporting a pair only in the
  // partition that owns its reference point.
  SJ_ASSIGN_OR_RETURN(
      PartitionedTotals totals,
      join.Run(options, scope.get(), requests.partition_budget, sink,
               [&](uint64_t i, PartitionUnit& unit, JoinSink* out) {
                 return SweepUnit(
                     options, extent, options.partition_sweep,
                     [&grid, i](const RectF& ra, const RectF& rb) {
                       return grid.ReferencePartition(ra, rb) == i;
                     },
                     "pbsm.overflow." + std::to_string(i), unit, out);
               }));

  JoinStats stats = measurement.Finish();
  totals.AddTo(&stats);
  stats.pbsm_tiles_x = grid.tiles_x();
  stats.pbsm_tiles_y = grid.tiles_y();
  stats.pbsm_leaf_tiles = grid.leaf_tiles();
  stats.pbsm_split_tiles = grid.split_tiles();
  stats.pbsm_adaptive = grid.adaptive();
  FillMemoryStats(*scope, &stats);
  return stats;
}

}  // namespace sj
