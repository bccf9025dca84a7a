#ifndef USJ_JOIN_PBSM_H_
#define USJ_JOIN_PBSM_H_

#include <memory>

#include "histogram/grid_histogram.h"
#include "io/disk_model.h"
#include "join/join_types.h"
#include "join/partition_plan.h"
#include "join/partitioned.h"
#include "util/result.h"

namespace sj {

/// Cells per axis of the histogram PBSM builds when adaptive partitioning
/// has none attached. Finer than the paper's tile grids (the planner
/// splits *tiles* from cell-level evidence, and below cell resolution
/// estimates degrade to uniform-within-cell, so resolution directly
/// bounds how well packing predicts hot-blob partition contents); 256^2
/// cells cost 512 KB of planner state.
inline constexpr uint32_t kPbsmHistogramResolution = 256;

/// PBSM's grant requests with histograms `hist_a` and `hist_b` attached
/// (either may be null): the cells of the `builds` histograms adaptive
/// partitioning builds, and each partition unit's budget, which caps the
/// pair a unit loads (a pair's load, and an overflowing pair's sorts and
/// sweep, follow its data).
struct PBSMGrants {
  size_t builds = 0;
  GrantRequest histogram;
  size_t partition_budget = 0;
};
PBSMGrants PBSMGrantRequests(const JoinOptions& options,
                             const GridHistogram* hist_a,
                             const GridHistogram* hist_b);

/// The partitions of PBSMJoin's map over `records` records when no
/// attached histogram shapes it: the fixed grid's, or the adaptive
/// planner's over the histograms PBSMJoin builds, which total the records
/// (its cap at the leaf tiles binds only beyond 4,096 partitions).
uint32_t PbsmPartitions(uint64_t records, const JoinOptions& options);

/// The partition map PBSMJoin distributes `records` records over
/// `extent` with: the adaptive planner's over `hist_a` and `hist_b`
/// (attached, or built at `resolution` cells per axis), else the paper's
/// fixed grid, which reads no histogram.
std::unique_ptr<PartitionMap> PbsmPartitionMap(
    const RectF& extent, uint64_t records, const GridHistogram* hist_a,
    const GridHistogram* hist_b, uint32_t resolution,
    const JoinOptions& options);

/// The distribution writers' flush blocks, one writer per partition and
/// input. The fixed grid keeps the paper's 4-page blocks; the adaptive
/// plan spreads most of the budget over them (PbsmWriterBlockPages), as
/// its balanced partitions' interleaved flushes defeat the drive's
/// sequential-stream detection.
WriterBlocks PbsmWriters(uint32_t partitions, const JoinOptions& options);

/// Partition-Based Spatial Merge Join (Patel & DeWitt, SIGMOD'96) — §3.2.
///
/// The space is cut into tiles, tiles are assigned to p partitions, and
/// each rectangle is replicated into every partition one of its tiles
/// maps to. Each partition pair then runs PartitionedJoin's one unit
/// body (SweepUnit), as SSSJ's strips do, sweeping with
/// options.partition_sweep (Forward-Sweep by default, following the
/// original).
///
/// Partitioning is pluggable (src/join/partition_plan.h). With
/// options.adaptive_partitioning (the default) the tile grid is sized
/// from a GridHistogram — `hist_a`/`hist_b` when the caller attached
/// them, else histograms built here with one extra scan per side —
/// overfull tiles are split recursively, and tiles are bin-packed onto
/// partitions by weight, so clustered data rarely overflows. With the
/// knob off, the paper's fixed `pbsm_tiles_per_axis`^2 grid with
/// row-major round-robin assignment runs instead, and p is chosen so an
/// average partition pair fits in memory.
///
/// Duplicate suppression uses the reference-point method: a pair (r, s)
/// is reported only in the partition owning the tile that contains the
/// lower corner of r ∩ s, which both r and s necessarily overlap — so
/// the output is exact and duplicate free under either partitioning.
///
/// A partition pair is loaded and sorted in memory under a
/// `pbsm.partition` grant of its bytes. A denied grant (the pair exceeds
/// the budget) overflows the partition: each side is external-sorted
/// into one scratch pager, "pbsm.overflow.<i>", and the sorted streams
/// are swept under a square-root sweep grant. The paper instead tuned
/// the tile count (32^2 -> 128^2) to make overflows rare; paper_repro's
/// §3.2 rows check that on the fixed grid, which the default adaptive
/// planner replaces. Distribution writer blocks are granted too and
/// shrink when the budget cannot cover 2p of the partition map's
/// preferred flush block. `arbiter` is the query's memory governor;
/// nullptr runs against a private one over the options' budget.
Result<JoinStats> PBSMJoin(const DatasetRef& a, const DatasetRef& b,
                           DiskModel* disk, const JoinOptions& options,
                           JoinSink* sink,
                           const GridHistogram* hist_a = nullptr,
                           const GridHistogram* hist_b = nullptr,
                           MemoryArbiter* arbiter = nullptr);

}  // namespace sj

#endif  // USJ_JOIN_PBSM_H_
