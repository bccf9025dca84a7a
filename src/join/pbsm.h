#ifndef USJ_JOIN_PBSM_H_
#define USJ_JOIN_PBSM_H_

#include "histogram/grid_histogram.h"
#include "io/disk_model.h"
#include "join/join_types.h"
#include "util/result.h"

namespace sj {

/// Cells per axis of the histogram PBSM builds when adaptive partitioning
/// has none attached. Finer than the paper's tile grids (the planner
/// splits *tiles* from cell-level evidence, and below cell resolution
/// estimates degrade to uniform-within-cell, so resolution directly
/// bounds how well packing predicts hot-blob partition contents); 256^2
/// cells cost 512 KB of planner state.
inline constexpr uint32_t kPbsmHistogramResolution = 256;

/// Partition-Based Spatial Merge Join (Patel & DeWitt, SIGMOD'96) — §3.2.
///
/// The space is cut into tiles, tiles are assigned to p partitions, and
/// each rectangle is replicated into every partition one of its tiles
/// maps to. Each partition is then joined in memory with a plane sweep
/// (Forward-Sweep, following the original).
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
/// A partition pair acquires its load as a memory grant; a denied grant
/// (contents exceed the budget) falls back to an external sort +
/// streaming sweep of that partition. The paper instead tuned the tile
/// count (32^2 -> 128^2) to make overflows rare; paper_repro's §3.2 rows
/// check that on the fixed grid, which the default adaptive planner
/// replaces. Distribution writer blocks are granted too and
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
