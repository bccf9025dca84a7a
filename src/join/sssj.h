#ifndef USJ_JOIN_SSSJ_H_
#define USJ_JOIN_SSSJ_H_

#include "io/disk_model.h"
#include "join/join_types.h"
#include "join/partitioned.h"
#include "join/sources.h"
#include "util/result.h"

namespace sj {

/// Scalable Sweeping-based Spatial Join (Arge et al., VLDB'98) — §3.1.
///
/// Sorts both inputs by lower y coordinate, then performs one plane sweep
/// over the two sorted sources using the configured interval structure
/// (Striped-Sweep by default, as in the paper, with SweepStrips(N) strips
/// for its N records). Every input kind comes to that one sweep as a
/// prepared sorted source (PrepareSource in join/sources.h), and costs:
///  - a plain stream: an external sort, two sequential read passes, one
///    non-sequential read pass (the merge) and two sequential write
///    passes over the data, excluding output; with
///    JoinOptions::fuse_merge_sweep, and when neither input arrives
///    sorted and each input's runs fit one merge, the merge feeds the
///    sweep directly and one write and one read pass go;
///  - a sorted stream: one sequential read pass, no sort;
///  - resident records (JoinInput::FromSortedRects): no I/O;
///  - a tree: its leaf level read in page order and written out as a
///    plain stream first, outside the join's stats, then as a plain
///    stream.
/// The DiskModel charges all of it from the actual access pattern.
///
/// The interval structures are assumed to fit in memory on the paper's
/// data (Table 3 verifies this by orders of magnitude). Under the memory
/// governor that assumption became enforceable: the sweep acquires a
/// grant bounded by the input size, and when the conservative bound (the
/// whole input could be active at once) exceeds the granted memory the
/// join degrades gracefully to SSSJStripJoin below — the paper's own
/// single-dimension partitioning fallback — instead of over-allocating.
/// The strips read streams, so a resident or tree input is written out
/// for them. A strict arbiter additionally aborts if the sweep
/// structures outgrow their grant at run time.
///
/// Temporary runs and sorted streams are held in pagers made through
/// options.storage on `disk` ("sssj.runs.a/b", "sssj.sorted.a/b"),
/// charged like any other file. `arbiter` is the query's memory
/// governor; nullptr runs against a private one over the options'
/// budget.
Result<JoinStats> SSSJJoin(const JoinInput& a, const JoinInput& b,
                           DiskModel* disk, const JoinOptions& options,
                           JoinSink* sink, MemoryArbiter* arbiter = nullptr);

/// The partitioned fallback of SSSJ for adversarial inputs (§3.1's
/// "partitioning along a single dimension", after Güting & Schilling):
/// when the interval structures of a single sweep would exceed memory —
/// which never happens on the paper's real data — the x-extent is split
/// into `strips` vertical strips, rectangles are distributed (with
/// replication) to every strip they overlap, and each strip runs
/// PartitionedJoin's one unit body (SweepUnit), as PBSM's partitions do.
/// A strip whose records fit the budget loads and sorts them in memory;
/// any other sorts them into one scratch pager ("sssj.strip.scratch").
/// Each strip sweeps its own x-range with options.stream_sweep, at
/// SweepStrips(its records) strips. Duplicates are suppressed by
/// reporting a pair only in the strip containing the left edge of its
/// x-overlap. A strip that sorts costs one extra read+write pass over
/// its records relative to plain SSSJ. SSSJJoin sizes its strips to fit
/// the sweep, not the records, so its strips load only where a
/// pipeline's operators or tables have drained the arbiter.
Result<JoinStats> SSSJStripJoin(const DatasetRef& a, const DatasetRef& b,
                                uint32_t strips, DiskModel* disk,
                                const JoinOptions& options, JoinSink* sink,
                                MemoryArbiter* arbiter = nullptr);

/// Conservative estimate of a plane sweep's peak active-set bytes over
/// `records` inputs: the square-root rule the paper verifies on real
/// data (Table 3), padded by a generous safety factor. Sizes the sweep
/// grant (SSSJGrantRequests) and triggers the strip spill when it
/// exceeds the grantable memory.
size_t EstimateSweepBytes(uint64_t records);

/// SSSJ's grant requests over `records` records under a `memory_bytes`
/// budget: each input's sort takes half of it (the fused merge holds
/// both sorts at once), the sweep EstimateSweepBytes; a strip unit
/// makes them over its own records.
struct SSSJGrants {
  GrantRequest sort;
  GrantRequest sweep;
};
SSSJGrants SSSJGrantRequests(size_t memory_bytes, uint64_t records);

/// The strip fallback's strip count when a `budget_bytes` arbiter grants
/// less than a `sweep_bytes` sweep: enough that one strip's share fits,
/// in [2, 512]; and the flush blocks of its distribution writers.
uint32_t SSSJStripCount(size_t sweep_bytes, size_t budget_bytes);
WriterBlocks SSSJStripWriters(uint32_t strips);

/// Strips for a Striped-Sweep over `records` y-sorted inputs: ceil(2 *
/// sqrt(records)), one strip per rectangle the square-root rule above
/// expects in the active sets (a 365,014-record DISK1-6 overlay holds
/// at most 1,178 at once, 1.95 sqrt(N)), clamped to [1, max_strips].
/// JoinOptions::striped_strips is the cap, so at its default of 1,024
/// every sweep over 262,144 records or more keeps 1,024 strips. More
/// strips than that would be narrower than the rectangles on small
/// inputs, and each insert would copy its rectangle into many of them.
uint32_t SweepStrips(uint64_t records, uint32_t max_strips);

}  // namespace sj

#endif  // USJ_JOIN_SSSJ_H_
