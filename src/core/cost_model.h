#ifndef USJ_CORE_COST_MODEL_H_
#define USJ_CORE_COST_MODEL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "geometry/rect.h"
#include "io/disk_model.h"
#include "io/machine_model.h"
#include "sort/run_layout.h"

namespace sj {

/// The paper's §6.3 cost model: price a plan in *sequential-read
/// equivalents* so that the sequential/random asymmetry of real disks
/// drives the indexed-vs-non-indexed decision.
///
/// For a one-disk configuration, SSSJ moves each input 3 times reading and
/// 2 times writing, all streamed: 3n + (2n * write_factor) sequential page
/// reads (= 6n with the paper's write_factor 1.5). A PQ traversal reads
/// each touched index page with a random access costing
/// RandomToSequentialReadRatio() sequential reads (~10-11x on the paper's
/// disks). Hence the paper's rule: the index pays off only when the join
/// touches less than ~60 % of it.
class CostModel {
 public:
  explicit CostModel(MachineModel machine) : machine_(machine) {}

  /// Sequential-read equivalents of the passes a streaming sort-and-sweep
  /// makes over each input page: 3 reads plus 2 writes, writes costing
  /// `write_factor` reads. Shared by SSSJSeconds and
  /// IndexBreakEvenFraction — the paper's break-even rule is exactly
  /// "streaming passes vs. the random/sequential read ratio", so the two
  /// must always use the same constant.
  double StreamingPassFactor() const {
    return 3.0 + 2.0 * machine_.write_factor;
  }

  /// Modeled seconds for SSSJ over `pages` total input pages, assuming
  /// the single merge pass of a comfortable memory budget.
  double SSSJSeconds(uint64_t pages) const {
    const double seq = machine_.PageTransferMs(kPageSize) * 1e-3;
    return static_cast<double>(pages) * StreamingPassFactor() * seq;
  }

  /// SSSJ priced at its *granted* sort memory: under a tight budget the
  /// external sort needs extra merge passes (each one more read plus one
  /// more write over the data), which is what shifts the kAuto
  /// streaming-vs-index crossover when memory is scarce. With one merge
  /// pass this equals SSSJSeconds(pages).
  double SSSJSeconds(uint64_t pages, size_t sort_memory_bytes) const {
    const double seq = machine_.PageTransferMs(kPageSize) * 1e-3;
    const double extra =
        static_cast<double>(ExtraMergePasses(pages, sort_memory_bytes)) *
        (1.0 + machine_.write_factor);
    return static_cast<double>(pages) * (StreamingPassFactor() + extra) * seq;
  }

  /// Merge passes beyond the first that sorting `pages` of RectF records
  /// within `sort_memory_bytes` requires (0 in the comfortable regime).
  uint64_t ExtraMergePasses(uint64_t pages, size_t sort_memory_bytes) const {
    const RunLayout layout = RunLayout::For(sort_memory_bytes, sizeof(RectF));
    const uint64_t run_bytes = layout.run_records * sizeof(RectF);
    uint64_t runs = (pages * kPageSize + run_bytes - 1) / run_bytes;
    uint64_t passes = 0;
    while (runs > 1) {
      runs = (runs + layout.fan_in - 1) / layout.fan_in;
      passes++;
    }
    return passes > 0 ? passes - 1 : 0;
  }

  /// Modeled seconds for one sequential scan over `pages` pages — the
  /// histogram-build pass adaptive PBSM partitioning adds per side that
  /// arrives without an attached GridHistogram.
  double HistogramPassSeconds(uint64_t pages) const {
    const double seq = machine_.PageTransferMs(kPageSize) * 1e-3;
    return static_cast<double>(pages) * seq;
  }

  /// Modeled seconds for PBSM over `pages` total input pages with an
  /// average replication factor of `replication` (copies of each page
  /// landing in partition files): one read pass to distribute, the
  /// replicated write, and the replicated read of the partition files —
  /// all streamed. Overflowed partitions add external-sort passes on
  /// top; the planner treats overflow as the exception the adaptive
  /// partitioner makes it.
  double PBSMSeconds(uint64_t pages, double replication) const {
    const double seq = machine_.PageTransferMs(kPageSize) * 1e-3;
    const double passes =
        1.0 + std::max(1.0, replication) * (1.0 + machine_.write_factor);
    return static_cast<double>(pages) * passes * seq;
  }

  /// Modeled seconds for a PQ traversal touching `index_pages` pages.
  double PQSeconds(uint64_t index_pages) const {
    const double rand =
        (machine_.avg_access_ms + machine_.PageTransferMs(kPageSize)) * 1e-3;
    return static_cast<double>(index_pages) * rand;
  }

  /// The break-even fraction f*: using an index that the join touches a
  /// fraction f of is cheaper than streaming-and-sorting iff f < f*.
  /// f* = (3 + 2w) / (random/sequential ratio); ~0.55-0.6 on the paper's
  /// Machine 1, matching the paper's "less than 60 % of the leaf nodes".
  double IndexBreakEvenFraction() const {
    return StreamingPassFactor() /
           machine_.RandomToSequentialReadRatio(kPageSize);
  }

  /// Modeled seconds for the refinement step over `candidates` filter
  /// pairs against feature stores of `pages_a` / `pages_b` geometry
  /// pages, refined in chunks of `chunk_candidates` (the chunk the
  /// executor's "refine.batch" grant affords; see RefineChunkCandidates).
  /// A chunk reads each needed page once but chunks do not share fetches,
  /// so per side the touched pages are bounded by one page per candidate
  /// *and* by one full store scan per chunk; each fetch is priced as a
  /// random single-page read (the candidates of one chunk cluster in y,
  /// not on disk pages).
  double RefineSeconds(uint64_t candidates, uint64_t pages_a,
                       uint64_t pages_b, uint64_t chunk_candidates) const {
    const double rand =
        (machine_.avg_access_ms + machine_.PageTransferMs(kPageSize)) * 1e-3;
    const uint64_t chunk = std::max<uint64_t>(1, chunk_candidates);
    const uint64_t nchunks = (candidates + chunk - 1) / chunk;
    const uint64_t touched = std::min(candidates, nchunks * pages_a) +
                             std::min(candidates, nchunks * pages_b);
    return static_cast<double>(touched) * rand;
  }

  // External-sort CPU terms. Sorting is the one join phase whose CPU
  // scales down with worker threads (run formation parallelizes; the
  // merge stays on the coordinator), so the planner prices it
  // separately: with threads, sort-heavy streaming plans get cheaper and
  // the kAuto streaming-vs-index crossover shifts toward SSSJ.

  /// Comparison cost of the sort pipeline, calibrated against
  /// timed external sorts on the TIGER ladder: one branchy compare plus
  /// the record move it orders.
  static constexpr double kSortNsPerCompare = 4.0;

  /// Modeled seconds of sort CPU for `records` records sorted within
  /// `sort_memory_bytes`, with `threads` workers forming runs.
  /// Formation does N*log2(run_records) compares spread across threads;
  /// each merge pass does N*log2(fan_in) compares (the loser tree's
  /// leaf-to-root path) on the coordinator.
  double SortCpuSeconds(uint64_t records, size_t sort_memory_bytes,
                        uint32_t threads) const {
    if (records == 0) return 0.0;
    const RunLayout layout = RunLayout::For(sort_memory_bytes, sizeof(RectF));
    const double n = static_cast<double>(records);
    const double run = static_cast<double>(
        std::min<uint64_t>(records, layout.run_records));
    const uint64_t runs =
        (records + layout.run_records - 1) / layout.run_records;
    const double form = n * Log2(run) /
                        static_cast<double>(std::max<uint32_t>(1, threads));
    const double merge =
        n * Log2(static_cast<double>(layout.fan_in)) *
        static_cast<double>(RunLayout::MergePasses(runs, layout.fan_in));
    return (form + merge) * kSortNsPerCompare * 1e-9 * machine_.cpu_slowdown;
  }

  // Per-operator terms for pipeline plans (src/op/, PipelineQuery): each
  // prices one physical operator so Explain() can annotate the whole
  // operator tree with the same arithmetic the join terms use.

  /// Modeled seconds for one sequential pass over `pages` — a stream-side
  /// WindowScan or a RectResolver's in-memory load.
  double ScanSeconds(uint64_t pages) const {
    return HistogramPassSeconds(pages);
  }

  /// Modeled seconds for an index-side window query expected to touch
  /// `touched_fraction` of an `index_pages`-page tree: every touched node
  /// is a random single-page read, like a PQ traversal of that fraction.
  double IndexWindowSeconds(uint64_t index_pages,
                            double touched_fraction) const {
    const double f = std::min(1.0, std::max(0.0, touched_fraction));
    return PQSeconds(static_cast<uint64_t>(
        static_cast<double>(index_pages) * f + 0.5));
  }

  /// Modeled seconds for an aggregation grid that spills: `spill_pages`
  /// of (cell, delta) records written once (streamed) and replayed once
  /// per non-resident band.
  double AggregateSpillSeconds(uint64_t spill_pages, uint64_t bands) const {
    const double seq = machine_.PageTransferMs(kPageSize) * 1e-3;
    return static_cast<double>(spill_pages) *
           (machine_.write_factor + static_cast<double>(bands)) * seq;
  }

  /// Modeled seconds for resolving `lookups` join-output ids against a
  /// relation of `pages` MBR pages through an external rect map: the
  /// id-sort build (one streamed read/write pass over the relation) plus
  /// the batched lookups — random single-page reads, bounded by one page
  /// per lookup and by the table size per batch, like RefineSeconds. The
  /// in-memory path costs only the build scan (price with ScanSeconds).
  double RectResolveSeconds(uint64_t lookups, uint64_t pages) const {
    const double seq = machine_.PageTransferMs(kPageSize) * 1e-3;
    const double rand =
        (machine_.avg_access_ms + machine_.PageTransferMs(kPageSize)) * 1e-3;
    const double build = static_cast<double>(pages) *
                         (1.0 + machine_.write_factor) * seq;
    return build + static_cast<double>(std::min(lookups, pages)) * rand;
  }

  const MachineModel& machine() const { return machine_; }

 private:
  static double Log2(double v) { return v > 1.0 ? std::log2(v) : 0.0; }

  MachineModel machine_;
};

}  // namespace sj

#endif  // USJ_CORE_COST_MODEL_H_
