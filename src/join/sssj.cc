#include "join/sssj.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "io/stream.h"
#include "join/partitioned.h"
#include "join/strip_map.h"
#include "sort/external_sort.h"
#include "sweep/sweep_join.h"

namespace sj {

size_t EstimateSweepBytes(uint64_t records) {
  return static_cast<size_t>(
             16.0 * std::sqrt(static_cast<double>(records)) + 64.0) *
         sizeof(RectF);
}

uint32_t SweepStrips(uint64_t records, uint32_t max_strips) {
  // The rounded root is exact enough for ceil() below 2^49 records.
  const double strips =
      std::ceil(2.0 * std::sqrt(static_cast<double>(records)));
  return static_cast<uint32_t>(std::clamp(
      strips, 1.0, static_cast<double>(std::max<uint32_t>(1, max_strips))));
}

SSSJGrants SSSJGrantRequests(size_t memory_bytes, uint64_t records) {
  return SSSJGrants{SortGrantRequest(memory_bytes / 2),
                    GrantRequest{grants::kSweep, EstimateSweepBytes(records),
                                 /*floor_bytes=*/0}};
}

uint32_t SSSJStripCount(size_t sweep_bytes, size_t budget_bytes) {
  const size_t budget = std::max<size_t>(1, budget_bytes);
  return static_cast<uint32_t>(
      std::clamp<uint64_t>((2 * sweep_bytes + budget - 1) / budget, 2, 512));
}

WriterBlocks SSSJStripWriters(uint32_t strips) {
  return WriterBlocks{grants::kStripWriters, size_t{2} * strips, 4};
}

namespace {

/// SSSJ's fused merge (JoinOptions::fuse_merge_sweep): both inputs form
/// their runs under sorters alive together, and each input's runs merge
/// straight into the sweep, which saves one write and one read pass per
/// input. Only when each input's runs fit one merge pass; otherwise it
/// returns false having read and written nothing, and the join
/// materializes its sorts.
Result<bool> FuseMerges(const JoinInput (&inputs)[2], size_t sort_bytes,
                        DiskModel* disk, const JoinOptions& options,
                        MemoryArbiter* arbiter,
                        PreparedSource (&sources)[2]) {
  StorageFactory* storage = options.storage.get();
  SJ_ASSIGN_OR_RETURN(auto runs_a, MakePager(storage, disk, "sssj.runs.a"));
  SJ_ASSIGN_OR_RETURN(auto runs_b, MakePager(storage, disk, "sssj.runs.b"));
  std::vector<StreamRange> ra, rb;
  {
    // The sorters' run grants are released before the sweep acquires its
    // own; the merge readers keep only their small blocks.
    const SortConfig config = SortConfigOf(options);
    ExternalSorter<RectF, OrderByYLo> sorter_a(sort_bytes, runs_a.get(),
                                               OrderByYLo(), arbiter, config);
    ExternalSorter<RectF, OrderByYLo> sorter_b(sort_bytes, runs_b.get(),
                                               OrderByYLo(), arbiter, config);
    // Run formation cuts an input into ceil(count / RunCapacity()) runs;
    // the fused merge reads them all at once.
    auto one_pass = [](const ExternalSorter<RectF, OrderByYLo>& sorter,
                       uint64_t count) {
      const uint64_t cap = sorter.RunCapacity();
      return (count + cap - 1) / cap <= sorter.MaxFanIn();
    };
    if (!one_pass(sorter_a, inputs[0].count()) ||
        !one_pass(sorter_b, inputs[1].count())) {
      return false;
    }
    SJ_RETURN_IF_ERROR(sorter_a.FormRuns(inputs[0].stream().range, &ra));
    SJ_RETURN_IF_ERROR(sorter_b.FormRuns(inputs[1].stream().range, &rb));
    sources[0].sort = sorter_a.stats();
    sources[1].sort = sorter_b.stats();
  }
  sources[0].source = std::make_unique<MergedRunsSource>(std::move(ra));
  sources[1].source = std::make_unique<MergedRunsSource>(std::move(rb));
  sources[0].scratch = std::move(runs_a);
  sources[1].scratch = std::move(runs_b);
  return true;
}

}  // namespace

Result<JoinStats> SSSJJoin(const JoinInput& a, const JoinInput& b,
                           DiskModel* disk, const JoinOptions& options,
                           JoinSink* sink, MemoryArbiter* arbiter) {
  const ArbiterScope scope(arbiter, options);
  const uint64_t records = a.count() + b.count();
  const SSSJGrants requests = SSSJGrantRequests(options.memory_bytes, records);

  // Spill decision before any I/O: size the sweep grant by the paper's
  // square-root rule (Table 3 verifies the active sets stay near sqrt(N)
  // on real data), padded with a safety factor. When even that estimate
  // exceeds what the arbiter can grant, degrade to the paper's
  // single-dimension partitioning fallback with enough strips that one
  // strip's share fits — instead of over-allocating and hoping. Inputs
  // whose active sets defeat the estimate at run time are recorded in
  // the usage high-water marks (and abort a strict arbiter).
  MemoryGrant probe = scope->AcquireShrinkable(requests.sweep);
  const bool strips = probe.bytes() < requests.sweep.bytes;
  // Released so the sort phase gets the whole budget (both sorters at
  // memory/2, also in the fused path where they are alive together); the
  // sweep re-acquires its share once the sorters are gone.
  probe.Release();

  // SSSJ reads a tree's leaf level as a plain stream, and the strips read
  // only streams: those sides are written out first, outside the join's
  // measurement.
  JoinInput inputs[2] = {a, b};
  std::unique_ptr<Pager> extracted[2];
  for (int i = 0; i < 2; ++i) {
    if (inputs[i].indexed() || (strips && inputs[i].resident())) {
      SJ_ASSIGN_OR_RETURN(
          const DatasetRef stream,
          ExtractStream(inputs[i], options.storage.get(), disk, &extracted[i]));
      inputs[i] = JoinInput::FromStream(stream);
    }
  }
  if (strips) {
    return SSSJStripJoin(
        inputs[0].stream(), inputs[1].stream(),
        SSSJStripCount(requests.sweep.bytes, scope->budget()), disk, options,
        sink, scope.get());
  }

  JoinMeasurement measurement(disk);
  // Both extents before any sort (a stream without one is scanned).
  SJ_ASSIGN_OR_RETURN(RectF extent, EnsureExtent(inputs[0]));
  SJ_ASSIGN_OR_RETURN(const RectF extent_b, EnsureExtent(inputs[1]));
  extent.ExtendTo(extent_b);

  // One sorted source per input: the fused merge when it applies, else
  // each input prepared on its own, in the paper's TPIE-like per-input
  // scratch streams.
  PreparedSource sources[2];
  bool fused = false;
  if (options.fuse_merge_sweep && !inputs[0].sorted() &&
      !inputs[1].sorted()) {
    SJ_ASSIGN_OR_RETURN(fused, FuseMerges(inputs, requests.sort.bytes, disk,
                                          options, scope.get(), sources));
  }
  for (int i = 0; i < 2 && !fused; ++i) {
    const std::string side = i == 0 ? "a" : "b";
    SJ_ASSIGN_OR_RETURN(
        sources[i],
        PrepareSource(inputs[i],
                      SourceSort{requests.sort.bytes, "sssj.runs." + side,
                                 "sssj.sorted." + side},
                      disk, options, scope.get()));
  }

  MemoryGrant sweep_grant = scope->AcquireShrinkable(requests.sweep);
  auto emit = [sink](const RectF& ra, const RectF& rb) {
    sink->Emit(ra.id, rb.id);
  };
  const SweepRunStats sweep = SweepJoinWithKind(
      options.stream_sweep, extent,
      SweepStrips(records, options.striped_strips), *sources[0].source,
      *sources[1].source, emit);
  SJ_RETURN_IF_ERROR(
      FirstReadError(std::array{sources[0].source.get(),
                                sources[1].source.get()}));
  sweep_grant.NoteUsage(sweep.max_structure_bytes);

  JoinStats stats = measurement.Finish();
  stats.output_count = sweep.output_count;
  stats.max_sweep_bytes = sweep.max_structure_bytes;
  stats.sweep_strips = sweep.strips;
  stats.sweep_strips_collapsed = sweep.strips_collapsed;
  stats.FoldSortStats(sources[0].sort);
  stats.FoldSortStats(sources[1].sort);
  FillMemoryStats(*scope, &stats);
  return stats;
}

Result<JoinStats> SSSJStripJoin(const DatasetRef& a, const DatasetRef& b,
                                uint32_t strips, DiskModel* disk,
                                const JoinOptions& options, JoinSink* sink,
                                MemoryArbiter* arbiter) {
  const ArbiterScope scope(arbiter, options);
  JoinMeasurement measurement(disk);
  SJ_ASSIGN_OR_RETURN(RectF extent, CombinedExtent(a, b));
  const StripMap map(extent, strips);

  MemoryGrant writer_grant;
  const uint32_t writer_block_pages =
      SSSJStripWriters(map.strips()).Grant(scope.get(), &writer_grant);
  SJ_ASSIGN_OR_RETURN(
      PartitionedJoin join,
      PartitionedJoin::Distribute(
          {a.range, b.range}, map.strips(),
          [&map](const RectF& r, std::vector<uint32_t>* out) {
            map.StripsOf(r, out);
          },
          [](size_t input, uint32_t strip) {
            return std::string("sssj.strip.") + (input == 0 ? "a" : "b") +
                   "." + std::to_string(strip);
          },
          writer_block_pages, options.storage.get(), disk));
  writer_grant.Release();

  // Each strip runs with the full budget, as if alone, and sweeps its
  // own slice of the extent; rectangles reaching past the slice land in
  // its boundary strips.
  SJ_ASSIGN_OR_RETURN(
      PartitionedTotals totals,
      join.Run(options, scope.get(), scope->budget(), sink,
               [&](uint64_t s, PartitionUnit& unit, JoinSink* out) {
                 const uint32_t strip = static_cast<uint32_t>(s);
                 return SweepUnit(
                     options, map.Strip(strip, extent), options.stream_sweep,
                     // The strip owning the overlap's left edge.
                     [&map, strip](const RectF& ra, const RectF& rb) {
                       return map.StripOf(std::max(ra.xlo, rb.xlo)) == strip;
                     },
                     "sssj.strip.scratch", unit, out);
               }));

  JoinStats stats = measurement.Finish();
  totals.AddTo(&stats);
  FillMemoryStats(*scope, &stats);
  return stats;
}

}  // namespace sj
