#include "join/sssj.h"

#include <cmath>
#include <memory>

#include "io/stream.h"
#include "join/strip_map.h"
#include "sort/external_sort.h"
#include "sweep/sweep_join.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sj {

size_t EstimateSweepBytes(uint64_t records) {
  return static_cast<size_t>(
             16.0 * std::sqrt(static_cast<double>(records)) + 64.0) *
         sizeof(RectF);
}

Result<JoinStats> SSSJJoin(const DatasetRef& a, const DatasetRef& b,
                           DiskModel* disk, const JoinOptions& options,
                           JoinSink* sink, MemoryArbiter* arbiter) {
  const ArbiterScope scope(arbiter, options);

  // Spill decision before any I/O: size the sweep grant by the paper's
  // square-root rule (Table 3 verifies the active sets stay near sqrt(N)
  // on real data), padded with a safety factor. When even that estimate
  // exceeds what the arbiter can grant, degrade to the paper's
  // single-dimension partitioning fallback with enough strips that one
  // strip's share fits — instead of over-allocating and hoping. Inputs
  // whose active sets defeat the estimate at run time are recorded in
  // the usage high-water marks (and abort a strict arbiter).
  const uint64_t est_sweep_bytes = EstimateSweepBytes(a.count() + b.count());
  {
    MemoryGrant probe = scope->AcquireShrinkable(grants::kSweep,
                                                 est_sweep_bytes,
                                                 /*floor_bytes=*/0);
    if (probe.bytes() < est_sweep_bytes) {
      probe.Release();
      const size_t budget = std::max<size_t>(1, scope->budget());
      const uint32_t strips = static_cast<uint32_t>(std::clamp<uint64_t>(
          (2 * est_sweep_bytes + budget - 1) / budget, 2, 512));
      return SSSJStripJoin(a, b, strips, disk, options, sink, scope.get());
    }
    // Released here so the sort phase gets the whole budget (both
    // sorters at memory/2, also in the fused path where they are alive
    // together); the sweep re-acquires its share once the sorters are
    // gone.
  }

  JoinMeasurement measurement(disk);
  SJ_ASSIGN_OR_RETURN(RectF extent, CombinedExtent(a, b));
  StorageFactory* storage = options.storage.get();
  const SortConfig sort_config = SortConfigOf(options);
  SortStats sort_stats;

  // Per-input scratch devices for runs and sorted output, mirroring the
  // paper's TPIE temporary streams.
  SJ_ASSIGN_OR_RETURN(auto runs_a, MakePager(storage, disk, "sssj.runs.a"));
  SJ_ASSIGN_OR_RETURN(auto runs_b, MakePager(storage, disk, "sssj.runs.b"));

  SweepRunStats sweep_stats;
  auto emit = [sink](const RectF& ra, const RectF& rb) {
    sink->Emit(ra.id, rb.id);
  };

  // Ablation: merge the runs straight into the sweep. Saves one write
  // and one read pass per input, but only when each input's runs fit one
  // merge pass; otherwise the join materializes the sorted streams below.
  bool fused = false;
  if (options.fuse_merge_sweep) {
    // The sorters' run grants are released before the sweep acquires its
    // own; the merge readers keep only their small blocks.
    const size_t half = options.memory_bytes / 2;
    std::vector<StreamRange> ra, rb;
    {
      ExternalSorter<RectF, OrderByYLo> sorter_a(half, runs_a.get(),
                                                 OrderByYLo(), scope.get(),
                                                 sort_config);
      ExternalSorter<RectF, OrderByYLo> sorter_b(half, runs_b.get(),
                                                 OrderByYLo(), scope.get(),
                                                 sort_config);
      // Run formation cuts an input into ceil(count / RunCapacity())
      // runs; the fused merge reads them all at once.
      auto one_pass = [](const ExternalSorter<RectF, OrderByYLo>& sorter,
                         uint64_t count) {
        const uint64_t cap = sorter.RunCapacity();
        return (count + cap - 1) / cap <= sorter.MaxFanIn();
      };
      fused = one_pass(sorter_a, a.count()) && one_pass(sorter_b, b.count());
      if (fused) {
        SJ_RETURN_IF_ERROR(sorter_a.FormRuns(a.range, &ra));
        SJ_RETURN_IF_ERROR(sorter_b.FormRuns(b.range, &rb));
        sort_stats.Fold(sorter_a.stats());
        sort_stats.Fold(sorter_b.stats());
      }
    }
    if (fused) {
      MemoryGrant sweep_grant = scope->AcquireShrinkable(
          grants::kSweep, est_sweep_bytes, /*floor_bytes=*/0);
      MergingReader<RectF, OrderByYLo> source_a(std::move(ra),
                                                /*block_pages=*/8);
      MergingReader<RectF, OrderByYLo> source_b(std::move(rb),
                                                /*block_pages=*/8);
      sweep_stats = SweepJoinWithKind(options.stream_sweep, extent,
                                      options.striped_strips, source_a,
                                      source_b, emit);
      sweep_grant.NoteUsage(sweep_stats.max_structure_bytes);
    }
  }
  if (!fused) {
    SJ_ASSIGN_OR_RETURN(auto sorted_a,
                        MakePager(storage, disk, "sssj.sorted.a"));
    SJ_ASSIGN_OR_RETURN(auto sorted_b,
                        MakePager(storage, disk, "sssj.sorted.b"));
    SJ_ASSIGN_OR_RETURN(
        StreamRange sa,
        SortRectsByYLo(a.range, runs_a.get(), sorted_a.get(),
                       options.memory_bytes / 2, scope.get(), sort_config,
                       &sort_stats));
    SJ_ASSIGN_OR_RETURN(
        StreamRange sb,
        SortRectsByYLo(b.range, runs_b.get(), sorted_b.get(),
                       options.memory_bytes / 2, scope.get(), sort_config,
                       &sort_stats));
    MemoryGrant sweep_grant = scope->AcquireShrinkable(
        grants::kSweep, est_sweep_bytes, /*floor_bytes=*/0);
    StreamReader<RectF> source_a(sa.pager, sa.first_page, sa.count);
    StreamReader<RectF> source_b(sb.pager, sb.first_page, sb.count);
    sweep_stats =
        SweepJoinWithKind(options.stream_sweep, extent, options.striped_strips,
                          source_a, source_b, emit);
    sweep_grant.NoteUsage(sweep_stats.max_structure_bytes);
  }

  JoinStats stats = measurement.Finish();
  stats.output_count = sweep_stats.output_count;
  stats.max_sweep_bytes = sweep_stats.max_structure_bytes;
  stats.sweep_strips_collapsed = sweep_stats.strips_collapsed;
  stats.FoldSortStats(sort_stats);
  FillMemoryStats(*scope, &stats);
  return stats;
}

namespace {

struct StripFile {
  std::unique_ptr<Pager> pager;
  std::unique_ptr<StreamWriter<RectF>> writer;
  StreamRange range;
};

/// Error-path unwinding: declares every still-open strip writer dead so
/// their destructors do not abort when a sibling operation failed.
void AbandonAll(std::vector<StripFile>* files) {
  for (StripFile& f : *files) {
    if (f.writer != nullptr) f.writer->Abandon();
  }
}

Status DistributeToStrips(const DatasetRef& input, const StripMap& map,
                          std::vector<StripFile>* files) {
  StreamReader<RectF> reader(input.range.pager, input.range.first_page,
                             input.range.count);
  while (std::optional<RectF> r = reader.Next()) {
    const uint32_t s0 = map.StripOf(r->xlo);
    const uint32_t s1 = map.StripOf(r->xhi);
    for (uint32_t s = s0; s <= s1; ++s) (*files)[s].writer->Append(*r);
  }
  // Finish every writer even when one fails (Finish marks the stream
  // finished on error too), then surface the first failure.
  Status first_error = Status::OK();
  for (StripFile& f : *files) {
    const PageId first = f.writer->first_page();
    Result<uint64_t> n = f.writer->Finish();
    if (n.ok()) {
      f.range = StreamRange{f.pager.get(), first, n.value()};
    } else if (first_error.ok()) {
      first_error = n.status();
    }
    f.writer.reset();
  }
  return first_error;
}

}  // namespace

Result<JoinStats> SSSJStripJoin(const DatasetRef& a, const DatasetRef& b,
                                uint32_t strips, DiskModel* disk,
                                const JoinOptions& options, JoinSink* sink,
                                MemoryArbiter* arbiter) {
  const ArbiterScope scope(arbiter, options);
  JoinMeasurement measurement(disk);
  SJ_ASSIGN_OR_RETURN(RectF extent, CombinedExtent(a, b));
  const StripMap map(extent, strips);

  // One writer per strip and side stays open during distribution; the
  // 4-page flush blocks shrink when the grant cannot cover all of them.
  MemoryGrant writer_grant = scope->AcquireShrinkable(
      grants::kStripWriters,
      size_t{2} * map.strips() * 4 * kPageSize,
      std::min<size_t>(size_t{2} * map.strips() * kPageSize,
                       scope->budget()));
  const uint32_t writer_block_pages = static_cast<uint32_t>(std::clamp<size_t>(
      writer_grant.bytes() / (size_t{2} * map.strips() * kPageSize), 1, 4));
  writer_grant.NoteUsage(size_t{2} * map.strips() * writer_block_pages *
                         kPageSize);
  StorageFactory* storage = options.storage.get();
  auto make_files = [storage, disk, writer_block_pages](
                        const char* side,
                        uint32_t k) -> Result<std::vector<StripFile>> {
    std::vector<StripFile> files(k);
    for (uint32_t i = 0; i < k; ++i) {
      Result<std::unique_ptr<Pager>> pager = MakePager(
          storage, disk,
          std::string("sssj.strip.") + side + "." + std::to_string(i));
      if (!pager.ok()) {
        AbandonAll(&files);  // Strips 0..i-1 hold open writers.
        return pager.status();
      }
      files[i].pager = std::move(pager).value();
      files[i].writer =
          std::make_unique<StreamWriter<RectF>>(files[i].pager.get(),
                                                writer_block_pages);
    }
    return files;
  };
  SJ_ASSIGN_OR_RETURN(std::vector<StripFile> files_a,
                      make_files("a", map.strips()));
  Result<std::vector<StripFile>> files_b_or = make_files("b", map.strips());
  if (!files_b_or.ok()) {
    AbandonAll(&files_a);
    return files_b_or.status();
  }
  std::vector<StripFile> files_b = std::move(files_b_or).value();
  Status distribute_a = DistributeToStrips(a, map, &files_a);
  if (!distribute_a.ok()) {
    AbandonAll(&files_b);
    return distribute_a;
  }
  SJ_RETURN_IF_ERROR(DistributeToStrips(b, map, &files_b));
  writer_grant.Release();

  // Strips are independent: each one sorts and sweeps against a private
  // DiskModel shard and buffers its pairs in a private sink, merged in
  // strip order below. Output and modeled I/O are therefore identical for
  // every options.num_threads (see the PBSM phase-2 comment).
  struct StripTask {
    std::unique_ptr<DiskModel> disk;
    /// Serial-equivalent memory scope: each strip is one work unit with
    /// the full budget; peaks are folded as a max afterwards.
    std::unique_ptr<MemoryArbiter> memory;
    std::unique_ptr<Pager> pager_a, pager_b;
    StreamRange range_a, range_b;
    CollectingSink sink;
    uint64_t output = 0;
    size_t max_sweep_bytes = 0;
    bool strips_collapsed = false;
    double cpu_seconds = 0;
    SortStats sort_stats;
  };
  // Strips are the parallel unit here: their internal sorts stay
  // single-threaded (nested run-formation fan-out would only contend for
  // the same workers), but the fan-in knob still applies.
  SortConfig strip_sort_config = SortConfigOf(options);
  strip_sort_config.threads = 1;
  // Inline runs (same condition as ParallelFor's) stream pairs straight
  // to the caller's sink in strip order; only pooled runs buffer.
  const bool pooled = options.num_threads > 1 && map.strips() > 1;
  std::vector<StripTask> tasks(map.strips());
  for (uint32_t s = 0; s < map.strips(); ++s) {
    StripTask& t = tasks[s];
    t.disk = std::make_unique<DiskModel>(disk->machine());
    t.memory = std::make_unique<MemoryArbiter>(scope->budget(),
                                               scope->strict());
    t.pager_a = RehomePager(std::move(files_a[s].pager), t.disk.get());
    t.pager_b = RehomePager(std::move(files_b[s].pager), t.disk.get());
    t.range_a = StreamRange{t.pager_a.get(), files_a[s].range.first_page,
                            files_a[s].range.count};
    t.range_b = StreamRange{t.pager_b.get(), files_b[s].range.first_page,
                            files_b[s].range.count};
  }

  SJ_RETURN_IF_ERROR(ParallelFor(
      options.worker_pool, options.num_threads, map.strips(), [&](uint64_t s) -> Status {
        StripTask& t = tasks[s];
        ThreadCpuTimer cpu;
        JoinSink* out = pooled ? static_cast<JoinSink*>(&t.sink) : sink;
        SJ_ASSIGN_OR_RETURN(
            auto scratch,
            MakePager(storage, t.disk.get(), "sssj.strip.scratch"));
        SJ_ASSIGN_OR_RETURN(
            auto sorted,
            MakePager(storage, t.disk.get(), "sssj.strip.sorted"));
        SJ_ASSIGN_OR_RETURN(
            StreamRange sa,
            SortRectsByYLo(t.range_a, scratch.get(), sorted.get(),
                           options.memory_bytes / 2, t.memory.get(),
                           strip_sort_config, &t.sort_stats));
        SJ_ASSIGN_OR_RETURN(
            StreamRange sb,
            SortRectsByYLo(t.range_b, scratch.get(), sorted.get(),
                           options.memory_bytes / 2, t.memory.get(),
                           strip_sort_config, &t.sort_stats));
        MemoryGrant sweep_grant = t.memory->AcquireShrinkable(
            grants::kSweep,
            EstimateSweepBytes(t.range_a.count + t.range_b.count),
            /*floor_bytes=*/0);
        StreamReader<RectF> reader_a(sa.pager, sa.first_page, sa.count);
        StreamReader<RectF> reader_b(sb.pager, sb.first_page, sb.count);
        auto emit = [&](const RectF& ra, const RectF& rb) {
          // Report only in the strip owning the overlap's left edge.
          if (map.StripOf(std::max(ra.xlo, rb.xlo)) == s) {
            out->Emit(ra.id, rb.id);
            t.output++;
          }
        };
        const SweepRunStats sweep_stats =
            SweepJoinWithKind(options.stream_sweep, extent,
                              options.striped_strips, reader_a, reader_b,
                              emit);
        t.max_sweep_bytes = sweep_stats.max_structure_bytes;
        t.strips_collapsed = sweep_stats.strips_collapsed;
        // A strict arbiter aborts here when the strip's active sets
        // still exceed the grant (the old hard SJ_CHECK); otherwise the
        // overshoot lands in the usage high-water marks.
        sweep_grant.NoteUsage(sweep_stats.max_structure_bytes);
        t.cpu_seconds = cpu.Elapsed();
        return Status::OK();
      }));

  uint64_t output = 0;
  size_t max_sweep = 0;
  bool stats_strips_collapsed = false;
  double worker_cpu = 0;
  DiskStats shard_disk;
  SortStats folded_sort;
  for (const StripTask& t : tasks) {
    folded_sort.Fold(t.sort_stats);
    if (pooled) {
      for (const IdPair& pair : t.sink.pairs()) sink->Emit(pair.a, pair.b);
    }
    output += t.output;
    max_sweep = std::max(max_sweep, t.max_sweep_bytes);
    stats_strips_collapsed = stats_strips_collapsed || t.strips_collapsed;
    worker_cpu += t.cpu_seconds;
    shard_disk += t.disk->stats();
    scope->FoldChild(*t.memory);
  }

  JoinStats stats = measurement.Finish();
  stats.disk += shard_disk;
  if (pooled) stats.host_cpu_seconds += worker_cpu;
  stats.output_count = output;
  stats.max_sweep_bytes = max_sweep;
  stats.sweep_strips_collapsed = stats_strips_collapsed;
  stats.FoldSortStats(folded_sort);
  stats.partitions_total = map.strips();
  FillMemoryStats(*scope, &stats);
  return stats;
}

}  // namespace sj
