#include "join/partitioned.h"

#include <algorithm>
#include <array>
#include <optional>
#include <thread>

#include "io/stream.h"
#include "join/sources.h"
#include "join/sssj.h"
#include "sweep/sweep_join.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sj {
namespace {

/// The distribution writers of one input. Destruction abandons every
/// writer (a no-op for one already finished), so an error returned
/// before a writer's Finish unwinds without tripping its destructor
/// check.
struct OpenWriters {
  ~OpenWriters() {
    for (auto& writer : writers) writer->Abandon();
  }
  std::vector<std::unique_ptr<StreamWriter<RectF>>> writers;
};

}  // namespace

size_t PartitionUnit::input_bytes() const {
  uint64_t records = 0;
  for (const StreamRange& input : inputs) records += input.count;
  return records * sizeof(RectF);
}

void PartitionedTotals::AddTo(JoinStats* stats) const {
  stats->host_cpu_seconds += worker_cpu_seconds;
  stats->output_count = output;
  stats->max_sweep_bytes = max_bytes;
  stats->sweep_strips = sweep_strips;
  stats->sweep_strips_collapsed = strips_collapsed;
  stats->FoldSortStats(sort_stats);
  stats->partitions_total = units;
  stats->partitions_overflowed = overflowed;
  stats->max_partition_bytes = max_input_bytes;
}

Result<PartitionedJoin> PartitionedJoin::Distribute(
    const std::vector<StreamRange>& inputs, uint32_t units,
    const Route& route, const FileName& file_name, uint32_t block_pages,
    StorageFactory* storage, DiskModel* disk) {
  PartitionedJoin join;
  join.disk_ = disk;
  join.units_.resize(units);
  join.files_.resize(units);
  join.cpu_seconds_.resize(units);
  std::vector<uint32_t> targets;
  for (size_t in = 0; in < inputs.size(); ++in) {
    OpenWriters open;
    for (uint32_t u = 0; u < units; ++u) {
      SJ_ASSIGN_OR_RETURN(std::unique_ptr<Pager> file,
                          MakePager(storage, disk, file_name(in, u)));
      open.writers.push_back(
          std::make_unique<StreamWriter<RectF>>(file.get(), block_pages));
      join.files_[u].push_back(std::move(file));
    }
    StreamReader<RectF> reader(inputs[in].pager, inputs[in].first_page,
                               inputs[in].count);
    while (std::optional<RectF> r = reader.Next()) {
      route(*r, &targets);
      for (const uint32_t u : targets) open.writers[u]->Append(*r);
    }
    SJ_RETURN_IF_ERROR(reader.status());
    for (uint32_t u = 0; u < units; ++u) {
      const PageId first = open.writers[u]->first_page();
      SJ_ASSIGN_OR_RETURN(const uint64_t count, open.writers[u]->Finish());
      join.units_[u].inputs.push_back(StreamRange{nullptr, first, count});
    }
  }
  for (uint32_t u = 0; u < units; ++u) {
    PartitionUnit& unit = join.units_[u];
    unit.disk = std::make_unique<DiskModel>(disk->machine());
    for (size_t in = 0; in < inputs.size(); ++in) {
      std::unique_ptr<Pager>& file = join.files_[u][in];
      file = RehomePager(std::move(file), unit.disk.get());
      unit.inputs[in].pager = file.get();
    }
  }
  return join;
}

Result<PartitionedTotals> PartitionedJoin::Run(const JoinOptions& options,
                                               MemoryArbiter* arbiter,
                                               size_t unit_budget,
                                               JoinSink* sink,
                                               const Body& body) {
  for (PartitionUnit& unit : units_) {
    unit.memory =
        std::make_unique<MemoryArbiter>(unit_budget, arbiter->strict());
  }
  const bool buffered = !ParallelForRunsInline(
      options.worker_pool, options.num_threads, units_.size());
  std::vector<CollectingSink> buffers(buffered ? units_.size() : 0);
  const std::thread::id caller = std::this_thread::get_id();
  SJ_RETURN_IF_ERROR(ParallelFor(
      options.worker_pool, options.num_threads, units_.size(),
      [&](uint64_t i) -> Status {
        ThreadCpuTimer cpu;
        const Status status =
            body(i, units_[i], buffered ? &buffers[i] : sink);
        // Units on the calling thread are already on its caller's clock.
        if (std::this_thread::get_id() != caller) {
          cpu_seconds_[i] = cpu.Elapsed();
        }
        return status;
      }));
  for (const CollectingSink& buffer : buffers) buffer.ReplayTo(sink);
  return Merge(arbiter);
}

PartitionedTotals PartitionedJoin::Merge(MemoryArbiter* arbiter) const {
  PartitionedTotals totals;
  totals.units = static_cast<uint32_t>(units_.size());
  for (size_t i = 0; i < units_.size(); ++i) {
    const PartitionUnit& unit = units_[i];
    totals.output += unit.output;
    totals.max_bytes = std::max(totals.max_bytes, unit.max_bytes);
    totals.sweep_strips = std::max(totals.sweep_strips, unit.sweep_strips);
    totals.strips_collapsed = totals.strips_collapsed || unit.strips_collapsed;
    if (unit.overflowed) totals.overflowed++;
    totals.max_input_bytes =
        std::max(totals.max_input_bytes, unit.input_bytes());
    totals.sort_stats.Fold(unit.sort_stats);
    totals.worker_cpu_seconds += cpu_seconds_[i];
    disk_->Absorb(unit.disk->stats());
    arbiter->FoldChild(*unit.memory);
  }
  return totals;
}

GrantRequest WriterBlocks::Request(size_t budget_bytes) const {
  return GrantRequest{component, writers * max_block_pages * kPageSize,
                      std::min<size_t>(writers * kPageSize, budget_bytes)};
}

uint32_t WriterBlocks::Grant(MemoryArbiter* arbiter,
                             MemoryGrant* grant) const {
  *grant = arbiter->AcquireShrinkable(Request(arbiter->budget()));
  const uint32_t block_pages = static_cast<uint32_t>(std::clamp<size_t>(
      grant->bytes() / (writers * kPageSize), 1, max_block_pages));
  grant->NoteUsage(writers * block_pages * kPageSize);
  return block_pages;
}

Status SweepUnit(const JoinOptions& options, const RectF& extent,
                 SweepStructureKind structure, const OwnsPair& owns,
                 const std::string& overflow_name, PartitionUnit& unit,
                 JoinSink* out) {
  const uint64_t records = unit.inputs[0].count + unit.inputs[1].count;
  std::vector<RectF> loaded[2];
  std::unique_ptr<Pager> scratch;
  std::unique_ptr<SortedRectSource> sources[2];
  MemoryGrant sweep_grant;
  // The pair's load is a grant; denial is the overflow signal.
  Result<MemoryGrant> load =
      unit.memory->Acquire(grants::kPbsmPartition, unit.input_bytes());
  if (load.ok()) {
    for (int side = 0; side < 2; ++side) {
      const StreamRange& in = unit.inputs[side];
      StreamReader<RectF> reader(in.pager, in.first_page, in.count);
      loaded[side].reserve(in.count);
      while (std::optional<RectF> r = reader.Next()) {
        loaded[side].push_back(*r);
      }
      SJ_RETURN_IF_ERROR(reader.status());
      std::sort(loaded[side].begin(), loaded[side].end(), OrderByYLo());
      sources[side] = std::make_unique<SortedRectsSource>(
          loaded[side].data(), loaded[side].size());
    }
    load->NoteUsage(unit.input_bytes());
  } else {
    // Both sides' runs and sorted outputs share one scratch pager, so a
    // side that sorts into one run is read where it was formed.
    unit.overflowed = true;
    const SSSJGrants requests =
        SSSJGrantRequests(options.memory_bytes, records);
    SJ_ASSIGN_OR_RETURN(scratch, MakePager(options.storage.get(),
                                           unit.disk.get(), overflow_name));
    for (int side = 0; side < 2; ++side) {
      SJ_ASSIGN_OR_RETURN(
          const StreamRange sorted,
          SortRectsByYLo(unit.inputs[side], scratch.get(), scratch.get(),
                         requests.sort.bytes, unit.memory.get(),
                         UnitSortConfig(options), &unit.sort_stats));
      sources[side] = std::make_unique<SortedStreamSource>(sorted);
    }
    sweep_grant = unit.memory->AcquireShrinkable(requests.sweep);
  }
  // The sweep may count a pair in several units; the reference-point
  // test's count is authoritative.
  const SweepRunStats sweep = SweepJoinWithKind(
      structure, extent, SweepStrips(records, options.striped_strips),
      *sources[0], *sources[1], [&](const RectF& ra, const RectF& rb) {
        if (owns(ra, rb)) {
          out->Emit(ra.id, rb.id);
          unit.output++;
        }
      });
  SJ_RETURN_IF_ERROR(
      FirstReadError(std::array{sources[0].get(), sources[1].get()}));
  unit.max_bytes = sweep.max_structure_bytes;
  unit.sweep_strips = sweep.strips;
  unit.strips_collapsed = sweep.strips_collapsed;
  // A strict arbiter aborts here when an overflowed unit's active sets
  // exceed its sweep grant (a loaded unit's sweep holds none); otherwise
  // the overshoot lands in the usage marks.
  sweep_grant.NoteUsage(sweep.max_structure_bytes);
  return Status::OK();
}

void PlanUnits(const JoinOptions& options, uint64_t records, uint32_t units,
               size_t unit_budget, MemoryArbiter* arbiter) {
  MemoryArbiter unit(unit_budget);
  units = std::max(1u, units);
  if (records * sizeof(RectF) / units <= unit_budget) {
    (void)unit.Acquire(grants::kPbsmPartition, unit_budget);
  } else {
    unit.AcquireShrinkable(
        SSSJGrantRequests(options.memory_bytes, records / units).sort);
  }
  arbiter->FoldChild(unit);
}

SortConfig UnitSortConfig(const JoinOptions& options) {
  SortConfig config = SortConfigOf(options);
  config.threads = 1;
  return config;
}

}  // namespace sj
