#include "join/pq_join.h"

#include <algorithm>

#include "sweep/sweep_join.h"

namespace sj {
namespace {

/// Adapter so the sweep templates can pull from a SortedRectSource*.
struct SourceAdapter {
  SortedRectSource* source;
  std::optional<RectF> Next() { return source->Next(); }
};

}  // namespace

PQGrants PQGrantRequests(size_t budget_bytes) {
  return PQGrants{
      SortGrantRequest(budget_bytes / 2),
      GrantRequest{grants::kPqQueue, budget_bytes / 2, /*floor_bytes=*/0},
      GrantRequest{grants::kSweep, budget_bytes / 2, /*floor_bytes=*/0}};
}

Result<JoinStats> PQJoinSources(SortedRectSource* a, SortedRectSource* b,
                                const RectF& extent, DiskModel* disk,
                                const JoinOptions& options, JoinSink* sink,
                                MemoryArbiter* arbiter) {
  const ArbiterScope scope(arbiter, options);
  // Static split: traversal queues and leaf buffers on one grant, sweep
  // structures on the other. Sampled maxima are reported as usage — the
  // paper's "data structures fit in memory" assumption, now checked by
  // the arbiter (strict mode aborts). Nothing spills: an input that
  // defeats the assumption shows as usage above the grant.
  const PQGrants requests = PQGrantRequests(scope->budget());
  MemoryGrant queue_grant = scope->AcquireShrinkable(requests.queue);
  MemoryGrant sweep_grant = scope->AcquireShrinkable(requests.sweep);
  JoinMeasurement measurement(disk);
  SourceAdapter sa{a}, sb{b};
  size_t max_queue_bytes = 0;
  auto emit = [sink](const RectF& ra, const RectF& rb) {
    sink->Emit(ra.id, rb.id);
  };
  auto probe = [&]() {
    max_queue_bytes =
        std::max(max_queue_bytes, a->MemoryBytes() + b->MemoryBytes());
  };
  const SweepRunStats sweep_stats = SweepJoinWithKind(
      options.stream_sweep, extent, options.striped_strips, sa, sb, emit,
      probe);
  SJ_RETURN_IF_ERROR(FirstReadError(std::array{a, b}));
  queue_grant.NoteUsage(max_queue_bytes);
  sweep_grant.NoteUsage(sweep_stats.max_structure_bytes);

  JoinStats stats = measurement.Finish();
  stats.output_count = sweep_stats.output_count;
  stats.max_sweep_bytes = sweep_stats.max_structure_bytes;
  stats.sweep_strips = sweep_stats.strips;
  stats.sweep_strips_collapsed = sweep_stats.strips_collapsed;
  stats.max_queue_bytes = max_queue_bytes;
  queue_grant.Release();
  sweep_grant.Release();
  FillMemoryStats(*scope, &stats);
  return stats;
}

}  // namespace sj
