#ifndef USJ_SWEEP_SWEEP_JOIN_H_
#define USJ_SWEEP_SWEEP_JOIN_H_

#include <algorithm>
#include <cstdint>
#include <optional>

#include "geometry/rect.h"
#include "sweep/interval_structures.h"

namespace sj {

/// Sweep-phase measurements; max_structure_bytes feeds Table 3's "Sweep
/// Structure" row.
struct SweepRunStats {
  uint64_t output_count = 0;
  size_t max_structure_bytes = 0;
  size_t max_active = 0;
  /// Strips each StripedSweep used (1 when collapsed); 0 for ForwardSweep.
  uint32_t strips = 0;
  /// True when a StripedSweep fell back to a single strip because its
  /// extent was degenerate or non-finite (see StripedSweep); the join ran
  /// correctly but at Forward-Sweep cost.
  bool strips_collapsed = false;
};

/// The plane-sweep join core shared by SSSJ, PBSM (per partition) and PQ.
///
/// Pulls from two y-sorted rectangle sources (`Next()` returning
/// std::optional<RectF>), advances a horizontal sweep line through the
/// merged sequence, and reports every intersecting pair across the two
/// inputs exactly once via `emit(const RectF& a, const RectF& b)` (first
/// argument always from source A). `Structure` is one of the interval
/// structures in interval_structures.h.
///
/// `probe` is called once per processed rectangle (after the structures
/// are updated); PQ uses it to sample priority-queue memory for Table 3.
template <typename Structure, typename SourceA, typename SourceB,
          typename Emit, typename Probe>
SweepRunStats SweepJoinRun(SourceA& a, SourceB& b, Structure& active_a,
                           Structure& active_b, Emit&& emit, Probe&& probe) {
  SweepRunStats stats;
  std::optional<RectF> ra = a.Next();
  std::optional<RectF> rb = b.Next();
  while (ra.has_value() || rb.has_value()) {
    const bool take_a =
        ra.has_value() && (!rb.has_value() || ra->ylo <= rb->ylo);
    if (take_a) {
      const RectF r = *ra;
      active_b.QueryAndExpire(
          r, [&](const RectF& other) { emit(r, other); stats.output_count++; });
      active_a.Insert(r);
      ra = a.Next();
    } else {
      const RectF r = *rb;
      active_a.QueryAndExpire(
          r, [&](const RectF& other) { emit(other, r); stats.output_count++; });
      active_b.Insert(r);
      rb = b.Next();
    }
    const size_t bytes = active_a.MemoryBytes() + active_b.MemoryBytes();
    stats.max_structure_bytes = std::max(stats.max_structure_bytes, bytes);
    stats.max_active = std::max(stats.max_active,
                                active_a.ActiveCount() + active_b.ActiveCount());
    probe();
  }
  stats.strips_collapsed =
      active_a.StripsCollapsed() || active_b.StripsCollapsed();
  return stats;
}

/// Runtime dispatch over the structure kind, constructing the structures
/// from the sweep extent and strip count.
template <typename SourceA, typename SourceB, typename Emit, typename Probe>
SweepRunStats SweepJoinWithKind(SweepStructureKind kind, const RectF& extent,
                                uint32_t strips, SourceA& a, SourceB& b,
                                Emit&& emit, Probe&& probe) {
  if (kind == SweepStructureKind::kStriped) {
    StripedSweep sa(extent, strips), sb(extent, strips);
    SweepRunStats stats = SweepJoinRun(a, b, sa, sb, emit, probe);
    stats.strips = sa.strips();
    return stats;
  }
  ForwardSweep sa(extent, strips), sb(extent, strips);
  return SweepJoinRun(a, b, sa, sb, emit, probe);
}

/// Overload without a probe callback.
template <typename SourceA, typename SourceB, typename Emit>
SweepRunStats SweepJoinWithKind(SweepStructureKind kind, const RectF& extent,
                                uint32_t strips, SourceA& a, SourceB& b,
                                Emit&& emit) {
  return SweepJoinWithKind(kind, extent, strips, a, b, emit, [] {});
}

}  // namespace sj

#endif  // USJ_SWEEP_SWEEP_JOIN_H_
