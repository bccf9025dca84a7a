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

/// One step of the plane sweep over two y-sorted sources whose current
/// heads are `head_a` and `head_b` (at least one present): takes the head
/// with the smaller ylo (A's on ties), reports its pairs with the other
/// side's active structure to `found(const RectF& a, const RectF& b)`
/// (first argument always from A), inserts it into its own side's
/// structure and advances that side's head. Returns the pairs found, so
/// SweepJoinRun passes `emit` on unwrapped: a counting wrapper around it
/// made GCC compile paper_repro's Forward-Sweep loop about 1.5x slower.
/// SweepJoinRun's push loop and the k-way chain's lazy pair stages
/// (join/multiway.cc) both step with it.
template <typename Structure, typename SourceA, typename SourceB,
          typename Found>
uint64_t SweepStep(SourceA& a, SourceB& b, std::optional<RectF>& head_a,
                   std::optional<RectF>& head_b, Structure& active_a,
                   Structure& active_b, Found&& found) {
  uint64_t pairs = 0;
  if (head_a.has_value() &&
      (!head_b.has_value() || head_a->ylo <= head_b->ylo)) {
    const RectF r = *head_a;
    active_b.QueryAndExpire(r, [&](const RectF& other) {
      found(r, other);
      pairs++;
    });
    active_a.Insert(r);
    head_a = a.Next();
  } else {
    const RectF r = *head_b;
    active_a.QueryAndExpire(r, [&](const RectF& other) {
      found(other, r);
      pairs++;
    });
    active_b.Insert(r);
    head_b = b.Next();
  }
  return pairs;
}

/// The plane-sweep join core shared by SSSJ, PBSM (per partition) and PQ.
///
/// Pulls from two y-sorted rectangle sources (`Next()` returning
/// std::optional<RectF>), advances a horizontal sweep line through the
/// merged sequence (SweepStep), and reports every intersecting pair
/// across the two inputs exactly once via `emit(const RectF& a, const
/// RectF& b)` (first argument always from source A). `Structure` is one
/// of the interval structures in interval_structures.h.
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
    stats.output_count += SweepStep(a, b, ra, rb, active_a, active_b, emit);
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
