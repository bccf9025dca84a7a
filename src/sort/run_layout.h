#ifndef USJ_SORT_RUN_LAYOUT_H_
#define USJ_SORT_RUN_LAYOUT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "io/stream.h"

namespace sj {

/// The one place that turns a memory budget into run-formation sizes, for
/// both external components that form sorted runs: ExternalSorter (run
/// chunks + merge fan-in) and ExternalPriorityQueue (heap capacity + spill
/// cursors).
///
/// Historically the two copied this arithmetic and diverged by one
/// streaming block: the sorter sized its in-memory runs to the *full*
/// budget even though a streaming buffer (one block) is always open next
/// to the run being formed or the heap being spilled, while the PQ sized
/// its heap to the full budget and then paid its cursor blocks on top.
/// RunLayout reserves one open streaming block out of the budget before
/// dividing the rest into records, so a full run (or heap) plus its open
/// writer stays within the grant. (The PQ's *read* side still accumulates
/// one cursor block per open spilled run beyond the first — bounded by
/// the run count and reported through MemoryBytes()/NoteUsage, not
/// hidden.)
struct RunLayout {
  /// The effective budget (never below kMinSortMemoryBytes).
  size_t memory_bytes = 0;
  /// Pages per streaming block: merge readers, the PQ's spill writers and
  /// run cursors. Small so many runs fit in the budget; grows with
  /// plentiful memory to amortize positioning costs.
  uint32_t block_pages = 1;
  /// Pages per run-formation write block (larger than block_pages — only
  /// one run writer is open at a time — but still within the budget).
  uint32_t write_block_pages = 1;
  /// Records per in-memory sorted run / heap spill threshold.
  uint64_t run_records = 0;
  /// Runs a merge can combine at once: one input block per run plus one
  /// output block must fit in the budget.
  size_t fan_in = 2;

  /// Sorting needs at least two merge input blocks and one output block.
  static constexpr size_t kMinSortMemoryBytes = kPageSize * 4;
  /// Progress floor: a run of fewer records than this never pays off.
  static constexpr uint64_t kMinRunRecords = 64;

  /// How one merge phase runs: the fan-in and the per-run read block it
  /// supports under the budget. Produced by PlanMerge from the run count.
  struct MergePlan {
    /// Runs merged per group.
    size_t fan_in = 2;
    /// Pages per merge-reader block at that width (>= block_pages; grows
    /// when a narrower fan-in leaves budget on the table).
    uint32_t read_block_pages = 1;
    /// Total passes over the data until one run remains.
    uint32_t passes = 0;
  };

  /// Passes a fan-in-F merge needs to reduce `runs` runs to one.
  static uint32_t MergePasses(uint64_t runs, size_t fan_in) {
    uint32_t passes = 0;
    while (runs > 1) {
      runs = (runs + fan_in - 1) / fan_in;
      passes++;
    }
    return passes;
  }

  /// Balances merge-pass count against per-run block size under the
  /// budget. `requested_fan_in == 0` picks the *smallest* fan-in that
  /// does not add a pass over merging at the maximum width — a narrower
  /// merge reads the same pages in fewer, larger blocks (fewer random
  /// positionings) and keeps fewer streams live; explicit requests are
  /// clamped to [2, fan_in]. Whatever budget the chosen width leaves
  /// (after one read block per run and one output write block) grows the
  /// read block, never below the layout's floor.
  ///
  /// The plan depends only on the budget and the run count — never on
  /// thread count or storage backend. That invariance IS the determinism
  /// contract: the request pattern (and so modeled io_seconds) is the
  /// same for every thread count and backend.
  MergePlan PlanMerge(size_t runs, uint32_t requested_fan_in) const {
    MergePlan plan;
    plan.read_block_pages = block_pages;
    const size_t max_fan = std::max<size_t>(2, fan_in);
    if (runs <= 1) {
      plan.fan_in = max_fan;
      return plan;
    }
    if (requested_fan_in > 0) {
      plan.fan_in = std::clamp<size_t>(requested_fan_in, 2, max_fan);
    } else {
      plan.fan_in = max_fan;
      const uint32_t best = MergePasses(runs, max_fan);
      for (size_t f = 2; f < max_fan; ++f) {
        if (MergePasses(runs, f) == best) {
          plan.fan_in = f;
          break;
        }
      }
    }
    plan.passes = MergePasses(runs, plan.fan_in);
    const size_t total_pages = memory_bytes / kPageSize;
    const size_t reader_pages = total_pages > write_block_pages
                                    ? total_pages - write_block_pages
                                    : 0;
    const size_t per_run = reader_pages / plan.fan_in;
    plan.read_block_pages = static_cast<uint32_t>(std::clamp<size_t>(
        per_run, block_pages, kStreamBlockPages));
    return plan;
  }

  static RunLayout For(size_t memory_bytes, size_t record_size) {
    RunLayout layout;
    layout.memory_bytes = std::max(memory_bytes, kMinSortMemoryBytes);
    layout.block_pages = static_cast<uint32_t>(std::clamp<size_t>(
        layout.memory_bytes / kPageSize / 32, 1, kStreamBlockPages / 8));
    layout.write_block_pages = static_cast<uint32_t>(std::clamp<size_t>(
        layout.memory_bytes / kPageSize / 2, 1, kStreamBlockPages));
    // Reserve the largest buffer that is ever open next to a full run:
    // the formation write block (>= the merge read block), so a run
    // chunk plus its open writer stay within the budget.
    const size_t reserve_bytes = layout.write_block_pages * kPageSize;
    const size_t run_bytes =
        layout.memory_bytes > reserve_bytes
            ? layout.memory_bytes - reserve_bytes
            : 0;
    layout.run_records =
        std::max<uint64_t>(kMinRunRecords, run_bytes / record_size);
    const size_t blocks = layout.memory_bytes / (layout.block_pages * kPageSize);
    layout.fan_in = std::max<size_t>(2, blocks > 0 ? blocks - 1 : 0);
    return layout;
  }
};

}  // namespace sj

#endif  // USJ_SORT_RUN_LAYOUT_H_
