#ifndef USJ_SORT_SORT_CONFIG_H_
#define USJ_SORT_SORT_CONFIG_H_

#include <algorithm>
#include <cstdint>

namespace sj {

class ThreadPool;

/// How one external sort runs. Derived from JoinOptions at every adoption
/// point (SortConfigOf in join/join_types.h); defaults reproduce a safe
/// standalone sort. None of these knobs changes the sorted output or the
/// modeled io_seconds — they move wall time only (see external_sort.h for
/// the determinism contract).
struct SortConfig {
  /// Worker count for run formation (1 = the serial sort). Inputs that
  /// span more than one run form their runs as independent units on this
  /// many workers. Mirrors JoinOptions::num_threads.
  uint32_t threads = 1;
  /// Shared morsel pool; null spawns a private ParallelFor team. Not
  /// owned.
  ThreadPool* pool = nullptr;
  /// Merge fan-in: 0 lets RunLayout::PlanMerge pick the smallest fan-in
  /// that does not add a merge pass (and grow the per-run read block to
  /// fill the budget); explicit values are clamped to [2, MaxFanIn].
  uint32_t merge_fan_in = 0;
};

/// What one external sort did; surfaced through JoinStats (sorts within a
/// join fold together with Fold()).
struct SortStats {
  /// Sorted runs formed (0 for an empty input).
  uint32_t runs = 0;
  /// Runs formed as parallel units (0 = the serial path ran).
  uint32_t parallel_units = 0;
  /// Fan-in the merge phase used (0 when no merge was needed).
  uint32_t merge_fan_in = 0;
  /// Merge passes over the data (0 when a single run sufficed).
  uint32_t merge_passes = 0;

  void Fold(const SortStats& other) {
    runs = std::max(runs, other.runs);
    parallel_units = std::max(parallel_units, other.parallel_units);
    merge_fan_in = std::max(merge_fan_in, other.merge_fan_in);
    merge_passes = std::max(merge_passes, other.merge_passes);
  }
};

}  // namespace sj

#endif  // USJ_SORT_SORT_CONFIG_H_
