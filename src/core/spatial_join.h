#ifndef USJ_CORE_SPATIAL_JOIN_H_
#define USJ_CORE_SPATIAL_JOIN_H_

#include <vector>

#include "core/cost_model.h"
#include "histogram/grid_histogram.h"
#include "join/executor.h"
#include "join/join_types.h"
#include "join/multiway.h"
#include "refine/feature_store.h"
#include "rtree/rtree.h"
#include "util/result.h"
#include "util/span.h"

namespace sj {

/// Modeled I/O that brings `inputs` into sweep order and reads them in
/// it: one external sort of the unsorted ones together (SSSJ's passes,
/// CostModel::SSSJSeconds at `sort_memory_bytes`), one read of each sorted
/// stream, and nothing for resident records.
double SweepInputSeconds(const CostModel& cost, Span<const JoinInput> inputs,
                         size_t sort_memory_bytes);

/// The unified spatial join facade (deliverable of the paper's §4 + §6.3):
/// shared machine state (the simulated disk, the cost model) plus default
/// JoinOptions for every query posed against it.
///
/// Queries are built with JoinQuery (core/join_query.h), which compiles a
/// CompiledPlan and runs it through ExecuteJoin. The joiner itself
/// only plans (Plan — pure cost-model arithmetic, no I/O) and carries
/// state; it is never mutated by a query,
/// so one joiner can serve many concurrent query *descriptions* (actual
/// executions share the DiskModel and must be serialized by the caller).
class SpatialJoiner {
 public:
  /// `disk` provides temporary space and cost accounting; its MachineModel
  /// also parameterizes the planner's cost model.
  SpatialJoiner(DiskModel* disk, JoinOptions options)
      : disk_(disk), options_(options), cost_model_(disk->machine()) {}

  /// Chooses an algorithm for the pair of inputs. Histograms (over a
  /// shared grid) refine the touched-fraction estimate; without them the
  /// planner falls back to extent-overlap ratios. `options` overrides the
  /// joiner's defaults (null = the joiner's own): JoinQuery passes its
  /// effective options so overrides like Refine(true) price the
  /// refinement term consistently.
  ///
  /// `explain` selects how much is priced. True (Explain) prices every
  /// plan, and runs the real PartitionPlanner when adaptive partitioning
  /// has histograms, so Explain reports the exact grid. False (query
  /// execution) computes only the terms that choose the algorithm: with
  /// no indexed input there is no choice, so it returns the SSSJ decision
  /// and its memory plan before reading a histogram; with an index it
  /// prices the stream and index plans exactly as Explain does, and skips
  /// the PBSM pre-plan, which a PBSM execution derives again and every
  /// other algorithm ignores. Both modes choose the same algorithm.
  PlanDecision Plan(const JoinInput& a, const JoinInput& b,
                    const GridHistogram* hist_a = nullptr,
                    const GridHistogram* hist_b = nullptr,
                    const JoinOptions* options = nullptr,
                    bool explain = true) const;

  /// Explain's PBSM pre-plan for inputs `a` and `b` into `decision`: the
  /// grid PBSMJoin partitions over `hist_a`/`hist_b` (over the ones it
  /// builds when either is null), its partitions, and its cost with the
  /// histogram pass, the replication and `decision`'s refinement term.
  /// Plan runs it over the query's inputs; an ε-expansion, which drops
  /// the histograms, runs it again over the expanded ones.
  void PlanPBSM(const JoinInput& a, const JoinInput& b,
                const GridHistogram* hist_a, const GridHistogram* hist_b,
                const JoinOptions& options, PlanDecision* decision) const;

  const CostModel& cost_model() const { return cost_model_; }
  DiskModel* disk() const { return disk_; }
  const JoinOptions& options() const { return options_; }

 private:
  DiskModel* disk_;
  JoinOptions options_;
  CostModel cost_model_;
};

}  // namespace sj

#endif  // USJ_CORE_SPATIAL_JOIN_H_
