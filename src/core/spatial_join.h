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

namespace sj {

/// The unified spatial join facade (deliverable of the paper's §4 + §6.3):
/// shared machine state (the simulated disk, the cost model) plus default
/// JoinOptions for every query posed against it.
///
/// Queries are built with JoinQuery (core/join_query.h), which compiles a
/// CompiledPlan and dispatches to the ExecutorRegistry. The joiner itself
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
  /// refinement term consistently. `exact_pbsm_preplan` runs the real
  /// PartitionPlanner when adaptive partitioning has histograms, so
  /// Explain reports the exact grid; false keeps the cheap formula
  /// estimates — JoinQuery::Run uses this, because a PBSM execution plans
  /// its own grid anyway and every other algorithm ignores it.
  PlanDecision Plan(const JoinInput& a, const JoinInput& b,
                    const GridHistogram* hist_a = nullptr,
                    const GridHistogram* hist_b = nullptr,
                    const JoinOptions* options = nullptr,
                    bool exact_pbsm_preplan = true) const;

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
