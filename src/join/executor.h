#ifndef USJ_JOIN_EXECUTOR_H_
#define USJ_JOIN_EXECUTOR_H_

#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "histogram/grid_histogram.h"
#include "io/disk_model.h"
#include "join/join_types.h"
#include "join/multiway.h"
#include "join/predicate.h"
#include "join/sources.h"
#include "refine/feature_store.h"
#include "rtree/rtree.h"
#include "util/result.h"

namespace sj {

/// The planner's verdict, with the numbers behind it.
struct PlanDecision {
  JoinAlgorithm algorithm = JoinAlgorithm::kSSSJ;
  /// Estimated fraction of index pages a PQ/ST traversal would touch.
  double touched_fraction = 1.0;
  double index_cost_seconds = 0.0;
  double stream_cost_seconds = 0.0;
  /// Estimated refinement I/O (0 unless options.refine and both inputs
  /// carry FeatureStores). Included in both plan costs above — it is the
  /// same for every filter algorithm, so it never flips the choice, but
  /// the totals stay honest end-to-end estimates.
  double refine_cost_seconds = 0.0;
  /// Estimated external-sort CPU of the streaming plan (run-formation
  /// compares spread over the sort threads plus coordinator merge
  /// passes, at the granted sort memory). Included in
  /// stream_cost_seconds — and per non-indexed side in
  /// index_cost_seconds — so worker threads shift the kAuto crossover
  /// toward the streaming plans.
  double sort_cpu_seconds = 0.0;
  /// The PBSM partitioning pre-plan under the query's options, so
  /// Explain() reports the grid execution would use: adaptive or fixed,
  /// the (base) tiles per axis, and the partition count. When adaptive
  /// planning has histograms to work from, `pbsm_partitions` and
  /// `pbsm_leaf_tiles` come from actually running the PartitionPlanner;
  /// otherwise they are the memory-budget formula and the base grid.
  bool pbsm_adaptive = false;
  uint32_t pbsm_tiles_per_axis = 0;
  uint32_t pbsm_partitions = 0;
  uint32_t pbsm_leaf_tiles = 0;
  /// Estimated cost of the histogram-build pass adaptive partitioning
  /// adds for inputs without attached histograms (0 when fixed or when
  /// both histograms are attached).
  double histogram_build_seconds = 0.0;
  /// End-to-end PBSM estimate (distribution + replicated write/read +
  /// histogram pass + refinement term), for comparison against the
  /// stream/index costs above.
  double pbsm_cost_seconds = 0.0;
  /// Explain only: the run's grants under the query's budget, from its
  /// requests replayed on a scratch arbiter (PlanJoinMemory). The stream
  /// and index costs above are priced at SSSJ's sort request, so a tight
  /// budget adds external-sort merge passes to the streaming plans and
  /// can flip the kAuto decision toward the index.
  MemoryPlan memory;
  std::string rationale;

  /// One human-readable line: algorithm, touched fraction, both plan
  /// costs, the grant breakdown, and the rationale.
  std::string Describe() const;

  /// The decision as ordered key/value pairs — the structured form of
  /// Describe() for machine consumers (tests asserting on plan fields,
  /// bench result tables, service introspection). Always present:
  /// "algorithm", "touched_fraction", "stream_cost_seconds",
  /// "index_cost_seconds", "rationale". Conditionally (when the planner
  /// computed them): "refine_cost_seconds", the "pbsm.*" partitioning
  /// group, "memory.budget_bytes" and one "memory.grant.<component>" per
  /// planned grant. Numeric values use %.6g / plain integers, so tests
  /// can parse them back without locale surprises.
  std::vector<std::pair<std::string, std::string>> ToKeyValues() const;
};

std::ostream& operator<<(std::ostream& os, const PlanDecision& decision);

/// The compile step's output: a JoinQuery resolved into exactly what
/// ExecuteJoin needs — filter-ready inputs (ε-expansion for distance
/// predicates already applied, temporaries owned here), the effective
/// per-query options, the predicate, and the planner's decision. One plan
/// structure for every algorithm.
struct CompiledPlan {
  DiskModel* disk = nullptr;
  /// Effective options for this query (the joiner's defaults plus the
  /// query's overrides). Executors must read options from here, never
  /// from the joiner.
  JoinOptions options;
  PredicateSpec predicate;
  /// Resolved inputs, in query order. For kDistanceWithin one side has
  /// been rewritten to an ε-expanded copy (a stream, or a rebuilt tree if
  /// ST needs an index on that side).
  std::vector<JoinInput> inputs;
  /// Per-input occupancy histograms available for *pruning* index
  /// traversals (nullptr entries allowed). Cleared by the compile step
  /// when ε-expansion would make histogram pruning unsafe.
  std::vector<const GridHistogram*> prune_histograms;
  /// The planner's decision for pairwise plans (decision.algorithm is the
  /// algorithm to execute; for forced algorithms the rationale says so).
  /// Explain's plan carries every priced term; an executing plan carries
  /// only the terms that chose the algorithm.
  PlanDecision decision;
  /// The query's memory governor: every executor draws its grants from
  /// here (and threads it into the algorithm layer), so one budget bounds
  /// the whole execution — filter, spills, refinement — and the stats
  /// report one coherent peak. Created by the compile step from the
  /// effective options.
  std::shared_ptr<MemoryArbiter> arbiter;
  /// I/O the compile step itself spent (ε-expansion passes, expanded-
  /// tree rebuilds) and the CPU of the whole compile, planning included;
  /// folded into the query's reported stats.
  DiskStats compile_disk;
  double compile_cpu_seconds = 0.0;

  /// Temporaries backing resolved inputs; owned by the plan so resolved
  /// DatasetRefs and trees stay valid for its lifetime.
  std::vector<std::unique_ptr<Pager>> owned_pagers;
  std::vector<std::unique_ptr<RTree>> owned_trees;

  const GridHistogram* prune_histogram(size_t i) const {
    return i < prune_histograms.size() ? prune_histograms[i] : nullptr;
  }
};

/// Explain's memory planner: replays on `arbiter`, in a run's order, the
/// grant requests a run of Explain's `plan` makes (the compile step's,
/// the executor's or the k-way chain's, then refinement's), each through
/// the function its own acquisition calls. The arbiter's granted
/// high-water marks are then the run's, except where a request follows
/// data the plan has not read: a partitioned plan's unit loads (replayed
/// at their cap) and an overflowing unit's sweep, and its sorts where the
/// plan replayed a load (PlanUnits).
void PlanJoinMemory(const CompiledPlan& plan, MemoryArbiter* arbiter);

/// Runs the MBR filter step of a compiled pairwise plan: the pairs of
/// intersecting MBRs from plan.inputs[0] x plan.inputs[1] into `sink`,
/// by plan.decision.algorithm. Predicates and refinement are the query
/// layer's. ST fails with FailedPrecondition, before any I/O of its own,
/// unless both inputs are indexed. The plan is mutable because PBSM
/// parks the streams it writes out for a tree or resident input there.
Result<JoinStats> ExecuteJoin(CompiledPlan& plan, JoinSink* sink);

/// The k-way filter execution (§4's extension): every plan.inputs entry
/// becomes a sorted source (selective index traversals included) feeding
/// the left-deep chain of lazy PQ sweeps, with PQ's grants: each stream
/// input's sort in turn, then the chain's state under the sweep grant.
/// options.num_threads reaches only the stream inputs' run formation, so
/// output and modeled I/O are the same at every thread count. The
/// returned I/O and CPU include those sorts as well as the chain.
/// Algorithm dispatch does not apply: the chain is the only k-way
/// execution.
Result<MultiwayStats> ExecuteMultiwayFilter(CompiledPlan& plan,
                                            TupleSink* sink);

}  // namespace sj

#endif  // USJ_JOIN_EXECUTOR_H_
