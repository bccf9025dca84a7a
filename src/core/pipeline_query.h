#ifndef USJ_CORE_PIPELINE_QUERY_H_
#define USJ_CORE_PIPELINE_QUERY_H_

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/join_query.h"
#include "core/spatial_join.h"
#include "join/executor.h"
#include "op/operators.h"
#include "op/row.h"

namespace sj {

/// The planner's verdict over a whole operator tree: every operator
/// annotated with estimated rows, modeled cost, and planned memory, plus
/// the embedded join decision when the pipeline's source is a spatial
/// join. The pipeline analog of PlanDecision.
struct PipelinePlan {
  std::vector<OperatorPlan> operators;
  /// The join planner's decision (meaningful when has_join).
  PlanDecision join;
  bool has_join = false;
  double total_cost_seconds = 0.0;
  /// The run's grants under one budget: every request the run makes
  /// (operators, rect maps, then the join's) replayed in its order.
  MemoryPlan memory;

  /// The costed operator tree, root first, one line per operator:
  ///
  ///   TopKByDistance(k=8 from (0.5, 0.5))  rows~8 cost~0s mem 1 KB
  ///   └─ AggregateByCell(count 16x16)  rows~256 cost~0.01s mem 66 KB
  ///      └─ SpatialJoin[SSSJ]  rows~1200 cost~0.8s
  ///         ├─ WindowScan(input 0)  rows~4000 cost~0.2s
  ///         └─ WindowScan(input 1)  rows~3500 cost~0.2s
  std::string Describe() const;

  /// Structured form: "op.<i>.name" / "op.<i>.est_rows" /
  /// "op.<i>.cost_seconds" / "op.<i>.planned_bytes" per node (i in root-
  /// first order), "total_cost_seconds", the memory plan, and the join
  /// decision's pairs prefixed "join." when present.
  std::vector<std::pair<std::string, std::string>> ToKeyValues() const;
};

std::ostream& operator<<(std::ostream& os, const PipelinePlan& plan);

/// Everything measured about one pipeline execution — the pipeline analog
/// of JoinStats, with per-operator row/page counters on top.
struct PipelineStats {
  /// Rows delivered to the caller's RowSink.
  uint64_t output_count = 0;
  double host_cpu_seconds = 0.0;
  /// Whole-pipeline I/O: the query's DiskModel delta (scans, join,
  /// including parallel shard merges) plus the pipeline's own scratch
  /// traffic (rect maps, aggregation spills).
  DiskStats disk;
  /// Join-source measurements (0 / kAuto for scan-source pipelines).
  /// join_algorithm is the algorithm the pairwise join ran, which is the
  /// one Explain() reports.
  uint64_t candidate_count = 0;
  uint64_t refine_pages_read = 0;
  JoinAlgorithm join_algorithm = JoinAlgorithm::kAuto;
  /// The pairwise join's JoinStats::sweep_strips, partitions_total and
  /// partitions_overflowed (0 for the k-way chain).
  uint32_t sweep_strips = 0;
  uint32_t partitions_total = 0;
  uint32_t partitions_overflowed = 0;
  /// Memory governance: one arbiter spans the join and every operator.
  size_t peak_memory_bytes = 0;
  std::vector<MemoryComponentStats> memory_components;
  /// Per-operator counters, source first.
  std::vector<OperatorStats> operators;

  double ObservedSeconds(const MachineModel& m) const {
    return disk.io_seconds + host_cpu_seconds * m.cpu_slowdown;
  }

  /// One human-readable line of the machine-independent counters.
  std::string Describe() const;
  /// Describe() plus the modeled time under machine `m`.
  std::string Describe(const MachineModel& m) const;
  /// Structured form, same convention as JoinStats::ToKeyValues().
  std::vector<std::pair<std::string, std::string>> ToKeyValues() const;
};

std::ostream& operator<<(std::ostream& os, const PipelineStats& stats);

/// A composable physical-operator pipeline against a SpatialJoiner — the
/// sibling of JoinQuery for queries that are more than one join: spatial
/// selections, windowed overlays, density heatmaps, nearest-k post-
/// processing, in one governed execution.
///
///   SpatialJoiner joiner(&disk, options);
///   CollectingRowSink heatmap;
///   auto stats = PipelineQuery(joiner)
///                    .Input(JoinInput::FromStream(roads))
///                    .Input(JoinInput::FromRTree(&hydro_tree))
///                    .Window(city)                   // WindowScan per input
///                    .WithHistogram(0, &roads_hist)  // scan + planner pruning
///                    .Filter([](const PipeRow& r) { return r.rect.Area() > 0; })
///                    .AggregateByCell(AggregateMode::kCount, 64, 64)
///                    .TopKByDistance(8, cx, cy)
///                    .Run(&heatmap);
///
/// Source: one Input() is a (window) scan; two run the pairwise spatial
/// join (any algorithm, any predicate, refinement included); three or
/// more run the k-way chain. Join outputs become geometry rows via
/// grant-governed RectResolvers (rect = the members' contact box).
/// Downstream operators apply in call order. The pipeline draws every
/// grant — the join's and the operators' — from one MemoryArbiter, prices
/// the whole tree via the CostModel's per-operator terms (Explain), and
/// runs standalone or through a SpatialService sharing the global budget,
/// buffer pool, and worker pool. Inputs, attachments, predicate,
/// algorithm and option overrides are JoinQuery's (QueryBuilder), and so
/// are their rules: Explain and Run validate alike, before any I/O.
/// Rebuildable and single-shot state-free like JoinQuery: Run() may be
/// called repeatedly.
class PipelineQuery : public QueryBuilder<PipelineQuery> {
 public:
  explicit PipelineQuery(SpatialJoiner& joiner) : QueryBuilder(joiner) {}

  /// Restricts the pipeline to records intersecting `window`: a scan
  /// source emits only matching records; a join source window-scans every
  /// input first (the windowed-overlay plan). Histogram-pruned per input.
  PipelineQuery& Window(const RectF& window) {
    window_ = window;
    has_window_ = true;
    return *this;
  }

  // Downstream operators, applied in call order.

  /// Keeps rows satisfying `predicate`; `label` names it in Explain.
  PipelineQuery& Filter(FilterOp::RowPredicate predicate,
                        std::string label = "pred");

  /// Rewrites each row (weights, id arity).
  PipelineQuery& Project(ProjectOp::RowTransform transform,
                         std::string label = "fn");

  /// Aggregates rows into an nx x ny grid (density heatmap). With an
  /// invalid `extent` (the default) the grid covers the pipeline's data:
  /// the window when one is set, else the combined input extent.
  PipelineQuery& AggregateByCell(AggregateMode mode, uint32_t nx, uint32_t ny,
                                 const RectF& extent = RectF::Empty());

  /// Keeps the k rows nearest to (qx, qy), emitted in ascending distance.
  PipelineQuery& TopKByDistance(size_t k, float qx, float qy);

  /// Compiles the pipeline and returns the costed operator tree without
  /// executing anything (EXPLAIN). The join decision is the one Run
  /// executes: a windowed join is planned over its in-window records
  /// (resident tables where their estimates fit, else streams). The
  /// operator nodes are the chain Run opens, and the memory plan replays
  /// Run's grant requests, in Run's order, on a scratch arbiter of the
  /// query's budget.
  Result<PipelinePlan> Explain();

  /// Runs the pipeline, streaming output rows into `sink`. Like
  /// JoinQuery::Run, this wraps an inline single-query SpatialService, so
  /// standalone and multi-tenant submissions are one code path.
  Result<PipelineStats> Run(RowSink* sink);

 private:
  friend class SpatialService;

  /// One logical downstream operator, as described by the builder.
  struct OpSpec {
    enum class Kind { kFilter, kProject, kAggregate, kTopK };
    Kind kind = Kind::kFilter;
    FilterOp::RowPredicate filter;
    ProjectOp::RowTransform project;
    std::string label;
    AggregateMode agg_mode = AggregateMode::kCount;
    RectF agg_extent = RectF::Empty();
    uint32_t agg_nx = 0;
    uint32_t agg_ny = 0;
    size_t topk_k = 0;
    float topk_x = 0.0f;
    float topk_y = 0.0f;
  };

  /// The execution body (validation, source materialization, operator
  /// chain), shared by the Run() wrapper and the service's workers.
  Result<PipelineStats> RunDirect(RowSink* sink);

  /// The spec's rules for this pipeline's source, then the operators'.
  Status Validate() const;
  /// The grid extent an AggregateByCell spec resolves to.
  RectF ResolveAggregateExtent(const OpSpec& spec) const;
  /// Instantiates the downstream chain (source-first order).
  std::vector<std::unique_ptr<PipelineOperator>> BuildChain() const;

  /// The join over `inputs` (the pipeline's inputs, or their in-window
  /// records): a copy of this pipeline's spec with the inputs swapped in.
  JoinQuery JoinOver(std::vector<JoinInput> inputs) const;

  /// The windowed plan's scan of input `i`, which fills the input's
  /// resident rect map (RectResolver::StartTable) under at most
  /// `rectmap_share`; sealed, the table is the returned join input and
  /// `*resolver`. A table that outgrows its grant spills what it holds,
  /// and the rest of the scan, to a window stream on `disk` (its pager
  /// parked in `pagers`), which joins as a stream input and leaves
  /// `*resolver` null for RectResolver::Build. Appends the scan's stats,
  /// with the spilled pages, to `scans`.
  Result<JoinInput> ScanWindow(size_t i, size_t rectmap_share, DiskModel* disk,
                               const PipelineContext& ctx,
                               std::unique_ptr<RectResolver>* resolver,
                               std::vector<std::unique_ptr<Pager>>* pagers,
                               std::vector<OperatorStats>* scans) const;

  RectF window_ = RectF::Empty();
  bool has_window_ = false;
  std::vector<OpSpec> ops_;
};

}  // namespace sj

#endif  // USJ_CORE_PIPELINE_QUERY_H_
