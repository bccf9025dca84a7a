#ifndef USJ_CORE_PIPELINE_QUERY_H_
#define USJ_CORE_PIPELINE_QUERY_H_

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/spatial_join.h"
#include "join/executor.h"
#include "join/predicate.h"
#include "op/operators.h"
#include "op/row.h"

namespace sj {

/// One node of a costed pipeline plan (PipelineQuery::Explain). Nodes are
/// listed root (sink-most operator) first; `depth` gives the indentation
/// of the printed tree (source scans are the deepest nodes).
struct OperatorPlan {
  std::string name;    ///< e.g. "TopKByDistance"
  std::string detail;  ///< e.g. "k=8 from (0.5, 0.5)"
  int depth = 0;
  double est_rows = 0.0;
  double cost_seconds = 0.0;
  /// Bytes the operator plans to hold under its arbiter grant (0 for
  /// constant-memory operators).
  size_t planned_bytes = 0;
};

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
  /// The merged memory shape: the join's planned grants plus the
  /// operators' own (op.*) grants, under one budget.
  MemoryPlan memory;

  /// The costed operator tree, root first, one line per operator:
  ///
  ///   TopKByDistance(k=8 from (0.5, 0.5))  rows~8 cost~0s
  ///   └─ AggregateByCell(count 16x16)  rows~256 cost~0.01s mem 2 KB
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
  uint64_t candidate_count = 0;
  uint64_t refine_pages_read = 0;
  JoinAlgorithm join_algorithm = JoinAlgorithm::kAuto;
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
/// buffer pool, and worker pool. Rebuildable and single-shot state-free
/// like JoinQuery: Run() may be called repeatedly.
class PipelineQuery {
 public:
  explicit PipelineQuery(SpatialJoiner& joiner)
      : joiner_(&joiner), options_(joiner.options()) {}

  /// Appends a source input (position = order of the Input calls).
  PipelineQuery& Input(const JoinInput& input) {
    inputs_.push_back(input);
    return *this;
  }

  /// Restricts the pipeline to records intersecting `window`: a scan
  /// source emits only matching records; a join source window-scans every
  /// input first (the windowed-overlay plan). Histogram-pruned per input.
  PipelineQuery& Window(const RectF& window) {
    window_ = window;
    has_window_ = true;
    return *this;
  }

  /// Attaches an occupancy histogram to input `index` (planner estimates
  /// and scan/traversal pruning; must outlive Run()).
  PipelineQuery& WithHistogram(size_t index, const GridHistogram* histogram) {
    if (histogram != nullptr) histograms_.emplace_back(index, histogram);
    return *this;
  }

  /// Attaches exact geometry to input `index` (required by Refine(true);
  /// must outlive Run()).
  PipelineQuery& WithFeatures(size_t index, const FeatureStore* store) {
    features_.emplace_back(index, store);
    return *this;
  }

  /// Join predicate (join sources only; defaults to kIntersects).
  PipelineQuery& Predicate(sj::Predicate kind, double epsilon = 0.0) {
    predicate_.kind = kind;
    predicate_.epsilon = epsilon;
    return *this;
  }

  /// Forces the join's filter algorithm (default kAuto).
  PipelineQuery& Algorithm(JoinAlgorithm algorithm) {
    algorithm_ = algorithm;
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

  // Per-query JoinOptions overrides (the subset pipelines commonly need;
  // mutable_options() covers every knob).
  PipelineQuery& Refine(bool on) { return Mutate([&](JoinOptions& o) { o.refine = on; }); }
  PipelineQuery& Threads(uint32_t n) { return Mutate([&](JoinOptions& o) { o.num_threads = n; }); }
  PipelineQuery& MemoryBytes(size_t bytes) { return Mutate([&](JoinOptions& o) { o.memory_bytes = bytes; }); }
  PipelineQuery& Storage(std::shared_ptr<StorageFactory> factory) { return Mutate([&](JoinOptions& o) { o.storage = std::move(factory); }); }
  /// External-merge fan-in (0 = auto; see JoinOptions::merge_fan_in).
  PipelineQuery& MergeFanIn(uint32_t fan_in) { return Mutate([&](JoinOptions& o) { o.merge_fan_in = fan_in; }); }

  JoinOptions& mutable_options() { return options_; }
  const JoinOptions& options() const { return options_; }

  /// Service plumbing: execute against an externally carved arbiter (see
  /// JoinQuery::UseArbiter).
  PipelineQuery& UseArbiter(std::shared_ptr<MemoryArbiter> arbiter) {
    arbiter_override_ = std::move(arbiter);
    return *this;
  }

  /// Compiles the pipeline and returns the costed operator tree without
  /// executing anything (EXPLAIN).
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

  Status Validate() const;
  /// The grid extent an AggregateByCell spec resolves to.
  RectF ResolveAggregateExtent(const OpSpec& spec) const;
  /// Instantiates the downstream chain (source-first order).
  std::vector<std::unique_ptr<PipelineOperator>> BuildChain() const;

  template <typename Fn>
  PipelineQuery& Mutate(Fn&& fn) {
    fn(options_);
    return *this;
  }

  const GridHistogram* HistogramFor(size_t index) const;
  const FeatureStore* FeaturesFor(size_t index) const;

  SpatialJoiner* joiner_;
  std::vector<JoinInput> inputs_;
  std::vector<std::pair<size_t, const GridHistogram*>> histograms_;
  std::vector<std::pair<size_t, const FeatureStore*>> features_;
  RectF window_ = RectF::Empty();
  bool has_window_ = false;
  PredicateSpec predicate_;
  JoinAlgorithm algorithm_ = JoinAlgorithm::kAuto;
  JoinOptions options_;
  std::vector<OpSpec> ops_;
  std::shared_ptr<MemoryArbiter> arbiter_override_;
};

}  // namespace sj

#endif  // USJ_CORE_PIPELINE_QUERY_H_
