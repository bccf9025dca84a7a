#ifndef USJ_CORE_JOIN_QUERY_H_
#define USJ_CORE_JOIN_QUERY_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "core/spatial_join.h"
#include "join/executor.h"
#include "join/predicate.h"

namespace sj {

/// A composable spatial join query against a SpatialJoiner: the one entry
/// point for pairwise and k-way joins over any mix of indexed and
/// non-indexed inputs, with per-query option overrides and predicate
/// selection.
///
///   SpatialJoiner joiner(&disk, defaults);
///   CollectingSink sink;
///   auto stats = JoinQuery(joiner)
///                    .Input(JoinInput::FromRTree(&tree))
///                    .Input(JoinInput::FromStream(hydro))
///                    .WithHistogram(0, &roads_hist)
///                    .Predicate(Predicate::kDistanceWithin, 0.25)
///                    .Refine(true)
///                    .Threads(8)
///                    .Run(&sink);
///
/// Histograms and FeatureStores attach to *inputs* (by position), every
/// JoinOptions knob can be overridden without mutating the shared joiner,
/// and Run dispatches through the ExecutorRegistry: two inputs with a
/// JoinSink run the pairwise pipeline, two or more with a TupleSink run
/// the k-way chain. The query object is cheap to build and single-shot
/// state-free: Run() may be called repeatedly and each call compiles a
/// fresh plan.
class JoinQuery {
 public:
  /// Queries inherit the joiner's JoinOptions as per-query defaults; the
  /// joiner (and the DiskModel behind it) must outlive the query.
  explicit JoinQuery(SpatialJoiner& joiner)
      : joiner_(&joiner), options_(joiner.options()) {}

  /// Appends a join input (position = order of the Input calls).
  JoinQuery& Input(const JoinInput& input) {
    inputs_.push_back(input);
    return *this;
  }

  /// Attaches an occupancy histogram to input `index`. Histograms sharpen
  /// the planner's touched-fraction estimate and prune selective index
  /// traversals of the *other* side. The histogram must outlive Run().
  JoinQuery& WithHistogram(size_t index, const GridHistogram* histogram) {
    if (histogram != nullptr) histograms_.emplace_back(index, histogram);
    return *this;
  }

  /// Attaches exact geometry to input `index` (equivalent to calling
  /// JoinInput::WithFeatures before Input). The store must outlive Run().
  JoinQuery& WithFeatures(size_t index, const FeatureStore* store);

  /// Selects the join predicate; `epsilon` is the distance bound for
  /// Predicate::kDistanceWithin and ignored otherwise. kContains means
  /// "input 0 contains input 1" and requires Refine(true) with
  /// FeatureStores on both inputs.
  JoinQuery& Predicate(sj::Predicate kind, double epsilon = 0.0) {
    predicate_.kind = kind;
    predicate_.epsilon = epsilon;
    return *this;
  }

  /// Forces the filter algorithm (default kAuto = cost-based planning).
  JoinQuery& Algorithm(JoinAlgorithm algorithm) {
    algorithm_ = algorithm;
    return *this;
  }

  // Per-query JoinOptions overrides. Each setter adjusts this query's
  // private copy of the joiner's options; the shared joiner is never
  // mutated. mutable_options() is the escape hatch covering every knob.
  JoinQuery& Refine(bool on) { return Mutate([&](JoinOptions& o) { o.refine = on; }); }
  JoinQuery& Threads(uint32_t n) { return Mutate([&](JoinOptions& o) { o.num_threads = n; }); }
  JoinQuery& MemoryBytes(size_t bytes) { return Mutate([&](JoinOptions& o) { o.memory_bytes = bytes; }); }
  JoinQuery& BufferPoolPages(size_t pages) { return Mutate([&](JoinOptions& o) { o.buffer_pool_pages = pages; }); }
  JoinQuery& StreamSweep(SweepStructureKind kind) { return Mutate([&](JoinOptions& o) { o.stream_sweep = kind; }); }
  JoinQuery& PartitionSweep(SweepStructureKind kind) { return Mutate([&](JoinOptions& o) { o.partition_sweep = kind; }); }
  JoinQuery& StripedStrips(uint32_t strips) { return Mutate([&](JoinOptions& o) { o.striped_strips = strips; }); }
  JoinQuery& PbsmTilesPerAxis(uint32_t tiles) { return Mutate([&](JoinOptions& o) { o.pbsm_tiles_per_axis = tiles; }); }
  /// Skew-adaptive PBSM partitioning (on by default); false is the
  /// fixed-grid escape hatch (the paper's round-robin tiling).
  JoinQuery& AdaptivePartitioning(bool on) { return Mutate([&](JoinOptions& o) { o.adaptive_partitioning = on; }); }
  JoinQuery& PbsmHistogramResolution(uint32_t cells) { return Mutate([&](JoinOptions& o) { o.pbsm_histogram_resolution = cells; }); }
  JoinQuery& FuseMergeSweep(bool on) { return Mutate([&](JoinOptions& o) { o.fuse_merge_sweep = on; }); }
  JoinQuery& MultiwayStrips(uint32_t strips) { return Mutate([&](JoinOptions& o) { o.multiway_strips = strips; }); }
  JoinQuery& RefineBatchPairs(uint32_t pairs) { return Mutate([&](JoinOptions& o) { o.refine_batch_pairs = pairs; }); }
  /// Storage backend for this query's scratch/spill files (null =
  /// in-memory). Shared because partition shards create files
  /// concurrently; results and modeled I/O are identical on any backend.
  JoinQuery& Storage(std::shared_ptr<StorageFactory> factory) { return Mutate([&](JoinOptions& o) { o.storage = std::move(factory); }); }
  /// External-merge fan-in (0 = auto; see JoinOptions::merge_fan_in).
  JoinQuery& MergeFanIn(uint32_t fan_in) { return Mutate([&](JoinOptions& o) { o.merge_fan_in = fan_in; }); }

  JoinOptions& mutable_options() { return options_; }
  const JoinOptions& options() const { return options_; }

  /// Service plumbing: executes this query against an externally owned
  /// arbiter (a child the SpatialService carved out of its global budget)
  /// instead of a fresh per-query one. The arbiter's budget should match
  /// the query's memory_bytes; grants, peaks, and strict-mode behaviour
  /// are unchanged. Most callers never touch this.
  JoinQuery& UseArbiter(std::shared_ptr<MemoryArbiter> arbiter) {
    arbiter_override_ = std::move(arbiter);
    return *this;
  }

  /// Compiles the query and returns the planner's decision without
  /// executing anything (EXPLAIN). Reflects forced algorithms and
  /// predicate transforms exactly as Run would see them.
  Result<PlanDecision> Explain();

  /// Runs the pairwise pipeline (exactly 2 inputs): compile, execute the
  /// filter through the registry, apply refinement when enabled. Results
  /// go to `sink` as (id from input 0, id from input 1) pairs.
  ///
  /// This is a thin synchronous wrapper over a single-query
  /// SpatialService (service/spatial_service.h): the query is submitted
  /// to an inline service owning exactly this query's budget, admitted in
  /// full, executed on the calling thread, and its result returned — so
  /// the standalone and the multi-tenant paths are one code path, and
  /// every error comes back through the same Status taxonomy.
  Result<JoinStats> Run(JoinSink* sink);

  /// Runs the k-way pipeline (>= 2 inputs, Predicate::kIntersects only):
  /// tuples of ids, one per input, whose MBRs share a common point —
  /// refined against exact geometry when Refine(true). Executes directly
  /// (the service schedules pairwise queries; a k-way query submitted
  /// through a service runs under its arbiter via UseArbiter).
  Result<MultiwayStats> Run(TupleSink* sink);

 private:
  friend class SpatialService;
  /// PipelineQuery feeds its operator chain from RunDirect (the join is
  /// the pipeline's source, executing under the pipeline's arbiter).
  friend class PipelineQuery;

  /// The pairwise execution body (compile + executor dispatch +
  /// refinement), shared by the Run() wrapper and the service's workers.
  Result<JoinStats> RunDirect(JoinSink* sink);
  template <typename Fn>
  JoinQuery& Mutate(Fn&& fn) {
    fn(options_);
    return *this;
  }

  /// Shared validation + input resolution. `multiway` selects the k-way
  /// rules (input count, predicate restrictions); `plan_only` skips the
  /// ε-expansion materialization (Explain never executes I/O passes).
  Result<CompiledPlan> Compile(bool multiway, bool plan_only = false);

  /// Applies the ε-expansion transform for kDistanceWithin to the plan's
  /// resolved inputs (see Predicate documentation in join/predicate.h).
  Status ApplyDistanceTransform(CompiledPlan& plan);

  SpatialJoiner* joiner_;
  std::vector<JoinInput> inputs_;
  std::vector<std::pair<size_t, const GridHistogram*>> histograms_;
  std::vector<std::pair<size_t, const FeatureStore*>> features_;
  PredicateSpec predicate_;
  JoinAlgorithm algorithm_ = JoinAlgorithm::kAuto;
  JoinOptions options_;
  /// Set via UseArbiter (service mode); null = Compile creates one.
  std::shared_ptr<MemoryArbiter> arbiter_override_;
};

}  // namespace sj

#endif  // USJ_CORE_JOIN_QUERY_H_
