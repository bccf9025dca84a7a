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

/// Rejects a per-query budget below kMinMemoryBytes (64 KiB), below which
/// the component floors no longer fit together, with FailedPrecondition.
/// The one floor check: both query front ends and the service's admission
/// run it.
Status CheckMemoryFloor(size_t memory_bytes);

/// What a query's inputs feed, which decides the rules they obey: one
/// input is a scan (pipelines only), the pairwise join takes exactly two,
/// the k-way chain two or more.
enum class QuerySource { kScan, kPairwise, kMultiway };

/// Everything a query asks for apart from downstream operators: the
/// joiner, inputs and what attaches to them, predicate, algorithm,
/// per-query options and the service's arbiter. JoinQuery and
/// PipelineQuery hold one each (through QueryBuilder); a pipeline's join
/// is a copy of its spec with the windowed inputs swapped in.
struct QuerySpec {
  /// Queries inherit the joiner's JoinOptions as per-query defaults; the
  /// joiner (and the DiskModel behind it) must outlive the query.
  explicit QuerySpec(SpatialJoiner& joiner)
      : joiner(&joiner), options(joiner.options()) {}

  /// The rules that hold whatever runs the query, checked before any I/O:
  /// the budget floor, the input count for `source`, attachment indices,
  /// the predicate and ε rules, the k-way limits, and FeatureStores on
  /// every input of a refining join. `front_end` names the builder in
  /// messages.
  Status Validate(QuerySource source, const char* front_end) const;

  /// The histogram attached to input `index` (the last one wins; null
  /// when none).
  const GridHistogram* HistogramOf(size_t index) const;
  /// Input `index`'s exact geometry: the last store the query attached,
  /// else the input's own (JoinInput::WithFeatures).
  const FeatureStore* FeaturesOf(size_t index) const;
  /// The arbiter a run draws every grant from: the service's carved
  /// child, else a fresh one for the query's own budget.
  std::shared_ptr<MemoryArbiter> RunArbiter() const;

  SpatialJoiner* joiner;
  std::vector<JoinInput> inputs;
  std::vector<std::pair<size_t, const GridHistogram*>> histograms;
  std::vector<std::pair<size_t, const FeatureStore*>> features;
  PredicateSpec predicate;
  JoinAlgorithm algorithm = JoinAlgorithm::kAuto;
  JoinOptions options;
  /// The service's carved child arbiter; null = the query creates one.
  std::shared_ptr<MemoryArbiter> arbiter;
};

/// The builder setters JoinQuery and PipelineQuery share, written once
/// over their QuerySpec. Each returns the concrete query, so chains mix
/// shared and front-end setters freely.
template <typename Derived>
class QueryBuilder {
 public:
  /// Appends an input (position = order of the Input calls).
  Derived& Input(const JoinInput& input) {
    spec_.inputs.push_back(input);
    return self();
  }

  /// Attaches an occupancy histogram to input `index`. Histograms sharpen
  /// the planner's touched-fraction estimate, prune selective index
  /// traversals of the *other* side and prune window scans. The histogram
  /// must outlive Run().
  Derived& WithHistogram(size_t index, const GridHistogram* histogram) {
    if (histogram != nullptr) spec_.histograms.emplace_back(index, histogram);
    return self();
  }

  /// Attaches exact geometry to input `index` (equivalent to calling
  /// JoinInput::WithFeatures before Input); required by Refine(true). The
  /// store must outlive Run().
  Derived& WithFeatures(size_t index, const FeatureStore* store) {
    spec_.features.emplace_back(index, store);
    return self();
  }

  /// Selects the join predicate; `epsilon` is the distance bound for
  /// Predicate::kDistanceWithin and ignored otherwise. kContains means
  /// "input 0 contains input 1" and requires Refine(true) with
  /// FeatureStores on both inputs. k-way joins take kIntersects only.
  Derived& Predicate(sj::Predicate kind, double epsilon = 0.0) {
    spec_.predicate.kind = kind;
    spec_.predicate.epsilon = epsilon;
    return self();
  }

  /// Forces the pairwise join's filter algorithm (default kAuto =
  /// cost-based planning; the k-way chain has a single strategy).
  Derived& Algorithm(JoinAlgorithm algorithm) {
    spec_.algorithm = algorithm;
    return self();
  }

  // Per-query JoinOptions overrides. Each setter adjusts this query's
  // private copy of the joiner's options; the shared joiner is never
  // mutated. mutable_options() is the escape hatch covering every knob.
  Derived& Refine(bool on) { return Set(&JoinOptions::refine, on); }
  Derived& Threads(uint32_t n) { return Set(&JoinOptions::num_threads, n); }
  Derived& MemoryBytes(size_t bytes) { return Set(&JoinOptions::memory_bytes, bytes); }
  /// Most strips a Striped-Sweep may use (see JoinOptions::striped_strips).
  Derived& StripedStrips(uint32_t strips) { return Set(&JoinOptions::striped_strips, strips); }
  Derived& PbsmTilesPerAxis(uint32_t tiles) { return Set(&JoinOptions::pbsm_tiles_per_axis, tiles); }
  /// Skew-adaptive PBSM partitioning (on by default); false is the
  /// fixed-grid escape hatch (the paper's round-robin tiling).
  Derived& AdaptivePartitioning(bool on) { return Set(&JoinOptions::adaptive_partitioning, on); }
  Derived& FuseMergeSweep(bool on) { return Set(&JoinOptions::fuse_merge_sweep, on); }
  /// Storage backend for this query's scratch/spill files (null =
  /// in-memory). Shared because partition shards create files
  /// concurrently; results and modeled I/O are identical on any backend.
  Derived& Storage(std::shared_ptr<StorageFactory> factory) {
    return Set(&JoinOptions::storage, std::move(factory));
  }

  JoinOptions& mutable_options() { return spec_.options; }
  const JoinOptions& options() const { return spec_.options; }

 protected:
  explicit QueryBuilder(SpatialJoiner& joiner) : spec_(joiner) {}
  explicit QueryBuilder(QuerySpec spec) : spec_(std::move(spec)) {}

  /// Service plumbing: executes the query against an externally owned
  /// arbiter (a child the SpatialService carved out of its global budget)
  /// instead of a fresh per-query one. The arbiter's budget should match
  /// the query's memory_bytes; grants, peaks, and strict-mode behaviour
  /// are unchanged.
  void UseArbiter(std::shared_ptr<MemoryArbiter> arbiter) {
    spec_.arbiter = std::move(arbiter);
  }

  QuerySpec spec_;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
  template <typename Field, typename Value>
  Derived& Set(Field JoinOptions::*field, Value&& value) {
    spec_.options.*field = std::forward<Value>(value);
    return self();
  }
};

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
/// and Run dispatches on the compiled plan (ExecuteJoin): two inputs with
/// a JoinSink run the pairwise pipeline, two or more with a TupleSink run
/// the k-way chain. The query object is cheap to build and single-shot
/// state-free: Run() may be called repeatedly and each call compiles a
/// fresh plan.
class JoinQuery : public QueryBuilder<JoinQuery> {
 public:
  explicit JoinQuery(SpatialJoiner& joiner) : QueryBuilder(joiner) {}

  /// Compiles the query and returns the planner's decision without
  /// executing anything (EXPLAIN), with every plan priced. Reflects forced
  /// algorithms and predicate transforms exactly as Run would see them;
  /// Run executes the algorithm reported here (JoinStats::algorithm), and
  /// is granted the memory plan reported here: the run's grant requests
  /// replayed on a scratch arbiter of the query's budget.
  Result<PlanDecision> Explain();

  /// Runs the pairwise pipeline (exactly 2 inputs): compile, execute the
  /// filter through ExecuteJoin, apply refinement when enabled. Results
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
  /// (the service schedules pairwise queries and pipelines; a pipeline's
  /// k-way source runs under the pipeline's arbiter).
  Result<MultiwayStats> Run(TupleSink* sink);

 private:
  friend class SpatialService;
  /// PipelineQuery builds its join from a copy of its spec (JoinOver)
  /// and feeds its operator chain from RunDirect (the join is the
  /// pipeline's source, executing under the pipeline's arbiter).
  friend class PipelineQuery;

  explicit JoinQuery(QuerySpec spec) : QueryBuilder(std::move(spec)) {}

  /// The pairwise execution body (compile + executor dispatch +
  /// refinement), shared by the Run() wrapper and the service's workers.
  Result<JoinStats> RunDirect(JoinSink* sink);

  /// Explain's body: the decision Run executes, with the run's grant
  /// requests replayed on `arbiter` (PlanJoinMemory) — a scratch arbiter
  /// of the query's budget, or a pipeline's after its operators and rect
  /// maps. `multiway` compiles the k-way chain and replays its requests.
  Result<PlanDecision> ExplainOn(MemoryArbiter* arbiter, bool multiway);

  /// Validation + input resolution. `multiway` selects the k-way rules
  /// (input count, predicate restrictions); `plan_only` (Explain) prices
  /// every plan and describes the ε-expansion without materializing it
  /// (Explain never executes I/O passes), while execution plans only as
  /// far as the algorithm choice needs. The whole compile's CPU lands in
  /// CompiledPlan::compile_cpu_seconds.
  Result<CompiledPlan> Compile(bool multiway, bool plan_only = false);

  /// Applies the ε-expansion transform for kDistanceWithin to the plan's
  /// resolved inputs (see Predicate documentation in join/predicate.h);
  /// `plan_only` describes the expanded side without reading it.
  Status ApplyDistanceTransform(CompiledPlan& plan, bool plan_only);
};

}  // namespace sj

#endif  // USJ_CORE_JOIN_QUERY_H_
