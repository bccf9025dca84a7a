#include "core/join_query.h"

#include <cmath>
#include <string>
#include <utility>

#include "io/stream.h"
#include "refine/refine.h"
#include "service/spatial_service.h"
#include "util/timer.h"

namespace sj {

namespace {

/// Folds the compile step's own I/O and CPU (ε-expansion passes, tree
/// rebuilds) into the reported stats, so a query's counters cover all the
/// work it caused.
template <typename Stats>
void FoldCompileOverhead(const CompiledPlan& plan, Stats* stats) {
  stats->disk += plan.compile_disk;
  stats->host_cpu_seconds += plan.compile_cpu_seconds;
}

Status MissingFeaturesError(size_t index, bool multiway) {
  return Status::FailedPrecondition(
      std::string("refine=true but input #") + std::to_string(index) +
      (multiway ? " of the multiway join" : "") +
      " has no FeatureStore: attach the relation's exact geometry with "
      "JoinInput::WithFeatures or JoinQuery::WithFeatures before running "
      "a refining query");
}

}  // namespace

JoinQuery& JoinQuery::WithFeatures(size_t index, const FeatureStore* store) {
  features_.emplace_back(index, store);
  return *this;
}

Status JoinQuery::ApplyDistanceTransform(CompiledPlan& plan) {
  const double eps = plan.predicate.epsilon;
  // The transform's buffers (collected rectangles, and for ST the
  // expanded side's bulk-load sort) are governed like everything else.
  MemoryGrant transform_grant = plan.arbiter->AcquireShrinkable(
      grants::kRTreeBulkLoad, plan.options.memory_bytes / 2,
      RunLayout::kMinSortMemoryBytes);
  // Expand the side that avoids disturbing an index when possible: a
  // stream side if there is one, else side 1 (rebuilt below when the
  // forced algorithm needs the index back).
  size_t side = 1;
  if (plan.inputs[1].indexed() && !plan.inputs[0].indexed()) side = 0;
  const JoinInput original = plan.inputs[side];

  std::vector<RectF> rects;
  if (original.indexed()) {
    SJ_RETURN_IF_ERROR(original.rtree()->CollectAll(&rects));
  } else {
    const StreamRange& range = original.stream().range;
    StreamReader<RectF> reader(range.pager, range.first_page, range.count);
    while (std::optional<RectF> r = reader.Next()) rects.push_back(*r);
  }
  for (RectF& r : rects) r = ExpandRectForDistance(r, eps);
  transform_grant.NoteUsage(rects.size() * sizeof(RectF));

  SJ_ASSIGN_OR_RETURN(
      auto pager,
      MakePager(plan.options.storage.get(), plan.disk, "distance.expanded"));
  StreamWriter<RectF> writer(pager.get());
  const PageId first = writer.first_page();
  for (const RectF& r : rects) writer.Append(r);
  SJ_ASSIGN_OR_RETURN(uint64_t n, writer.Finish());
  DatasetRef expanded;
  expanded.range = StreamRange{pager.get(), first, n};
  expanded.extent = ExpandRectForDistance(original.extent(), eps);

  JoinInput replacement = JoinInput::FromStream(expanded);
  if (algorithm_ == JoinAlgorithm::kST) {
    // ST traverses two indexes, so the expanded side gets a temporary
    // tree of its own (same parameters as the original index).
    SJ_ASSIGN_OR_RETURN(auto tree_pager,
                        MakePager(plan.options.storage.get(), plan.disk,
                                  "distance.expanded.tree"));
    SJ_ASSIGN_OR_RETURN(auto scratch,
                        MakePager(plan.options.storage.get(), plan.disk,
                                  "distance.expanded.scratch"));
    const RTreeParams params =
        original.indexed() ? original.rtree()->params() : RTreeParams();
    SJ_ASSIGN_OR_RETURN(
        RTree tree,
        RTree::BulkLoadHilbert(tree_pager.get(), expanded.range,
                               scratch.get(), params,
                               transform_grant.bytes()));
    plan.owned_trees.push_back(std::make_unique<RTree>(std::move(tree)));
    replacement = JoinInput::FromRTree(plan.owned_trees.back().get());
    plan.owned_pagers.push_back(std::move(tree_pager));
    plan.owned_pagers.push_back(std::move(scratch));
  }
  replacement.WithFeatures(original.features());
  plan.inputs[side] = replacement;
  plan.owned_pagers.push_back(std::move(pager));

  // The user's histograms describe the *unexpanded* relations; pruning an
  // index traversal with them could now drop pairs discovered only in the
  // ε-fringe, so traversals fall back to extent-only pruning. (The
  // planner already consumed them for its estimate above the transform.)
  for (const GridHistogram*& hist : plan.prune_histograms) hist = nullptr;
  return Status::OK();
}

Result<CompiledPlan> JoinQuery::Compile(bool multiway, bool plan_only) {
  CompiledPlan plan;
  plan.disk = joiner_->disk();
  plan.options = options_;
  plan.predicate = predicate_;

  // Absurdly small budgets used to flow into divisions downstream; the
  // floor is kMinMemoryBytes (64 KiB), below which the component floors
  // no longer fit together.
  if (options_.memory_bytes < kMinMemoryBytes) {
    return Status::FailedPrecondition(
        "memory budget " + std::to_string(options_.memory_bytes) +
        " B is below the supported floor of " +
        std::to_string(kMinMemoryBytes) +
        " B (kMinMemoryBytes, 64 KiB); raise JoinQuery::MemoryBytes / "
        "JoinOptions::memory_bytes");
  }
  plan.arbiter = arbiter_override_ != nullptr
                     ? arbiter_override_
                     : std::make_shared<MemoryArbiter>(
                           options_.memory_bytes,
                           options_.strict_memory_accounting);

  if (multiway) {
    if (inputs_.size() < 2) {
      return Status::InvalidArgument("multiway join needs at least 2 inputs");
    }
  } else if (inputs_.size() != 2) {
    return Status::InvalidArgument(
        "pairwise JoinQuery::Run needs exactly 2 inputs (got " +
        std::to_string(inputs_.size()) +
        "); run k-way joins against a TupleSink");
  }
  plan.inputs = inputs_;
  plan.prune_histograms.assign(plan.inputs.size(), nullptr);
  for (const auto& [index, store] : features_) {
    if (index >= plan.inputs.size()) {
      return Status::InvalidArgument(
          "JoinQuery::WithFeatures index " + std::to_string(index) +
          " out of range: the query has " +
          std::to_string(plan.inputs.size()) + " inputs");
    }
    plan.inputs[index].WithFeatures(store);
  }
  for (const auto& [index, hist] : histograms_) {
    if (index >= plan.inputs.size()) {
      return Status::InvalidArgument(
          "JoinQuery::WithHistogram index " + std::to_string(index) +
          " out of range: the query has " +
          std::to_string(plan.inputs.size()) + " inputs");
    }
    plan.prune_histograms[index] = hist;
  }

  // Predicate rules (see join/predicate.h).
  if (predicate_.kind == Predicate::kDistanceWithin &&
      !(predicate_.epsilon >= 0.0)) {
    return Status::InvalidArgument(
        "Predicate::kDistanceWithin needs a non-negative epsilon");
  }
  if (multiway && predicate_.kind != Predicate::kIntersects) {
    return Status::InvalidArgument(
        std::string("k-way joins support Predicate::kIntersects only (got ") +
        ToString(predicate_.kind) + ")");
  }
  if (predicate_.kind == Predicate::kContains && !plan.options.refine) {
    return Status::InvalidArgument(
        "Predicate::kContains is a refinement-stage predicate over exact "
        "geometry: enable Refine(true) and attach FeatureStores to both "
        "inputs");
  }
  if (plan.options.refine) {
    for (size_t i = 0; i < plan.inputs.size(); ++i) {
      if (plan.inputs[i].features() == nullptr) {
        return MissingFeaturesError(i, multiway);
      }
    }
  }

  // Planning, then transforms. The order matters: the planner sees the
  // unexpanded inputs while the user's histograms are still attached, so
  // they sharpen the touched-fraction estimate as documented; only after
  // that does the ε-transform rewrite a side (and drop the histograms,
  // which describe the unexpanded data). The transform's own passes are
  // measured and folded into the query's stats by Run.
  if (!multiway) {
    // Exact PBSM grid reporting only for Explain (plan_only): a PBSM
    // execution re-derives its grid from the same inputs anyway, and
    // the other executors never read it.
    plan.decision =
        joiner_->Plan(plan.inputs[0], plan.inputs[1], plan.prune_histogram(0),
                      plan.prune_histogram(1), &plan.options,
                      /*exact_pbsm_preplan=*/plan_only);
    if (algorithm_ != JoinAlgorithm::kAuto) {
      plan.decision.algorithm = algorithm_;
      plan.decision.memory = PlanJoinMemory(
          algorithm_, plan.options,
          (plan.inputs[0].count() + plan.inputs[1].count()) * sizeof(RectF));
      plan.decision.rationale =
          std::string("algorithm forced to ") + ToString(algorithm_) +
          " by the query";
    }
    if (!plan_only && predicate_.kind == Predicate::kDistanceWithin) {
      JoinMeasurement compile_measurement(plan.disk);
      SJ_RETURN_IF_ERROR(ApplyDistanceTransform(plan));
      const JoinStats compile_stats = compile_measurement.Finish();
      plan.compile_disk = compile_stats.disk;
      plan.compile_cpu_seconds = compile_stats.host_cpu_seconds;
    }
  }
  return plan;
}

Result<PlanDecision> JoinQuery::Explain() {
  // plan_only: validation + planning without the ε-expansion
  // materialization (the planner runs before the transform either way,
  // so the decision is exactly what Run would execute).
  SJ_ASSIGN_OR_RETURN(CompiledPlan plan,
                      Compile(/*multiway=*/false, /*plan_only=*/true));
  return plan.decision;
}

Result<JoinStats> JoinQuery::Run(JoinSink* sink) {
  // The single-query service: an inline scheduler owning exactly this
  // query's budget (no shared workers, no shared pool), so the standalone
  // path and the multi-tenant path execute the same admission + execution
  // code and report errors through the same taxonomy.
  ServiceOptions service_options;
  service_options.global_memory_bytes = options_.memory_bytes;
  service_options.worker_threads = 0;
  service_options.buffer_pool_pages = 0;
  SpatialService service(service_options);
  return service.Run(*this, sink);
}

Result<JoinStats> JoinQuery::RunDirect(JoinSink* sink) {
  SJ_ASSIGN_OR_RETURN(CompiledPlan plan, Compile(/*multiway=*/false));
  const JoinExecutor* executor = FindExecutor(plan.decision.algorithm);
  if (executor == nullptr) {
    return Status::Internal(
        std::string("no JoinExecutor registered for algorithm ") +
        ToString(plan.decision.algorithm));
  }
  SJ_RETURN_IF_ERROR(executor->Validate(plan));
  if (!plan.options.refine) {
    SJ_ASSIGN_OR_RETURN(JoinStats stats, executor->Execute(plan, sink));
    stats.candidate_count = stats.output_count;
    FoldCompileOverhead(plan, &stats);
    FillMemoryStats(*plan.arbiter, &stats);
    return stats;
  }
  // Filter step: the MBR join buffers candidates; refinement resolves
  // them against exact geometry and forwards survivors to the caller.
  CollectingSink candidates;
  SJ_ASSIGN_OR_RETURN(JoinStats stats, executor->Execute(plan, &candidates));
  ThreadCpuTimer refine_cpu;
  SJ_ASSIGN_OR_RETURN(
      RefineStats refined,
      RefinePairs(candidates.pairs(), *plan.inputs[0].features(),
                  *plan.inputs[1].features(), plan.options, sink,
                  plan.predicate, plan.arbiter.get()));
  stats.candidate_count = refined.candidates;
  stats.output_count = refined.results;
  stats.refine_pages_read = refined.pages_read;
  stats.disk += refined.disk;
  stats.host_cpu_seconds += refine_cpu.Elapsed() + refined.host_cpu_seconds;
  FoldCompileOverhead(plan, &stats);
  FillMemoryStats(*plan.arbiter, &stats);
  return stats;
}

Result<MultiwayStats> JoinQuery::Run(TupleSink* sink) {
  SJ_ASSIGN_OR_RETURN(CompiledPlan plan, Compile(/*multiway=*/true));
  auto fill_memory = [&plan](MultiwayStats* stats) {
    stats->peak_memory_bytes = plan.arbiter->peak_bytes();
    stats->memory_components = plan.arbiter->ComponentStats();
  };
  if (!plan.options.refine) {
    SJ_ASSIGN_OR_RETURN(MultiwayStats stats,
                        ExecuteMultiwayFilter(plan, sink));
    fill_memory(&stats);
    return stats;
  }
  std::vector<const FeatureStore*> stores;
  stores.reserve(plan.inputs.size());
  for (const JoinInput& input : plan.inputs) stores.push_back(input.features());
  // Filter step with candidates buffered in memory, then batched k-way
  // refinement with the pairwise exact predicate.
  CollectingTupleSink candidates;
  SJ_ASSIGN_OR_RETURN(MultiwayStats stats,
                      ExecuteMultiwayFilter(plan, &candidates));
  ThreadCpuTimer refine_cpu;
  SJ_ASSIGN_OR_RETURN(
      RefineStats refined,
      RefineTuples(candidates.tuples(), stores, plan.options, sink,
                   plan.arbiter.get()));
  stats.candidate_count = refined.candidates;
  stats.output_count = refined.results;
  stats.refine_pages_read = refined.pages_read;
  stats.disk += refined.disk;
  stats.host_cpu_seconds += refine_cpu.Elapsed() + refined.host_cpu_seconds;
  fill_memory(&stats);
  return stats;
}

}  // namespace sj
