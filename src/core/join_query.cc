#include "core/join_query.h"

#include <cmath>
#include <string>
#include <utility>

#include "refine/refine.h"
#include "service/spatial_service.h"
#include "util/timer.h"

namespace sj {

namespace {

/// Completes a query's stats from its plan: the compile step's own I/O
/// and CPU (planning, ε-expansion passes, tree rebuilds), so a query's
/// counters cover all the work it caused, and the arbiter's peak and
/// per-component high-water marks.
template <typename Stats>
Stats FinishStats(const CompiledPlan& plan, Stats stats) {
  stats.disk += plan.compile_disk;
  stats.host_cpu_seconds += plan.compile_cpu_seconds;
  stats.peak_memory_bytes = plan.arbiter->peak_bytes();
  stats.memory_components = plan.arbiter->ComponentStats();
  return stats;
}

/// Folds a refinement pass over the filter's candidates into its stats;
/// `cpu_seconds` is the calling thread's share of the pass.
template <typename Stats>
void FoldRefinement(const RefineStats& refined, double cpu_seconds,
                    Stats* stats) {
  stats->candidate_count = refined.candidates;
  stats->output_count = refined.results;
  stats->refine_pages_read = refined.pages_read;
  stats->disk += refined.disk;
  stats->host_cpu_seconds += cpu_seconds + refined.host_cpu_seconds;
}

}  // namespace

Status CheckMemoryFloor(size_t memory_bytes) {
  if (memory_bytes >= kMinMemoryBytes) return Status::OK();
  return Status::FailedPrecondition(
      "memory budget " + std::to_string(memory_bytes) +
      " B is below the supported floor of " + std::to_string(kMinMemoryBytes) +
      " B (kMinMemoryBytes, 64 KiB); raise the query's MemoryBytes / "
      "JoinOptions::memory_bytes");
}

const GridHistogram* QuerySpec::HistogramOf(size_t index) const {
  const GridHistogram* found = nullptr;
  for (const auto& [i, hist] : histograms) {
    if (i == index) found = hist;
  }
  return found;
}

const FeatureStore* QuerySpec::FeaturesOf(size_t index) const {
  const FeatureStore* found = inputs[index].features();
  for (const auto& [i, store] : features) {
    if (i == index) found = store;
  }
  return found;
}

std::shared_ptr<MemoryArbiter> QuerySpec::RunArbiter() const {
  if (arbiter != nullptr) return arbiter;
  return std::make_shared<MemoryArbiter>(options.memory_bytes,
                                         options.strict_memory_accounting);
}

Status QuerySpec::Validate(QuerySource source, const char* front_end) const {
  SJ_RETURN_IF_ERROR(CheckMemoryFloor(options.memory_bytes));
  const size_t n = inputs.size();
  const std::string name = front_end;
  const bool scan = source == QuerySource::kScan;
  const bool multiway = source == QuerySource::kMultiway;
  if (scan ? n < 1 : multiway ? n < 2 : n != 2) {
    const char* rule =
        scan ? "one is a (window) scan source, two run the pairwise spatial "
               "join, three or more the k-way chain"
        : multiway ? "a k-way join (TupleSink) takes at least 2"
                   : "a pairwise join (JoinSink) takes exactly 2; run k-way "
                     "joins against a TupleSink";
    return Status::InvalidArgument(name + " has " + std::to_string(n) +
                                   " inputs: " + rule);
  }
  auto out_of_range = [&](const char* setter, size_t index) {
    return Status::InvalidArgument(
        name + "::" + setter + " index " + std::to_string(index) +
        " out of range: the query has " + std::to_string(n) + " inputs");
  };
  for (const auto& [index, store] : features) {
    if (index >= n) return out_of_range("WithFeatures", index);
  }
  for (const auto& [index, hist] : histograms) {
    if (index >= n) return out_of_range("WithHistogram", index);
  }

  if (scan) {
    if (predicate.kind != Predicate::kIntersects || predicate.epsilon != 0.0 ||
        algorithm != JoinAlgorithm::kAuto || options.refine) {
      return Status::InvalidArgument(
          "Predicate(), Algorithm() and Refine(true) apply to join sources; "
          "a single-input " + name + " is a scan that emits MBR records "
          "directly (add a second Input, or drop them)");
    }
    return Status::OK();
  }
  // Predicate rules (see join/predicate.h).
  if (predicate.kind == Predicate::kDistanceWithin &&
      !(predicate.epsilon >= 0.0)) {
    return Status::InvalidArgument(
        "Predicate::kDistanceWithin needs a non-negative epsilon");
  }
  if (multiway && predicate.kind != Predicate::kIntersects) {
    return Status::InvalidArgument(
        std::string("k-way joins support Predicate::kIntersects only (got ") +
        ToString(predicate.kind) + ")");
  }
  if (multiway && algorithm != JoinAlgorithm::kAuto) {
    return Status::InvalidArgument(
        "Algorithm() applies to pairwise joins; the k-way chain has a single "
        "execution strategy");
  }
  if (predicate.kind == Predicate::kContains && !options.refine) {
    return Status::InvalidArgument(
        "Predicate::kContains is a refinement-stage predicate over exact "
        "geometry: enable Refine(true) and attach FeatureStores to both "
        "inputs");
  }
  if (options.refine) {
    for (size_t i = 0; i < n; ++i) {
      if (FeaturesOf(i) != nullptr) continue;
      return Status::FailedPrecondition(
          "refine=true but input #" + std::to_string(i) +
          (multiway ? " of the multiway join" : "") +
          " has no FeatureStore: attach the relation's exact geometry with "
          "JoinInput::WithFeatures or " + name +
          "::WithFeatures before running a refining query");
    }
  }
  return Status::OK();
}

Status JoinQuery::ApplyDistanceTransform(CompiledPlan& plan,
                                         bool plan_only) {
  const double eps = plan.predicate.epsilon;
  // Expand the side that avoids disturbing an index when possible: a
  // stream side if there is one, else side 1 (rebuilt below when the
  // forced algorithm needs the index back).
  size_t side = 1;
  if (plan.inputs[1].indexed() && !plan.inputs[0].indexed()) side = 0;
  const JoinInput original = plan.inputs[side];
  DatasetRef expanded;
  expanded.extent = ExpandRectForDistance(original.extent(), eps);

  // The user's histograms describe the *unexpanded* relations; pruning an
  // index traversal with them could now drop pairs discovered only in the
  // ε-fringe, so traversals fall back to extent-only pruning. (The
  // planner already consumed them for its estimate above the transform.)
  for (const GridHistogram*& hist : plan.prune_histograms) hist = nullptr;
  if (plan_only) {
    // Explain reads no data: the expanded side is described by its count
    // (ST's rebuilt tree too, whose grant PlanJoinMemory replays), and
    // PBSM is priced over the inputs it joins, without the histograms it
    // now builds for itself.
    expanded.range.count = original.count();
    plan.inputs[side] =
        JoinInput::FromStream(expanded).WithFeatures(original.features());
    spec_.joiner->PlanPBSM(plan.inputs[0], plan.inputs[1], nullptr, nullptr,
                           plan.options, &plan.decision);
    return Status::OK();
  }

  // One pass: each rectangle is expanded and appended as it is read, so
  // the transform holds no copy of its side.
  SJ_ASSIGN_OR_RETURN(
      auto pager,
      MakePager(plan.options.storage.get(), plan.disk, "distance.expanded"));
  SJ_ASSIGN_OR_RETURN(expanded.range,
                      WriteRecords(original, pager.get(), [eps](const RectF& r) {
                        return ExpandRectForDistance(r, eps);
                      }));

  JoinInput replacement = JoinInput::FromStream(expanded);
  if (plan.decision.algorithm == JoinAlgorithm::kST) {
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
    // The rebuild's sort is governed like everything else.
    const MemoryGrant sort_grant = plan.arbiter->AcquireShrinkable(
        RTree::BulkLoadRequest(plan.options.memory_bytes));
    SJ_ASSIGN_OR_RETURN(
        RTree tree,
        RTree::BulkLoadHilbert(tree_pager.get(), expanded.range,
                               scratch.get(), params, sort_grant.bytes()));
    plan.owned_trees.push_back(std::make_unique<RTree>(std::move(tree)));
    replacement = JoinInput::FromRTree(plan.owned_trees.back().get());
    plan.owned_pagers.push_back(std::move(tree_pager));
    plan.owned_pagers.push_back(std::move(scratch));
  }
  replacement.WithFeatures(original.features());
  plan.inputs[side] = replacement;
  plan.owned_pagers.push_back(std::move(pager));
  return Status::OK();
}

Result<CompiledPlan> JoinQuery::Compile(bool multiway, bool plan_only) {
  ThreadCpuTimer compile_cpu;
  SJ_RETURN_IF_ERROR(spec_.Validate(
      multiway ? QuerySource::kMultiway : QuerySource::kPairwise, "JoinQuery"));
  CompiledPlan plan;
  plan.disk = spec_.joiner->disk();
  plan.options = spec_.options;
  plan.predicate = spec_.predicate;
  plan.arbiter = spec_.RunArbiter();
  plan.inputs = spec_.inputs;
  plan.prune_histograms.resize(plan.inputs.size());
  for (size_t i = 0; i < plan.inputs.size(); ++i) {
    plan.inputs[i].WithFeatures(spec_.FeaturesOf(i));
    plan.prune_histograms[i] = spec_.HistogramOf(i);
  }

  // Planning, then transforms. The order matters: the planner sees the
  // unexpanded inputs while the user's histograms are still attached, so
  // they sharpen the touched-fraction estimate as documented; only after
  // that does the ε-transform rewrite a side (and drop the histograms,
  // which describe the unexpanded data). The transform's own passes are
  // measured and folded into the query's stats by Run.
  if (!multiway) {
    // Explain (plan_only) prices every plan. Execution asks the planner
    // only when it has a choice to make, and then only for the terms
    // that decide it (SpatialJoiner::Plan); a forced algorithm needs no
    // planning at all.
    const JoinAlgorithm forced = spec_.algorithm;
    if (plan_only || forced == JoinAlgorithm::kAuto) {
      plan.decision = spec_.joiner->Plan(plan.inputs[0], plan.inputs[1],
                                         plan.prune_histogram(0),
                                         plan.prune_histogram(1),
                                         &plan.options, /*explain=*/plan_only);
    }
    if (forced != JoinAlgorithm::kAuto) {
      plan.decision.algorithm = forced;
      plan.decision.rationale =
          std::string("algorithm forced to ") + ToString(forced) +
          " by the query";
    }
    if (plan.predicate.kind == Predicate::kDistanceWithin) {
      const DiskStats before = plan.disk->stats();
      SJ_RETURN_IF_ERROR(ApplyDistanceTransform(plan, plan_only));
      plan.compile_disk = plan.disk->stats() - before;
    }
  }
  plan.compile_cpu_seconds = compile_cpu.Elapsed();
  return plan;
}

Result<PlanDecision> JoinQuery::Explain() {
  MemoryArbiter scratch(spec_.options.memory_bytes);
  SJ_ASSIGN_OR_RETURN(PlanDecision decision,
                      ExplainOn(&scratch, /*multiway=*/false));
  decision.memory = MemoryPlan::Of(scratch);
  return decision;
}

Result<PlanDecision> JoinQuery::ExplainOn(MemoryArbiter* arbiter,
                                          bool multiway) {
  // plan_only: validation + planning without the ε-expansion
  // materialization (the planner runs before the transform either way,
  // so the decision is exactly what Run would execute).
  SJ_ASSIGN_OR_RETURN(CompiledPlan plan,
                      Compile(multiway, /*plan_only=*/true));
  PlanJoinMemory(plan, arbiter);
  return std::move(plan.decision);
}

Result<JoinStats> JoinQuery::Run(JoinSink* sink) {
  return SpatialService::RunInline(*this, sink);
}

Result<JoinStats> JoinQuery::RunDirect(JoinSink* sink) {
  SJ_ASSIGN_OR_RETURN(CompiledPlan plan, Compile(/*multiway=*/false));
  // Filter step. With refinement the MBR join buffers candidates, which
  // refinement resolves against exact geometry, forwarding survivors to
  // the caller.
  CollectingSink candidates;
  SJ_ASSIGN_OR_RETURN(
      JoinStats stats,
      ExecuteJoin(plan, plan.options.refine ? &candidates : sink));
  stats.algorithm = plan.decision.algorithm;
  stats.candidate_count = stats.output_count;
  if (plan.options.refine) {
    ThreadCpuTimer refine_cpu;
    SJ_ASSIGN_OR_RETURN(
        RefineStats refined,
        RefinePairs(candidates.pairs(), *plan.inputs[0].features(),
                    *plan.inputs[1].features(), plan.options, sink,
                    plan.predicate, plan.arbiter.get()));
    FoldRefinement(refined, refine_cpu.Elapsed(), &stats);
  }
  return FinishStats(plan, std::move(stats));
}

Result<MultiwayStats> JoinQuery::Run(TupleSink* sink) {
  SJ_ASSIGN_OR_RETURN(CompiledPlan plan, Compile(/*multiway=*/true));
  // Filter step, with candidates buffered in memory when batched k-way
  // refinement with the pairwise exact predicate follows.
  CollectingTupleSink candidates;
  SJ_ASSIGN_OR_RETURN(
      MultiwayStats stats,
      ExecuteMultiwayFilter(plan, plan.options.refine ? &candidates : sink));
  if (plan.options.refine) {
    std::vector<const FeatureStore*> stores;
    stores.reserve(plan.inputs.size());
    for (const JoinInput& input : plan.inputs) {
      stores.push_back(input.features());
    }
    ThreadCpuTimer refine_cpu;
    SJ_ASSIGN_OR_RETURN(
        RefineStats refined,
        RefineTuples(candidates.tuples(), stores, plan.options, sink,
                     plan.arbiter.get()));
    FoldRefinement(refined, refine_cpu.Elapsed(), &stats);
  }
  return FinishStats(plan, std::move(stats));
}

}  // namespace sj
