#include "core/spatial_join.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "join/partition_plan.h"

namespace sj {

PlanDecision SpatialJoiner::Plan(const JoinInput& a, const JoinInput& b,
                                 const GridHistogram* hist_a,
                                 const GridHistogram* hist_b,
                                 const JoinOptions* options_override,
                                 bool exact_pbsm_preplan) const {
  const JoinOptions& options =
      options_override != nullptr ? *options_override : options_;
  PlanDecision decision;
  const uint64_t total_pages = a.pages() + b.pages();
  const uint64_t total_bytes_est = (a.count() + b.count()) * sizeof(RectF);

  // Memory planning first: every cost below is priced at the *granted*
  // memory, not the raw knob — under a tight budget the streaming plans
  // pay extra external-sort merge passes, which shifts the kAuto
  // streaming-vs-index crossover.
  const MemoryPlan sssj_memory =
      PlanJoinMemory(JoinAlgorithm::kSSSJ, options, total_bytes_est);
  const size_t sort_grant = sssj_memory.GrantFor(grants::kSortRuns);

  // Estimate the fraction of each side a traversal touches: prefer
  // histogram mass, fall back to extent overlap area ratio.
  auto touched = [&](const JoinInput& self, const JoinInput& other,
                     const GridHistogram* h_self,
                     const GridHistogram* h_other) -> double {
    if (h_self != nullptr && h_other != nullptr) {
      return h_self->EstimateJoinFraction(*h_other);
    }
    const RectF se = self.extent(), oe = other.extent();
    if (!se.Intersects(oe)) return 0.0;
    const double self_area = se.Area();
    if (self_area <= 0.0) return 1.0;
    return std::min(1.0, se.IntersectionWith(oe).Area() / self_area);
  };
  const double frac_a = touched(a, b, hist_a, hist_b);
  const double frac_b = touched(b, a, hist_b, hist_a);

  // The refinement I/O term (§6.3 extended to the filter-and-refine
  // pipeline): every plan pays it equally, on top of its filter cost.
  if (options.refine && a.features() != nullptr && b.features() != nullptr) {
    const uint64_t est_candidates = static_cast<uint64_t>(
        std::max(frac_a, frac_b) *
        static_cast<double>(std::min(a.count(), b.count())));
    decision.refine_cost_seconds = cost_model_.RefineSeconds(
        est_candidates, a.features()->data_pages(), b.features()->data_pages(),
        options.refine_batch_pairs);
  }
  // Sort CPU is the one term that scales down with worker threads (run
  // formation parallelizes), so with threads the streaming plans get
  // cheaper relative to the index traversals.
  const uint32_t sort_threads = std::max<uint32_t>(1, options.num_threads);
  decision.sort_cpu_seconds = cost_model_.SortCpuSeconds(
      a.count() + b.count(), sort_grant, sort_threads);
  decision.stream_cost_seconds =
      cost_model_.SSSJSeconds(total_pages, sort_grant) +
      decision.sort_cpu_seconds + decision.refine_cost_seconds;

  // PBSM partitioning pre-plan, so Explain() reports the grid execution
  // would use. The partition-count formula is shared with PBSMJoin; when
  // the caller attached histograms the adaptive planner actually runs
  // (pure CPU) and the reported grid is exact, otherwise the base grid
  // and formula stand in. Replication and the histogram-build pass are
  // priced into pbsm_cost_seconds; the pass is free when both
  // histograms are attached.
  {
    const uint64_t total_bytes = (a.count() + b.count()) * sizeof(RectF);
    decision.pbsm_adaptive = options.adaptive_partitioning;
    // The adaptive planner packs to its own (higher) fill target; the
    // fixed path keeps the paper's 0.8 slack.
    decision.pbsm_partitions =
        options.adaptive_partitioning
            ? PbsmPartitionCount(total_bytes, options.memory_bytes,
                                 PartitionPlannerConfig().partition_fill)
            : PbsmPartitionCount(total_bytes, options.memory_bytes);
    if (options.adaptive_partitioning) {
      decision.pbsm_tiles_per_axis =
          AdaptiveBaseTilesPerAxis(decision.pbsm_partitions);
      if (exact_pbsm_preplan && hist_a != nullptr && hist_b != nullptr) {
        RectF extent = a.extent();
        extent.ExtendTo(b.extent());
        PartitionPlannerConfig config;
        config.memory_bytes = options.memory_bytes;
        config.max_resolution = std::max(config.max_resolution,
                                         options.pbsm_histogram_resolution);
        const auto plan =
            PartitionPlanner::Plan(extent, *hist_a, *hist_b, config);
        decision.pbsm_tiles_per_axis = plan->tiles_x();
        decision.pbsm_partitions = plan->partitions();
        decision.pbsm_leaf_tiles = plan->leaf_tiles();
      }
      if (hist_a == nullptr || hist_b == nullptr) {
        // The executor's on-the-fly build samples one block in
        // kPbsmHistogramSampleOneInBlocks; price the pass it runs.
        decision.histogram_build_seconds = cost_model_.HistogramPassSeconds(
            (total_pages + kPbsmHistogramSampleOneInBlocks - 1) /
            kPbsmHistogramSampleOneInBlocks);
      }
    } else {
      decision.pbsm_tiles_per_axis = options.pbsm_tiles_per_axis;
    }
    // Replication at the *tile* grid's resolution: a histogram measures
    // cells-per-object at its own (usually finer) cell width, so the
    // per-axis object size in cells is rescaled from histogram cells to
    // tiles before squaring (isotropy approximation). Without histograms
    // the estimate stays at 1 (small objects barely replicate).
    double replication = 1.0;
    if (hist_a != nullptr && hist_b != nullptr) {
      auto at_tiles = [&](const GridHistogram& h) {
        const double size_in_cells =
            std::sqrt(std::max(1.0, h.AverageCellsPerObject())) - 1.0;
        const double per_axis =
            1.0 + size_in_cells * static_cast<double>(
                                      decision.pbsm_tiles_per_axis) /
                      static_cast<double>(std::max(1u, h.nx()));
        return per_axis * per_axis;
      };
      replication = 0.5 * (at_tiles(*hist_a) + at_tiles(*hist_b));
    }
    decision.pbsm_cost_seconds = cost_model_.PBSMSeconds(total_pages,
                                                         replication) +
                                 decision.histogram_build_seconds +
                                 decision.refine_cost_seconds;
  }

  // The chosen algorithm's grant breakdown, reported by Explain() and
  // mirrored by the executors' live grants.
  auto finalize = [&](PlanDecision d) {
    d.memory = PlanJoinMemory(d.algorithm, options, total_bytes_est);
    return d;
  };

  if (!a.indexed() && !b.indexed()) {
    decision.algorithm = JoinAlgorithm::kSSSJ;
    decision.rationale = "no index available; SSSJ streams both inputs";
    return finalize(decision);
  }
  // Pages a PQ plan reads: touched part of each index, whole stream sides
  // (which are also sorted: approximate with SSSJ-like handling per side,
  // again at the granted sort memory).
  double index_cost = decision.refine_cost_seconds;
  double max_frac = 0.0;
  if (a.indexed()) {
    index_cost += cost_model_.PQSeconds(
        static_cast<uint64_t>(frac_a * static_cast<double>(a.pages())));
    max_frac = std::max(max_frac, frac_a);
  } else {
    index_cost += cost_model_.SSSJSeconds(a.pages(), sort_grant) +
                  cost_model_.SortCpuSeconds(a.count(), sort_grant,
                                             sort_threads);
  }
  if (b.indexed()) {
    index_cost += cost_model_.PQSeconds(
        static_cast<uint64_t>(frac_b * static_cast<double>(b.pages())));
    max_frac = std::max(max_frac, frac_b);
  } else {
    index_cost += cost_model_.SSSJSeconds(b.pages(), sort_grant) +
                  cost_model_.SortCpuSeconds(b.count(), sort_grant,
                                             sort_threads);
  }
  decision.touched_fraction = max_frac;
  decision.index_cost_seconds = index_cost;

  if (index_cost < decision.stream_cost_seconds) {
    decision.algorithm = JoinAlgorithm::kPQ;
    decision.rationale =
        "index traversal touches a small enough fraction (< break-even " +
        std::to_string(cost_model_.IndexBreakEvenFraction()) + ")";
  } else {
    decision.algorithm = JoinAlgorithm::kSSSJ;
    decision.rationale =
        "random index reads would cost more than streaming; ignoring index";
  }
  return finalize(decision);
}

}  // namespace sj
