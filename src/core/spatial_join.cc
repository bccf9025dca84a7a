#include "core/spatial_join.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "join/partition_plan.h"
#include "join/pbsm.h"
#include "join/sssj.h"
#include "refine/refine.h"

namespace sj {

double SweepInputSeconds(const CostModel& cost, Span<const JoinInput> inputs,
                         size_t sort_memory_bytes) {
  uint64_t unsorted_pages = 0;
  double seconds = 0.0;
  for (const JoinInput& input : inputs) {
    if (!input.sorted()) {
      unsorted_pages += input.pages();
    } else if (!input.resident()) {
      seconds += cost.ScanSeconds(input.pages());
    }
  }
  return cost.SSSJSeconds(unsorted_pages, sort_memory_bytes) + seconds;
}

void SpatialJoiner::PlanPBSM(const JoinInput& a, const JoinInput& b,
                             const GridHistogram* hist_a,
                             const GridHistogram* hist_b,
                             const JoinOptions& options,
                             PlanDecision* decision) const {
  // PBSMJoin's own map (PbsmPartitionMap) over the attached histograms
  // (pure CPU) or the fixed grid; without both histograms, the base grid
  // and partitions (PbsmPartitions) PBSMJoin plans over the ones it
  // builds. Replication and the histogram-build pass are priced into
  // pbsm_cost_seconds; the pass is free when both histograms are
  // attached.
  const uint64_t total_pages = a.pages() + b.pages();
  decision->pbsm_adaptive = options.adaptive_partitioning;
  decision->pbsm_leaf_tiles = 0;
  decision->histogram_build_seconds = 0.0;
  if (!options.adaptive_partitioning ||
      (hist_a != nullptr && hist_b != nullptr)) {
    RectF extent = a.extent();
    extent.ExtendTo(b.extent());
    const std::unique_ptr<PartitionMap> grid =
        PbsmPartitionMap(extent, a.count() + b.count(), hist_a, hist_b,
                         kPbsmHistogramResolution, options);
    decision->pbsm_tiles_per_axis = grid->tiles_x();
    decision->pbsm_partitions = grid->partitions();
    if (grid->adaptive()) decision->pbsm_leaf_tiles = grid->leaf_tiles();
  } else {
    decision->pbsm_partitions = PbsmPartitions(a.count() + b.count(), options);
    decision->pbsm_tiles_per_axis =
        AdaptiveBaseTilesPerAxis(decision->pbsm_partitions);
    // The executor's on-the-fly build samples one block in
    // kPbsmHistogramSampleOneInBlocks; price the pass it runs.
    decision->histogram_build_seconds = cost_model_.HistogramPassSeconds(
        (total_pages + kPbsmHistogramSampleOneInBlocks - 1) /
        kPbsmHistogramSampleOneInBlocks);
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
          1.0 + size_in_cells *
                    static_cast<double>(decision->pbsm_tiles_per_axis) /
                    static_cast<double>(std::max(1u, h.nx()));
      return per_axis * per_axis;
    };
    replication = 0.5 * (at_tiles(*hist_a) + at_tiles(*hist_b));
  }
  decision->pbsm_cost_seconds =
      cost_model_.PBSMSeconds(total_pages, replication) +
      decision->histogram_build_seconds + decision->refine_cost_seconds;
}

PlanDecision SpatialJoiner::Plan(const JoinInput& a, const JoinInput& b,
                                 const GridHistogram* hist_a,
                                 const GridHistogram* hist_b,
                                 const JoinOptions* options_override,
                                 bool explain) const {
  const JoinOptions& options =
      options_override != nullptr ? *options_override : options_;
  PlanDecision decision;

  auto no_index = [&]() {
    decision.algorithm = JoinAlgorithm::kSSSJ;
    decision.rationale = "no index available; SSSJ streams both inputs";
    return decision;
  };
  // Without an index there is nothing to choose: execution stops here,
  // before any histogram or cost term; Explain goes on to price it all.
  if (!explain && !a.indexed() && !b.indexed()) return no_index();

  // Every cost below is priced at SSSJ's sort request, not the raw knob:
  // under a tight budget the streaming plans pay extra external-sort
  // merge passes, which shifts the kAuto streaming-vs-index crossover.
  const size_t sort_grant =
      SSSJGrantRequests(std::max(options.memory_bytes, kMinMemoryBytes),
                        a.count() + b.count())
          .sort.bytes;

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
    // Priced at the chunk the executor takes from an unsqueezed grant.
    const uint64_t chunk = RefineChunkCandidates(
        RefineGrantBytes(std::max(options.memory_bytes, kMinMemoryBytes)));
    decision.refine_cost_seconds = cost_model_.RefineSeconds(
        est_candidates, a.features()->data_pages(), b.features()->data_pages(),
        chunk);
  }
  // Sort CPU is the one term that scales down with worker threads (run
  // formation parallelizes), so with threads the streaming plans get
  // cheaper relative to the index traversals. A sorted input needs no
  // sort.
  const uint32_t sort_threads = std::max<uint32_t>(1, options.num_threads);
  auto unsorted_records = [](const JoinInput& input) {
    return input.sorted() ? uint64_t{0} : input.count();
  };
  decision.sort_cpu_seconds = cost_model_.SortCpuSeconds(
      unsorted_records(a) + unsorted_records(b), sort_grant, sort_threads);
  const JoinInput both[] = {a, b};
  decision.stream_cost_seconds =
      SweepInputSeconds(cost_model_, Span<const JoinInput>(both, 2),
                        sort_grant) +
      decision.sort_cpu_seconds + decision.refine_cost_seconds;

  // PBSM's partitioning pre-plan and cost, so Explain() reports the grid
  // execution would use. kAuto never picks PBSM, so execution skips it.
  if (explain) PlanPBSM(a, b, hist_a, hist_b, options, &decision);

  if (!a.indexed() && !b.indexed()) return no_index();
  // Pages a PQ plan reads: touched part of each index, whole stream sides
  // (sorted first unless they arrive sorted: approximate with SSSJ-like
  // handling per side, again at the granted sort memory).
  double index_cost = decision.refine_cost_seconds;
  double max_frac = 0.0;
  auto side_cost = [&](const JoinInput& self, double frac) {
    if (self.indexed()) {
      max_frac = std::max(max_frac, frac);
      return cost_model_.PQSeconds(
          static_cast<uint64_t>(frac * static_cast<double>(self.pages())));
    }
    return SweepInputSeconds(cost_model_, Span<const JoinInput>(&self, 1),
                             sort_grant) +
           cost_model_.SortCpuSeconds(unsorted_records(self), sort_grant,
                                      sort_threads);
  };
  index_cost += side_cost(a, frac_a);
  index_cost += side_cost(b, frac_b);
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
  return decision;
}

}  // namespace sj
