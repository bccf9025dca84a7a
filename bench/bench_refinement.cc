// The filter-and-refine pipeline end to end: for each dataset of the
// TIGER ladder, run the MBR filter join alone and the full filter+refine
// pipeline (JoinOptions::refine with paged FeatureStores), reporting the
// candidate/exact split, the refinement selectivity, the feature pages
// fetched, and how the memory budget — which sizes a refinement chunk —
// trades memory against repeated page fetches. Modeled times come from
// the shared DiskModel, so the refinement I/O is priced exactly like the
// filter's.

#include <cstdio>

#include "bench_common.h"
#include "core/join_query.h"
#include "datagen/synthetic.h"
#include "refine/feature_store.h"
#include "refine/refine.h"

namespace sj {
namespace bench {
namespace {

void Run(const BenchConfig& config) {
  std::printf(
      "== Filter-and-refine overlay: candidates vs. exact results "
      "(scale %.4g) ==\n\n",
      config.scale);
  std::printf("%-10s %9s %6s %12s %12s %6s %12s %10s %10s\n", "Dataset",
              "Budget", "Chunks", "Candidates", "Exact", "Sel%",
              "RefinePages", "Filter(s)", "Total(s)");
  PrintHeaderRule(96);

  for (const std::string& name : config.datasets) {
    const LoadedDataset& data = GetDataset(name, config.scale);
    const MachineModel machine = MachineByIndex(config.machines.front());
    Workload w = MakeWorkload(data, machine, /*build_trees=*/false);

    // Exact geometry for both relations, stored through the same disk.
    auto roads_geom_pager = MakeMemoryPager(w.disk.get(), "roads.geom");
    auto hydro_geom_pager = MakeMemoryPager(w.disk.get(), "hydro.geom");
    auto roads_store = FeatureStore::Build(
        roads_geom_pager.get(), SegmentsForRects(data.roads), "roads.geom");
    auto hydro_store = FeatureStore::Build(
        hydro_geom_pager.get(), SegmentsForRects(data.hydro), "hydro.geom");
    SJ_CHECK(roads_store.ok() && hydro_store.ok());
    w.disk->ResetStats();

    // Filter-only baseline.
    JoinOptions options = config.ScaledOptions();
    double filter_seconds = 0;
    uint64_t candidates = 0;
    {
      SpatialJoiner joiner(w.disk.get(), options);
      CountingSink sink;
      auto stats = JoinQuery(joiner)
                       .Input(w.RoadsInput(false))
                       .Input(w.HydroInput(false))
                       .Algorithm(JoinAlgorithm::kSSSJ)
                       .Run(&sink);
      SJ_CHECK(stats.ok());
      filter_seconds = stats->ObservedSeconds(machine);
      candidates = stats->output_count;
    }

    // Full pipeline at budgets whose refinement grant holds all
    // candidates, half of them and a quarter of them: smaller chunks
    // need less memory but re-fetch hot feature pages once per chunk.
    SpatialJoiner joiner(w.disk.get(), options);
    uint64_t exact = 0;
    for (uint64_t target_chunks : {1u, 2u, 4u}) {
      const uint64_t per_chunk = std::max<uint64_t>(
          1, (candidates + target_chunks - 1) / target_chunks);
      // The smallest budget whose quarter (RefineGrantBytes) holds one
      // chunk of per_chunk candidates.
      const size_t budget = std::max(
          kMinMemoryBytes, 4 * (FeatureStore::kFetchFixedBytes +
                                per_chunk * kRefineBytesPerCandidate));
      const uint64_t chunk = RefineChunkCandidates(RefineGrantBytes(budget));
      const uint64_t chunks = (candidates + chunk - 1) / chunk;
      // The budget is a per-query override; the shared joiner's options
      // stay filter-only.
      CountingSink sink;
      auto stats = JoinQuery(joiner)
                       .Input(w.RoadsInput(false))
                       .Input(w.HydroInput(false))
                       .WithFeatures(0, &*roads_store)
                       .WithFeatures(1, &*hydro_store)
                       .Algorithm(JoinAlgorithm::kSSSJ)
                       .Refine(true)
                       .MemoryBytes(budget)
                       .Run(&sink);
      SJ_CHECK(stats.ok());
      SJ_CHECK(stats->output_count == sink.count());
      // Every budget refines the same candidates to the same results.
      SJ_CHECK(stats->candidate_count == candidates);
      if (target_chunks == 1) exact = stats->output_count;
      SJ_CHECK(stats->output_count == exact);
      const double sel =
          stats->candidate_count > 0
              ? 100.0 * static_cast<double>(stats->output_count) /
                    static_cast<double>(stats->candidate_count)
              : 0.0;
      std::printf(
          "%-10s %8zuK %6llu %12llu %12llu %5.1f%% %12llu %10.2f %10.2f\n",
          name.c_str(), budget >> 10, static_cast<unsigned long long>(chunks),
          static_cast<unsigned long long>(stats->candidate_count),
          static_cast<unsigned long long>(stats->output_count), sel,
          static_cast<unsigned long long>(stats->refine_pages_read),
          filter_seconds, stats->ObservedSeconds(machine));
    }
  }
  std::printf(
      "\nThe MBR filter overapproximates: refinement keeps only candidates "
      "whose exact\nsegments intersect. A chunk reads each feature page it "
      "needs once, so budgets\nthat split the candidates into more chunks "
      "fetch more pages. Filter(s) is the\nfilter alone at the default "
      "budget; Total(s) runs at the row's budget.\n");
}

}  // namespace
}  // namespace bench
}  // namespace sj

int main(int argc, char** argv) {
  sj::bench::Run(sj::bench::BenchConfig::FromArgs(argc, argv));
  return 0;
}
