// Regression pins for SpatialJoiner::Plan: algorithm choice,
// touched-fraction estimation (extent-only vs. histogram-refined),
// break-even behavior, and the refinement I/O term. Canonical input
// shapes so a cost-model change that flips a decision fails loudly here
// rather than silently shifting every bench.

#include <gtest/gtest.h>

#include "core/join_query.h"
#include "core/spatial_join.h"
#include "datagen/synthetic.h"
#include "refine/feature_store.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::MakeDataset;
using testing_util::TestDisk;

/// A stream-side JoinInput that exists only for planning: Plan() never
/// touches the data, just count/extent.
JoinInput PlanOnlyStream(uint64_t count, const RectF& extent) {
  DatasetRef ref;
  ref.range = StreamRange{nullptr, 0, count};
  ref.extent = extent;
  return JoinInput::FromStream(ref);
}

struct TreeFixture {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  std::vector<RectF> data;
  std::unique_ptr<Pager> tree_pager, scratch;
  std::optional<RTree> tree;

  explicit TreeFixture(uint64_t n = 4000) {
    data = UniformRects(n, RectF(0, 0, 100, 100), 0.5f, /*seed=*/77);
    const DatasetRef ref = MakeDataset(&td, data, "tree.data", &keep);
    tree_pager = td.NewPager("tree");
    scratch = td.NewPager("scratch");
    auto built = RTree::BulkLoadHilbert(tree_pager.get(), ref.range,
                                        scratch.get(), RTreeParams(),
                                        1 << 22);
    SJ_CHECK_OK(built.status());
    tree.emplace(std::move(*built));
  }
};

TEST(Planner, StreamStreamAlwaysSSSJ) {
  TestDisk td;
  SpatialJoiner joiner(&td.disk, JoinOptions());
  const JoinInput a = PlanOnlyStream(100000, RectF(0, 0, 100, 100));
  const JoinInput b = PlanOnlyStream(50000, RectF(0, 0, 100, 100));
  const PlanDecision d = joiner.Plan(a, b);
  EXPECT_EQ(d.algorithm, JoinAlgorithm::kSSSJ);
  EXPECT_EQ(d.index_cost_seconds, 0.0);
  EXPECT_EQ(d.refine_cost_seconds, 0.0);
  // Stream cost is the cost model's streaming estimate plus the priced
  // sort CPU (comparisons of forming and merging runs).
  const uint64_t pages = a.pages() + b.pages();
  EXPECT_GT(d.sort_cpu_seconds, 0.0);
  EXPECT_DOUBLE_EQ(d.stream_cost_seconds, joiner.cost_model().SSSJSeconds(
                                              pages) + d.sort_cpu_seconds);
}

TEST(Planner, LocalizedJoinUsesTheIndex) {
  TreeFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  // The stream covers ~1% of the indexed extent: far below break-even.
  const JoinInput a = JoinInput::FromRTree(&*f.tree);
  const JoinInput b = PlanOnlyStream(2000, RectF(0, 0, 10, 10));
  const PlanDecision d = joiner.Plan(a, b);
  EXPECT_EQ(d.algorithm, JoinAlgorithm::kPQ);
  EXPECT_LT(d.touched_fraction,
            joiner.cost_model().IndexBreakEvenFraction());
  EXPECT_NEAR(d.touched_fraction, 0.01, 0.005);
  EXPECT_LT(d.index_cost_seconds, d.stream_cost_seconds);
}

TEST(Planner, FullOverlapIgnoresTheIndex) {
  TreeFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  const JoinInput a = JoinInput::FromRTree(&*f.tree);
  const JoinInput b = PlanOnlyStream(2000, RectF(0, 0, 100, 100));
  const PlanDecision d = joiner.Plan(a, b);
  EXPECT_EQ(d.algorithm, JoinAlgorithm::kSSSJ);
  EXPECT_GT(d.touched_fraction, 0.9);
  EXPECT_GE(d.index_cost_seconds, d.stream_cost_seconds);
}

TEST(Planner, TouchedFractionTracksExtentOverlap) {
  TreeFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  // Half-extent stream: the extent-only estimate is the overlap area
  // ratio of the indexed side.
  const JoinInput a = JoinInput::FromRTree(&*f.tree);
  const JoinInput b = PlanOnlyStream(2000, RectF(0, 0, 50, 100));
  const PlanDecision d = joiner.Plan(a, b);
  EXPECT_NEAR(d.touched_fraction, 0.5, 0.05);
}

TEST(Planner, TightBudgetShiftsCrossoverTowardTheIndex) {
  // The cost model prices the streaming plan at its *granted* sort
  // memory: a touched fraction just above break-even streams under the
  // comfortable default budget, but a tight budget adds external-sort
  // merge passes to the streaming side and flips the same join to the
  // index plan.
  TreeFixture f(40000);
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  const JoinInput a = JoinInput::FromRTree(&*f.tree);
  // A small stream against a large tree: the streaming plan's cost is
  // dominated by flattening and sorting the indexed side. The 25 %
  // extent overlap sits just above the comfortable break-even fraction,
  // inside the band the tight budget's extra merge passes flip.
  const JoinInput b = PlanOnlyStream(2000, RectF(0, 0, 25, 100));

  const PlanDecision comfortable = joiner.Plan(a, b);
  EXPECT_EQ(comfortable.algorithm, JoinAlgorithm::kSSSJ);
  EXPECT_GT(comfortable.touched_fraction,
            joiner.cost_model().IndexBreakEvenFraction());

  JoinOptions tight;
  tight.memory_bytes = kMinMemoryBytes;
  const PlanDecision constrained =
      joiner.Plan(a, b, nullptr, nullptr, &tight);
  EXPECT_EQ(constrained.algorithm, JoinAlgorithm::kPQ)
      << constrained.Describe();
  EXPECT_GT(constrained.stream_cost_seconds,
            comfortable.stream_cost_seconds);

  // Both decisions carry the chosen algorithm's grant breakdown.
  EXPECT_EQ(comfortable.memory.GrantFor(grants::kSortRuns),
            JoinOptions().memory_bytes / 2);
  EXPECT_GT(constrained.memory.GrantFor(grants::kPqQueue), 0u);
}

TEST(Planner, HistogramsRefineTheExtentOnlyEstimate) {
  TreeFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  const JoinInput a = JoinInput::FromRTree(&*f.tree);
  // The other input's *extent* spans everything, but its *mass* sits in
  // one corner — the localized-join case §6.3's histograms exist for.
  const auto corner = UniformRects(2000, RectF(0, 0, 10, 10), 0.5f, 78);
  const JoinInput b = PlanOnlyStream(2000, RectF(0, 0, 100, 100));

  const PlanDecision extent_only = joiner.Plan(a, b);
  EXPECT_EQ(extent_only.algorithm, JoinAlgorithm::kSSSJ);
  EXPECT_GT(extent_only.touched_fraction, 0.9);

  GridHistogram hist_a(RectF(0, 0, 100, 100), 32, 32);
  for (const RectF& r : f.data) hist_a.Add(r);
  GridHistogram hist_b(RectF(0, 0, 100, 100), 32, 32);
  for (const RectF& r : corner) hist_b.Add(r);
  const PlanDecision refined = joiner.Plan(a, b, &hist_a, &hist_b);
  // The histogram exposes the localization: a small touched fraction and
  // with it the indexed plan.
  EXPECT_LT(refined.touched_fraction, 0.1);
  EXPECT_EQ(refined.algorithm, JoinAlgorithm::kPQ);
  EXPECT_LT(refined.touched_fraction, extent_only.touched_fraction);
}

TEST(Planner, RefineTermAddedToBothPlansWithoutFlippingThem) {
  TreeFixture f;
  // Geometry stores so the refinement term applies.
  auto geom_a_pager = f.td.NewPager("geom.a");
  auto geom_b_pager = f.td.NewPager("geom.b");
  const auto b_data = UniformRects(2000, RectF(0, 0, 10, 10), 0.5f, 79);
  auto store_a = FeatureStore::Build(geom_a_pager.get(),
                                     SegmentsForRects(f.data), "a");
  auto store_b = FeatureStore::Build(geom_b_pager.get(),
                                     SegmentsForRects(b_data), "b");
  ASSERT_TRUE(store_a.ok() && store_b.ok());

  JoinInput a = JoinInput::FromRTree(&*f.tree);
  JoinInput b = PlanOnlyStream(2000, RectF(0, 0, 10, 10));
  a.WithFeatures(&*store_a);
  b.WithFeatures(&*store_b);

  SpatialJoiner plain(&f.td.disk, JoinOptions());
  const PlanDecision base = plain.Plan(a, b);
  EXPECT_EQ(base.refine_cost_seconds, 0.0);

  JoinOptions options;
  options.refine = true;
  SpatialJoiner refining(&f.td.disk, options);
  const PlanDecision with_refine = refining.Plan(a, b);
  EXPECT_GT(with_refine.refine_cost_seconds, 0.0);
  // The term is the same for every filter algorithm, so the choice and
  // the cost *difference* are unchanged; both totals grow by the term.
  EXPECT_EQ(with_refine.algorithm, base.algorithm);
  EXPECT_NEAR(with_refine.stream_cost_seconds,
              base.stream_cost_seconds + with_refine.refine_cost_seconds,
              1e-12);
  EXPECT_NEAR(with_refine.index_cost_seconds,
              base.index_cost_seconds + with_refine.refine_cost_seconds,
              1e-12);
}

TEST(Planner, DisjointExtentsTouchNothing) {
  TreeFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  const JoinInput a = JoinInput::FromRTree(&*f.tree);
  const JoinInput b = PlanOnlyStream(2000, RectF(200, 200, 300, 300));
  const PlanDecision d = joiner.Plan(a, b);
  EXPECT_EQ(d.touched_fraction, 0.0);
  EXPECT_EQ(d.algorithm, JoinAlgorithm::kPQ);
}

// ---------------------------------------------------------------------------
// The planner through the query API: Explain compiles the query and
// returns the same decision Plan computes, plus the forced-algorithm and
// per-query-refine behaviors only the query layer can express.
// ---------------------------------------------------------------------------

TEST(PlannerThroughJoinQuery, ExplainMatchesPlan) {
  TreeFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  const JoinInput a = JoinInput::FromRTree(&*f.tree);
  const JoinInput b = PlanOnlyStream(2000, RectF(0, 0, 10, 10));
  const PlanDecision direct = joiner.Plan(a, b);

  auto explained = JoinQuery(joiner).Input(a).Input(b).Explain();
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_EQ(explained->algorithm, direct.algorithm);
  EXPECT_DOUBLE_EQ(explained->touched_fraction, direct.touched_fraction);
  EXPECT_DOUBLE_EQ(explained->index_cost_seconds, direct.index_cost_seconds);
  EXPECT_DOUBLE_EQ(explained->stream_cost_seconds,
                   direct.stream_cost_seconds);
  EXPECT_EQ(explained->rationale, direct.rationale);
  EXPECT_FALSE(explained->Describe().empty());
}

TEST(PlannerThroughJoinQuery, ToKeyValuesIsStructuredAndComplete) {
  TreeFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  const JoinInput a = JoinInput::FromRTree(&*f.tree);
  const JoinInput b = PlanOnlyStream(2000, RectF(0, 0, 10, 10));
  auto explained = JoinQuery(joiner).Input(a).Input(b).Explain();
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();

  const auto kv = explained->ToKeyValues();
  auto value_of = [&](const std::string& key) -> const std::string* {
    for (const auto& [k, v] : kv) {
      if (k == key) return &v;
    }
    return nullptr;
  };
  // Always-present keys, machine-parseable values.
  ASSERT_NE(value_of("algorithm"), nullptr);
  EXPECT_EQ(*value_of("algorithm"), ToString(explained->algorithm));
  ASSERT_NE(value_of("touched_fraction"), nullptr);
  // Values carry 6 significant digits; parse back within that precision.
  EXPECT_NEAR(std::stod(*value_of("touched_fraction")),
              explained->touched_fraction,
              1e-5 * std::max(1.0, explained->touched_fraction));
  ASSERT_NE(value_of("stream_cost_seconds"), nullptr);
  ASSERT_NE(value_of("index_cost_seconds"), nullptr);
  ASSERT_NE(value_of("rationale"), nullptr);
  EXPECT_EQ(*value_of("rationale"), explained->rationale);
  // The memory group mirrors the grant breakdown.
  ASSERT_NE(value_of("memory.budget_bytes"), nullptr);
  EXPECT_EQ(std::stoull(*value_of("memory.budget_bytes")),
            explained->memory.budget_bytes);
  size_t grant_keys = 0;
  for (const auto& [k, v] : kv) {
    if (k.rfind("memory.grant.", 0) == 0) ++grant_keys;
  }
  EXPECT_EQ(grant_keys, explained->memory.grants.size());
  EXPECT_GT(grant_keys, 0u);
  // Keys are unique: consumers can load them into a map losslessly.
  std::set<std::string> keys;
  for (const auto& [k, v] : kv) EXPECT_TRUE(keys.insert(k).second) << k;
}

TEST(PlannerPbsmPrePlan, ToKeyValuesCarriesThePbsmGroup) {
  TestDisk td;
  SpatialJoiner joiner(&td.disk, JoinOptions());
  const JoinInput a = PlanOnlyStream(4000000, RectF(0, 0, 100, 100));
  const JoinInput b = PlanOnlyStream(4000000, RectF(0, 0, 100, 100));
  auto explained = JoinQuery(joiner).Input(a).Input(b).Explain();
  ASSERT_TRUE(explained.ok());
  ASSERT_GT(explained->pbsm_partitions, 0u);

  const auto kv = explained->ToKeyValues();
  auto value_of = [&](const std::string& key) -> const std::string* {
    for (const auto& [k, v] : kv) {
      if (k == key) return &v;
    }
    return nullptr;
  };
  ASSERT_NE(value_of("pbsm.adaptive"), nullptr);
  EXPECT_EQ(*value_of("pbsm.adaptive"),
            explained->pbsm_adaptive ? "true" : "false");
  ASSERT_NE(value_of("pbsm.partitions"), nullptr);
  EXPECT_EQ(std::stoul(*value_of("pbsm.partitions")),
            explained->pbsm_partitions);
  ASSERT_NE(value_of("pbsm.tiles_per_axis"), nullptr);
  ASSERT_NE(value_of("pbsm.cost_seconds"), nullptr);
}

TEST(PlannerThroughJoinQuery, ForcedAlgorithmShowsInDecision) {
  TreeFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  const JoinInput a = JoinInput::FromRTree(&*f.tree);
  const JoinInput b = PlanOnlyStream(2000, RectF(0, 0, 100, 100));

  auto explained = JoinQuery(joiner)
                       .Input(a)
                       .Input(b)
                       .Algorithm(JoinAlgorithm::kPBSM)
                       .Explain();
  ASSERT_TRUE(explained.ok());
  EXPECT_EQ(explained->algorithm, JoinAlgorithm::kPBSM);
  EXPECT_NE(explained->rationale.find("forced"), std::string::npos);
}

TEST(PlannerThroughJoinQuery, PerQueryRefineAddsTheRefineTerm) {
  TreeFixture f;
  auto geom_a_pager = f.td.NewPager("geom.a");
  auto geom_b_pager = f.td.NewPager("geom.b");
  const auto b_data = UniformRects(2000, RectF(0, 0, 10, 10), 0.5f, 83);
  auto store_a = FeatureStore::Build(geom_a_pager.get(),
                                     SegmentsForRects(f.data), "a");
  auto store_b = FeatureStore::Build(geom_b_pager.get(),
                                     SegmentsForRects(b_data), "b");
  ASSERT_TRUE(store_a.ok() && store_b.ok());

  JoinInput a = JoinInput::FromRTree(&*f.tree);
  JoinInput b = PlanOnlyStream(2000, RectF(0, 0, 10, 10));

  // The joiner's defaults do not refine; the per-query override prices
  // the refinement term anyway — without touching the shared joiner.
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  auto base = JoinQuery(joiner).Input(a).Input(b).Explain();
  auto refined = JoinQuery(joiner)
                     .Input(a)
                     .Input(b)
                     .WithFeatures(0, &*store_a)
                     .WithFeatures(1, &*store_b)
                     .Refine(true)
                     .Explain();
  ASSERT_TRUE(base.ok() && refined.ok());
  EXPECT_EQ(base->refine_cost_seconds, 0.0);
  EXPECT_GT(refined->refine_cost_seconds, 0.0);
  EXPECT_EQ(refined->algorithm, base->algorithm);
  EXPECT_FALSE(joiner.options().refine);
}

// ---------------------------------------------------------------------------
// The PBSM partitioning pre-plan: Explain must report the tile grid and
// partition count execution would use, price the histogram-build pass
// when adaptive planning has no histograms, and skip it when they are
// attached (running the real PartitionPlanner instead).
// ---------------------------------------------------------------------------

TEST(PlannerPbsmPrePlan, ExplainReportsGridAndPartitions) {
  TestDisk td;
  SpatialJoiner joiner(&td.disk, JoinOptions());
  const JoinInput a = PlanOnlyStream(4000000, RectF(0, 0, 100, 100));
  const JoinInput b = PlanOnlyStream(4000000, RectF(0, 0, 100, 100));

  // Adaptive (default), no histograms: formula-derived grid + a priced
  // histogram pass.
  auto adaptive = JoinQuery(joiner).Input(a).Input(b).Explain();
  ASSERT_TRUE(adaptive.ok());
  EXPECT_TRUE(adaptive->pbsm_adaptive);
  EXPECT_GT(adaptive->pbsm_partitions, 0u);
  EXPECT_GT(adaptive->pbsm_tiles_per_axis, 0u);
  EXPECT_GT(adaptive->histogram_build_seconds, 0.0);
  EXPECT_GT(adaptive->pbsm_cost_seconds, adaptive->histogram_build_seconds);
  EXPECT_NE(adaptive->Describe().find("PBSM adaptive"), std::string::npos);
  EXPECT_NE(adaptive->Describe().find("partitions"), std::string::npos);

  // Fixed-grid escape hatch: the configured tile count, no histogram
  // pass.
  auto fixed = JoinQuery(joiner)
                   .Input(a)
                   .Input(b)
                   .AdaptivePartitioning(false)
                   .Explain();
  ASSERT_TRUE(fixed.ok());
  EXPECT_FALSE(fixed->pbsm_adaptive);
  EXPECT_EQ(fixed->pbsm_tiles_per_axis, joiner.options().pbsm_tiles_per_axis);
  EXPECT_EQ(fixed->histogram_build_seconds, 0.0);
  // Bin-packing plans balance, so the adaptive fill target is higher and
  // the partition count never exceeds the fixed path's.
  EXPECT_GT(fixed->pbsm_partitions, 1u);
  EXPECT_LE(adaptive->pbsm_partitions, fixed->pbsm_partitions);
  EXPECT_NE(fixed->Describe().find("PBSM fixed"), std::string::npos);
}

TEST(PlannerPbsmPrePlan, AttachedHistogramsRunTheRealPlanner) {
  TestDisk td;
  SpatialJoiner joiner(&td.disk, JoinOptions());
  const RectF extent(0, 0, 100, 100);
  const JoinInput a = PlanOnlyStream(400000, extent);
  const JoinInput b = PlanOnlyStream(400000, extent);
  // Hot-corner histograms: the planner should split tiles, so the leaf
  // count exceeds the base grid.
  GridHistogram hist_a(extent, 128, 128), hist_b(extent, 128, 128);
  for (const RectF& r : UniformRects(400000, RectF(0, 0, 5, 5), 0.1f, 91)) {
    hist_a.Add(r);
  }
  for (const RectF& r : UniformRects(400000, RectF(0, 0, 5, 5), 0.1f, 92)) {
    hist_b.Add(r);
  }

  auto explained = JoinQuery(joiner)
                       .Input(a)
                       .Input(b)
                       .WithHistogram(0, &hist_a)
                       .WithHistogram(1, &hist_b)
                       .MemoryBytes(1u << 20)
                       .Explain();
  ASSERT_TRUE(explained.ok());
  EXPECT_TRUE(explained->pbsm_adaptive);
  EXPECT_EQ(explained->histogram_build_seconds, 0.0);
  EXPECT_GT(explained->pbsm_partitions, 1u);
  EXPECT_GT(explained->pbsm_leaf_tiles,
            explained->pbsm_tiles_per_axis * explained->pbsm_tiles_per_axis);
}

}  // namespace
}  // namespace sj
