// The JoinQuery surface itself: builder validation (refine
// misconfiguration is a real error with an actionable message, predicate
// rules, index bounds), ST's input-kind check, CPU accounting of the
// compile step, Describe() output, Explain's memory plan against the
// run's grants, and the basic semantics of the distance and containment
// predicates on small hand-checkable inputs.
//
// Explain plans every grant line a run is granted, at the run's
// high-water mark, except the lines of a partitioned plan's units that
// follow data the plan has not read: a loaded unit's `pbsm.partition`
// (planned at its cap) and an overflowing unit's `sweep`, and its
// `sort.runs` where the plan replayed a load (DataDependentGrants).

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "core/join_query.h"
#include "core/pipeline_query.h"
#include "core/spatial_join.h"

#include "datagen/synthetic.h"
#include "refine/feature_store.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::DataDependentGrants;
using testing_util::ExpectPlanIsRunGrants;
using testing_util::MakeDataset;
using testing_util::Sorted;
using testing_util::TestDisk;

struct QueryFixture {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  std::vector<RectF> a, b;
  std::vector<Segment> ga, gb;
  DatasetRef da, db;
  std::unique_ptr<Pager> geom_a_pager, geom_b_pager;
  std::optional<FeatureStore> store_a, store_b;

  QueryFixture() {
    const RectF region(0, 0, 60, 60);
    a = UniformRects(200, region, 2.0f, 11);
    b = UniformRects(180, region, 2.5f, 12);
    ga = SegmentsForRects(a);
    gb = SegmentsForRects(b);
    da = MakeDataset(&td, a, "a", &keep);
    db = MakeDataset(&td, b, "b", &keep);
    geom_a_pager = td.NewPager("geom.a");
    geom_b_pager = td.NewPager("geom.b");
    auto sa = FeatureStore::Build(geom_a_pager.get(), ga, "a");
    auto sb = FeatureStore::Build(geom_b_pager.get(), gb, "b");
    SJ_CHECK_OK(sa.status());
    SJ_CHECK_OK(sb.status());
    store_a.emplace(std::move(*sa));
    store_b.emplace(std::move(*sb));
  }
};

// ---------------------------------------------------------------------------
// Satellite: refine misconfiguration is a real error with a clear
// message, for JoinQuery, the legacy Join wrapper, and the k-way path.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Satellite: absurdly small memory budgets used to flow into divisions
// downstream; they are now rejected at compile time with a message
// naming the documented floor, and budgets at the floor run governed.
// ---------------------------------------------------------------------------

TEST(JoinQueryErrors, MemoryBudgetBelowFloorIsRejected) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  for (const size_t bad : {size_t{0}, size_t{1}, kMinMemoryBytes - 1}) {
    CollectingSink sink;
    auto stats = JoinQuery(joiner)
                     .Input(JoinInput::FromStream(f.da))
                     .Input(JoinInput::FromStream(f.db))
                     .MemoryBytes(bad)
                     .Run(&sink);
    ASSERT_FALSE(stats.ok()) << "budget " << bad << " was accepted";
    EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(stats.status().message().find("kMinMemoryBytes"),
              std::string::npos)
        << stats.status().message();
    EXPECT_NE(stats.status().message().find("64 KiB"), std::string::npos)
        << stats.status().message();
    // Explain trips over the same validation.
    auto plan = JoinQuery(joiner)
                    .Input(JoinInput::FromStream(f.da))
                    .Input(JoinInput::FromStream(f.db))
                    .MemoryBytes(bad)
                    .Explain();
    EXPECT_FALSE(plan.ok());
  }
}

TEST(JoinQuery, FloorBudgetRunsGovernedAndWithinBudget) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  const auto expected = testing_util::BruteForcePairs(f.a, f.b);
  for (JoinAlgorithm algo : {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM}) {
    CollectingSink sink;
    auto stats = JoinQuery(joiner)
                     .Input(JoinInput::FromStream(f.da))
                     .Input(JoinInput::FromStream(f.db))
                     .Algorithm(algo)
                     .MemoryBytes(kMinMemoryBytes)
                     .Run(&sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(Sorted(sink.pairs()), expected) << ToString(algo);
    EXPECT_GT(stats->peak_memory_bytes, 0u) << ToString(algo);
    EXPECT_LE(stats->peak_memory_bytes, kMinMemoryBytes) << ToString(algo);
    EXPECT_FALSE(stats->memory_components.empty()) << ToString(algo);
  }
}

TEST(JoinQuery, ExplainReportsTheGrantBreakdown) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  auto plan = JoinQuery(joiner)
                  .Input(JoinInput::FromStream(f.da))
                  .Input(JoinInput::FromStream(f.db))
                  .Explain();
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->memory.empty());
  EXPECT_EQ(plan->memory.budget_bytes, JoinOptions().memory_bytes);
  EXPECT_GT(plan->memory.GrantFor(grants::kSortRuns), 0u);
  EXPECT_GT(plan->memory.GrantFor(grants::kSweep), 0u);
  const std::string described = plan->Describe();
  EXPECT_NE(described.find("mem budget"), std::string::npos) << described;
  EXPECT_NE(described.find(grants::kSortRuns), std::string::npos) << described;
}

TEST(JoinQueryErrors, RefineWithoutFeaturesNamesTheInput) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db).WithFeatures(
                       &*f.store_b))
                   .Refine(true)
                   .Run(&sink);
  ASSERT_FALSE(stats.ok());
  const std::string message = stats.status().ToString();
  EXPECT_NE(message.find("refine=true but input #0 has no FeatureStore"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("WithFeatures"), std::string::npos) << message;
}

TEST(JoinQueryErrors, RefineWithoutFeaturesOnSecondInput) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .WithFeatures(0, &*f.store_a)
                   .Refine(true)
                   .Run(&sink);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().ToString().find("input #1"), std::string::npos)
      << stats.status().ToString();
}

TEST(JoinQueryErrors, MultiwayRefineErrorNamesTheInput) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingTupleSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(f.da).WithFeatures(
                       &*f.store_a))
                   .Input(JoinInput::FromStream(f.db).WithFeatures(
                       &*f.store_b))
                   .Input(JoinInput::FromStream(f.da))
                   .Refine(true)
                   .Run(&sink);
  ASSERT_FALSE(stats.ok());
  const std::string message = stats.status().ToString();
  EXPECT_NE(message.find("input #2 of the multiway join"), std::string::npos)
      << message;
}

// ---------------------------------------------------------------------------
// Builder validation: predicate rules and index bounds.
// ---------------------------------------------------------------------------

TEST(JoinQueryErrors, ContainsRequiresRefine) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .Predicate(Predicate::kContains)
                   .Run(&sink);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().ToString().find("Refine(true)"),
            std::string::npos)
      << stats.status().ToString();
}

TEST(JoinQueryErrors, NegativeEpsilonRejected) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .Predicate(Predicate::kDistanceWithin, -1.0)
                   .Run(&sink);
  EXPECT_FALSE(stats.ok());
}

TEST(JoinQueryErrors, MultiwayRejectsNonIntersectionPredicates) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingTupleSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .Input(JoinInput::FromStream(f.da))
                   .Predicate(Predicate::kDistanceWithin, 1.0)
                   .Run(&sink);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().ToString().find("kIntersects"), std::string::npos);
}

TEST(JoinQueryErrors, PairwiseRunNeedsExactlyTwoInputs) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingSink sink;
  auto one = JoinQuery(joiner).Input(JoinInput::FromStream(f.da)).Run(&sink);
  EXPECT_FALSE(one.ok());
  JoinQuery three(joiner);
  three.Input(JoinInput::FromStream(f.da))
      .Input(JoinInput::FromStream(f.db))
      .Input(JoinInput::FromStream(f.da));
  EXPECT_FALSE(three.Run(&sink).ok());
  // Explain plans the pairwise join Run executes, so it rejects the same
  // query.
  EXPECT_EQ(three.Explain().status().code(), StatusCode::kInvalidArgument);
}

TEST(JoinQueryErrors, AttachmentIndicesAreBoundsChecked) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingSink sink;
  auto bad_features = JoinQuery(joiner)
                          .Input(JoinInput::FromStream(f.da))
                          .Input(JoinInput::FromStream(f.db))
                          .WithFeatures(5, &*f.store_a)
                          .Run(&sink);
  ASSERT_FALSE(bad_features.ok());
  EXPECT_NE(bad_features.status().ToString().find("out of range"),
            std::string::npos);
  GridHistogram hist(RectF(0, 0, 60, 60), 8, 8);
  auto bad_hist = JoinQuery(joiner)
                      .Input(JoinInput::FromStream(f.da))
                      .Input(JoinInput::FromStream(f.db))
                      .WithHistogram(7, &hist)
                      .Run(&sink);
  ASSERT_FALSE(bad_hist.ok());
  EXPECT_NE(bad_hist.status().ToString().find("out of range"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Dispatch: ST checks its input kinds after the compile step, before any
// I/O of its own.
// ---------------------------------------------------------------------------

TEST(ExecuteJoin, StExecutorValidatesInputKinds) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .Algorithm(JoinAlgorithm::kST)
                   .Run(&sink);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().ToString().find("R-tree"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Accounting: a query's host CPU covers its compile, planning included.
// ---------------------------------------------------------------------------

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

TEST(JoinQueryStats, HostCpuCoversPlanning) {
  // Planning dominates this query: one R-tree, so the planner prices the
  // index against the stream from two 1024x1024 histograms (a full pass
  // over both cell arrays per input), and only a few hundred records.
  QueryFixture f;
  auto tree_pager = f.td.NewPager("tree");
  auto scratch = f.td.NewPager("scratch");
  auto tree = RTree::BulkLoadHilbert(tree_pager.get(), f.da.range,
                                     scratch.get(), RTreeParams(), 1 << 22);
  ASSERT_TRUE(tree.ok());
  const RectF region(0, 0, 60, 60);
  GridHistogram hist_a(region, 1024, 1024), hist_b(region, 1024, 1024);
  for (const RectF& r : f.a) hist_a.Add(r);
  for (const RectF& r : f.b) hist_b.Add(r);
  const JoinInput a = JoinInput::FromRTree(&*tree);
  const JoinInput b = JoinInput::FromStream(f.db);
  SpatialJoiner joiner(&f.td.disk, JoinOptions());

  // Three interleaved rounds (medians compared), so the standalone plan
  // and the queries see the same machine conditions.
  std::vector<double> plan_cpu, query_cpu, pipeline_cpu;
  for (int round = 0; round < 3; ++round) {
    // The planner call the query's compile makes, measured on its own.
    ThreadCpuTimer cpu;
    const PlanDecision d = joiner.Plan(a, b, &hist_a, &hist_b,
                                       &joiner.options(), /*explain=*/false);
    plan_cpu.push_back(cpu.Elapsed());
    EXPECT_NE(d.algorithm, JoinAlgorithm::kAuto);

    CountingSink sink;
    auto join = JoinQuery(joiner)
                    .Input(a)
                    .Input(b)
                    .WithHistogram(0, &hist_a)
                    .WithHistogram(1, &hist_b)
                    .Run(&sink);
    ASSERT_TRUE(join.ok()) << join.status().ToString();
    query_cpu.push_back(join->host_cpu_seconds);

    // A two-input pipeline's join compiles inside its measurement too.
    CollectingRowSink rows;
    auto pipeline = PipelineQuery(joiner)
                        .Input(a)
                        .Input(b)
                        .WithHistogram(0, &hist_a)
                        .WithHistogram(1, &hist_b)
                        .Run(&rows);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    pipeline_cpu.push_back(pipeline->host_cpu_seconds);
  }
  const double plan = Median(plan_cpu);
  ASSERT_GT(plan, 0.0);
  EXPECT_GE(Median(query_cpu), 0.5 * plan)
      << "JoinStats::host_cpu_seconds " << Median(query_cpu)
      << " s leaves out the compile's planning (" << plan << " s)";
  EXPECT_GE(Median(pipeline_cpu), 0.5 * plan)
      << "PipelineStats::host_cpu_seconds " << Median(pipeline_cpu)
      << " s leaves out the join's planning (" << plan << " s)";
}

// ---------------------------------------------------------------------------
// Describe / operator<<.
// ---------------------------------------------------------------------------

TEST(Describe, StatsAndDecisionRoundTripThroughStreams) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .Algorithm(JoinAlgorithm::kSSSJ)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok());
  std::ostringstream os;
  os << *stats;
  EXPECT_NE(os.str().find("result pairs"), std::string::npos);
  EXPECT_NE(stats->Describe(f.td.disk.machine()).find("modeled"),
            std::string::npos);

  auto decision = JoinQuery(joiner)
                      .Input(JoinInput::FromStream(f.da))
                      .Input(JoinInput::FromStream(f.db))
                      .Explain();
  ASSERT_TRUE(decision.ok());
  std::ostringstream ds;
  ds << *decision;
  EXPECT_NE(ds.str().find("SSSJ"), std::string::npos);

  CollectingTupleSink tuples;
  auto mstats = JoinQuery(joiner)
                    .Input(JoinInput::FromStream(f.da))
                    .Input(JoinInput::FromStream(f.db))
                    .Run(&tuples);
  ASSERT_TRUE(mstats.ok());
  EXPECT_NE(mstats->Describe().find("result tuples"), std::string::npos);
}

TEST(Describe, ExplainDoesNoIoEvenForDistanceQueries) {
  QueryFixture f;
  SpatialJoiner joiner(&f.td.disk, JoinOptions());
  const DiskStats before = f.td.disk.stats();
  auto decision = JoinQuery(joiner)
                      .Input(JoinInput::FromStream(f.da))
                      .Input(JoinInput::FromStream(f.db))
                      .Predicate(Predicate::kDistanceWithin, 1.5)
                      .Explain();
  ASSERT_TRUE(decision.ok());
  const DiskStats after = f.td.disk.stats();
  EXPECT_EQ(after.pages_read, before.pages_read)
      << "EXPLAIN must not run the ε-expansion materialization";
  EXPECT_EQ(after.pages_written, before.pages_written);
}

// ---------------------------------------------------------------------------
// Small hand-checkable predicate semantics (the randomized differential
// harness in join_equivalence_test.cc covers the full matrix).
// ---------------------------------------------------------------------------

TEST(Predicates, DistanceWithinFindsNearButDisjointPairs) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  // Two unit squares 3 apart on x: disjoint, within distance 4, not 2.
  const std::vector<RectF> a = {RectF(0, 0, 1, 1, 0)};
  const std::vector<RectF> b = {RectF(4, 0, 5, 1, 0)};
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  SpatialJoiner joiner(&td.disk, JoinOptions());

  for (double eps : {2.0, 4.0}) {
    CollectingSink sink;
    auto stats = JoinQuery(joiner)
                     .Input(JoinInput::FromStream(da))
                     .Input(JoinInput::FromStream(db))
                     .Predicate(Predicate::kDistanceWithin, eps)
                     .Algorithm(JoinAlgorithm::kSSSJ)
                     .Run(&sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(sink.pairs().size(), eps >= 3.0 ? 1u : 0u) << "eps=" << eps;
  }
  // Plain intersection finds nothing.
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(da))
                   .Input(JoinInput::FromStream(db))
                   .Algorithm(JoinAlgorithm::kSSSJ)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(sink.pairs().empty());
}

TEST(Predicates, ContainsKeepsOnlyTrueSubSegments) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  // a0: segment (0,0)-(8,8). b0: its sub-segment (2,2)-(6,6); b1 merely
  // crosses it; b2 is disjoint.
  const std::vector<Segment> ga = {Segment(0, 0, 8, 8)};
  const std::vector<Segment> gb = {Segment(2, 2, 6, 6), Segment(0, 4, 4, 0),
                                   Segment(20, 20, 24, 24)};
  std::vector<RectF> a, b;
  for (size_t i = 0; i < ga.size(); ++i) {
    a.push_back(ga[i].Mbr(static_cast<ObjectId>(i)));
  }
  for (size_t j = 0; j < gb.size(); ++j) {
    b.push_back(gb[j].Mbr(static_cast<ObjectId>(j)));
  }
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  auto pa = td.NewPager("geom.a");
  auto pb = td.NewPager("geom.b");
  auto store_a = FeatureStore::Build(pa.get(), ga, "a");
  auto store_b = FeatureStore::Build(pb.get(), gb, "b");
  ASSERT_TRUE(store_a.ok() && store_b.ok());

  SpatialJoiner joiner(&td.disk, JoinOptions());
  CollectingSink sink;
  auto stats = JoinQuery(joiner)
                   .Input(JoinInput::FromStream(da))
                   .Input(JoinInput::FromStream(db))
                   .WithFeatures(0, &*store_a)
                   .WithFeatures(1, &*store_b)
                   .Predicate(Predicate::kContains)
                   .Refine(true)
                   .Algorithm(JoinAlgorithm::kSSSJ)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const std::vector<IdPair> expected = {{0, 0}};
  EXPECT_EQ(Sorted(sink.pairs()), expected);
  EXPECT_EQ(stats->candidate_count, 2u) << "b0 and b1 overlap a0's MBR";
}

// ---------------------------------------------------------------------------
// Streaming plans over R-trees. The leaf level is read in page order, so
// flattening a bulk-loaded tree costs about a sequential read of its
// leaves and a write of the copy, not a seek per leaf.
// ---------------------------------------------------------------------------

/// Builds a bulk-loaded Hilbert R-tree over `data` on `td`'s memory pagers.
std::unique_ptr<RTree> BulkLoad(TestDisk* td, const DatasetRef& data,
                                std::vector<std::unique_ptr<Pager>>* keep) {
  keep->push_back(td->NewPager("tree"));
  Pager* tree_pager = keep->back().get();
  keep->push_back(td->NewPager("tree.scratch"));
  auto tree = RTree::BulkLoadHilbert(tree_pager, data.range,
                                     keep->back().get(), RTreeParams(),
                                     1 << 22);
  SJ_CHECK_OK(tree.status());
  return std::make_unique<RTree>(std::move(*tree));
}

// SSSJ and PBSM over two trees are charged at most 3x the same join over
// the trees' data as streams, and they find the same pairs. A leaf scan
// that seeks for every leaf is charged 5.3x and 6.6x here.
TEST(JoinQueryTrees, StreamPlansOverTreesCostAboutTheirStreams) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF region(0, 0, 1000, 1000);
  const DatasetRef da =
      MakeDataset(&td, UniformRects(20000, region, 2.0f, 1), "a", &keep);
  const DatasetRef db =
      MakeDataset(&td, UniformRects(20000, region, 2.0f, 2), "b", &keep);
  const std::unique_ptr<RTree> ta = BulkLoad(&td, da, &keep);
  const std::unique_ptr<RTree> tb = BulkLoad(&td, db, &keep);
  SpatialJoiner joiner(&td.disk, JoinOptions());

  for (const JoinAlgorithm algorithm :
       {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM}) {
    SCOPED_TRACE(ToString(algorithm));
    // The model's charge over the whole query, leaf extraction included.
    auto charged = [&](const JoinInput& a, const JoinInput& b,
                       std::vector<IdPair>* pairs) {
      CollectingSink sink;
      const DiskStats before = td.disk.stats();
      auto stats =
          JoinQuery(joiner).Input(a).Input(b).Algorithm(algorithm).Run(&sink);
      SJ_CHECK_OK(stats.status());
      *pairs = Sorted(sink.pairs());
      return (td.disk.stats() - before).io_seconds;
    };
    std::vector<IdPair> stream_pairs, tree_pairs;
    const double streams = charged(JoinInput::FromStream(da),
                                   JoinInput::FromStream(db), &stream_pairs);
    const double trees = charged(JoinInput::FromRTree(ta.get()),
                                 JoinInput::FromRTree(tb.get()), &tree_pairs);
    EXPECT_FALSE(stream_pairs.empty());
    EXPECT_EQ(tree_pairs, stream_pairs);
    EXPECT_LE(trees, 3.0 * streams)
        << "over trees " << trees << " s, over streams " << streams << " s";
  }
}

// The ε-expansion expands and writes its side as it reads it, holding no
// copy of the side, so at 1 MiB every component stays within its grant;
// only ST's rebuild sort takes the rtree.bulkload grant. The pairs are
// those of the same join over the data as streams.
TEST(JoinQueryMemory, DistanceExpansionStaysWithinItsGrants) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const DatasetRef data = MakeDataset(
      &td, UniformRects(100000, RectF(0, 0, 1000, 1000), 2.0f, 7), "data",
      &keep);
  const std::unique_ptr<RTree> tree = BulkLoad(&td, data, &keep);
  SpatialJoiner joiner(&td.disk, JoinOptions());
  auto self_join = [&](const JoinInput& input, JoinAlgorithm algorithm,
                       std::vector<IdPair>* pairs) {
    CollectingSink sink;
    auto stats = JoinQuery(joiner)
                     .Input(input)
                     .Input(input)
                     .Predicate(Predicate::kDistanceWithin, 0.5)
                     .Algorithm(algorithm)
                     .MemoryBytes(1u << 20)
                     .Run(&sink);
    SJ_CHECK_OK(stats.status());
    *pairs = Sorted(sink.pairs());
    return *stats;
  };
  std::vector<IdPair> want;
  self_join(JoinInput::FromStream(data), JoinAlgorithm::kSSSJ, &want);
  ASSERT_FALSE(want.empty());
  for (const JoinAlgorithm algorithm :
       {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPQ}) {
    SCOPED_TRACE(ToString(algorithm));
    std::vector<IdPair> got;
    const JoinStats stats =
        self_join(JoinInput::FromRTree(tree.get()), algorithm, &got);
    for (const MemoryComponentStats& c : stats.memory_components) {
      EXPECT_LE(c.used_high_water, c.granted_high_water) << c.component;
    }
    EXPECT_EQ(got, want);
  }
}

// Explain's memory plan is the run's: every line equals the run's granted
// high-water mark and the run is granted no line the plan leaves out,
// apart from the data-dependent lines named in the header. Every
// algorithm, filter only and refining, from the least budget a query
// accepts to the default, and SSSJ over a sorted stream, resident records
// or a tree beside a plain stream, and over two sorted inputs, fused and
// not: at 200,000 records per input SSSJ falls back to strips at 64 KiB,
// and PBSM's partitions overflow there.
TEST(JoinExplain, PlansWhatRunGrants) {
  for (const uint64_t n : {uint64_t{20000}, uint64_t{200000}}) {
    TestDisk td;
    std::vector<std::unique_ptr<Pager>> keep;
    const RectF region(0, 0, 1000, 1000);
    const std::vector<RectF> ra = UniformRects(n, region, 1.0f, 1);
    const std::vector<RectF> rb = UniformRects(n, region, 1.0f, 2);
    const DatasetRef da = MakeDataset(&td, ra, "a", &keep);
    const DatasetRef db = MakeDataset(&td, rb, "b", &keep);
    const std::unique_ptr<RTree> ta = BulkLoad(&td, da, &keep);
    const std::unique_ptr<RTree> tb = BulkLoad(&td, db, &keep);
    keep.push_back(td.NewPager("geom.a"));
    auto store_a = FeatureStore::Build(keep.back().get(), SegmentsForRects(ra),
                                       "a");
    keep.push_back(td.NewPager("geom.b"));
    auto store_b = FeatureStore::Build(keep.back().get(), SegmentsForRects(rb),
                                       "b");
    ASSERT_TRUE(store_a.ok() && store_b.ok());
    GridHistogram hist_a(region, 64, 64), hist_b(region, 64, 64);
    for (const RectF& r : ra) hist_a.Add(r);
    for (const RectF& r : rb) hist_b.Add(r);
    SpatialJoiner joiner(&td.disk, JoinOptions());

    struct Case {
      const char* name;
      JoinAlgorithm algorithm;
      JoinInput a, b;
      bool fused = false;
      bool histograms = false;
    };
    const JoinInput sa = JoinInput::FromStream(da);
    const JoinInput sb = JoinInput::FromStream(db);
    const JoinInput tree_a = JoinInput::FromRTree(ta.get());
    const JoinInput tree_b = JoinInput::FromRTree(tb.get());
    // Both relations sorted by ylo, as a stream and as resident records:
    // SSSJ sweeps them without sorting them, and never fuses.
    std::vector<RectF> ya = ra, yb = rb;
    std::sort(ya.begin(), ya.end(), OrderByYLo());
    std::sort(yb.begin(), yb.end(), OrderByYLo());
    const JoinInput sorted_a =
        JoinInput::FromSortedStream(MakeDataset(&td, ya, "sorted.a", &keep));
    const JoinInput resident_a =
        JoinInput::FromSortedRects(ya.data(), ya.size(), da.extent);
    const JoinInput resident_b =
        JoinInput::FromSortedRects(yb.data(), yb.size(), db.extent);
    const std::vector<Case> cases = {
        {"SSSJ", JoinAlgorithm::kSSSJ, sa, sb},
        {"SSSJ fused", JoinAlgorithm::kSSSJ, sa, sb, /*fused=*/true},
        {"SSSJ sorted x stream", JoinAlgorithm::kSSSJ, sorted_a, sb},
        {"SSSJ sorted x stream, fused", JoinAlgorithm::kSSSJ, sorted_a, sb,
         true},
        {"SSSJ resident x stream", JoinAlgorithm::kSSSJ, resident_a, sb},
        {"SSSJ resident x stream, fused", JoinAlgorithm::kSSSJ, resident_a,
         sb, true},
        {"SSSJ tree x stream", JoinAlgorithm::kSSSJ, tree_a, sb},
        {"SSSJ tree x stream, fused", JoinAlgorithm::kSSSJ, tree_a, sb, true},
        {"SSSJ sorted x resident", JoinAlgorithm::kSSSJ, sorted_a, resident_b},
        {"SSSJ sorted x resident, fused", JoinAlgorithm::kSSSJ, sorted_a,
         resident_b, true},
        {"PBSM", JoinAlgorithm::kPBSM, sa, sb},
        {"PBSM, histograms", JoinAlgorithm::kPBSM, sa, sb, false, true},
        {"PQ tree x stream", JoinAlgorithm::kPQ, tree_a, sb},
        {"PQ tree x tree", JoinAlgorithm::kPQ, tree_a, tree_b},
        {"ST", JoinAlgorithm::kST, tree_a, tree_b},
    };
    for (const size_t budget : {kMinMemoryBytes, size_t{256} << 10,
                                size_t{4} << 20, size_t{24} << 20}) {
      for (const Case& c : cases) {
        for (const bool refine : {false, true}) {
          SCOPED_TRACE(std::string(c.name) + (refine ? ", refine" : "") +
                       ", " + std::to_string(n) + " records, budget " +
                       std::to_string(budget));
          JoinQuery q(joiner);
          q.Input(c.a)
              .Input(c.b)
              .Algorithm(c.algorithm)
              .MemoryBytes(budget)
              .FuseMergeSweep(c.fused)
              .Refine(refine);
          if (c.histograms) {
            q.WithHistogram(0, &hist_a).WithHistogram(1, &hist_b);
          }
          if (refine) q.WithFeatures(0, &*store_a).WithFeatures(1, &*store_b);
          auto plan = q.Explain();
          ASSERT_TRUE(plan.ok()) << plan.status().ToString();
          CountingSink sink;
          auto stats = q.Run(&sink);
          ASSERT_TRUE(stats.ok()) << stats.status().ToString();
          EXPECT_EQ(stats->algorithm, plan->algorithm);
          ExpectPlanIsRunGrants(plan->memory, stats->memory_components,
                                DataDependentGrants(*stats, plan->memory));
        }
      }
    }
  }
}

// A distance query plans over the side the ε-expansion would write: a
// stream of the same count, or for ST a rebuilt tree whose bulk load is
// granted. The expansion drops the attached histograms, so PBSM builds its
// own and plans its grid (and so its writers) over them; Explain reports
// that grid. The attached histograms count half of each relation (stale
// statistics), so a grid planned over them would have fewer partitions.
TEST(JoinExplain, DistanceQueriesPlanWhatRunGrants) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF region(0, 0, 1000, 1000);
  const std::vector<RectF> ra = UniformRects(20000, region, 1.0f, 1);
  const std::vector<RectF> rb = UniformRects(20000, region, 1.0f, 2);
  const DatasetRef da = MakeDataset(&td, ra, "a", &keep);
  const DatasetRef db = MakeDataset(&td, rb, "b", &keep);
  const std::unique_ptr<RTree> ta = BulkLoad(&td, da, &keep);
  const std::unique_ptr<RTree> tb = BulkLoad(&td, db, &keep);
  GridHistogram hist_a(region, 64, 64), hist_b(region, 64, 64);
  for (size_t i = 0; i < ra.size() / 2; ++i) hist_a.Add(ra[i]);
  for (size_t i = 0; i < rb.size() / 2; ++i) hist_b.Add(rb[i]);
  SpatialJoiner joiner(&td.disk, JoinOptions());
  const JoinInput sa = JoinInput::FromStream(da);
  const JoinInput sb = JoinInput::FromStream(db);
  const JoinInput tree_a = JoinInput::FromRTree(ta.get());
  const JoinInput tree_b = JoinInput::FromRTree(tb.get());
  struct Case {
    JoinAlgorithm algorithm;
    JoinInput a, b;
  };
  for (const size_t budget : {kMinMemoryBytes, size_t{4} << 20}) {
    for (const Case& c : {Case{JoinAlgorithm::kSSSJ, sa, sb},
                          Case{JoinAlgorithm::kPBSM, sa, sb},
                          Case{JoinAlgorithm::kPQ, tree_a, sb},
                          Case{JoinAlgorithm::kPQ, tree_a, tree_b},
                          Case{JoinAlgorithm::kST, tree_a, tree_b}}) {
      SCOPED_TRACE(std::string(ToString(c.algorithm)) + ", budget " +
                   std::to_string(budget));
      JoinQuery q(joiner);
      q.Input(c.a)
          .Input(c.b)
          .Predicate(Predicate::kDistanceWithin, 0.5)
          .Algorithm(c.algorithm)
          .MemoryBytes(budget)
          .WithHistogram(0, &hist_a)
          .WithHistogram(1, &hist_b);
      auto plan = q.Explain();
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      CountingSink sink;
      auto stats = q.Run(&sink);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      ExpectPlanIsRunGrants(plan->memory, stats->memory_components,
                            DataDependentGrants(*stats, plan->memory));
      if (c.algorithm == JoinAlgorithm::kPBSM) {
        EXPECT_EQ(plan->pbsm_partitions, stats->partitions_total);
      }
    }
  }
}

// An ε-expansion drops the attached histograms, and PBSM builds its own:
// Explain prices that pass whether histograms were attached or not, and
// kAuto's choice does not move with it.
TEST(JoinExplain, DistanceQueriesPricePBSMsHistogramPass) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF region(0, 0, 1000, 1000);
  const std::vector<RectF> ra = UniformRects(20000, region, 1.0f, 1);
  const std::vector<RectF> rb = UniformRects(20000, region, 1.0f, 2);
  const DatasetRef da = MakeDataset(&td, ra, "a", &keep);
  const DatasetRef db = MakeDataset(&td, rb, "b", &keep);
  const std::unique_ptr<RTree> ta = BulkLoad(&td, da, &keep);
  GridHistogram hist_a(region, 64, 64), hist_b(region, 64, 64);
  for (const RectF& r : ra) hist_a.Add(r);
  for (const RectF& r : rb) hist_b.Add(r);
  SpatialJoiner joiner(&td.disk, JoinOptions());
  for (const JoinInput& a :
       {JoinInput::FromStream(da), JoinInput::FromRTree(ta.get())}) {
    SCOPED_TRACE(a.indexed() ? "tree x stream" : "stream x stream");
    auto explain = [&](bool histograms, double epsilon) {
      JoinQuery q(joiner);
      q.Input(a).Input(JoinInput::FromStream(db)).MemoryBytes(1 << 20);
      if (epsilon > 0.0) q.Predicate(Predicate::kDistanceWithin, epsilon);
      if (histograms) q.WithHistogram(0, &hist_a).WithHistogram(1, &hist_b);
      auto plan = q.Explain();
      SJ_CHECK_OK(plan.status());
      return *plan;
    };
    const PlanDecision with = explain(true, 0.5);
    const PlanDecision without = explain(false, 0.5);
    EXPECT_GT(with.histogram_build_seconds, 0.0);
    EXPECT_EQ(with.histogram_build_seconds, without.histogram_build_seconds);
    EXPECT_EQ(with.pbsm_cost_seconds, without.pbsm_cost_seconds);
    EXPECT_EQ(with.pbsm_partitions, without.pbsm_partitions);
    // Without ε the attached histograms reach PBSM: no pass to price.
    EXPECT_EQ(explain(true, 0.0).histogram_build_seconds, 0.0);
    // The choice is priced before the expansion, with the histograms.
    EXPECT_EQ(with.algorithm, explain(true, 0.0).algorithm);
    EXPECT_EQ(with.index_cost_seconds, explain(true, 0.0).index_cost_seconds);
  }
}

}  // namespace
}  // namespace sj
