// Explain and Run agree: the algorithm a query executes is the one its
// Explain() reports, and outside a window the run is granted the memory
// Explain plans (less the data-dependent lines JoinExplain's test names).
// Explain prices every plan, while execution computes only the terms that
// choose the algorithm (nothing without an indexed input or with a
// forced algorithm), so this matrix pins the shortcut to the full
// pricing: every input kind, histogram attachment, forced algorithm and
// refinement setting, through JoinQuery and through unwindowed and
// windowed two-input pipelines.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
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
using testing_util::TestDisk;

const RectF kExtent(0, 0, 100, 100);

/// One relation in every form a query can take it: a stream, an R-tree,
/// its exact geometry and an occupancy histogram on the shared grid.
struct Relation {
  DatasetRef stream;
  std::optional<RTree> tree;
  std::optional<FeatureStore> store;
  std::optional<GridHistogram> hist;
};

struct AgreementFixture {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  // A covers the whole extent; B is a 10x10 corner, so an index on A is
  // worth traversing for B and kAuto has a real choice to make.
  Relation a = Make(UniformRects(3000, kExtent, 0.5f, 7), "a");
  Relation b = Make(UniformRects(400, RectF(0, 0, 10, 10), 0.5f, 8), "b");
  SpatialJoiner joiner{&td.disk, JoinOptions()};

  Relation Make(const std::vector<RectF>& rects, const std::string& name) {
    Relation rel;
    rel.stream = MakeDataset(&td, rects, name, &keep);
    keep.push_back(td.NewPager(name + ".tree"));
    Pager* tree_pager = keep.back().get();
    keep.push_back(td.NewPager(name + ".scratch"));
    auto tree = RTree::BulkLoadHilbert(tree_pager, rel.stream.range,
                                       keep.back().get(), RTreeParams(),
                                       1 << 22);
    SJ_CHECK_OK(tree.status());
    rel.tree.emplace(std::move(*tree));
    keep.push_back(td.NewPager(name + ".geom"));
    auto store = FeatureStore::Build(keep.back().get(),
                                     SegmentsForRects(rects), name);
    SJ_CHECK_OK(store.status());
    rel.store.emplace(std::move(*store));
    rel.hist.emplace(kExtent, 64, 64);
    for (const RectF& r : rects) rel.hist->Add(r);
    return rel;
  }
};

enum class Shape { kJoinQuery, kPipeline, kWindowedPipeline };

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kJoinQuery:
      return "JoinQuery";
    case Shape::kPipeline:
      return "Pipeline";
    case Shape::kWindowedPipeline:
      return "WindowedPipeline";
  }
  return "?";
}

/// One matrix cell's query settings, applied identically to a JoinQuery
/// and a PipelineQuery.
struct Case {
  bool tree_a = false;
  bool tree_b = false;
  bool hist_a = false;
  bool hist_b = false;
  JoinAlgorithm algorithm = JoinAlgorithm::kAuto;
  bool refine = false;

  std::string Label() const {
    return std::string(tree_a ? "tree" : "stream") + " x " +
           (tree_b ? "tree" : "stream") + ", histograms " +
           (hist_a ? "a" : "-") + (hist_b ? "b" : "-") + ", " +
           ToString(algorithm) + (refine ? ", refine" : "");
  }
};

template <typename Query>
void Configure(const Case& c, const AgreementFixture& f, Query& q) {
  q.Input(c.tree_a ? JoinInput::FromRTree(&*f.a.tree)
                   : JoinInput::FromStream(f.a.stream));
  q.Input(c.tree_b ? JoinInput::FromRTree(&*f.b.tree)
                   : JoinInput::FromStream(f.b.stream));
  if (c.hist_a) q.WithHistogram(0, &*f.a.hist);
  if (c.hist_b) q.WithHistogram(1, &*f.b.hist);
  q.Algorithm(c.algorithm);
  if (c.refine) {
    q.Refine(true);
    q.WithFeatures(0, &*f.a.store);
    q.WithFeatures(1, &*f.b.store);
  }
}

/// Explain's algorithm and the algorithm the run reports (or the run's
/// error) for one case.
struct Outcome {
  JoinAlgorithm explained = JoinAlgorithm::kAuto;
  Result<JoinAlgorithm> ran = JoinAlgorithm::kAuto;
};

Outcome RunCase(AgreementFixture& f, Shape shape, const Case& c) {
  Outcome out;
  if (shape == Shape::kJoinQuery) {
    JoinQuery q(f.joiner);
    Configure(c, f, q);
    auto explained = q.Explain();
    SJ_CHECK_OK(explained.status());
    out.explained = explained->algorithm;
    CountingSink sink;
    auto stats = q.Run(&sink);
    if (stats.ok()) {
      out.ran = stats->algorithm;
      ExpectPlanIsRunGrants(explained->memory, stats->memory_components,
                            DataDependentGrants(*stats, explained->memory));
    } else {
      out.ran = stats.status();
    }
    return out;
  }
  PipelineQuery q(f.joiner);
  Configure(c, f, q);
  if (shape == Shape::kWindowedPipeline) q.Window(RectF(0, 0, 20, 20));
  auto explained = q.Explain();
  SJ_CHECK_OK(explained.status());
  EXPECT_TRUE(explained->has_join);
  out.explained = explained->join.algorithm;
  CollectingRowSink rows;
  auto stats = q.Run(&rows);
  if (stats.ok()) {
    out.ran = stats->join_algorithm;
    if (shape == Shape::kPipeline) {
      JoinStats join;
      join.algorithm = stats->join_algorithm;
      join.partitions_total = stats->partitions_total;
      join.partitions_overflowed = stats->partitions_overflowed;
      ExpectPlanIsRunGrants(explained->memory, stats->memory_components,
                            DataDependentGrants(join, explained->memory));
    }
  } else {
    out.ran = stats.status();
  }
  return out;
}

TEST(ExplainRunAgreement, RunExecutesTheAlgorithmExplainReports) {
  AgreementFixture f;
  const JoinAlgorithm algorithms[] = {JoinAlgorithm::kAuto,
                                      JoinAlgorithm::kSSSJ,
                                      JoinAlgorithm::kPBSM,
                                      JoinAlgorithm::kST, JoinAlgorithm::kPQ};
  // kAuto's choices per shape, so the matrix provably exercises both
  // sides of the indexed-vs-streaming decision.
  std::map<Shape, std::map<JoinAlgorithm, int>> auto_choices;
  int cases = 0;
  for (Shape shape : {Shape::kJoinQuery, Shape::kPipeline,
                      Shape::kWindowedPipeline}) {
    for (int kinds = 0; kinds < 4; ++kinds) {
      for (int hists = 0; hists < 4; ++hists) {
        for (JoinAlgorithm algorithm : algorithms) {
          for (bool refine : {false, true}) {
            Case c;
            c.tree_a = (kinds & 1) != 0;
            c.tree_b = (kinds & 2) != 0;
            c.hist_a = (hists & 1) != 0;
            c.hist_b = (hists & 2) != 0;
            c.algorithm = algorithm;
            c.refine = refine;
            SCOPED_TRACE(std::string(ShapeName(shape)) + ": " + c.Label());
            const Outcome out = RunCase(f, shape, c);
            ++cases;

            // ST traverses two indexes; a windowed pipeline joins the
            // in-window streams, so it never has them.
            const bool st_impossible =
                shape == Shape::kWindowedPipeline || !c.tree_a || !c.tree_b;
            if (algorithm == JoinAlgorithm::kST && st_impossible) {
              EXPECT_EQ(out.explained, JoinAlgorithm::kST);
              ASSERT_FALSE(out.ran.ok());
              EXPECT_EQ(out.ran.status().code(),
                        StatusCode::kFailedPrecondition);
              continue;
            }
            ASSERT_TRUE(out.ran.ok()) << out.ran.status().ToString();
            EXPECT_EQ(*out.ran, out.explained);
            if (algorithm == JoinAlgorithm::kAuto) {
              EXPECT_NE(*out.ran, JoinAlgorithm::kAuto);
              auto_choices[shape][*out.ran]++;
            } else {
              EXPECT_EQ(*out.ran, algorithm);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 3 * 4 * 4 * 5 * 2);
  for (Shape shape : {Shape::kJoinQuery, Shape::kPipeline}) {
    SCOPED_TRACE(ShapeName(shape));
    EXPECT_GT(auto_choices[shape][JoinAlgorithm::kPQ], 0);
    EXPECT_GT(auto_choices[shape][JoinAlgorithm::kSSSJ], 0);
  }
  // In-window records are streams: there is no index to choose.
  EXPECT_EQ(auto_choices[Shape::kWindowedPipeline][JoinAlgorithm::kSSSJ],
            4 * 4 * 2);
}

TEST(ExplainRunAgreement, WindowedJoinKeepsFeaturesAttachedToInputs) {
  // Geometry attached with JoinInput::WithFeatures rides along into the
  // in-window streams, in Explain's plan and in the run alike, and the
  // rows match the PipelineQuery::WithFeatures form.
  AgreementFixture f;
  const RectF window(0, 0, 20, 20);
  PipelineQuery on_inputs(f.joiner);
  on_inputs.Input(JoinInput::FromRTree(&*f.a.tree).WithFeatures(&*f.a.store))
      .Input(JoinInput::FromStream(f.b.stream).WithFeatures(&*f.b.store))
      .Window(window)
      .Refine(true);
  PipelineQuery on_query(f.joiner);
  on_query.Input(JoinInput::FromRTree(&*f.a.tree))
      .Input(JoinInput::FromStream(f.b.stream))
      .WithFeatures(0, &*f.a.store)
      .WithFeatures(1, &*f.b.store)
      .Window(window)
      .Refine(true);

  auto explained = on_inputs.Explain();
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  CollectingRowSink rows, reference;
  auto stats = on_inputs.Run(&rows);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->join_algorithm, explained->join.algorithm);
  ASSERT_TRUE(on_query.Run(&reference).ok());
  ASSERT_FALSE(reference.rows().empty());
  ASSERT_EQ(rows.rows().size(), reference.rows().size());
  for (size_t i = 0; i < rows.rows().size(); ++i) {
    EXPECT_EQ(rows.rows()[i].ids, reference.rows()[i].ids);
  }
}

TEST(ExplainRunAgreement, ExecutionPlanChoosesExplainsAlgorithm) {
  // The planner itself, both modes, on the same inputs: execution's
  // shortcut (no pricing without an index) and Explain's full pricing
  // land on the same algorithm.
  AgreementFixture f;
  for (int kinds = 0; kinds < 4; ++kinds) {
    for (int hists = 0; hists < 4; ++hists) {
      for (bool refine : {false, true}) {
        const JoinInput a =
            (kinds & 1) != 0
                ? JoinInput::FromRTree(&*f.a.tree).WithFeatures(&*f.a.store)
                : JoinInput::FromStream(f.a.stream).WithFeatures(&*f.a.store);
        const JoinInput b =
            (kinds & 2) != 0
                ? JoinInput::FromRTree(&*f.b.tree).WithFeatures(&*f.b.store)
                : JoinInput::FromStream(f.b.stream).WithFeatures(&*f.b.store);
        const GridHistogram* ha = (hists & 1) != 0 ? &*f.a.hist : nullptr;
        const GridHistogram* hb = (hists & 2) != 0 ? &*f.b.hist : nullptr;
        JoinOptions options;
        options.refine = refine;
        SCOPED_TRACE("kinds " + std::to_string(kinds) + ", histograms " +
                     std::to_string(hists) + (refine ? ", refine" : ""));
        const PlanDecision explained =
            f.joiner.Plan(a, b, ha, hb, &options, /*explain=*/true);
        const PlanDecision executed =
            f.joiner.Plan(a, b, ha, hb, &options, /*explain=*/false);
        EXPECT_EQ(executed.algorithm, explained.algorithm);
        EXPECT_EQ(executed.rationale, explained.rationale);
        if (kinds != 0) {
          // With an index the choice is priced, identically.
          EXPECT_EQ(executed.stream_cost_seconds,
                    explained.stream_cost_seconds);
          EXPECT_EQ(executed.index_cost_seconds, explained.index_cost_seconds);
        }
      }
    }
  }
}

}  // namespace
}  // namespace sj
