// The physical-operator pipeline subsystem (src/op/ + PipelineQuery):
// operator semantics against brute-force oracles, builder validation,
// the costed Explain tree, and memory governance — the pipeline's peak
// stays within its arbiter budget and the aggregation spill path is
// bit-identical to the in-memory path.

#include "core/pipeline_query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/join_query.h"
#include "core/spatial_join.h"
#include "datagen/synthetic.h"
#include "op/operators.h"
#include "op/rect_resolver.h"
#include "op/row.h"
#include "rtree/rtree.h"
#include "service/spatial_service.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::BruteForcePairs;
using testing_util::FailingBackend;
using testing_util::MakeDataset;
using testing_util::Sorted;
using testing_util::TestDisk;

// ---------------------------------------------------------------------------
// Oracles (brute-force reimplementations of the operator semantics)
// ---------------------------------------------------------------------------

/// Same truncate-then-clamp cell arithmetic as AggregateByCellOp and
/// GridHistogram::CellRange.
uint32_t CellOf(float v, float lo, float w, uint32_t n) {
  const float rel = (v - lo) / w;
  if (!(rel > 0.0f)) return 0;
  return static_cast<uint32_t>(std::min(rel, static_cast<float>(n - 1)));
}

/// Brute-force AggregateByCell: flat cell index -> aggregate, zero cells
/// dropped (EmitBand skips them). Rows must be passed in pipeline arrival
/// order so per-cell float accumulation matches exactly.
std::map<uint64_t, double> AggregateOracle(const std::vector<PipeRow>& rows,
                                           AggregateMode mode,
                                           const RectF& extent, uint32_t nx,
                                           uint32_t ny) {
  const float cw = (extent.xhi - extent.xlo) / static_cast<float>(nx);
  const float ch = (extent.yhi - extent.ylo) / static_cast<float>(ny);
  std::map<uint64_t, double> cells;
  for (const PipeRow& row : rows) {
    if (!row.rect.Valid() || !row.rect.Intersects(extent)) continue;
    const uint32_t x0 = CellOf(row.rect.xlo, extent.xlo, cw, nx);
    const uint32_t x1 = CellOf(row.rect.xhi, extent.xlo, cw, nx);
    const uint32_t y0 = CellOf(row.rect.ylo, extent.ylo, ch, ny);
    const uint32_t y1 = CellOf(row.rect.yhi, extent.ylo, ch, ny);
    const double v = mode == AggregateMode::kCount ? 1.0 : row.value;
    for (uint32_t iy = y0; iy <= y1; ++iy) {
      for (uint32_t ix = x0; ix <= x1; ++ix) {
        cells[uint64_t{iy} * nx + ix] += v;
      }
    }
  }
  for (auto it = cells.begin(); it != cells.end();) {
    it = (it->second == 0.0) ? cells.erase(it) : std::next(it);
  }
  return cells;
}

/// Same last-cell-closes-on-the-extent tiling as AggregateByCellOp.
RectF CellRectOracle(const RectF& extent, uint32_t nx, uint32_t ny,
                     uint32_t ix, uint32_t iy) {
  const float cw = (extent.xhi - extent.xlo) / static_cast<float>(nx);
  const float ch = (extent.yhi - extent.ylo) / static_cast<float>(ny);
  const float xlo = extent.xlo + static_cast<float>(ix) * cw;
  const float ylo = extent.ylo + static_cast<float>(iy) * ch;
  const float xhi =
      ix + 1 == nx ? extent.xhi : extent.xlo + static_cast<float>(ix + 1) * cw;
  const float yhi =
      iy + 1 == ny ? extent.yhi : extent.ylo + static_cast<float>(iy + 1) * ch;
  return RectF(xlo, ylo, xhi, yhi);
}

/// The aggregate's output rows (ascending flat cell order), built from an
/// oracle cell map.
std::vector<PipeRow> AggregateRowsOracle(const std::map<uint64_t, double>& cells,
                                         const RectF& extent, uint32_t nx,
                                         uint32_t ny) {
  std::vector<PipeRow> rows;
  for (const auto& [cell, v] : cells) {
    PipeRow row;
    const uint32_t ix = static_cast<uint32_t>(cell % nx);
    const uint32_t iy = static_cast<uint32_t>(cell / nx);
    row.rect = CellRectOracle(extent, nx, ny, ix, iy);
    row.ids.push_back(static_cast<ObjectId>(cell));
    row.value = v;
    rows.push_back(std::move(row));
  }
  return rows;
}

/// TopKByDistanceOp's total order, replicated for the oracle.
struct TopKLess {
  float qx, qy;
  bool operator()(const PipeRow& a, const PipeRow& b) const {
    const double da = TopKByDistanceOp::DistanceTo(a.rect, qx, qy);
    const double db = TopKByDistanceOp::DistanceTo(b.rect, qx, qy);
    if (da != db) return da < db;
    if (a.ids != b.ids) return a.ids < b.ids;
    if (a.rect.xlo != b.rect.xlo) return a.rect.xlo < b.rect.xlo;
    if (a.rect.ylo != b.rect.ylo) return a.rect.ylo < b.rect.ylo;
    if (a.rect.xhi != b.rect.xhi) return a.rect.xhi < b.rect.xhi;
    if (a.rect.yhi != b.rect.yhi) return a.rect.yhi < b.rect.yhi;
    return a.value < b.value;
  }
};

std::vector<PipeRow> TopKOracle(std::vector<PipeRow> rows, size_t k, float qx,
                                float qy) {
  std::sort(rows.begin(), rows.end(), TopKLess{qx, qy});
  if (rows.size() > k) rows.resize(k);
  return rows;
}

std::vector<IdPair> RowPairs(const std::vector<PipeRow>& rows) {
  std::vector<IdPair> pairs;
  for (const PipeRow& r : rows) {
    EXPECT_EQ(r.ids.size(), 2u);
    pairs.push_back(IdPair{r.ids[0], r.ids[1]});
  }
  return pairs;
}

const OperatorStats* FindOp(const PipelineStats& stats,
                            const std::string& prefix) {
  for (const OperatorStats& op : stats.operators) {
    if (op.name.rfind(prefix, 0) == 0) return &op;
  }
  return nullptr;
}

/// A run's high-water marks for `component` (zeros when never asked).
MemoryComponentStats ComponentOf(const PipelineStats& stats,
                                 const std::string& component) {
  for (const MemoryComponentStats& c : stats.memory_components) {
    if (c.component == component) return c;
  }
  return MemoryComponentStats{component, 0, 0};
}

/// A plan's bytes for `component` (0 when not planned).
size_t PlannedOf(const PipelinePlan& plan, const std::string& component) {
  for (const MemoryGrantSpec& g : plan.memory.grants) {
    if (g.component == component) return g.bytes;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Fixture
// ---------------------------------------------------------------------------

struct PipelineFixture {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  std::vector<RectF> a, b;
  DatasetRef da, db;
  std::optional<SpatialJoiner> joiner;

  explicit PipelineFixture(uint64_t na = 300, uint64_t nb = 250) {
    const RectF region(0, 0, 80, 80);
    a = UniformRects(na, region, 2.0f, 41);
    b = UniformRects(nb, region, 2.5f, 42);
    da = MakeDataset(&td, a, "a", &keep);
    db = MakeDataset(&td, b, "b", &keep);
    joiner.emplace(&td.disk, JoinOptions());
  }
};

/// Sparse inputs for the rect-map budget cases: `n` streams of 8,000
/// UniformRects over a 1,000 x 1,000 extent (mean size 4), seeds 1..n.
/// Each one's hashed id table (RectTableBytes(8000) = 225,536 B) fits a
/// 24 MiB budget's share and not a 256 KiB one's.
struct SparseStreams {
  static constexpr uint64_t kRecords = 8000;
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  std::vector<JoinInput> inputs;
  std::optional<SpatialJoiner> joiner;

  explicit SparseStreams(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const auto rects =
          UniformRects(kRecords, RectF(0, 0, 1000, 1000), 4.0f, i + 1);
      inputs.push_back(JoinInput::FromStream(
          MakeDataset(&td, rects, "s" + std::to_string(i), &keep)));
    }
    joiner.emplace(&td.disk, JoinOptions());
  }

  PipelineQuery Query(size_t budget) {
    PipelineQuery q(*joiner);
    for (const JoinInput& input : inputs) q.Input(input);
    q.MemoryBytes(budget);
    return q;
  }
};

// ---------------------------------------------------------------------------
// WindowScan source
// ---------------------------------------------------------------------------

TEST(WindowScanPipeline, MatchesBruteForceOnStream) {
  PipelineFixture f;
  const RectF window(10, 10, 40, 40);
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Window(window)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  std::vector<ObjectId> expected;
  for (const RectF& r : f.a) {
    if (r.Intersects(window)) expected.push_back(r.id);
  }
  std::vector<ObjectId> got;
  for (const PipeRow& row : sink.rows()) {
    ASSERT_EQ(row.ids.size(), 1u);
    got.push_back(row.ids[0]);
    EXPECT_EQ(row.value, 1.0);
    EXPECT_EQ(row.rect.id, 0u);  // ids travel in `ids`, not the rect.
  }
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(stats->output_count, expected.size());
  EXPECT_FALSE(stats->operators.empty());
  EXPECT_EQ(stats->operators.front().name, "WindowScan");
}

TEST(WindowScanPipeline, NoWindowScansEverything) {
  PipelineFixture f;
  CollectingRowSink sink;
  auto stats =
      PipelineQuery(*f.joiner).Input(JoinInput::FromStream(f.da)).Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->output_count, f.a.size());
}

TEST(WindowScanPipeline, HistogramPrunesEmptyRegions) {
  // Data clustered in the lower-left corner of a wider extent.
  PipelineFixture f;
  const RectF extent(0, 0, 300, 300);
  GridHistogram hist(extent, 32, 32);
  for (const RectF& r : f.a) hist.Add(r);

  // A window in the empty region: the histogram proves it matches
  // nothing, so the scan emits nothing and reads nothing.
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .WithHistogram(0, &hist)
                   .Window(RectF(200, 200, 250, 250))
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->output_count, 0u);
  const OperatorStats* scan = FindOp(*stats, "WindowScan");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->pages_read, 0u);

  // An overlapping window returns the same rows with or without the
  // histogram (pruning is purely conservative).
  const RectF overlapping(5, 5, 30, 30);
  CollectingRowSink with_hist, without_hist;
  ASSERT_TRUE(PipelineQuery(*f.joiner)
                  .Input(JoinInput::FromStream(f.da))
                  .WithHistogram(0, &hist)
                  .Window(overlapping)
                  .Run(&with_hist)
                  .ok());
  ASSERT_TRUE(PipelineQuery(*f.joiner)
                  .Input(JoinInput::FromStream(f.da))
                  .Window(overlapping)
                  .Run(&without_hist)
                  .ok());
  EXPECT_EQ(with_hist.rows(), without_hist.rows());
  EXPECT_FALSE(with_hist.rows().empty());
}

// ---------------------------------------------------------------------------
// Filter / Project / TopK over a scan source
// ---------------------------------------------------------------------------

TEST(PipelineOps, FilterKeepsExactlyTheMatchingRows) {
  PipelineFixture f;
  auto pred = [](const PipeRow& r) { return r.rect.Area() > 4.0; };
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Filter(pred, "area>4")
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  uint64_t expected = 0;
  for (const RectF& r : f.a) {
    if (static_cast<double>(r.xhi - r.xlo) * (r.yhi - r.ylo) > 4.0) expected++;
  }
  EXPECT_EQ(stats->output_count, expected);
  for (const PipeRow& row : sink.rows()) EXPECT_TRUE(pred(row));
  const OperatorStats* filter = FindOp(*stats, "Filter(area>4)");
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->rows_in, f.a.size());
  EXPECT_EQ(filter->rows_out, expected);
}

TEST(PipelineOps, ProjectRewritesValues) {
  PipelineFixture f;
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Project(
                       [](PipeRow r) {
                         r.value = r.rect.Area();
                         return r;
                       },
                       "value=area")
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(sink.rows().size(), f.a.size());
  for (const PipeRow& row : sink.rows()) {
    EXPECT_EQ(row.value, row.rect.Area());
  }
}

TEST(PipelineOps, TopKMatchesOracleAndIsSortedByDistance) {
  PipelineFixture f;
  const float qx = 37.5f, qy = 42.0f;
  const size_t k = 12;
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .TopKByDistance(k, qx, qy)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // The oracle sorts the scan rows by the operator's own total order.
  std::vector<PipeRow> scan_rows;
  for (const RectF& r : f.a) {
    PipeRow row;
    row.rect = r;
    row.rect.id = 0;
    row.ids.push_back(r.id);
    scan_rows.push_back(std::move(row));
  }
  EXPECT_EQ(sink.rows(), TopKOracle(scan_rows, k, qx, qy));
  EXPECT_EQ(stats->output_count, k);

  // k larger than the input returns everything, still sorted.
  CollectingRowSink all;
  ASSERT_TRUE(PipelineQuery(*f.joiner)
                  .Input(JoinInput::FromStream(f.da))
                  .TopKByDistance(10000, qx, qy)
                  .Run(&all)
                  .ok());
  EXPECT_EQ(all.rows(), TopKOracle(scan_rows, 10000, qx, qy));
}

// ---------------------------------------------------------------------------
// AggregateByCell
// ---------------------------------------------------------------------------

TEST(AggregatePipeline, CountMatchesOracleExactly) {
  PipelineFixture f;
  const RectF extent(0, 0, 80, 80);
  const uint32_t nx = 16, ny = 12;
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .AggregateByCell(AggregateMode::kCount, nx, ny, extent)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  std::vector<PipeRow> scan_rows;
  for (const RectF& r : f.a) {
    PipeRow row;
    row.rect = r;
    row.rect.id = 0;
    row.ids.push_back(r.id);
    scan_rows.push_back(std::move(row));
  }
  const auto oracle =
      AggregateOracle(scan_rows, AggregateMode::kCount, extent, nx, ny);
  EXPECT_EQ(sink.rows(), AggregateRowsOracle(oracle, extent, nx, ny));
  EXPECT_FALSE(sink.rows().empty());
}

TEST(AggregatePipeline, SumAggregatesProjectedWeights) {
  PipelineFixture f;
  const RectF extent(0, 0, 80, 80);
  const uint32_t nx = 8, ny = 8;
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Project(
                       [](PipeRow r) {
                         r.value = r.rect.Area();
                         return r;
                       },
                       "value=area")
                   .AggregateByCell(AggregateMode::kSum, nx, ny, extent)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  std::vector<PipeRow> weighted;
  for (const RectF& r : f.a) {
    PipeRow row;
    row.rect = r;
    row.rect.id = 0;
    row.ids.push_back(r.id);
    row.value = row.rect.Area();
    weighted.push_back(std::move(row));
  }
  // Same arrival order => same per-cell accumulation order => exact.
  const auto oracle =
      AggregateOracle(weighted, AggregateMode::kSum, extent, nx, ny);
  EXPECT_EQ(sink.rows(), AggregateRowsOracle(oracle, extent, nx, ny));
}

TEST(AggregatePipeline, SpillPathIsBitIdenticalToInMemory) {
  PipelineFixture f(1500, 1);
  const RectF extent(0, 0, 80, 80);
  const uint32_t nx = 64, ny = 64;

  auto run = [&](size_t budget) {
    CollectingRowSink sink;
    auto stats = PipelineQuery(*f.joiner)
                     .Input(JoinInput::FromStream(f.da))
                     .AggregateByCell(AggregateMode::kCount, nx, ny, extent)
                     .MemoryBytes(budget)
                     .Run(&sink);
    SJ_CHECK_OK(stats.status());
    return std::make_pair(sink.rows(), *stats);
  };

  const auto [ample_rows, ample_stats] = run(64u << 20);
  const auto [tight_rows, tight_stats] = run(kMinMemoryBytes);

  // The tight run actually spilled; the ample one did not.
  const OperatorStats* tight_agg = FindOp(tight_stats, "AggregateByCell");
  const OperatorStats* ample_agg = FindOp(ample_stats, "AggregateByCell");
  ASSERT_NE(tight_agg, nullptr);
  ASSERT_NE(ample_agg, nullptr);
  EXPECT_GT(tight_agg->spill_pages, 0u);
  EXPECT_EQ(ample_agg->spill_pages, 0u);
  EXPECT_GT(tight_stats.disk.pages_written, ample_stats.disk.pages_written);

  // Results are bit-identical regardless of the budget.
  EXPECT_EQ(tight_rows, ample_rows);
  EXPECT_FALSE(ample_rows.empty());
}

// ---------------------------------------------------------------------------
// Join sources
// ---------------------------------------------------------------------------

TEST(JoinPipeline, RowsMatchBruteForcePairs) {
  PipelineFixture f;
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  const auto expected = BruteForcePairs(f.a, f.b);
  EXPECT_EQ(Sorted(RowPairs(sink.rows())), expected);
  EXPECT_EQ(stats->output_count, expected.size());
  EXPECT_GT(stats->candidate_count, 0u);
  EXPECT_NE(stats->join_algorithm, JoinAlgorithm::kAuto);

  // Row rects are the contact boxes of the joined MBRs.
  std::map<ObjectId, RectF> am, bm;
  for (const RectF& r : f.a) am[r.id] = r;
  for (const RectF& r : f.b) bm[r.id] = r;
  for (const PipeRow& row : sink.rows()) {
    RectF expected_rect =
        JoinRowAdapter::ContactBox({am.at(row.ids[0]), bm.at(row.ids[1])});
    EXPECT_EQ(row.rect, expected_rect);
    EXPECT_EQ(row.value, 1.0);
  }
}

// A windowed overlay joins only the in-window records, so its sweep is
// striped for their count, ceil(2 sqrt(N)), and the pipeline reports it.
TEST(JoinPipeline, WindowedJoinStripesForTheInWindowRecords) {
  PipelineFixture f(3000, 2500);
  const RectF window(10, 10, 50, 40);
  std::vector<RectF> wa, wb;
  for (const RectF& r : f.a) {
    if (r.Intersects(window)) wa.push_back(r);
  }
  for (const RectF& r : f.b) {
    if (r.Intersects(window)) wb.push_back(r);
  }
  const double n = static_cast<double>(wa.size() + wb.size());
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .Window(window)
                   .Algorithm(JoinAlgorithm::kSSSJ)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->join_algorithm, JoinAlgorithm::kSSSJ);
  EXPECT_EQ(stats->sweep_strips,
            static_cast<uint32_t>(std::ceil(2.0 * std::sqrt(n))));
  EXPECT_EQ(Sorted(RowPairs(sink.rows())), BruteForcePairs(wa, wb));
  bool keyed = false;
  for (const auto& [key, value] : stats->ToKeyValues()) {
    if (key == "sweep_strips") {
      keyed = value == std::to_string(stats->sweep_strips);
    }
  }
  EXPECT_TRUE(keyed);
}

TEST(JoinPipeline, KWayRowsMatchTripleOracle) {
  PipelineFixture f(150, 150);
  const RectF region(0, 0, 80, 80);
  const auto c = UniformRects(120, region, 3.0f, 43);
  const DatasetRef dc = MakeDataset(&f.td, c, "c", &f.keep);

  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .Input(JoinInput::FromStream(dc))
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // Oracle: ordered triples whose three MBRs share a common point.
  std::vector<std::vector<ObjectId>> expected;
  for (const RectF& ra : f.a) {
    for (const RectF& rb : f.b) {
      if (!ra.Intersects(rb)) continue;
      for (const RectF& rc : c) {
        const float xlo = std::max({ra.xlo, rb.xlo, rc.xlo});
        const float xhi = std::min({ra.xhi, rb.xhi, rc.xhi});
        const float ylo = std::max({ra.ylo, rb.ylo, rc.ylo});
        const float yhi = std::min({ra.yhi, rb.yhi, rc.yhi});
        if (xlo <= xhi && ylo <= yhi) {
          expected.push_back({ra.id, rb.id, rc.id});
        }
      }
    }
  }
  std::vector<std::vector<ObjectId>> got;
  for (const PipeRow& row : sink.rows()) {
    EXPECT_EQ(row.ids.size(), 3u);
    got.push_back(row.ids);
  }
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  EXPECT_FALSE(expected.empty());
}

TEST(JoinPipeline, FullComposeMatchesOracle) {
  PipelineFixture f;
  const RectF window(5, 5, 60, 60);
  const uint32_t nx = 10, ny = 10;
  const size_t k = 7;
  const float qx = 30.0f, qy = 30.0f;
  auto pred = [](const PipeRow& r) { return r.rect.Area() < 6.0; };

  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .Window(window)
                   .Filter(pred, "small")
                   .AggregateByCell(AggregateMode::kCount, nx, ny, window)
                   .TopKByDistance(k, qx, qy)
                   .MemoryBytes(4u << 20)
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // Oracle: windowed inputs -> brute-force pairs -> contact boxes ->
  // filter -> aggregate -> top-k. Count aggregation is order-independent,
  // so the join's output order does not matter here.
  std::vector<RectF> wa, wb;
  for (const RectF& r : f.a) {
    if (r.Intersects(window)) wa.push_back(r);
  }
  for (const RectF& r : f.b) {
    if (r.Intersects(window)) wb.push_back(r);
  }
  std::map<ObjectId, RectF> am, bm;
  for (const RectF& r : wa) am[r.id] = r;
  for (const RectF& r : wb) bm[r.id] = r;
  std::vector<PipeRow> join_rows;
  for (const IdPair& p : BruteForcePairs(wa, wb)) {
    PipeRow row;
    row.rect = JoinRowAdapter::ContactBox({am.at(p.a), bm.at(p.b)});
    row.ids = {p.a, p.b};
    if (pred(row)) join_rows.push_back(std::move(row));
  }
  const auto cells =
      AggregateOracle(join_rows, AggregateMode::kCount, window, nx, ny);
  const auto expected =
      TopKOracle(AggregateRowsOracle(cells, window, nx, ny), k, qx, qy);
  EXPECT_EQ(sink.rows(), expected);
  EXPECT_EQ(expected.size(), k);

  // Memory governance: one arbiter spanned the join and the operators,
  // and the whole tree stayed within the budget.
  EXPECT_GT(stats->peak_memory_bytes, 0u);
  EXPECT_LE(stats->peak_memory_bytes, 4u << 20);
  bool saw_op_component = false;
  for (const MemoryComponentStats& c : stats->memory_components) {
    if (c.component.rfind("op.", 0) == 0) saw_op_component = true;
  }
  EXPECT_TRUE(saw_op_component);

  // Every operator in the chain reported stats (join + 3 downstream ops
  // + per-input scans folded in).
  EXPECT_NE(FindOp(*stats, "SpatialJoin["), nullptr);
  EXPECT_NE(FindOp(*stats, "Filter(small)"), nullptr);
  EXPECT_NE(FindOp(*stats, "AggregateByCell"), nullptr);
  EXPECT_NE(FindOp(*stats, "TopKByDistance"), nullptr);
}

TEST(JoinPipeline, RepeatedRunsAreIdentical) {
  PipelineFixture f(120, 100);
  auto query = [&]() {
    return PipelineQuery(*f.joiner)
        .Input(JoinInput::FromStream(f.da))
        .Input(JoinInput::FromStream(f.db))
        .AggregateByCell(AggregateMode::kCount, 8, 8, RectF(0, 0, 80, 80));
  };
  CollectingRowSink first, second;
  ASSERT_TRUE(query().Run(&first).ok());
  ASSERT_TRUE(query().Run(&second).ok());
  EXPECT_EQ(first.rows(), second.rows());
  EXPECT_FALSE(first.rows().empty());
}

// ---------------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------------

TEST(PipelineExplain, PrintsTheCostedOperatorTree) {
  PipelineFixture f;
  auto plan = PipelineQuery(*f.joiner)
                  .Input(JoinInput::FromStream(f.da))
                  .Input(JoinInput::FromStream(f.db))
                  .Window(RectF(5, 5, 60, 60))
                  .Filter([](const PipeRow&) { return true; }, "always")
                  .AggregateByCell(AggregateMode::kCount, 16, 16)
                  .TopKByDistance(8, 30, 30)
                  .Explain();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  EXPECT_TRUE(plan->has_join);
  EXPECT_NE(plan->join.algorithm, JoinAlgorithm::kAuto);
  EXPECT_GT(plan->total_cost_seconds, 0.0);

  // Root-first: the sink-most operator is the top-k.
  ASSERT_FALSE(plan->operators.empty());
  EXPECT_EQ(plan->operators.front().name, "TopKByDistance");

  const std::string tree = plan->Describe();
  for (const char* label :
       {"TopKByDistance", "AggregateByCell", "Filter(always)", "SpatialJoin[",
        "WindowScan"}) {
    EXPECT_NE(tree.find(label), std::string::npos) << tree;
  }

  // The memory plan merges the join's grants with the operators' own.
  bool saw_join_grant = false, saw_op_grant = false;
  for (const MemoryGrantSpec& g : plan->memory.grants) {
    if (g.component.rfind("op.", 0) == 0) saw_op_grant = true;
    if (g.component.rfind("op.", 0) != 0) saw_join_grant = true;
  }
  EXPECT_TRUE(saw_op_grant);
  EXPECT_TRUE(saw_join_grant);

  // Structured form carries the tree too.
  bool saw_kv = false;
  for (const auto& [key, value] : plan->ToKeyValues()) {
    if (key == "op.0.name") {
      EXPECT_EQ(value, "TopKByDistance");
      saw_kv = true;
    }
  }
  EXPECT_TRUE(saw_kv);
}

TEST(PipelineExplain, ScanSourceHasNoJoinDecision) {
  PipelineFixture f;
  auto plan = PipelineQuery(*f.joiner)
                  .Input(JoinInput::FromStream(f.da))
                  .Window(RectF(10, 10, 40, 40))
                  .AggregateByCell(AggregateMode::kCount, 8, 8)
                  .Explain();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->has_join);
  EXPECT_NE(plan->Describe().find("WindowScan"), std::string::npos);
}

// Explain plans each input's rect map as Run requests it, capped at
// budget / (2 x inputs): without a window the hashed table over the whole
// relation; with one the resident table a window scan fills, sized for
// the in-window estimate and the sort's scratch copy of it.
TEST(PipelineExplain, RectMapLineFollowsTheRun) {
  SparseStreams s(2);
  const size_t table = static_cast<size_t>(RectTableBytes(s.kRecords));
  for (const size_t budget : {size_t{24} << 20, size_t{256} << 10}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    const size_t share = RectMapGrantBytes(budget, 2);
    // Both tables fit the larger budget's share; neither fits the smaller.
    EXPECT_EQ(table <= share, budget == (size_t{24} << 20));
    auto plan = s.Query(budget).Explain();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    CountingRowSink sink;
    auto stats = s.Query(budget).Run(&sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(PlannedOf(*plan, grants::kOpRectMap), 2 * std::min(table, share));
    EXPECT_EQ(PlannedOf(*plan, grants::kOpRectMap),
              ComponentOf(*stats, grants::kOpRectMap).granted_high_water);
  }

  const RectF window(100, 100, 500, 600);
  const size_t share = RectMapGrantBytes(24u << 20, 2);
  size_t in_window = 0;
  size_t full = 0;
  for (const JoinInput& input : s.inputs) {
    const uint64_t rows = static_cast<uint64_t>(
        std::llround(WindowScan::EstimateRows(input, window, nullptr)));
    in_window += std::min<size_t>(ResidentTableBytes(rows), share);
    full += std::min(table, share);
  }
  auto plan = s.Query(24u << 20).Window(window).Explain();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(PlannedOf(*plan, grants::kOpRectMap), in_window);
  EXPECT_LT(in_window, full);
}

// Explain's memory plan is the run's: it names the components the run was
// granted and plans each at the run's granted high-water mark — the
// operators', the rect maps' and the join's (window scans hold no grant:
// they hand each record on as they read it). A windowed run sizes its rect
// maps and its sweep over the records it scanned, where Explain has the
// in-window estimate, so there only those two lines may differ.
TEST(PipelineExplain, PlansWhatRunGrants) {
  SparseStreams s(3);
  std::vector<std::unique_ptr<RTree>> trees;
  for (size_t i = 0; i < 2; ++i) {
    s.keep.push_back(s.td.NewPager("tree" + std::to_string(i)));
    Pager* tree_pager = s.keep.back().get();
    s.keep.push_back(s.td.NewPager("scratch" + std::to_string(i)));
    auto tree = RTree::BulkLoadHilbert(tree_pager, s.inputs[i].stream().range,
                                       s.keep.back().get(), RTreeParams(),
                                       1 << 22);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    trees.push_back(std::make_unique<RTree>(std::move(*tree)));
  }
  const JoinInput tree0 = JoinInput::FromRTree(trees[0].get());
  const JoinInput tree1 = JoinInput::FromRTree(trees[1].get());
  const RectF window(100, 100, 500, 600);
  auto hist = GridHistogram::Build(s.inputs[0].stream().range,
                                   RectF(0, 0, 1000, 1000), 16, 16);
  ASSERT_TRUE(hist.ok()) << hist.status().ToString();
  struct Case {
    const char* name;
    bool windowed;
    std::function<void(PipelineQuery&)> build;
  };
  const std::vector<Case> cases = {
      {"two streams", false,
       [&](PipelineQuery& q) {
         q.Input(s.inputs[0])
             .Input(s.inputs[1])
             .AggregateByCell(AggregateMode::kCount, 32, 32)
             .TopKByDistance(8, 300, 300);
       }},
      {"two trees, windowed", true,
       [&](PipelineQuery& q) {
         q.Input(tree0)
             .Input(tree1)
             .Window(window)
             .AggregateByCell(AggregateMode::kCount, 32, 32)
             .TopKByDistance(8, 300, 300);
       }},
      {"three streams, windowed", true,
       [&](PipelineQuery& q) {
         q.Input(s.inputs[0])
             .Input(s.inputs[1])
             .Input(s.inputs[2])
             .Window(window)
             .TopKByDistance(8, 300, 300);
       }},
      {"tree scan, windowed", true,
       [&](PipelineQuery& q) {
         q.Input(tree0).Window(window).AggregateByCell(AggregateMode::kCount,
                                                       256, 256);
       }},
      // The histogram prunes the scan, which then reads nothing; no scan
      // holds a grant, pruned or not, so neither side lists one.
      {"tree scan, pruned window", true,
       [&](PipelineQuery& q) {
         q.Input(tree0)
             .Window(RectF(2000, 2000, 2100, 2100))
             .WithHistogram(0, &*hist);
       }},
  };
  // The default budget, and service_windows' per-query budget.
  for (const size_t budget : {size_t{24} << 20, size_t{4} << 20}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.name) + ", budget " + std::to_string(budget));
      PipelineQuery explained(*s.joiner);
      PipelineQuery ran(*s.joiner);
      c.build(explained.MemoryBytes(budget));
      c.build(ran.MemoryBytes(budget));
      auto plan = explained.Explain();
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      CountingRowSink sink;
      auto stats = ran.Run(&sink);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();

      std::vector<std::string> planned, granted;
      for (const MemoryGrantSpec& g : plan->memory.grants) {
        planned.push_back(g.component);
      }
      for (const MemoryComponentStats& m : stats->memory_components) {
        granted.push_back(m.component);
        if (c.windowed && (m.component == grants::kOpRectMap ||
                           m.component == grants::kSweep)) {
          continue;
        }
        EXPECT_EQ(plan->memory.GrantFor(m.component), m.granted_high_water)
            << m.component;
      }
      std::sort(planned.begin(), planned.end());
      EXPECT_EQ(planned, granted) << plan->memory.Describe();
    }
  }

  // The join's lines follow what the operators and the rect maps leave:
  // two unwindowed 50,000-record streams under a small and a large
  // aggregate. The large one leaves SSSJ too little for one sweep at
  // 512 KiB and 1 MiB, so it falls back to strips, whose sweeps follow
  // each strip's records. At 1 MiB the two strips load; at 512 KiB they
  // sort (DataDependentGrants).
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  std::vector<JoinInput> big;
  for (uint64_t seed : {1, 2}) {
    big.push_back(JoinInput::FromStream(MakeDataset(
        &td, UniformRects(50000, RectF(0, 0, 1000, 1000), 2.0f, seed),
        "big" + std::to_string(seed), &keep)));
  }
  SpatialJoiner joiner(&td.disk, JoinOptions());
  for (const size_t budget : {size_t{512} << 10, size_t{1} << 20,
                              size_t{4} << 20}) {
    for (const uint32_t cells : {32u, 256u}) {
      SCOPED_TRACE(std::to_string(cells) + "x" + std::to_string(cells) +
                   ", budget " + std::to_string(budget));
      auto build = [&](PipelineQuery& q) {
        q.Input(big[0]).Input(big[1]).MemoryBytes(budget).AggregateByCell(
            AggregateMode::kCount, cells, cells);
      };
      PipelineQuery explained(joiner), ran(joiner);
      build(explained);
      build(ran);
      auto plan = explained.Explain();
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      CountingRowSink sink;
      auto stats = ran.Run(&sink);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      const bool strips = cells == 256 && budget <= (size_t{1} << 20);
      EXPECT_EQ(stats->partitions_total, strips ? 2u : 0u);
      EXPECT_EQ(stats->partitions_overflowed,
                strips && budget < (size_t{1} << 20) ? 2u : 0u);
      JoinStats join;
      join.algorithm = stats->join_algorithm;
      join.partitions_total = stats->partitions_total;
      join.partitions_overflowed = stats->partitions_overflowed;
      testing_util::ExpectPlanIsRunGrants(
          plan->memory, stats->memory_components,
          testing_util::DataDependentGrants(join, plan->memory));
    }
  }
}

// Each node reports the rows it emits, as a source does: the Filter a
// third of the rows reaching it, the aggregate at most its cells, the
// top-k at most k.
TEST(PipelineExplain, NodesReportTheRowsTheyEmit) {
  SparseStreams s(2);
  auto plan = s.Query(24u << 20)
                  .Filter([](const PipeRow&) { return true; }, "all")
                  .AggregateByCell(AggregateMode::kCount, 32, 32)
                  .TopKByDistance(8, 500, 500)
                  .Explain();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::vector<OperatorPlan>& nodes = plan->operators;
  ASSERT_EQ(nodes.size(), 6u) << plan->Describe();
  EXPECT_EQ(nodes[0].name, "TopKByDistance");
  EXPECT_EQ(nodes[0].est_rows, 8.0);
  EXPECT_EQ(nodes[1].name, "AggregateByCell");
  EXPECT_EQ(nodes[1].est_rows, 1024.0);
  EXPECT_EQ(nodes[2].name, "Filter");
  EXPECT_EQ(nodes[3].est_rows, static_cast<double>(s.kRecords));
  EXPECT_DOUBLE_EQ(nodes[2].est_rows, nodes[3].est_rows / 3.0);
}

// A windowed k-way chain is priced over the in-window records it joins,
// not over the whole relations.
TEST(PipelineExplain, MultiwayChainIsPricedOverItsWindow) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  std::vector<JoinInput> inputs;
  for (uint64_t i = 0; i < 3; ++i) {
    const auto rects =
        UniformRects(50000, RectF(0, 0, 1000, 1000), 2.0f, i + 1);
    inputs.push_back(JoinInput::FromStream(
        MakeDataset(&td, rects, "s" + std::to_string(i), &keep)));
  }
  SpatialJoiner joiner(&td.disk, JoinOptions());
  auto chain_cost = [&](bool windowed) {
    PipelineQuery q(joiner);
    for (const JoinInput& input : inputs) q.Input(input);
    if (windowed) q.Window(RectF(0, 0, 10, 10));
    auto plan = q.Explain();
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    double seconds = -1.0;
    for (const OperatorPlan& node : plan->operators) {
      if (node.name == "MultiwayJoin") seconds = node.cost_seconds;
    }
    return seconds;
  };
  const double full = chain_cost(false);
  EXPECT_GT(full, 0.0);
  EXPECT_LT(chain_cost(true), full / 10);
}

// ---------------------------------------------------------------------------
// Memory governance
// ---------------------------------------------------------------------------

// Three rect maps that do not fit take a third of half the budget each,
// so the k-way chain keeps the rest: no grant passes the budget, the
// chain's sweep and sorts are granted what they use, and the rows are
// those of a budget where every table fits.
TEST(PipelineMemory, RectMapsLeaveTheJoinHalfTheBudget) {
  SparseStreams s(3);
  constexpr size_t kBudget = size_t{256} << 10;
  CollectingRowSink tight_rows;
  auto tight = s.Query(kBudget).Run(&tight_rows);
  ASSERT_TRUE(tight.ok()) << tight.status().ToString();
  const MemoryComponentStats rectmap =
      ComponentOf(*tight, grants::kOpRectMap);
  EXPECT_EQ(rectmap.granted_high_water, 3 * RectMapGrantBytes(kBudget, 3));
  EXPECT_LE(rectmap.granted_high_water, kBudget / 2);
  EXPECT_LE(tight->peak_memory_bytes, kBudget);
  const MemoryComponentStats sweep = ComponentOf(*tight, grants::kSweep);
  EXPECT_GT(sweep.used_high_water, 0u);
  EXPECT_LE(sweep.used_high_water, sweep.granted_high_water);
  const MemoryComponentStats sort = ComponentOf(*tight, grants::kSortRuns);
  EXPECT_LE(sort.used_high_water, sort.granted_high_water);

  CollectingRowSink roomy_rows;
  auto roomy = s.Query(size_t{24} << 20).Run(&roomy_rows);
  ASSERT_TRUE(roomy.ok()) << roomy.status().ToString();
  EXPECT_FALSE(roomy_rows.rows().empty());
  EXPECT_EQ(tight_rows.rows(), roomy_rows.rows());
}

// A windowed overlay of two trees whose in-window tables fit their shares
// joins the tables where they lie: the scans fill the rect maps, which are
// also the join's sorted inputs, so the query sorts and writes nothing,
// and a strict arbiter sees every table inside its grant.
TEST(PipelineMemory, ResidentWindowTablesWriteNothing) {
  SparseStreams s(2);
  std::vector<std::unique_ptr<RTree>> trees;
  for (size_t i = 0; i < 2; ++i) {
    s.keep.push_back(s.td.NewPager("tree" + std::to_string(i)));
    Pager* tree_pager = s.keep.back().get();
    s.keep.push_back(s.td.NewPager("scratch" + std::to_string(i)));
    auto tree = RTree::BulkLoadHilbert(tree_pager, s.inputs[i].stream().range,
                                       s.keep.back().get(), RTreeParams(),
                                       1 << 22);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    trees.push_back(std::make_unique<RTree>(std::move(*tree)));
  }
  const RectF window(100, 100, 500, 600);
  std::vector<RectF> in_window[2];
  for (uint64_t i = 0; i < 2; ++i) {
    for (const RectF& r : UniformRects(s.kRecords, RectF(0, 0, 1000, 1000),
                                       4.0f, i + 1)) {
      if (r.Intersects(window)) in_window[i].push_back(r);
    }
  }
  const std::vector<IdPair> expected =
      BruteForcePairs(in_window[0], in_window[1]);
  std::optional<std::vector<PipeRow>> reference;
  for (const size_t budget : {size_t{24} << 20, size_t{4} << 20,
                              size_t{1} << 20}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    auto query = [&]() {
      PipelineQuery q(*s.joiner);
      q.Input(JoinInput::FromRTree(trees[0].get()))
          .Input(JoinInput::FromRTree(trees[1].get()))
          .Window(window)
          .MemoryBytes(budget);
      q.mutable_options().strict_memory_accounting = true;
      return q;
    };
    CollectingRowSink pairs;
    auto joined = query().Run(&pairs);
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    EXPECT_EQ(Sorted(RowPairs(pairs.rows())), expected);

    CollectingRowSink rows;
    auto stats = query()
                     .AggregateByCell(AggregateMode::kCount, 32, 32)
                     .TopKByDistance(8, 300, 300)
                     .Run(&rows);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    if (!reference.has_value()) reference = rows.rows();
    EXPECT_EQ(rows.rows(), *reference);
    for (const PipelineStats* run : {&*joined, &*stats}) {
      EXPECT_EQ(run->join_algorithm, JoinAlgorithm::kSSSJ);
      EXPECT_EQ(run->disk.pages_written, 0u);
      EXPECT_EQ(ComponentOf(*run, grants::kSortRuns).granted_high_water, 0u);
      const MemoryComponentStats rectmap =
          ComponentOf(*run, grants::kOpRectMap);
      EXPECT_GT(rectmap.used_high_water, 0u);
      EXPECT_LE(rectmap.used_high_water, rectmap.granted_high_water);
      EXPECT_LE(rectmap.granted_high_water, 2 * RectMapGrantBytes(budget, 2));
      for (size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(run->operators[i].name, "WindowScan");
        EXPECT_EQ(run->operators[i].rows_out, in_window[i].size());
        EXPECT_EQ(run->operators[i].spill_pages, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

// Explain and Run share one validation: every malformed pipeline gets the
// same status code from both, and neither touches the DiskModel first (no
// window scan, no rect resolver, no join compile).
TEST(PipelineValidation, ExplainAndRunRejectAlikeBeforeAnyIO) {
  PipelineFixture f;
  const JoinInput a = JoinInput::FromStream(f.da);
  const JoinInput b = JoinInput::FromStream(f.db);
  const RectF window(10, 10, 50, 50);
  GridHistogram hist(RectF(0, 0, 80, 80), 4, 4);
  DatasetRef no_extent = f.da;
  no_extent.extent = RectF::Empty();
  constexpr StatusCode kInvalid = StatusCode::kInvalidArgument;
  constexpr StatusCode kPrecondition = StatusCode::kFailedPrecondition;
  struct Case {
    const char* name;
    std::function<void(PipelineQuery&)> build;
    StatusCode code;
  };
  const std::vector<Case> cases = {
      {"no inputs", [](PipelineQuery&) {}, kInvalid},
      {"scan with a join predicate",
       [&](PipelineQuery& q) {
         q.Input(a).Predicate(Predicate::kDistanceWithin, 1.0);
       },
       kInvalid},
      {"degenerate aggregate grid",
       [&](PipelineQuery& q) {
         q.Input(a).AggregateByCell(AggregateMode::kCount, 0, 4);
       },
       kInvalid},
      {"top-k with k = 0",
       [&](PipelineQuery& q) { q.Input(a).TopKByDistance(0, 1, 1); },
       kInvalid},
      {"histogram on a missing input",
       [&](PipelineQuery& q) { q.Input(a).WithHistogram(5, &hist); },
       kInvalid},
      {"aggregate without a resolvable extent",
       [&](PipelineQuery& q) {
         q.Input(JoinInput::FromStream(no_extent))
             .AggregateByCell(AggregateMode::kCount, 4, 4);
       },
       kInvalid},
      {"forced algorithm on a 3-way join",
       [&](PipelineQuery& q) {
         q.Input(a).Input(b).Input(a).Algorithm(JoinAlgorithm::kPBSM);
       },
       kInvalid},
      {"windowed 3-way distance predicate",
       [&](PipelineQuery& q) {
         q.Input(a).Input(b).Input(a).Window(window).Predicate(
             Predicate::kDistanceWithin, 1.0);
       },
       kInvalid},
      {"3-way contains predicate",
       [&](PipelineQuery& q) {
         q.Input(a).Input(b).Input(a).Predicate(Predicate::kContains).Refine(
             true);
       },
       kInvalid},
      {"3-way refine without FeatureStores",
       [&](PipelineQuery& q) { q.Input(a).Input(b).Input(a).Refine(true); },
       kPrecondition},
      {"windowed 2-way refine without FeatureStores",
       [&](PipelineQuery& q) {
         q.Input(a).Input(b).Window(window).Refine(true);
       },
       kPrecondition},
      {"windowed negative epsilon",
       [&](PipelineQuery& q) {
         q.Input(a).Input(b).Window(window).Predicate(
             Predicate::kDistanceWithin, -1.0);
       },
       kInvalid},
      {"budget below the floor",
       [&](PipelineQuery& q) {
         q.Input(a).Input(b).Window(window).MemoryBytes(kMinMemoryBytes - 1);
       },
       kPrecondition},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    PipelineQuery explained(*f.joiner);
    PipelineQuery ran(*f.joiner);
    c.build(explained);
    c.build(ran);
    const DiskStats before = f.td.disk.stats();
    const auto plan = explained.Explain();
    CollectingRowSink sink;
    const auto stats = ran.Run(&sink);
    const DiskStats after = f.td.disk.stats();
    EXPECT_EQ(plan.status().code(), c.code) << plan.status().ToString();
    EXPECT_EQ(stats.status().code(), c.code) << stats.status().ToString();
    EXPECT_EQ(after.pages_read, before.pages_read);
    EXPECT_EQ(after.pages_written, before.pages_written);
    EXPECT_TRUE(sink.rows().empty());
  }
}

// A pipeline's missing-FeatureStore error names the pipeline's own setter.
TEST(PipelineValidation, MissingFeaturesNamesThePipelineSetter) {
  PipelineFixture f;
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .Refine(true)
                   .Run(&sink);
  ASSERT_FALSE(stats.ok());
  const std::string message = stats.status().ToString();
  EXPECT_NE(message.find("PipelineQuery::WithFeatures"), std::string::npos)
      << message;
  EXPECT_EQ(message.find("JoinQuery"), std::string::npos) << message;
}

// ---------------------------------------------------------------------------
// Stats plumbing
// ---------------------------------------------------------------------------

TEST(PipelineStatsTest, DescribeAndKeyValuesAreStructured) {
  PipelineFixture f(100, 80);
  CollectingRowSink sink;
  auto stats = PipelineQuery(*f.joiner)
                   .Input(JoinInput::FromStream(f.da))
                   .Input(JoinInput::FromStream(f.db))
                   .AggregateByCell(AggregateMode::kCount, 8, 8,
                                    RectF(0, 0, 80, 80))
                   .Run(&sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  EXPECT_FALSE(stats->Describe().empty());
  EXPECT_FALSE(stats->Describe(f.td.disk.machine()).empty());
  bool saw_output = false, saw_op = false;
  for (const auto& [key, value] : stats->ToKeyValues()) {
    if (key == "output_count") {
      EXPECT_EQ(value, std::to_string(stats->output_count));
      saw_output = true;
    }
    if (key.rfind("op.", 0) == 0) saw_op = true;
  }
  EXPECT_TRUE(saw_output);
  EXPECT_TRUE(saw_op);
  EXPECT_GT(stats->ObservedSeconds(f.td.disk.machine()), 0.0);
}

// ---------------------------------------------------------------------------
// Read faults in an index's leaf level
// ---------------------------------------------------------------------------

// A tree whose reads fail after its bulk load: every query that reads it
// ends in the read's IoError, alone and through a service, with no
// unfinished stream left behind and every grant back: the leaf scans
// (extraction, window scans, rect maps) and PQ's traversal, pairwise and
// in the k-way chain. Then the same queries run.
TEST(LeafScanFaults, EveryReaderEndsInIoError) {
  SparseStreams s(2);
  auto failing = std::make_unique<FailingBackend>();
  FailingBackend* faults = failing.get();
  Pager faulty_pager(std::move(failing), &s.td.disk, "tree.faulty");
  std::vector<std::unique_ptr<RTree>> trees;
  for (size_t i = 0; i < 2; ++i) {
    Pager* tree_pager = &faulty_pager;
    if (i == 1) {
      s.keep.push_back(s.td.NewPager("tree"));
      tree_pager = s.keep.back().get();
    }
    s.keep.push_back(s.td.NewPager("scratch" + std::to_string(i)));
    auto tree = RTree::BulkLoadHilbert(tree_pager, s.inputs[i].stream().range,
                                       s.keep.back().get(), RTreeParams(),
                                       1 << 22);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    trees.push_back(std::make_unique<RTree>(std::move(*tree)));
  }
  const JoinInput a = JoinInput::FromRTree(trees[0].get());
  const JoinInput b = JoinInput::FromRTree(trees[1].get());

  struct Reader {
    const char* name;
    std::function<Status(SpatialService*)> run;
  };
  auto pipeline = [&](size_t budget, bool windowed) {
    return [&, budget, windowed](SpatialService* service) {
      PipelineQuery q(*s.joiner);
      q.Input(a).Input(b).MemoryBytes(budget);
      if (windowed) q.Window(RectF(100, 100, 500, 600));
      CountingRowSink sink;
      return service == nullptr ? q.Run(&sink).status()
                                : service->Run(q, &sink).status();
    };
  };
  const std::vector<Reader> readers = {
      // Leaf extraction writes the copy while it reads the tree.
      {"SSSJ join",
       [&](SpatialService* service) {
         JoinQuery q(*s.joiner);
         q.Input(a).Input(b).Algorithm(JoinAlgorithm::kSSSJ);
         CountingSink sink;
         return service == nullptr ? q.Run(&sink).status()
                                   : service->Run(q, &sink).status();
       }},
      // The scans fill the resident rect maps while they read.
      {"windowed pipeline", pipeline(24u << 20, true)},
      // The traversal reads the tree node by node.
      {"PQ, tree side",
       [&](SpatialService* service) {
         JoinQuery q(*s.joiner);
         q.Input(a).Input(s.inputs[1]).Algorithm(JoinAlgorithm::kPQ);
         CountingSink sink;
         return service == nullptr ? q.Run(&sink).status()
                                   : service->Run(q, &sink).status();
       }},
      // Standalone, the k-way JoinQuery traverses the tree; through the
      // service, the k-way pipeline (the service schedules pairwise
      // queries and pipelines) reads it into its rect map first.
      {"k-way chain",
       [&](SpatialService* service) {
         if (service == nullptr) {
           JoinQuery q(*s.joiner);
           q.Input(a).Input(s.inputs[1]).Input(b);
           CountingTupleSink sink;
           return q.Run(static_cast<TupleSink*>(&sink)).status();
         }
         PipelineQuery q(*s.joiner);
         q.Input(a).Input(s.inputs[1]).Input(b);
         CountingRowSink sink;
         return service->Run(q, &sink).status();
       }},
      // The rect map loads its in-memory table from the tree.
      {"two-tree pipeline", pipeline(24u << 20, false)},
      // The table goes external, through a stream copy of the tree.
      {"two-tree pipeline, external rect map", pipeline(kMinMemoryBytes, false)},
  };
  ASSERT_GT(RectTableBytes(s.kRecords), RectMapGrantBytes(kMinMemoryBytes, 2));

  SpatialService service{ServiceOptions()};
  for (const Reader& reader : readers) {
    SCOPED_TRACE(reader.name);
    faults->fail_reads = true;
    const Status alone = reader.run(nullptr);
    EXPECT_EQ(alone.code(), StatusCode::kIoError) << alone.ToString();
    const Status served = reader.run(&service);
    EXPECT_EQ(served.code(), StatusCode::kIoError) << served.ToString();
    EXPECT_EQ(service.global_arbiter()->in_use(), 0u);
    faults->fail_reads = false;
    const Status healthy = reader.run(&service);
    EXPECT_TRUE(healthy.ok()) << healthy.ToString();
    EXPECT_EQ(service.global_arbiter()->in_use(), 0u);
  }
}

// A stream whose reads fail after it is written: every plan that reads
// it ends in the read's IoError instead of aborting, alone and through a
// 2-worker service whose arbiter then holds nothing. Then the same
// queries run.
TEST(StreamReadFaults, EveryReaderEndsInIoError) {
  SparseStreams s(3);
  auto failing = std::make_unique<FailingBackend>();
  FailingBackend* faults = failing.get();
  Pager faulty_pager(std::move(failing), &s.td.disk, "stream.faulty");
  StreamWriter<RectF> writer(&faulty_pager);
  const PageId first = writer.first_page();
  for (const RectF& r : UniformRects(s.kRecords, RectF(0, 0, 1000, 1000),
                                     4.0f, /*seed=*/1)) {
    writer.Append(r);
  }
  auto written = writer.Finish();
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  DatasetRef faulty_ref;
  faulty_ref.range = StreamRange{&faulty_pager, first, *written};
  const JoinInput faulty = JoinInput::FromStream(faulty_ref);
  s.keep.push_back(s.td.NewPager("tree"));
  Pager* tree_pager = s.keep.back().get();
  s.keep.push_back(s.td.NewPager("scratch"));
  auto tree = RTree::BulkLoadHilbert(tree_pager, s.inputs[1].stream().range,
                                     s.keep.back().get(), RTreeParams(),
                                     1 << 22);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();

  auto join = [&](JoinAlgorithm algorithm, const JoinInput& other) {
    return [&, algorithm, other](SpatialService* service) {
      JoinQuery q(*s.joiner);
      q.Input(faulty).Input(other).Algorithm(algorithm);
      CountingSink sink;
      return service == nullptr ? q.Run(&sink).status()
                                : service->Run(q, &sink).status();
    };
  };
  auto pipeline = [&](bool windowed, size_t inputs) {
    return [&, windowed, inputs](SpatialService* service) {
      PipelineQuery q(*s.joiner);
      q.Input(faulty);
      for (size_t i = 1; i < inputs; ++i) q.Input(s.inputs[i]);
      if (windowed) q.Window(RectF(100, 100, 500, 600));
      CountingRowSink sink;
      return service == nullptr ? q.Run(&sink).status()
                                : service->Run(q, &sink).status();
    };
  };
  struct Reader {
    const char* name;
    std::function<Status(SpatialService*)> run;
  };
  const std::vector<Reader> readers = {
      {"SSSJ", join(JoinAlgorithm::kSSSJ, s.inputs[1])},
      {"PBSM", join(JoinAlgorithm::kPBSM, s.inputs[1])},
      {"PQ, stream side", join(JoinAlgorithm::kPQ,
                               JoinInput::FromRTree(&*tree))},
      {"windowed pipeline", pipeline(/*windowed=*/true, 2)},
      // Standalone, the k-way JoinQuery; through the service, the k-way
      // pipeline (the service schedules pairwise queries and pipelines).
      {"k-way chain",
       [&](SpatialService* service) {
         if (service != nullptr) return pipeline(false, 3)(service);
         JoinQuery q(*s.joiner);
         q.Input(faulty).Input(s.inputs[1]).Input(s.inputs[2]);
         CountingTupleSink sink;
         return q.Run(static_cast<TupleSink*>(&sink)).status();
       }},
  };

  ServiceOptions options;
  options.worker_threads = 2;
  SpatialService service(options);
  for (const Reader& reader : readers) {
    SCOPED_TRACE(reader.name);
    faults->fail_reads = true;
    const Status alone = reader.run(nullptr);
    EXPECT_EQ(alone.code(), StatusCode::kIoError) << alone.ToString();
    const Status served = reader.run(&service);
    EXPECT_EQ(served.code(), StatusCode::kIoError) << served.ToString();
    EXPECT_EQ(service.global_arbiter()->in_use(), 0u);
    faults->fail_reads = false;
    EXPECT_TRUE(reader.run(nullptr).ok());
    const Status healthy = reader.run(&service);
    EXPECT_TRUE(healthy.ok()) << healthy.ToString();
    EXPECT_EQ(service.global_arbiter()->in_use(), 0u);
  }
}

}  // namespace
}  // namespace sj
