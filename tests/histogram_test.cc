#include "histogram/grid_histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "datagen/synthetic.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::MakeDataset;
using testing_util::TestDisk;

TEST(GridHistogram, CountsOverlappingCells) {
  GridHistogram hist(RectF(0, 0, 10, 10), 10, 10);
  hist.Add(RectF(0.5f, 0.5f, 0.6f, 0.6f));   // One cell.
  hist.Add(RectF(0.0f, 0.0f, 2.5f, 0.5f));   // Cells x 0..2, y 0.
  EXPECT_EQ(hist.CellCount(0, 0), 2u);
  EXPECT_EQ(hist.CellCount(1, 0), 1u);
  EXPECT_EQ(hist.CellCount(2, 0), 1u);
  EXPECT_EQ(hist.CellCount(3, 0), 0u);
  EXPECT_EQ(hist.total(), 2u);
}

TEST(GridHistogram, MightIntersectIsConservative) {
  GridHistogram hist(RectF(0, 0, 100, 100), 20, 20);
  hist.Add(RectF(10, 10, 12, 12));
  // Same cell region: must report possible.
  EXPECT_TRUE(hist.MightIntersect(RectF(11, 11, 11.5f, 11.5f)));
  // Same cell but not overlapping the object: still "might" (conservative).
  EXPECT_TRUE(hist.MightIntersect(RectF(13, 13, 14, 14)));
  // Far away: definitively no.
  EXPECT_FALSE(hist.MightIntersect(RectF(80, 80, 90, 90)));
  // Outside the extent entirely.
  EXPECT_FALSE(hist.MightIntersect(RectF(200, 200, 300, 300)));
}

TEST(GridHistogram, EmptyHistogramIntersectsNothing) {
  GridHistogram hist(RectF(0, 0, 10, 10), 4, 4);
  EXPECT_FALSE(hist.MightIntersect(RectF(1, 1, 2, 2)));
  EXPECT_EQ(hist.EstimateJoinFraction(hist), 0.0);
}

TEST(GridHistogram, JoinFractionBounds) {
  const RectF extent(0, 0, 100, 100);
  GridHistogram left(extent, 10, 10);
  GridHistogram right(extent, 10, 10);
  for (const RectF& r : UniformRects(500, extent, 1.0f, 1)) left.Add(r);
  for (const RectF& r : UniformRects(500, extent, 1.0f, 2)) right.Add(r);
  const double f = left.EstimateJoinFraction(right);
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
  // Uniform data overlaps nearly everywhere.
  EXPECT_GT(f, 0.8);
}

TEST(GridHistogram, DisjointDataGivesZeroFraction) {
  const RectF extent(0, 0, 100, 100);
  GridHistogram left(extent, 10, 10);
  GridHistogram right(extent, 10, 10);
  for (const RectF& r : UniformRects(200, RectF(0, 0, 30, 30), 0.5f, 3)) {
    left.Add(r);
  }
  for (const RectF& r : UniformRects(200, RectF(60, 60, 95, 95), 0.5f, 4)) {
    right.Add(r);
  }
  EXPECT_EQ(left.EstimateJoinFraction(right), 0.0);
}

TEST(GridHistogram, LocalizedJoinFractionIsSmall) {
  // The paper's motivating case (§6.3): Minnesota hydro vs US roads.
  const RectF us(0, 0, 100, 100);
  GridHistogram roads(us, 20, 20);
  GridHistogram hydro(us, 20, 20);
  for (const RectF& r : UniformRects(2000, us, 0.5f, 5)) roads.Add(r);
  for (const RectF& r : UniformRects(200, RectF(10, 10, 20, 20), 0.5f, 6)) {
    hydro.Add(r);
  }
  // Only a small fraction of the roads participate.
  EXPECT_LT(roads.EstimateJoinFraction(hydro), 0.1);
  // But all of the hydro does.
  EXPECT_GT(hydro.EstimateJoinFraction(roads), 0.9);
}

TEST(GridHistogram, BuildFromStream) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF extent(0, 0, 50, 50);
  const auto rects = UniformRects(800, extent, 1.0f, 7);
  const DatasetRef ref = MakeDataset(&td, rects, "h", &keep);
  auto hist = GridHistogram::Build(ref.range, extent, 8, 8);
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist->total(), 800u);
  // In-memory construction agrees.
  GridHistogram direct(extent, 8, 8);
  for (const RectF& r : rects) direct.Add(r);
  for (uint32_t y = 0; y < 8; ++y) {
    for (uint32_t x = 0; x < 8; ++x) {
      EXPECT_EQ(hist->CellCount(x, y), direct.CellCount(x, y));
    }
  }
}

TEST(GridHistogram, DegenerateExtent) {
  GridHistogram hist(RectF(5, 5, 5, 5), 16, 16);
  hist.Add(RectF(5, 5, 5, 5));
  EXPECT_TRUE(hist.MightIntersect(RectF(5, 5, 5, 5)));
  EXPECT_EQ(hist.total(), 1u);
}

TEST(GridHistogram, EstimateCountInTracksRegionMass) {
  const RectF extent(0, 0, 100, 100);
  GridHistogram hist(extent, 32, 32);
  // 1000 points in the lower-left quadrant, 200 in the upper-right.
  const auto lower = UniformRects(1000, RectF(0, 0, 49, 49), 0.0f, 21);
  const auto upper = UniformRects(200, RectF(51, 51, 100, 100), 0.0f, 22);
  for (const RectF& r : lower) hist.Add(r);
  for (const RectF& r : upper) hist.Add(r);

  EXPECT_NEAR(hist.EstimateCountIn(RectF(0, 0, 50, 50)), 1000.0, 60.0);
  EXPECT_NEAR(hist.EstimateCountIn(RectF(50, 50, 100, 100)), 200.0, 30.0);
  EXPECT_EQ(hist.EstimateCountIn(RectF(200, 0, 300, 100)), 0.0);
  // Whole extent recovers the total (points overlap one cell each, so
  // there is no replication inflation).
  EXPECT_NEAR(hist.EstimateCountIn(extent), 1200.0, 1.0);
  // Sub-cell queries degrade to the uniform-within-cell assumption: four
  // disjoint quadrants of one cell sum to the cell's own estimate.
  const RectF cell(0, 0, 100.0f / 32, 100.0f / 32);
  const float mx = 0.5f * (cell.xlo + cell.xhi);
  const float my = 0.5f * (cell.ylo + cell.yhi);
  const double whole = hist.EstimateCountIn(cell);
  const double quads = hist.EstimateCountIn(RectF(cell.xlo, cell.ylo, mx, my)) +
                       hist.EstimateCountIn(RectF(mx, cell.ylo, cell.xhi, my)) +
                       hist.EstimateCountIn(RectF(cell.xlo, my, mx, cell.yhi)) +
                       hist.EstimateCountIn(RectF(mx, my, cell.xhi, cell.yhi));
  EXPECT_NEAR(quads, whole, 1e-6 * (1.0 + whole));
}

TEST(GridHistogram, EstimateCountInDegenerateQueriesAreZeroMass) {
  const RectF extent(0, 0, 100, 100);
  GridHistogram hist(extent, 16, 16);
  for (const RectF& r : UniformRects(500, extent, 1.0f, 31)) hist.Add(r);

  // Zero-area queries (points, horizontal/vertical segments) carry zero
  // mass under the fractional-area model: exactly 0, never NaN or
  // negative — including degenerate rects on the extent boundary.
  EXPECT_EQ(hist.EstimateCountIn(RectF(50, 50, 50, 50)), 0.0);
  EXPECT_EQ(hist.EstimateCountIn(RectF(10, 20, 90, 20)), 0.0);
  EXPECT_EQ(hist.EstimateCountIn(RectF(30, 10, 30, 95)), 0.0);
  EXPECT_EQ(hist.EstimateCountIn(RectF(0, 0, 0, 100)), 0.0);

  // Inverted / NaN / Empty rectangles are invalid: 0, not garbage.
  EXPECT_EQ(hist.EstimateCountIn(RectF(60, 60, 40, 40)), 0.0);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(hist.EstimateCountIn(RectF(nan, 0, 10, 10)), 0.0);
  EXPECT_EQ(hist.EstimateCountIn(RectF::Empty()), 0.0);
}

TEST(GridHistogram, EstimateCountInOutsideAndOversizedQueries) {
  const RectF extent(0, 0, 100, 100);
  GridHistogram hist(extent, 16, 16);
  for (const RectF& r : UniformRects(500, extent, 1.0f, 32)) hist.Add(r);

  // Fully outside the extent on any side: exactly 0.
  EXPECT_EQ(hist.EstimateCountIn(RectF(150, 150, 200, 200)), 0.0);
  EXPECT_EQ(hist.EstimateCountIn(RectF(-50, 0, -10, 100)), 0.0);
  EXPECT_EQ(hist.EstimateCountIn(RectF(0, 101, 100, 200)), 0.0);

  // Far-oversized and infinite queries clamp to the grid instead of
  // overflowing the cell-index cast; the estimate stays finite,
  // non-negative, and equal to the whole-extent mass.
  const double all = hist.EstimateCountIn(extent);
  const float inf = std::numeric_limits<float>::infinity();
  const double from_inf = hist.EstimateCountIn(RectF(-inf, -inf, inf, inf));
  EXPECT_TRUE(std::isfinite(from_inf));
  EXPECT_NEAR(from_inf, all, 1e-9 * (1.0 + all));
  const double from_big =
      hist.EstimateCountIn(RectF(-1e30f, -1e30f, 1e30f, 1e30f));
  EXPECT_TRUE(std::isfinite(from_big));
  EXPECT_NEAR(from_big, all, 1e-9 * (1.0 + all));

  // The same clamping protects the conservative pruning test.
  EXPECT_TRUE(hist.MightIntersect(RectF(-inf, -inf, inf, inf)));
}

TEST(GridHistogram, AverageCellsPerObjectMeasuresReplication) {
  const RectF extent(0, 0, 100, 100);
  GridHistogram points(extent, 10, 10);
  points.Add(RectF(5, 5, 5, 5));
  points.Add(RectF(15, 15, 15, 15));
  EXPECT_DOUBLE_EQ(points.AverageCellsPerObject(), 1.0);

  GridHistogram wide(extent, 10, 10);
  wide.Add(RectF(0, 0, 100, 5));  // Spans the full row of 10 cells.
  EXPECT_DOUBLE_EQ(wide.AverageCellsPerObject(), 10.0);

  EXPECT_DOUBLE_EQ(GridHistogram(extent, 10, 10).AverageCellsPerObject(), 1.0);
}

TEST(GridHistogram, BuildSampledApproximatesTheFullBuild) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF extent(0, 0, 100, 100);
  // Dense corner + uniform background over many stream blocks (> 4
  // blocks so sampling actually skips some).
  auto rects = UniformRects(80000, RectF(0, 0, 20, 20), 0.5f, 23);
  const auto rest = UniformRects(40000, extent, 0.5f, 24, 80000);
  rects.insert(rects.end(), rest.begin(), rest.end());
  const DatasetRef ref = MakeDataset(&td, rects, "s", &keep);

  td.disk.ResetStats();
  auto full = GridHistogram::Build(ref.range, extent, 16, 16);
  ASSERT_TRUE(full.ok());
  const uint64_t full_pages = td.disk.stats().pages_read;
  td.disk.ResetStats();
  auto sampled = GridHistogram::BuildSampled(ref.range, extent, 16, 16, 4);
  ASSERT_TRUE(sampled.ok());
  const uint64_t sampled_pages = td.disk.stats().pages_read;

  // The sampled pass reads a fraction of the stream but is rescaled to
  // the exact total; relative densities stay close.
  EXPECT_LT(sampled_pages, full_pages / 2);
  EXPECT_EQ(sampled->total(), full->total());
  const double full_corner = full->EstimateCountIn(RectF(0, 0, 20, 20));
  const double sampled_corner = sampled->EstimateCountIn(RectF(0, 0, 20, 20));
  EXPECT_NEAR(sampled_corner / full_corner, 1.0, 0.15);

  // sample_one_in = 1 is exactly Build().
  auto unsampled = GridHistogram::BuildSampled(ref.range, extent, 16, 16, 1);
  ASSERT_TRUE(unsampled.ok());
  for (uint32_t y = 0; y < 16; ++y) {
    for (uint32_t x = 0; x < 16; ++x) {
      EXPECT_EQ(unsampled->CellCount(x, y), full->CellCount(x, y));
    }
  }
}

/// AverageCellsPerObject and EstimateJoinFraction recomputed from the
/// cell counts alone, summing them as doubles; both must match exactly.
void ExpectMassMatchesCells(const GridHistogram& h,
                            const GridHistogram& other) {
  double mass = 0.0, joined = 0.0;
  for (uint32_t y = 0; y < h.ny(); ++y) {
    for (uint32_t x = 0; x < h.nx(); ++x) {
      mass += static_cast<double>(h.CellCount(x, y));
      if (other.CellCount(x, y) != 0) {
        joined += static_cast<double>(h.CellCount(x, y));
      }
    }
  }
  const double average =
      h.total() == 0 ? 1.0
                     : std::max(1.0, mass / static_cast<double>(h.total()));
  const double fraction =
      h.total() == 0 || mass == 0.0 ? 0.0 : joined / mass;
  EXPECT_EQ(h.AverageCellsPerObject(), average);
  EXPECT_EQ(h.EstimateJoinFraction(other), fraction);
}

TEST(GridHistogram, CachedMassMatchesTheCells) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF extent(0, 0, 100, 100);

  // Multi-cell rectangles (cells are 6.25 wide), a full-row one and one
  // clamped into the corner cell from outside the extent.
  GridHistogram added(extent, 16, 16);
  for (const RectF& r : UniformRects(500, extent, 8.0f, 31)) added.Add(r);
  added.Add(RectF(0, 40, 100, 45));
  added.Add(RectF(-50, -50, -10, -10));
  ASSERT_GT(added.AverageCellsPerObject(), 2.0);

  GridHistogram corner(extent, 16, 16);
  for (const RectF& r : UniformRects(300, RectF(0, 0, 30, 30), 4.0f, 32)) {
    corner.Add(r);
  }

  // The sampled build reads blocks 0 and 2 of 3 and rescales every cell
  // by ~1.77, so a mass left at its sampled value would show.
  const DatasetRef ref =
      MakeDataset(&td, UniformRects(60000, extent, 4.0f, 33), "s", &keep);
  auto sampled = GridHistogram::BuildSampled(ref.range, extent, 16, 16, 2);
  ASSERT_TRUE(sampled.ok());
  ASSERT_EQ(sampled->total(), 60000u);

  const GridHistogram empty(extent, 16, 16);
  const std::vector<const GridHistogram*> all = {&added, &corner, &*sampled,
                                                 &empty};
  for (const GridHistogram* h : all) {
    for (const GridHistogram* other : all) ExpectMassMatchesCells(*h, *other);
  }
  EXPECT_EQ(empty.AverageCellsPerObject(), 1.0);
  EXPECT_EQ(empty.EstimateJoinFraction(added), 0.0);
}

}  // namespace
}  // namespace sj
