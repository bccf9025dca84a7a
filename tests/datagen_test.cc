#include "datagen/tiger_gen.h"

#include <gtest/gtest.h>

#include <cmath>

#include "datagen/synthetic.h"
#include "histogram/grid_histogram.h"
#include "sweep/interval_structures.h"
#include "join/sources.h"
#include "sweep/sweep_join.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::TestDisk;

TEST(PaperDatasets, LadderMatchesTable2AtScaleOne) {
  const auto specs = PaperDatasets(1.0);
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].name, "NJ");
  EXPECT_EQ(specs[0].road_count, 414442u);
  EXPECT_EQ(specs[0].hydro_count, 50853u);
  EXPECT_EQ(specs[5].name, "DISK1-6");
  EXPECT_EQ(specs[5].road_count, 29088173u);
  EXPECT_EQ(specs[5].hydro_count, 7413353u);
}

TEST(PaperDatasets, ScalePreservesRatios) {
  const auto full = PaperDatasets(1.0);
  const auto tiny = PaperDatasets(0.01);
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(tiny[i].road_count),
                0.01 * static_cast<double>(full[i].road_count),
                full[i].road_count * 0.0002 + 1);
  }
  EXPECT_EQ(PaperDataset("NY", 0.5).name, "NY");
}

TEST(TigerGenerator, DeterministicPerSeed) {
  TigerGenerator g1(42), g2(42), g3(43);
  std::vector<RectF> a, b, c;
  g1.GenerateRoads(500, &a);
  g2.GenerateRoads(500, &b);
  g3.GenerateRoads(500, &c);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(SegmentGeometry, SegmentForRectMbrIsExact) {
  // The refinement payload must round-trip through the filter
  // representation: the generated segment's bounding box is exactly the
  // MBR the join algorithms see, for every distribution.
  const RectF region(0, 0, 250, 250);
  auto check = [](const std::vector<RectF>& rects, bool expect_mixed) {
    const auto geom = SegmentsForRects(rects);
    ASSERT_EQ(geom.size(), rects.size());
    bool saw_main = false, saw_anti = false;
    for (size_t i = 0; i < rects.size(); ++i) {
      EXPECT_EQ(geom[i].Mbr(rects[i].id), rects[i]) << "record " << i;
      if (geom[i].y1 <= geom[i].y2) saw_main = true;
      if (geom[i].y1 > geom[i].y2) saw_anti = true;
    }
    if (expect_mixed) {  // The id hash must actually mix orientations.
      EXPECT_TRUE(saw_main);
      EXPECT_TRUE(saw_anti);
    }
  };
  check(UniformRects(600, region, 2.0f, 1), true);
  check(ClusteredRects(600, region, 5, 10.0f, 2.0f, 2), true);
  // Degenerate points: every "segment" is the point itself.
  check(DiagonalPoints(100, region), false);
}

TEST(TigerGenerator, GeometryVariantsMatchPlainMbrs) {
  TigerGenerator plain(99), with_geom(99);
  std::vector<RectF> roads_plain, roads_geom, hydro_plain, hydro_geom;
  std::vector<Segment> road_segments, hydro_segments;
  plain.GenerateRoads(700, &roads_plain);
  plain.GenerateHydro(300, &hydro_plain);
  with_geom.GenerateRoadsWithGeometry(700, &roads_geom, &road_segments);
  with_geom.GenerateHydroWithGeometry(300, &hydro_geom, &hydro_segments);
  // Same seed, same MBRs — the geometry rides along without perturbing
  // the stream the filter algorithms (and every pinned bench) see.
  EXPECT_EQ(roads_plain, roads_geom);
  EXPECT_EQ(hydro_plain, hydro_geom);
  ASSERT_EQ(road_segments.size(), roads_geom.size());
  ASSERT_EQ(hydro_segments.size(), hydro_geom.size());
  for (size_t i = 0; i < roads_geom.size(); ++i) {
    EXPECT_EQ(road_segments[i].Mbr(roads_geom[i].id), roads_geom[i]);
  }
  for (size_t i = 0; i < hydro_geom.size(); ++i) {
    EXPECT_EQ(hydro_segments[i].Mbr(hydro_geom[i].id), hydro_geom[i]);
  }
}

TEST(TigerGenerator, CountsAndIdsAndBounds) {
  TigerGenerator gen(7);
  std::vector<RectF> roads, hydro;
  gen.GenerateRoads(2000, &roads, /*base_id=*/0);
  gen.GenerateHydro(800, &hydro, /*base_id=*/0);
  ASSERT_EQ(roads.size(), 2000u);
  ASSERT_EQ(hydro.size(), 800u);
  const RectF region = gen.region();
  for (size_t i = 0; i < roads.size(); ++i) {
    EXPECT_EQ(roads[i].id, i);
    EXPECT_TRUE(roads[i].Valid());
    EXPECT_TRUE(region.Contains(roads[i])) << roads[i].ToString();
  }
  for (size_t i = 0; i < hydro.size(); ++i) {
    EXPECT_EQ(hydro[i].id, i);
    EXPECT_TRUE(region.Contains(hydro[i]));
  }
}

TEST(TigerGenerator, RoadsAreSmallHydroElongatedOrBlobby) {
  TigerGenerator gen(11);
  std::vector<RectF> roads;
  gen.GenerateRoads(3000, &roads);
  double mean_w = 0;
  for (const RectF& r : roads) mean_w += (r.xhi - r.xlo) + (r.yhi - r.ylo);
  mean_w /= roads.size();
  // Street segments are a few thousandths of a degree across.
  EXPECT_LT(mean_w, 0.05);
}

TEST(TigerGenerator, JoinSelectivityIsRealistic) {
  // Output of roads x hydro should be within a small factor of the input
  // sizes (Table 2: output comparable to hydro cardinality), not quadratic
  // and not near zero.
  TigerGenerator gen(13);
  std::vector<RectF> roads, hydro;
  gen.GenerateRoads(20000, &roads);
  gen.GenerateHydro(5000, &hydro);
  std::sort(roads.begin(), roads.end(), OrderByYLo());
  std::sort(hydro.begin(), hydro.end(), OrderByYLo());
  SortedRectsSource sr(roads.data(), roads.size());
  SortedRectsSource sh(hydro.data(), hydro.size());
  StripedSweep a(gen.region(), 1024), b(gen.region(), 1024);
  const SweepRunStats stats = SweepJoinRun(
      sr, sh, a, b, [](const RectF&, const RectF&) {}, [] {});
  EXPECT_GT(stats.output_count, 500u);
  EXPECT_LT(stats.output_count, 20000u * 10);
}

TEST(TigerGenerator, SquareRootRuleHolds) {
  // Güting & Schilling's square-root rule: a sweep line cuts O(sqrt(N))
  // rectangles. Verify the max active set grows much slower than N.
  auto max_active = [](uint64_t n) -> size_t {
    TigerGenerator gen(17);
    std::vector<RectF> roads, empty_side;
    gen.GenerateRoads(n, &roads);
    std::sort(roads.begin(), roads.end(), OrderByYLo());
    SortedRectsSource sr(roads.data(), roads.size());
    SortedRectsSource se(empty_side.data(), empty_side.size());
    ForwardSweep a{}, b{};
    // Join against an empty side: the sweep still inserts/expires side A.
    SweepRunStats stats = SweepJoinRun(
        sr, se, a, b, [](const RectF&, const RectF&) {}, [] {});
    return stats.max_active;
  };
  const size_t at_10k = max_active(10000);
  const size_t at_160k = max_active(160000);
  // 16x the data -> ~4x the cut (sqrt); allow up to 8x.
  EXPECT_LT(at_160k, at_10k * 8) << "active set grows too fast";
}

TEST(UniformRects, Deterministic) {
  EXPECT_EQ(UniformRects(100, RectF(0, 0, 10, 10), 1.0f, 5),
            UniformRects(100, RectF(0, 0, 10, 10), 1.0f, 5));
}

TEST(DiagonalPoints, AreDegenerate) {
  const auto pts = DiagonalPoints(10, RectF(0, 0, 9, 9));
  ASSERT_EQ(pts.size(), 10u);
  for (const RectF& p : pts) {
    EXPECT_EQ(p.xlo, p.xhi);
    EXPECT_EQ(p.ylo, p.yhi);
  }
  EXPECT_EQ(pts[0].xlo, 0.0f);
  EXPECT_EQ(pts[9].xlo, 9.0f);
}

TEST(SkewedGenerators, ZipfMassConcentratesWithTheta) {
  const RectF region(0, 0, 400, 400);
  // Shared geography, independent samples: the two relations' hotspot
  // centers coincide.
  const auto flat = ZipfClusteredRects(20000, region, 8, 0.0, 4.0f, 1.0f,
                                       1, 0, 777);
  const auto skewed = ZipfClusteredRects(20000, region, 8, 1.6, 4.0f, 1.0f,
                                         2, 0, 777);
  // The rank-0 hotspot center is the first draw of the center stream
  // (center_seed 777), reproduced here.
  Random center_rng(777);
  const float top_cx = static_cast<float>(center_rng.UniformDouble(0, 400));
  const float top_cy = static_cast<float>(center_rng.UniformDouble(0, 400));
  // Determinism: same arguments, same output.
  EXPECT_EQ(ZipfClusteredRects(100, region, 8, 1.6, 4.0f, 1.0f, 2, 0, 777),
            ZipfClusteredRects(100, region, 8, 1.6, 4.0f, 1.0f, 2, 0, 777));
  auto near_top = [&](const std::vector<RectF>& rects) {
    const float cx = top_cx, cy = top_cy;
    uint64_t n = 0;
    for (const RectF& r : rects) {
      const float dx = r.CenterX() - cx, dy = r.CenterY() - cy;
      if (dx * dx + dy * dy < 16.0f * 16.0f) n++;
    }
    return n;
  };
  // theta = 0 spreads evenly (~1/8 per hotspot); theta = 1.6 puts about
  // half the mass in the top hotspot.
  EXPECT_LT(near_top(flat), 20000 / 4);
  EXPECT_GT(near_top(skewed), 20000 / 3);
  EXPECT_GT(near_top(skewed), 2 * near_top(flat));
}

TEST(SkewedGenerators, DiagonalBandHugsTheDiagonal) {
  const RectF region(0, 0, 400, 400);
  const auto rects = DiagonalBandRects(5000, region, 5.0f, 1.0f, 4);
  ASSERT_EQ(rects.size(), 5000u);
  uint64_t close = 0;
  for (const RectF& r : rects) {
    if (std::abs(r.CenterX() - r.CenterY()) < 20.0f) close++;
    EXPECT_TRUE(r.Valid());
  }
  EXPECT_GT(close, 4800u);  // ~4 sigma of the perpendicular jitter.
}

TEST(SkewedGenerators, UniformWithCityPacksTheRequestedFraction) {
  const RectF region(0, 0, 400, 400);
  const float side = 20.0f;
  const auto rects = UniformWithCityRects(20000, region, 0.5, side, 0.5f, 5);
  // Find the city by majority: the densest 20x20 cell of a coarse scan.
  GridHistogram hist(region, 20, 20);
  for (const RectF& r : rects) hist.Add(r);
  uint64_t max_cell = 0;
  for (uint32_t y = 0; y < 20; ++y) {
    for (uint32_t x = 0; x < 20; ++x) {
      max_cell = std::max(max_cell, hist.CellCount(x, y));
    }
  }
  // The city square covers one cell's area but may straddle up to four
  // cells; even then its densest cell holds a large multiple of the
  // ~25-records/cell uniform background.
  EXPECT_GT(max_cell, 2000u);
}

}  // namespace
}  // namespace sj
