#include "sweep/interval_structures.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "datagen/synthetic.h"
#include "join/sources.h"
#include "join/sssj.h"
#include "sweep/sweep_join.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::BruteForcePairs;
using testing_util::Sorted;

/// Runs the sweep join over in-memory vectors with the given structure.
/// Every rectangle passed here has a finite yhi, so afterwards a query
/// across the whole extent above all of them expires every stored copy:
/// each structure's accounting must drain to zero with it. `peak_active`
/// receives the most copies both structures held at once.
template <typename Structure>
std::vector<IdPair> SweepPairs(std::vector<RectF> a, std::vector<RectF> b,
                               const RectF& extent, uint32_t strips,
                               size_t* peak_active = nullptr) {
  std::sort(a.begin(), a.end(), OrderByYLo());
  std::sort(b.begin(), b.end(), OrderByYLo());
  SortedRectsSource sa(a.data(), a.size()), sb(b.data(), b.size());
  Structure active_a(extent, strips), active_b(extent, strips);
  std::vector<IdPair> out;
  const SweepRunStats run =
      SweepJoinRun(sa, sb, active_a, active_b,
                   [&out](const RectF& x, const RectF& y) {
                     out.push_back({x.id, y.id});
                   },
                   [] {});
  if (peak_active != nullptr) *peak_active = run.max_active;
  const float inf = std::numeric_limits<float>::infinity();
  for (Structure* active : {&active_a, &active_b}) {
    active->QueryAndExpire(RectF(extent.xlo, inf, extent.xhi, inf),
                           [](const RectF&) {});
    EXPECT_EQ(active->ActiveCount(), 0u);
    EXPECT_EQ(active->MemoryBytes(), 0u);
  }
  return Sorted(std::move(out));
}

struct SweepCase {
  uint64_t na, nb;
  float size_a, size_b;
  uint32_t strips;
  uint64_t seed;
  /// service_windows' shape instead of uniform data (FineStripInput).
  bool fine_clustered = false;
};

/// A 2x2-degree window cut into 0.002-degree strips (1,000 strips) under
/// MBRs of 0.016 degrees on average, like hydro features, so each
/// rectangle covers about 9 strips. Both inputs are clustered: A alone in
/// the lower band, B alone in the upper one, and a middle band where they
/// share cluster centres. Each structure thus sees long one-sided
/// stretches in which no query expires its copies.
const RectF kFineRegion(0, 0, 2, 2);
std::vector<RectF> FineStripInput(const SweepCase& c, bool side_b) {
  const uint64_t n = side_b ? c.nb : c.na;
  const float size = side_b ? c.size_b : c.size_a;
  const uint64_t seed = side_b ? c.seed + 1 : c.seed;
  const RectF alone = side_b ? RectF(0, 1.2f, 2, 2) : RectF(0, 0, 2, 0.8f);
  std::vector<RectF> out = ClusteredRects(n - n / 3, alone, /*clusters=*/6,
                                          /*cluster_sigma=*/0.05f, size, seed);
  const std::vector<RectF> shared = ZipfClusteredRects(
      n / 3, RectF(0, 0.8f, 2, 1.2f), /*hotspots=*/4, /*theta=*/0.0,
      /*hotspot_sigma=*/0.05f, size, seed + 2,
      /*base_id=*/static_cast<ObjectId>(n - n / 3),
      /*center_seed=*/c.seed + 100);
  out.insert(out.end(), shared.begin(), shared.end());
  return out;
}

/// Strip copies `rects` occupy among `strips` equal strips of `region`.
uint64_t StripCopies(const std::vector<RectF>& rects, const RectF& region,
                     uint32_t strips) {
  const double width = (region.xhi - region.xlo) / static_cast<double>(strips);
  auto strip = [&](float x) {
    return std::clamp<int64_t>(
        static_cast<int64_t>(std::floor((x - region.xlo) / width)), 0,
        strips - 1);
  };
  uint64_t copies = 0;
  for (const RectF& r : rects) copies += strip(r.xhi) - strip(r.xlo) + 1;
  return copies;
}

class SweepStructureEquivalence : public ::testing::TestWithParam<SweepCase> {
};

TEST_P(SweepStructureEquivalence, BothStructuresMatchBruteForce) {
  const SweepCase c = GetParam();
  const RectF region = c.fine_clustered ? kFineRegion : RectF(0, 0, 200, 200);
  const auto a = c.fine_clustered
                     ? FineStripInput(c, false)
                     : UniformRects(c.na, region, c.size_a, c.seed);
  const auto b = c.fine_clustered
                     ? FineStripInput(c, true)
                     : UniformRects(c.nb, region, c.size_b, c.seed + 1);
  const auto expected = BruteForcePairs(a, b);
  EXPECT_EQ(SweepPairs<ForwardSweep>(a, b, region, c.strips), expected);
  size_t peak_copies = 0;
  EXPECT_EQ(SweepPairs<StripedSweep>(a, b, region, c.strips, &peak_copies),
            expected);
  // SweepStrips may pick any count from 1 to the cap, so the pair set
  // must not depend on it: coarse, odd, fine and finer-than-the-data
  // counts, and the rule's own.
  for (const uint32_t strips : {1u, 2u, 3u, 7u, 64u, 1000u, 4096u,
                                SweepStrips(c.na + c.nb, 1024)}) {
    EXPECT_EQ(SweepPairs<StripedSweep>(a, b, region, strips), expected)
        << "strips=" << strips;
  }
  if (c.fine_clustered) {
    // The strips really are narrower than the rectangles.
    EXPECT_GT(StripCopies(a, region, c.strips) +
                  StripCopies(b, region, c.strips),
              5 * (c.na + c.nb));
    // The amortized purge counts stored copies, so one-sided stretches
    // with no expiring query still purge: the structures never hold more
    // copies than there are records.
    EXPECT_LE(peak_copies, c.na + c.nb);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SweepStructureEquivalence,
    ::testing::Values(SweepCase{0, 0, 1, 1, 16, 1},
                      SweepCase{1, 1, 200, 200, 16, 2},  // Full overlap.
                      SweepCase{100, 0, 1, 1, 16, 3},    // One side empty.
                      SweepCase{500, 400, 2, 3, 1, 4},   // Single strip.
                      SweepCase{500, 400, 2, 3, 1024, 5},
                      SweepCase{300, 300, 50, 0.5, 64, 6},  // Wide rects.
                      SweepCase{1000, 1000, 0, 0, 128, 7},  // Points.
                      SweepCase{800, 700, 5, 5, 16, 8},
                      // Strips narrower than the rectangles.
                      SweepCase{3000, 3000, 0.016f, 0.016f, 1000, 9, true}));

TEST(StripedSweep, DedupAcrossStrips) {
  // Two rectangles spanning many strips still produce exactly one pair.
  const RectF region(0, 0, 100, 100);
  std::vector<RectF> a = {RectF(1, 10, 99, 12, 1)};
  std::vector<RectF> b = {RectF(2, 11, 95, 13, 2)};
  const auto pairs = SweepPairs<StripedSweep>(a, b, region, 64);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (IdPair{1, 2}));
}

TEST(StripedSweep, ClampsCoordinatesOutsideExtent) {
  const RectF region(0, 0, 10, 10);
  std::vector<RectF> a = {RectF(-50, 0, -40, 5, 1)};  // Entirely left.
  std::vector<RectF> b = {RectF(-45, 1, -42, 4, 2)};
  const auto pairs = SweepPairs<StripedSweep>(a, b, region, 8);
  ASSERT_EQ(pairs.size(), 1u);  // Found in the clamped boundary strip.
}

TEST(ForwardSweep, ExpiryRemovesPassedRectangles) {
  ForwardSweep sweep;
  sweep.Insert(RectF(0, 0, 1, 1, 1));   // Dies at y=1.
  sweep.Insert(RectF(0, 0, 1, 10, 2));  // Survives.
  int hits = 0;
  sweep.QueryAndExpire(RectF(0, 5, 1, 6, 99),
                       [&](const RectF&) { hits++; });
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(sweep.ActiveCount(), 1u);
}

TEST(ForwardSweep, RectEndingExactlyAtSweepLineStillActive) {
  // Closed rectangles: yhi == q.ylo still intersects.
  ForwardSweep sweep;
  sweep.Insert(RectF(0, 0, 1, 5, 1));
  int hits = 0;
  sweep.QueryAndExpire(RectF(0, 5, 1, 6, 2), [&](const RectF&) { hits++; });
  EXPECT_EQ(hits, 1);
}

TEST(StripedSweep, MemoryAccountingTracksCopies) {
  const RectF region(0, 0, 100, 100);
  StripedSweep sweep(region, 10);  // Strip width 10.
  sweep.Insert(RectF(0, 0, 100, 1, 1));  // All 10 strips.
  EXPECT_EQ(sweep.ActiveCount(), 10u);
  EXPECT_EQ(sweep.MemoryBytes(), 10 * sizeof(RectF));
  sweep.Insert(RectF(5, 0, 6, 1, 2));  // One strip.
  EXPECT_EQ(sweep.ActiveCount(), 11u);
}

TEST(StripedSweep, DegenerateExtentFallsBackToOneStrip) {
  const RectF region(5, 0, 5, 10);  // Zero-width.
  StripedSweep sweep(region, 100);
  sweep.Insert(RectF(5, 0, 5, 10, 1));
  int hits = 0;
  sweep.QueryAndExpire(RectF(5, 1, 5, 2, 2), [&](const RectF&) { hits++; });
  EXPECT_EQ(hits, 1);
}

TEST(StripedSweep, AmortizedPurgeBoundsStaleEntries) {
  // Insert many short-lived rects in strip 0 while querying only strip 9:
  // the amortized purge must keep the structure from growing without
  // bound.
  const RectF region(0, 0, 100, 100);
  StripedSweep sweep(region, 10);
  for (int i = 0; i < 10000; ++i) {
    const float y = static_cast<float>(i) * 0.01f;
    sweep.Insert(RectF(1, y, 2, y + 0.005f, static_cast<ObjectId>(i)));
  }
  // All but the most recent handful have expired at y=100.
  sweep.Insert(RectF(95, 100, 96, 100, 999999));
  EXPECT_LT(sweep.ActiveCount(), 5000u);
}

TEST(StripedSweep, HugeExtentKeepsStriping) {
  // Regression: a float-sized extent used to overflow (xhi - xlo) to inf
  // in float, making every strip index 0 — silent Forward-Sweep
  // behaviour. The width is now computed in double, so striping survives
  // the full float range.
  const RectF region(-3e38f, 0, 3e38f, 10);
  StripedSweep sweep(region, 16);
  EXPECT_FALSE(sweep.StripsCollapsed());
  EXPECT_EQ(sweep.strips(), 16u);
  // A rectangle spanning the whole extent must land in every strip; with
  // the overflowed width it landed only in strip 0.
  sweep.Insert(RectF(-3e38f, 0, 3e38f, 10, 1));
  EXPECT_EQ(sweep.ActiveCount(), 16u);
  // And the join over such an extent is still correct.
  std::vector<RectF> a = {RectF(-3e38f, 1, -2e38f, 3, 1),
                          RectF(2e38f, 1, 3e38f, 3, 2)};
  std::vector<RectF> b = {RectF(-2.5e38f, 2, -1e38f, 4, 3),
                          RectF(1e38f, 2, 2.5e38f, 4, 4)};
  EXPECT_EQ(SweepPairs<StripedSweep>(a, b, region, 16),
            BruteForcePairs(a, b));
}

TEST(StripedSweep, NonFiniteExtentCollapsesWithSignal) {
  const float inf = std::numeric_limits<float>::infinity();
  StripedSweep sweep(RectF(-inf, 0, inf, 10), 64);
  EXPECT_TRUE(sweep.StripsCollapsed());
  EXPECT_EQ(sweep.strips(), 1u);
  // Collapsed means Forward-Sweep behaviour, not wrong answers.
  sweep.Insert(RectF(10, 0, 20, 10, 1));
  int hits = 0;
  sweep.QueryAndExpire(RectF(15, 1, 25, 2, 2), [&](const RectF&) { hits++; });
  EXPECT_EQ(hits, 1);
}

TEST(StripedSweep, DegenerateExtentReportsCollapse) {
  EXPECT_TRUE(StripedSweep(RectF(5, 0, 5, 10), 100).StripsCollapsed());
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(StripedSweep(RectF(nan, 0, nan, 10), 8).StripsCollapsed());
  // Inverted x extent is degenerate too.
  EXPECT_TRUE(StripedSweep(RectF(10, 0, 0, 10), 8).StripsCollapsed());
  // A single requested strip is exactly what a degenerate extent degrades
  // to — nothing was lost, so no collapse is flagged.
  EXPECT_FALSE(StripedSweep(RectF(5, 0, 5, 10), 1).StripsCollapsed());
  EXPECT_FALSE(StripedSweep(RectF(0, 0, 10, 10), 8).StripsCollapsed());
}

TEST(SweepJoin, RunStatsSurfaceStripCollapse) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<RectF> a = {RectF(0, 0, 1, 1, 1)};
  std::vector<RectF> b = {RectF(0, 0, 1, 1, 2)};
  SortedRectsSource sa(a.data(), a.size()), sb(b.data(), b.size());
  {
    StripedSweep active_a(RectF(-inf, 0, inf, 1), 64);
    StripedSweep active_b(RectF(-inf, 0, inf, 1), 64);
    const SweepRunStats stats = SweepJoinRun(
        sa, sb, active_a, active_b, [](const RectF&, const RectF&) {}, [] {});
    EXPECT_TRUE(stats.strips_collapsed);
  }
  SortedRectsSource sa2(a.data(), a.size()), sb2(b.data(), b.size());
  {
    StripedSweep active_a(RectF(0, 0, 10, 1), 64);
    StripedSweep active_b(RectF(0, 0, 10, 1), 64);
    const SweepRunStats stats = SweepJoinRun(
        sa2, sb2, active_a, active_b, [](const RectF&, const RectF&) {},
        [] {});
    EXPECT_FALSE(stats.strips_collapsed);
  }
}

TEST(StripedSweep, NaNCoordinatesAreDeterministic) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const RectF region(0, 0, 100, 100);
  StripedSweep sweep(region, 8);
  // NaN x lands deterministically in strip 0 (clamp-before-cast; the raw
  // float-to-uint32 cast was UB).
  sweep.Insert(RectF(nan, 0, nan, 100, 1));
  EXPECT_EQ(sweep.ActiveCount(), 1u);
  int hits = 0;
  sweep.QueryAndExpire(RectF(0, 1, 100, 2, 2), [&](const RectF&) { hits++; });
  // A NaN x endpoint never matches (IEEE comparisons are false), exactly
  // the scalar semantics.
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(sweep.ActiveCount(), 1u);  // NaN never expires either (yhi ok).
  // NaN query coordinates are deterministic too: strip 0, no matches.
  sweep.QueryAndExpire(RectF(nan, 1, nan, 2, 3), [&](const RectF&) { hits++; });
  EXPECT_EQ(hits, 0);
}

TEST(ForwardSweep, EmittedRectsAreStableValuesDuringCompaction) {
  // Regression: QueryAndExpire used to emit a reference into the vector
  // it was compacting in the same loop; storing the emitted rects while
  // expiry shifts lanes must observe the correct values.
  ForwardSweep sweep;
  std::vector<RectF> expect;
  for (int i = 0; i < 32; ++i) {
    if (i % 2 == 0) {
      // Expired by the query below, forcing compaction shifts ahead of
      // every live lane.
      sweep.Insert(RectF(0, 0, 1, 1, static_cast<ObjectId>(1000 + i)));
    } else {
      const RectF r(static_cast<float>(i), 0, static_cast<float>(i) + 0.5f,
                    50, static_cast<ObjectId>(i));
      sweep.Insert(r);
      expect.push_back(r);
    }
  }
  std::vector<RectF> got;
  sweep.QueryAndExpire(RectF(0, 10, 40, 11, 999),
                       [&](const RectF& r) { got.push_back(r); });
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, expect[i].id);
    EXPECT_EQ(got[i].xlo, expect[i].xlo);
    EXPECT_EQ(got[i].ylo, expect[i].ylo);
    EXPECT_EQ(got[i].xhi, expect[i].xhi);
    EXPECT_EQ(got[i].yhi, expect[i].yhi);
  }
}

TEST(ForwardSweep, AmortizedPurgeBoundsOneSidedPileUp) {
  // A long stretch of input from one relation only: no queries run
  // against this structure, so only the amortized self-purge keeps
  // passed rectangles from piling up. Each rect here is dead before the
  // next insert, so the bound is the purge threshold itself
  // (~2*live + 128), far below the 100k inserted.
  ForwardSweep sweep;
  for (int i = 0; i < 100000; ++i) {
    const float y = static_cast<float>(i) * 0.01f;
    sweep.Insert(RectF(0, y, 1, y + 0.005f, static_cast<ObjectId>(i)));
  }
  EXPECT_LT(sweep.ActiveCount(), 300u);
  EXPECT_LT(sweep.MemoryBytes(), 300u * sizeof(RectF));
}

TEST(StripedSweep, AmortizedPurgeBoundsOneSidedPileUp) {
  const RectF region(0, 0, 100, 1000);
  StripedSweep sweep(region, 10);
  for (int i = 0; i < 100000; ++i) {
    const float y = static_cast<float>(i) * 0.01f;
    sweep.Insert(RectF(1, y, 2, y + 0.005f, static_cast<ObjectId>(i)));
  }
  EXPECT_LT(sweep.ActiveCount(), 300u);
  EXPECT_LT(sweep.MemoryBytes(), 300u * sizeof(RectF));
}

TEST(SweepJoin, TracksMaxStructureSize) {
  const RectF region(0, 0, 100, 100);
  auto a = UniformRects(500, region, 3.0f, 31);
  auto b = UniformRects(500, region, 3.0f, 32);
  std::sort(a.begin(), a.end(), OrderByYLo());
  std::sort(b.begin(), b.end(), OrderByYLo());
  SortedRectsSource sa(a.data(), a.size()), sb(b.data(), b.size());
  StripedSweep active_a(region, 16), active_b(region, 16);
  const SweepRunStats stats = SweepJoinRun(
      sa, sb, active_a, active_b, [](const RectF&, const RectF&) {}, [] {});
  EXPECT_GT(stats.max_structure_bytes, 0u);
  EXPECT_GT(stats.max_active, 0u);
  EXPECT_EQ(stats.output_count, BruteForcePairs(a, b).size());
}

}  // namespace
}  // namespace sj
