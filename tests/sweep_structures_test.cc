#include "sweep/interval_structures.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <utility>

#include "datagen/synthetic.h"
#include "join/sources.h"
#include "join/sssj.h"
#include "sweep/sweep_join.h"
#include "test_util.h"
#include "util/random.h"

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

/// The reference Striped-Sweep: the strip of every endpoint and of every
/// dedup test is a double division, and a query emits while it compacts.
/// StripedSweep must reproduce its strips, its emission sequence and its
/// accounting exactly.
class DivisionStripedSweep {
 public:
  DivisionStripedSweep(const RectF& extent, uint32_t strips)
      : xlo_(static_cast<double>(extent.xlo)),
        strips_(std::max<uint32_t>(1, strips)) {
    const double span =
        static_cast<double>(extent.xhi) - static_cast<double>(extent.xlo);
    if (!std::isfinite(xlo_) || !std::isfinite(span) || !(span > 0.0)) {
      collapsed_ = strips_ > 1;
      strips_ = 1;
      xlo_ = 0.0;
      width_ = 1.0;
    } else {
      width_ = span / static_cast<double>(strips_);
    }
    lists_.resize(strips_);
  }

  void Insert(const RectF& r) {
    const uint32_t s0 = StripIndex(r.xlo);
    const uint32_t s1 = std::max(s0, StripIndex(r.xhi));
    for (uint32_t s = s0; s <= s1; ++s) lists_[s].push_back(r);
    entries_ += s1 - s0 + 1;
    inserts_since_purge_ += s1 - s0 + 1;
    if (inserts_since_purge_ > entries_ / 2 + strips_) Purge(r.ylo);
  }

  template <typename Emit>
  void QueryAndExpire(const RectF& q, Emit&& emit) {
    const uint32_t s0 = StripIndex(q.xlo);
    const uint32_t s1 = std::max(s0, StripIndex(q.xhi));
    for (uint32_t s = s0; s <= s1; ++s) {
      std::vector<RectF>& list = lists_[s];
      const size_t n = list.size();
      size_t keep = 0;
      for (size_t i = 0; i < n; ++i) {
        const RectF r = list[i];
        if (r.yhi < q.ylo) continue;
        list[keep++] = r;
        if (r.xlo <= q.xhi && q.xlo <= r.xhi &&
            (q.xlo < r.xlo ? StripIndex(r.xlo) : s0) == s) {
          emit(r);
        }
      }
      entries_ -= n - keep;
      list.resize(keep);
    }
  }

  size_t ActiveCount() const { return entries_; }
  size_t MemoryBytes() const { return entries_ * sizeof(RectF); }
  bool StripsCollapsed() const { return collapsed_; }
  uint32_t strips() const { return strips_; }

  uint32_t StripIndex(float x) const {
    const double rel = (static_cast<double>(x) - xlo_) / width_;
    if (!(rel > 0.0)) return 0;
    if (rel >= static_cast<double>(strips_)) return strips_ - 1;
    return static_cast<uint32_t>(rel);
  }

 private:
  void Purge(float y) {
    for (std::vector<RectF>& list : lists_) {
      const size_t n = list.size();
      list.erase(std::remove_if(list.begin(), list.end(),
                                [y](const RectF& r) { return r.yhi < y; }),
                 list.end());
      entries_ -= n - list.size();
    }
    inserts_since_purge_ = 0;
  }

  double xlo_;
  uint32_t strips_;
  double width_ = 1.0;
  bool collapsed_ = false;
  std::vector<std::vector<RectF>> lists_;
  size_t entries_ = 0;
  size_t inserts_since_purge_ = 0;
};

/// Non-NaN floats as integers in their numeric order.
int64_t OrderedBits(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const int64_t magnitude = bits & 0x7fffffffu;
  return (bits & 0x80000000u) != 0 ? -magnitude : magnitude;
}
float FromOrderedBits(int64_t key) {
  const uint32_t bits = key < 0 ? 0x80000000u | static_cast<uint32_t>(-key)
                                : static_cast<uint32_t>(key);
  float x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

/// Edge s (0 < s < strips) of the division's striping of a finite,
/// non-degenerate `extent`: the smallest float it puts in strip s or
/// right of it. Found by stepping from float(xlo + s * width) and, after
/// a few steps, by bisection over the float order: near zero in the
/// ±3e38 extent about 10^9 floats share one quotient.
float DivisionEdge(const DivisionStripedSweep& ref, const RectF& extent,
                   uint32_t s) {
  const float inf = std::numeric_limits<float>::infinity();
  const double xlo = extent.xlo;
  const double width =
      (static_cast<double>(extent.xhi) - xlo) / ref.strips();
  auto in_or_right = [&](float x) { return ref.StripIndex(x) >= s; };
  float x = static_cast<float>(xlo + s * width);
  for (int step = 0; step < 8; ++step) {
    const float below = std::nextafter(x, -inf);
    if (in_or_right(x) && !in_or_right(below)) return x;
    x = in_or_right(x) ? below : std::nextafter(x, inf);
  }
  int64_t lo = OrderedBits(-inf), hi = OrderedBits(inf);
  while (hi - lo > 1) {
    const int64_t mid = lo + (hi - lo) / 2;
    (in_or_right(FromOrderedBits(mid)) ? hi : lo) = mid;
  }
  return FromOrderedBits(hi);
}

/// The division's edges of `extent` at `strips`, each checked to be one.
std::vector<float> DivisionEdges(const RectF& extent, uint32_t strips) {
  const DivisionStripedSweep ref(extent, strips);
  std::vector<float> edges;
  for (uint32_t s = 1; s < ref.strips(); ++s) {
    const float e = DivisionEdge(ref, extent, s);
    EXPECT_GE(ref.StripIndex(e), s);
    EXPECT_LT(ref.StripIndex(std::nextafter(
                  e, -std::numeric_limits<float>::infinity())),
              s);
    edges.push_back(e);
  }
  return edges;
}

/// What a sweep does, step by step: its pairs in emission order, both
/// structures' copies after every step, and its run stats.
struct SweepTrace {
  std::vector<IdPair> pairs;
  std::vector<std::pair<size_t, size_t>> active;
  SweepRunStats stats;
  bool collapsed = false;
};

/// Sweeps `a` and `b` (finite ylo, sorted here) with Structure.
template <typename Structure>
SweepTrace TraceSweep(std::vector<RectF> a, std::vector<RectF> b,
                      const RectF& extent, uint32_t strips) {
  std::sort(a.begin(), a.end(), OrderByYLo());
  std::sort(b.begin(), b.end(), OrderByYLo());
  SortedRectsSource sa(a.data(), a.size()), sb(b.data(), b.size());
  Structure active_a(extent, strips), active_b(extent, strips);
  SweepTrace trace;
  trace.stats = SweepJoinRun(
      sa, sb, active_a, active_b,
      [&](const RectF& x, const RectF& y) {
        trace.pairs.push_back({x.id, y.id});
      },
      [&] {
        trace.active.emplace_back(active_a.ActiveCount(),
                                  active_b.ActiveCount());
      });
  trace.collapsed = active_a.StripsCollapsed();
  return trace;
}

/// StripedSweep against the division: the same pairs in the same order,
/// the same copies after every step and the same stats.
void ExpectDivisionSweep(const std::vector<RectF>& a,
                         const std::vector<RectF>& b, const RectF& extent,
                         uint32_t strips) {
  SCOPED_TRACE(testing::Message() << "strips=" << strips << " extent="
                                  << extent.ToString());
  const SweepTrace want = TraceSweep<DivisionStripedSweep>(a, b, extent,
                                                           strips);
  const SweepTrace got = TraceSweep<StripedSweep>(a, b, extent, strips);
  ASSERT_EQ(got.pairs.size(), want.pairs.size());
  EXPECT_TRUE(got.pairs == want.pairs) << "emission order differs";
  EXPECT_TRUE(got.active == want.active) << "stored copies differ";
  EXPECT_EQ(got.stats.output_count, want.stats.output_count);
  EXPECT_EQ(got.stats.max_structure_bytes, want.stats.max_structure_bytes);
  EXPECT_EQ(got.stats.max_active, want.stats.max_active);
  EXPECT_EQ(got.collapsed, want.collapsed);
}

/// The strip counts the sweeps run at: coarse, odd, fine, finer than the
/// data, and the rule's.
std::vector<uint32_t> StripCounts(uint64_t records) {
  return {1u, 2u, 7u, 64u, 1024u, 4096u, SweepStrips(records, 1024)};
}

const RectF kEdgeExtents[] = {
    RectF(0, 0, 200, 200),
    RectF(-75.6f, 38.9f, -73.9f, 41.4f),  // A TIGER window's shape.
    RectF(1e-30f, 0, 3e-30f, 1),
    RectF(-3e38f, 0, 3e38f, 10),
};

TEST(StripedSweep, StripIndexIsTheDivisionsAroundEveryEdge) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float max = std::numeric_limits<float>::max();
  const float tiny = std::numeric_limits<float>::denorm_min();
  for (const RectF& extent : kEdgeExtents) {
    for (const uint32_t strips : StripCounts(20000)) {
      SCOPED_TRACE(testing::Message() << "strips=" << strips << " extent="
                                      << extent.ToString());
      const DivisionStripedSweep ref(extent, strips);
      const StripedSweep sweep(extent, strips);
      ASSERT_EQ(sweep.strips(), ref.strips());
      std::vector<float> probes = {-inf, -max, -1.0f, -tiny, -0.0f, 0.0f,
                                   tiny, 1.0f, max, inf, nan,
                                   extent.xlo, extent.xhi};
      for (const float e : DivisionEdges(extent, strips)) {
        const float below = std::nextafter(e, -inf);
        probes.insert(probes.end(), {std::nextafter(below, -inf), below, e,
                                     std::nextafter(e, inf)});
      }
      Random rng(strips);
      for (int i = 0; i < 1000; ++i) {
        probes.push_back(static_cast<float>(
            rng.UniformDouble(extent.xlo, extent.xhi)));
      }
      for (const float x : probes) {
        ASSERT_EQ(sweep.StripIndex(x), ref.StripIndex(x)) << "x=" << x;
      }
    }
  }
}

TEST(StripedSweep, EmitsTheDivisionsSequenceOnRandomWorkloads) {
  const RectF region(0, 0, 200, 200);
  const auto a = UniformRects(1500, region, 4.0f, 41);
  const auto b = UniformRects(1200, region, 2.5f, 42);
  for (const uint32_t strips : StripCounts(a.size() + b.size())) {
    ExpectDivisionSweep(a, b, region, strips);
  }
  // Clustered inputs under strips narrower than the rectangles.
  const SweepCase fine{2000, 2000, 0.016f, 0.016f, 1000, 43, true};
  for (const uint32_t strips : StripCounts(fine.na + fine.nb)) {
    ExpectDivisionSweep(FineStripInput(fine, false), FineStripInput(fine, true),
                        kFineRegion, strips);
  }
}

TEST(StripedSweep, EmitsTheDivisionsSequenceOnEdgeStraddlingRects) {
  // Every x endpoint sits one float below, on or one float above a strip
  // edge, or is NaN or infinite; some rectangles are inverted (xhi < xlo)
  // and some have a NaN yhi, so they never expire.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {-inf, inf, nan};
  for (const RectF& extent : kEdgeExtents) {
    for (const uint32_t strips : StripCounts(3000)) {
      std::vector<float> xs = {extent.xlo};
      for (const float e : DivisionEdges(extent, strips)) {
        xs.insert(xs.end(),
                  {std::nextafter(e, -inf), e, std::nextafter(e, inf)});
      }
      xs.push_back(extent.xhi);
      Random rng(strips * 31 + 7);
      auto endpoint = [&](size_t i) {
        return rng.OneIn(0.03) ? specials[rng.Uniform(3)]
                               : xs[std::min(i, xs.size() - 1)];
      };
      auto side = [&](ObjectId base) {
        std::vector<RectF> out;
        for (ObjectId i = 0; i < 1500; ++i) {
          // Spans of up to a dozen edge floats, so up to four strips.
          const size_t first = rng.Uniform(xs.size());
          float x0 = endpoint(first);
          float x1 = endpoint(first + rng.Uniform(12));
          if (rng.OneIn(0.1)) std::swap(x0, x1);  // Inverted.
          const float y = static_cast<float>(rng.UniformDouble(0, 100));
          const float h = static_cast<float>(rng.UniformDouble(0, 3));
          out.emplace_back(x0, y, x1, rng.OneIn(0.02) ? nan : y + h,
                           base + i);
        }
        return out;
      };
      const std::vector<RectF> a = side(0);
      const std::vector<RectF> b = side(100000);
      ExpectDivisionSweep(a, b, extent, strips);
    }
  }
}

TEST(StripedSweep, DegenerateExtentsEmitTheDivisionsSequence) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const RectF region(0, 0, 50, 50);
  const auto a = UniformRects(400, region, 3.0f, 44);
  const auto b = UniformRects(400, region, 3.0f, 45);
  for (const RectF& extent :
       {RectF(5, 0, 5, 10), RectF(10, 0, 0, 10), RectF(nan, 0, nan, 10),
        RectF(-inf, 0, inf, 10)}) {
    for (const uint32_t strips : {1u, 64u}) {
      ExpectDivisionSweep(a, b, extent, strips);
    }
  }
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
