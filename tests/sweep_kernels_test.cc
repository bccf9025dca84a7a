// Oracle tests for the sweep/predicate kernels: every kernel the library
// runs (sweep/sweep_kernels.h, join/predicate_batch.h) must equal a
// one-lane-at-a-time reference on every input — including NaN, infinite,
// inverted and touching-edge geometry — at the kernel and structure
// levels. The references live here, not in the library: each kernel's one
// body in src/ is its only implementation.

#include "sweep/sweep_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "join/entry_sweep.h"
#include "join/predicate_batch.h"
#include "join/sources.h"
#include "sweep/sweep_join.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::BruteForcePairs;
using testing_util::Sorted;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// ---------------------------------------------------------------------------
// One-lane-at-a-time references, branching on each comparison.
// ---------------------------------------------------------------------------

void ClassifyScalar(const float* xlo, const float* xhi, const float* yhi,
                    size_t n, float qxlo, float qxhi, float qylo,
                    uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    if (yhi[i] < qylo) {
      out[i] = 0;
      continue;
    }
    uint8_t m = kernels::kLaneKeep;
    if (xlo[i] <= qxhi && qxlo <= xhi[i]) m |= kernels::kLaneMatch;
    out[i] = m;
  }
}

void ExpiryScalar(const float* yhi, size_t n, float y, uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = (yhi[i] < y) ? 0 : kernels::kLaneKeep;
  }
}

size_t OverlapScalar(const float* xlo, const float* ylo, const float* yhi,
                     size_t n, float qxhi, float qylo, float qyhi,
                     uint8_t* out) {
  size_t k = 0;
  for (; k < n; ++k) {
    if (!(xlo[k] <= qxhi)) break;
    out[k] = (qylo <= yhi[k] && ylo[k] <= qyhi) ? 1 : 0;
  }
  return k;
}

/// SweepEntryLists' pairing loop with the overlap scan inline, one
/// candidate at a time.
std::vector<IdPair> ScalarEntryListPairs(const std::vector<RectF>& as,
                                         const std::vector<RectF>& bs) {
  std::vector<IdPair> pairs;
  size_t i = 0, j = 0;
  while (i < as.size() && j < bs.size()) {
    if (as[i].xlo < bs[j].xlo) {
      const RectF& a = as[i];
      for (size_t k = j; k < bs.size() && bs[k].xlo <= a.xhi; ++k) {
        if (a.ylo <= bs[k].yhi && bs[k].ylo <= a.yhi) {
          pairs.push_back({a.id, bs[k].id});
        }
      }
      i++;
    } else {
      const RectF& b = bs[j];
      for (size_t k = i; k < as.size() && as[k].xlo <= b.xhi; ++k) {
        if (b.ylo <= as[k].yhi && as[k].ylo <= b.yhi) {
          pairs.push_back({as[k].id, b.id});
        }
      }
      j++;
    }
  }
  return pairs;
}

/// A float that is usually ordinary but sometimes NaN/inf/huge/zero, or
/// a small integer, so that comparisons often meet ties.
float EdgyFloat(std::mt19937_64& rng) {
  std::uniform_real_distribution<float> uniform(-100.0f, 100.0f);
  switch (rng() % 16) {
    case 0:
      return kNaN;
    case 1:
      return kInf;
    case 2:
      return -kInf;
    case 3:
      return 3e38f;
    case 4:
      return -3e38f;
    case 5:
      return 0.0f;
    case 6:
    case 7:
    case 8:
      return static_cast<float>(static_cast<int>(rng() % 5) - 2);
    default:
      return uniform(rng);
  }
}

/// Orders NaN after every number, so a column holding NaN can be sorted.
bool NaNLast(float a, float b) {
  return std::isnan(b) ? !std::isnan(a) : a < b;
}

// Each kernel case runs every size from 0 to 47: every call shorter than
// a block, and one and two whole blocks each followed by a last block
// that overlaps them by every amount from 1 to 15 lanes (or by none).
constexpr size_t kMaxLanes = 3 * kernels::kKernelBlockLanes;
constexpr int kRoundsPerSize = 5;

TEST(KernelDifferential, ClassifySweepLanesMatchesScalar) {
  std::mt19937_64 rng(7);
  for (size_t n = 0; n < kMaxLanes; ++n) {
    for (int round = 0; round < kRoundsPerSize; ++round) {
      std::vector<float> xlo(n), xhi(n), yhi(n);
      for (size_t i = 0; i < n; ++i) {
        xlo[i] = EdgyFloat(rng);
        xhi[i] = EdgyFloat(rng);
        yhi[i] = EdgyFloat(rng);
      }
      const float qxlo = EdgyFloat(rng), qxhi = EdgyFloat(rng),
                  qylo = EdgyFloat(rng);
      std::vector<uint8_t> want(n, 0xcc), got(n, 0x33);
      ClassifyScalar(xlo.data(), xhi.data(), yhi.data(), n, qxlo, qxhi, qylo,
                     want.data());
      kernels::ClassifySweepLanes(xlo.data(), xhi.data(), yhi.data(), n, qxlo,
                                  qxhi, qylo, got.data());
      ASSERT_EQ(want, got) << "n=" << n << " round " << round;
    }
  }
}

TEST(KernelDifferential, ExpiryKeepMaskMatchesScalar) {
  std::mt19937_64 rng(11);
  for (size_t n = 0; n < kMaxLanes; ++n) {
    for (int round = 0; round < kRoundsPerSize; ++round) {
      std::vector<float> yhi(n);
      for (size_t i = 0; i < n; ++i) yhi[i] = EdgyFloat(rng);
      const float y = EdgyFloat(rng);
      std::vector<uint8_t> want(n, 0xcc), got(n, 0x33);
      ExpiryScalar(yhi.data(), n, y, want.data());
      kernels::ExpiryKeepMask(yhi.data(), n, y, got.data());
      ASSERT_EQ(want, got) << "n=" << n << " round " << round;
    }
  }
}

TEST(KernelDifferential, BatchRectOverlapMatchesScalar) {
  std::mt19937_64 rng(13);
  for (size_t n = 0; n < kMaxLanes; ++n) {
    for (int round = 0; round < kRoundsPerSize; ++round) {
      std::vector<float> xlo(n), ylo(n), yhi(n);
      for (size_t i = 0; i < n; ++i) {
        xlo[i] = EdgyFloat(rng);
        ylo[i] = EdgyFloat(rng);
        yhi[i] = EdgyFloat(rng);
      }
      // Odd rounds sort xlo, as SweepEntryLists' lists are, so runs reach
      // far into the lanes; even rounds leave it unsorted, and the run end
      // must still match.
      if (round % 2 == 1) std::sort(xlo.begin(), xlo.end(), NaNLast);
      const float qxhi = EdgyFloat(rng), qylo = EdgyFloat(rng),
                  qyhi = EdgyFloat(rng);
      std::vector<uint8_t> want(n, 0xcc), got(n, 0x33);
      const size_t want_end = OverlapScalar(xlo.data(), ylo.data(), yhi.data(),
                                            n, qxhi, qylo, qyhi, want.data());
      const size_t got_end =
          kernels::BatchRectOverlap(xlo.data(), ylo.data(), yhi.data(), n,
                                    qxhi, qylo, qyhi, got.data());
      ASSERT_EQ(want_end, got_end) << "n=" << n << " round " << round;
      for (size_t k = 0; k < want_end; ++k) {
        ASSERT_EQ(want[k], got[k])
            << "n=" << n << " round " << round << " lane " << k;
      }
    }
  }
}

/// Random rects with occasional NaN/inf *x* coordinates and inverted
/// intervals; y stays finite so OrderByYLo sorting is well-defined (the
/// kernel-level tests above cover NaN y).
std::vector<RectF> EdgyRects(size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<float> pos(0.0f, 200.0f);
  std::uniform_real_distribution<float> len(0.0f, 5.0f);
  std::vector<RectF> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    RectF r;
    r.ylo = pos(rng);
    r.yhi = r.ylo + len(rng);
    r.xlo = pos(rng);
    r.xhi = r.xlo + len(rng);
    switch (rng() % 16) {
      case 0:
        r.xlo = kNaN;
        break;
      case 1:
        r.xhi = kInf;
        break;
      case 2:
        r.xhi = r.xlo - 1.0f;  // Inverted x.
        break;
      case 3:
        r.yhi = r.ylo;  // Degenerate (touching-edge) y.
        break;
      case 4:
        r.xhi = r.xlo;  // Degenerate x.
        break;
      default:
        break;
    }
    r.id = static_cast<ObjectId>(i + 1);
    out.push_back(r);
  }
  return out;
}

// With finite, non-inverted y, a Forward-Sweep pair is exactly a pair of
// rectangles that intersect in RectF::Intersects' IEEE sense (NaN x never
// matches; inverted x follows the same two comparisons), so brute force is
// the oracle for its classify and expiry kernels in place.
TEST(StructureDifferential, ForwardSweepMatchesBruteForce) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    std::mt19937_64 rng(seed);
    auto a = EdgyRects(600, rng);
    auto b = EdgyRects(500, rng);
    std::sort(a.begin(), a.end(), OrderByYLo());
    std::sort(b.begin(), b.end(), OrderByYLo());
    SortedRectsSource sa(a.data(), a.size()), sb(b.data(), b.size());
    ForwardSweep active_a, active_b;
    std::vector<IdPair> pairs;
    const SweepRunStats stats = SweepJoinRun(
        sa, sb, active_a, active_b,
        [&](const RectF& x, const RectF& y) { pairs.push_back({x.id, y.id}); },
        [] {});
    const std::vector<IdPair> want = BruteForcePairs(a, b);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(stats.output_count, pairs.size()) << "seed " << seed;
    EXPECT_EQ(Sorted(pairs), want) << "seed " << seed;
  }
}

// Brute force is no oracle here: SweepEntryLists pairs inverted
// x-intervals by its xlo run, not by RectF::Intersects. The reference is
// the same pairing loop with the overlap scan done one candidate at a time.
TEST(StructureDifferential, SweepEntryListsMatchesScalarPairing) {
  std::mt19937_64 rng(17);
  for (int round = 0; round < 20; ++round) {
    auto as = EdgyRects(150, rng);
    auto bs = EdgyRects(140, rng);
    // SweepEntryLists requires xlo-sorted inputs; drop NaN xlo (sorting
    // on NaN keys is undefined — kernel-level NaN behaviour is covered
    // above).
    auto finite_xlo = [](std::vector<RectF>* v) {
      v->erase(std::remove_if(v->begin(), v->end(),
                              [](const RectF& r) { return std::isnan(r.xlo); }),
               v->end());
      std::sort(v->begin(), v->end(), OrderByXLo());
    };
    finite_xlo(&as);
    finite_xlo(&bs);
    std::vector<IdPair> pairs;
    SweepEntryLists(as, bs, [&](const RectF& x, const RectF& y) {
      pairs.push_back({x.id, y.id});
    });
    const std::vector<IdPair> want = ScalarEntryListPairs(as, bs);
    ASSERT_FALSE(want.empty()) << "round " << round;
    ASSERT_EQ(pairs, want) << "round " << round;
  }
}

Segment EdgySegment(std::mt19937_64& rng) {
  std::uniform_real_distribution<float> pos(-50.0f, 50.0f);
  Segment s(pos(rng), pos(rng), pos(rng), pos(rng));
  switch (rng() % 12) {
    case 0:
      s.x2 = s.x1;
      s.y2 = s.y1;  // Degenerate point.
      break;
    case 1:
      s.x1 = kNaN;
      break;
    case 2:
      s.y2 = kInf;
      break;
    default:
      break;
  }
  return s;
}

TEST(PredicateBatchDifferential, AllPredicatesMatchScalar) {
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<float> pos(-50.0f, 50.0f);
  for (int round = 0; round < 50; ++round) {
    const size_t n = 1 + rng() % 64;
    std::vector<Segment> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = EdgySegment(rng);
      switch (rng() % 6) {
        case 0:
          b[i] = a[i];  // Identical (collinear overlap).
          break;
        case 1:
          // Touching endpoint: b starts exactly where a ends.
          b[i] = Segment(a[i].x2, a[i].y2, pos(rng), pos(rng));
          break;
        case 2:
          // Collinear sub-segment of a (containment hits).
          b[i] = Segment((a[i].x1 + a[i].x2) / 2, (a[i].y1 + a[i].y2) / 2,
                         a[i].x2, a[i].y2);
          break;
        default:
          b[i] = EdgySegment(rng);
          break;
      }
    }
    std::vector<uint8_t> intersects(n, 0x33);
    BatchSegmentsIntersect(a.data(), b.data(), n, intersects.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(intersects[i], SegmentsIntersect(a[i], b[i]) ? 1 : 0)
          << "round " << round << " lane " << i;
    }
    for (const PredicateSpec spec :
         {PredicateSpec{Predicate::kIntersects, 0.0},
          PredicateSpec{Predicate::kDistanceWithin, 2.5},
          PredicateSpec{Predicate::kDistanceWithin, 0.0},
          PredicateSpec{Predicate::kContains, 0.0}}) {
      std::vector<uint8_t> got(n, 0x33);
      EvaluateExactPredicateBatch(spec, a.data(), b.data(), n, got.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], EvaluateExactPredicate(spec, a[i], b[i]) ? 1 : 0)
            << spec.Describe() << " round " << round << " lane " << i;
      }
    }
  }
}

}  // namespace
}  // namespace sj
