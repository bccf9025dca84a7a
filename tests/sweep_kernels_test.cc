// Scalar-vs-vectorized differential for the sweep/predicate kernels: the
// vectorized SoA paths (sweep/sweep_kernels.h, join/predicate_batch.h)
// must be bit-identical to the scalar reference on every input —
// including NaN, infinite, inverted and touching-edge geometry — at the
// kernel, structure, and whole-join levels, across thread counts.

#include "sweep/sweep_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <random>
#include <vector>

#include "core/join_query.h"
#include "core/spatial_join.h"
#include "datagen/tiger_gen.h"
#include "join/entry_sweep.h"
#include "join/predicate_batch.h"
#include "sweep/sweep_join.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::MakeDataset;
using testing_util::TestDisk;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// RAII mode override (structures latch the mode at construction, so the
/// override must be in place before anything is built).
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(SweepKernelMode mode) { SetSweepKernelMode(mode); }
  ~ScopedKernelMode() { ResetSweepKernelMode(); }
};

/// A float that is usually ordinary but sometimes NaN/inf/huge/zero.
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
    default:
      return uniform(rng);
  }
}

TEST(KernelDifferential, ClassifySweepLanesMatchesScalar) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 200; ++round) {
    const size_t n = rng() % 40;  // Covers full blocks and ragged tails.
    std::vector<float> xlo(n), xhi(n), yhi(n);
    for (size_t i = 0; i < n; ++i) {
      xlo[i] = EdgyFloat(rng);
      xhi[i] = EdgyFloat(rng);
      yhi[i] = EdgyFloat(rng);
    }
    const float qxlo = EdgyFloat(rng), qxhi = EdgyFloat(rng),
                qylo = EdgyFloat(rng);
    std::vector<uint8_t> scalar(n, 0xcc), vectorized(n, 0x33);
    kernels::ClassifySweepLanes(SweepKernelMode::kScalar, xlo.data(),
                                xhi.data(), yhi.data(), n, qxlo, qxhi, qylo,
                                scalar.data());
    kernels::ClassifySweepLanes(SweepKernelMode::kVectorized, xlo.data(),
                                xhi.data(), yhi.data(), n, qxlo, qxhi, qylo,
                                vectorized.data());
    ASSERT_EQ(scalar, vectorized) << "round " << round << " n=" << n;
  }
}

TEST(KernelDifferential, ExpiryKeepMaskMatchesScalar) {
  std::mt19937_64 rng(11);
  for (int round = 0; round < 200; ++round) {
    const size_t n = rng() % 40;
    std::vector<float> yhi(n);
    for (size_t i = 0; i < n; ++i) yhi[i] = EdgyFloat(rng);
    const float y = EdgyFloat(rng);
    std::vector<uint8_t> scalar(n, 0xcc), vectorized(n, 0x33);
    kernels::ExpiryKeepMask(SweepKernelMode::kScalar, yhi.data(), n, y,
                            scalar.data());
    kernels::ExpiryKeepMask(SweepKernelMode::kVectorized, yhi.data(), n, y,
                            vectorized.data());
    ASSERT_EQ(scalar, vectorized) << "round " << round << " n=" << n;
  }
}

TEST(KernelDifferential, BatchRectOverlapMatchesScalar) {
  std::mt19937_64 rng(13);
  for (int round = 0; round < 200; ++round) {
    const size_t n = rng() % 40;
    std::vector<float> xlo(n), ylo(n), yhi(n);
    for (size_t i = 0; i < n; ++i) {
      xlo[i] = EdgyFloat(rng);  // Unsorted/NaN xlo: run-end must still match.
      ylo[i] = EdgyFloat(rng);
      yhi[i] = EdgyFloat(rng);
    }
    const float qxhi = EdgyFloat(rng), qylo = EdgyFloat(rng),
                qyhi = EdgyFloat(rng);
    std::vector<uint8_t> scalar(n, 0xcc), vectorized(n, 0x33);
    const size_t end_s =
        kernels::BatchRectOverlap(SweepKernelMode::kScalar, xlo.data(),
                                  ylo.data(), yhi.data(), n, qxhi, qylo, qyhi,
                                  scalar.data());
    const size_t end_v = kernels::BatchRectOverlap(
        SweepKernelMode::kVectorized, xlo.data(), ylo.data(), yhi.data(), n,
        qxhi, qylo, qyhi, vectorized.data());
    ASSERT_EQ(end_s, end_v) << "round " << round << " n=" << n;
    for (size_t k = 0; k < end_s; ++k) {
      ASSERT_EQ(scalar[k], vectorized[k])
          << "round " << round << " lane " << k;
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

template <typename Structure>
void StructureDifferential(uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto a = EdgyRects(600, rng);
  const auto b = EdgyRects(500, rng);
  const RectF extent(0, 0, 200, 200);

  auto run = [&](SweepKernelMode mode, std::vector<IdPair>* pairs) {
    ScopedKernelMode scoped(mode);
    auto sa_rects = a;
    auto sb_rects = b;
    std::sort(sa_rects.begin(), sa_rects.end(), OrderByYLo());
    std::sort(sb_rects.begin(), sb_rects.end(), OrderByYLo());
    VectorRectSource sa(&sa_rects), sb(&sb_rects);
    Structure active_a(extent, 32), active_b(extent, 32);
    SweepRunStats stats = SweepJoinRun(
        sa, sb, active_a, active_b,
        [&](const RectF& x, const RectF& y) {
          pairs->push_back({x.id, y.id});
        },
        [] {});
    return stats;
  };

  std::vector<IdPair> scalar_pairs, vector_pairs;
  const SweepRunStats s = run(SweepKernelMode::kScalar, &scalar_pairs);
  const SweepRunStats v = run(SweepKernelMode::kVectorized, &vector_pairs);
  // Identical pair *sequence* (not just set) and identical memory
  // accounting: the two modes must be indistinguishable from outside.
  EXPECT_EQ(scalar_pairs, vector_pairs);
  EXPECT_EQ(s.output_count, v.output_count);
  EXPECT_EQ(s.max_structure_bytes, v.max_structure_bytes);
  EXPECT_EQ(s.max_active, v.max_active);
}

TEST(StructureDifferential, ForwardSweepScalarVsVectorized) {
  for (uint64_t seed : {1u, 2u, 3u}) StructureDifferential<ForwardSweep>(seed);
}

// Striped-Sweep scans its short strip lists inline, without the lane
// kernels: the forced mode must not change a thing, on the same edgy
// inputs.
TEST(StructureDifferential, StripedSweepIgnoresKernelMode) {
  for (uint64_t seed : {4u, 5u, 6u}) StructureDifferential<StripedSweep>(seed);
}

TEST(StructureDifferential, SweepEntryListsScalarVsVectorized) {
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
    std::vector<IdPair> scalar_pairs, vector_pairs;
    {
      ScopedKernelMode scoped(SweepKernelMode::kScalar);
      SweepEntryLists(as, bs, [&](const RectF& x, const RectF& y) {
        scalar_pairs.push_back({x.id, y.id});
      });
    }
    {
      ScopedKernelMode scoped(SweepKernelMode::kVectorized);
      SweepEntryLists(as, bs, [&](const RectF& x, const RectF& y) {
        vector_pairs.push_back({x.id, y.id});
      });
    }
    ASSERT_EQ(scalar_pairs, vector_pairs) << "round " << round;
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
    for (const PredicateSpec spec :
         {PredicateSpec{Predicate::kIntersects, 0.0},
          PredicateSpec{Predicate::kDistanceWithin, 2.5},
          PredicateSpec{Predicate::kDistanceWithin, 0.0},
          PredicateSpec{Predicate::kContains, 0.0}}) {
      std::vector<uint8_t> scalar(n, 0xcc), vectorized(n, 0x33);
      EvaluateExactPredicateBatch(SweepKernelMode::kScalar, spec, a.data(),
                                  b.data(), n, scalar.data());
      EvaluateExactPredicateBatch(SweepKernelMode::kVectorized, spec, a.data(),
                                  b.data(), n, vectorized.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(scalar[i], vectorized[i])
            << spec.Describe() << " round " << round << " lane " << i;
        // Both must equal the per-pair reference evaluator.
        ASSERT_EQ(scalar[i] != 0, EvaluateExactPredicate(spec, a[i], b[i]))
            << spec.Describe() << " round " << round << " lane " << i;
      }
    }
  }
}

// Whole-join differential: SSSJ and PBSM over TIGER-style data, across
// thread counts and both kernel modes, must produce the identical pair
// set and identical sweep memory accounting. (Runs under the concurrency
// label, so the TSan tier exercises the threaded legs too.)
TEST(JoinKernelDifferential, ScalarAndVectorizedJoinsAreIdentical) {
  TigerGenerator gen(41);
  std::vector<RectF> a, b;
  gen.GenerateRoads(1500, &a);
  gen.GenerateHydro(1200, &b);

  struct RunResult {
    std::vector<IdPair> pairs;
    size_t max_sweep_bytes = 0;
  };
  auto run = [&](JoinAlgorithm algo, uint32_t threads, SweepKernelMode mode) {
    ScopedKernelMode scoped(mode);
    TestDisk td;
    std::vector<std::unique_ptr<Pager>> keep;
    const DatasetRef da = MakeDataset(&td, a, "a", &keep);
    const DatasetRef db = MakeDataset(&td, b, "b", &keep);
    SpatialJoiner joiner(&td.disk, JoinOptions());
    CollectingSink sink;
    auto stats = JoinQuery(joiner)
                     .Input(JoinInput::FromStream(da))
                     .Input(JoinInput::FromStream(db))
                     .Algorithm(algo)
                     .Threads(threads)
                     .Run(&sink);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    RunResult r;
    r.pairs = testing_util::Sorted(sink.pairs());
    if (stats.ok()) r.max_sweep_bytes = stats->max_sweep_bytes;
    return r;
  };

  for (JoinAlgorithm algo : {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM}) {
    const RunResult reference =
        run(algo, /*threads=*/1, SweepKernelMode::kScalar);
    ASSERT_FALSE(reference.pairs.empty());
    for (uint32_t threads : {1u, 2u, 8u}) {
      for (SweepKernelMode mode :
           {SweepKernelMode::kScalar, SweepKernelMode::kVectorized}) {
        const RunResult got = run(algo, threads, mode);
        EXPECT_EQ(got.pairs, reference.pairs)
            << ToString(algo) << " threads=" << threads;
        EXPECT_EQ(got.max_sweep_bytes, reference.max_sweep_bytes)
            << ToString(algo) << " threads=" << threads;
      }
    }
  }
}

TEST(KernelMode, IsaNameIsStable) {
  // Smoke: the ISA string resolves to one of the known names.
  const std::string isa = SweepKernelIsa();
  EXPECT_TRUE(isa == "avx2" || isa == "sse2" || isa == "neon" ||
              isa == "portable" || isa == "scalar-only")
      << isa;
}

}  // namespace
}  // namespace sj
