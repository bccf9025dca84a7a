#include "join/multiway.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "datagen/synthetic.h"
#include "sweep/sweep_join.h"
#include "test_util.h"

namespace sj {
namespace {

/// In-memory sorted source for the tests.
class VecSource final : public SortedRectSource {
 public:
  explicit VecSource(std::vector<RectF> rects) : rects_(std::move(rects)) {
    std::sort(rects_.begin(), rects_.end(), OrderByYLo());
  }
  std::optional<RectF> Next() override {
    if (pos_ >= rects_.size()) return std::nullopt;
    return rects_[pos_++];
  }

 private:
  std::vector<RectF> rects_;
  size_t pos_ = 0;
};

std::vector<std::vector<ObjectId>> BruteForceTriples(
    const std::vector<RectF>& a, const std::vector<RectF>& b,
    const std::vector<RectF>& c) {
  std::vector<std::vector<ObjectId>> out;
  for (const RectF& ra : a) {
    for (const RectF& rb : b) {
      if (!ra.Intersects(rb)) continue;
      const RectF ab = ra.IntersectionWith(rb);
      for (const RectF& rc : c) {
        if (ab.Intersects(rc)) out.push_back({ra.id, rb.id, rc.id});
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PairSource, EmitsIntersectionsInYloOrder) {
  const RectF region(0, 0, 100, 100);
  VecSource a(UniformRects(600, region, 4.0f, 1));
  VecSource b(UniformRects(600, region, 4.0f, 2));
  auto source = MakePairSource(&a, &b, SweepStructureKind::kStriped, region,
                               64);
  float prev = -1e30f;
  uint64_t count = 0;
  while (auto r = source->Next()) {
    EXPECT_GE(r->ylo, prev);
    prev = r->ylo;
    EXPECT_EQ(r->id, count);  // Ids index pairs() densely.
    count++;
  }
  EXPECT_EQ(source->pairs().size(), count);
}

TEST(PairSource, IntersectionRectsAreCorrect) {
  const RectF region(0, 0, 10, 10);
  VecSource a({RectF(0, 0, 5, 5, 1)});
  VecSource b({RectF(3, 2, 8, 9, 2)});
  auto source = MakePairSource(&a, &b, SweepStructureKind::kForward, region,
                               1);
  auto r = source->Next();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->xlo, 3);
  EXPECT_EQ(r->ylo, 2);
  EXPECT_EQ(r->xhi, 5);
  EXPECT_EQ(r->yhi, 5);
  EXPECT_EQ(source->pairs()[r->id], (IdPair{1, 2}));
  EXPECT_FALSE(source->Next().has_value());
}

TEST(MultiwayJoin, ThreeWayMatchesBruteForce) {
  const RectF region(0, 0, 60, 60);
  const auto a = UniformRects(300, region, 4.0f, 3);
  const auto b = UniformRects(300, region, 4.0f, 4);
  const auto c = UniformRects(300, region, 4.0f, 5);
  VecSource sa(a), sb(b), sc(c);

  CollectingTupleSink sink;
  auto stats = MultiwayJoinSources({&sa, &sb, &sc}, region, JoinOptions(),
                                   &sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto got = sink.tuples();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, BruteForceTriples(a, b, c));
  EXPECT_EQ(stats->output_count, got.size());
}

TEST(MultiwayJoin, FourWay) {
  const RectF region(0, 0, 30, 30);
  const auto a = UniformRects(120, region, 5.0f, 6);
  const auto b = UniformRects(120, region, 5.0f, 7);
  const auto c = UniformRects(120, region, 5.0f, 8);
  const auto d = UniformRects(120, region, 5.0f, 9);
  VecSource sa(a), sb(b), sc(c), sd(d);
  CollectingTupleSink sink;
  auto stats = MultiwayJoinSources({&sa, &sb, &sc, &sd}, region, JoinOptions(),
                                   &sink);
  ASSERT_TRUE(stats.ok());

  // Brute force 4-way.
  uint64_t expected = 0;
  for (const RectF& ra : a) {
    for (const RectF& rb : b) {
      if (!ra.Intersects(rb)) continue;
      const RectF ab = ra.IntersectionWith(rb);
      for (const RectF& rc : c) {
        if (!ab.Intersects(rc)) continue;
        const RectF abc = ab.IntersectionWith(rc);
        for (const RectF& rd : d) {
          if (abc.Intersects(rd)) expected++;
        }
      }
    }
  }
  EXPECT_EQ(stats->output_count, expected);
  // Every tuple has 4 ids, one per input.
  for (const auto& t : sink.tuples()) EXPECT_EQ(t.size(), 4u);
}

TEST(MultiwayJoin, RejectsFewerThanTwoInputs) {
  VecSource sa({});
  CountingTupleSink sink;
  auto stats = MultiwayJoinSources({&sa}, RectF(0, 0, 1, 1), JoinOptions(),
                                   &sink);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

TEST(MultiwayJoin, TwoWayDegeneratesToPairs) {
  const RectF region(0, 0, 50, 50);
  const auto a = UniformRects(200, region, 3.0f, 10);
  const auto b = UniformRects(200, region, 3.0f, 11);
  VecSource sa(a), sb(b);
  CollectingTupleSink sink;
  auto stats = MultiwayJoinSources({&sa, &sb}, region, JoinOptions(), &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->output_count,
            testing_util::BruteForcePairs(a, b).size());
}

}  // namespace
}  // namespace sj
