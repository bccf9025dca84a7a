// Differential test of run formation's radix kernel (sort/radix_sort.h)
// against std::sort under OrderByYLo: byte-identical output on TIGER
// chunks around the crossover and at a full 1 MiB-grant chunk, and on
// adversarial keys; NaN ylo lands where the kernel documents it.

#include "sort/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "datagen/tiger_gen.h"
#include "sort/run_layout.h"

namespace sj {
namespace {

std::vector<RectF> RadixSorted(std::vector<RectF> v) {
  std::vector<RectF> scratch(v.size());
  RadixSortByYLo(v.data(), v.size(), scratch.data());
  return v;
}

std::vector<RectF> StdSorted(std::vector<RectF> v) {
  std::sort(v.begin(), v.end(), OrderByYLo());
  return v;
}

bool SameBytes(const std::vector<RectF>& a, const std::vector<RectF>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(RectF)) == 0;
}

TEST(RadixSortByYLo, MatchesStdSortOnTigerChunks) {
  // The chunk a 1 MiB sorter grant forms, the largest one whose scratch
  // fits the layout's write block.
  const size_t full_chunk = RunLayout::For(1 << 20, sizeof(RectF)).run_records;
  ASSERT_EQ(full_chunk, 26214u);
  const TigerSpec spec = PaperDataset("DISK1-6", 0.01);
  TigerGenerator gen(spec.seed);
  std::vector<RectF> roads, hydro;
  gen.GenerateRoads(spec.road_count, &roads);
  gen.GenerateHydro(spec.hydro_count, &hydro);
  for (const std::vector<RectF>* relation : {&roads, &hydro}) {
    for (size_t n : {size_t{1}, kRadixSortMinRecords - 1,
                     kRadixSortMinRecords + 1, full_chunk}) {
      // Chunks in generation order, as run formation cuts a stream.
      for (size_t first = 0; first + n <= relation->size();
           first += relation->size() / 3) {
        const std::vector<RectF> chunk(relation->begin() + first,
                                       relation->begin() + first + n);
        EXPECT_TRUE(SameBytes(RadixSorted(chunk), StdSorted(chunk)))
            << "n=" << n << " first=" << first;
      }
    }
  }
}

TEST(RadixSortByYLo, MatchesStdSortOnAdversarialKeys) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float tiny = std::numeric_limits<float>::min();
  const std::vector<float> keys = {
      -inf, -3e38f, -1.5f, -tiny, -2 * denorm, -denorm, -0.0f, 0.0f,
      denorm, 3 * denorm, tiny, 1.5f, 3e38f, inf};
  std::mt19937_64 rng(91);
  for (size_t n : {size_t{2}, size_t{255}, size_t{4000}}) {
    // Unique ids, half of them with bit 31 set, in random order.
    std::vector<ObjectId> ids(n);
    for (size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<ObjectId>(i) | (i % 2 == 1 ? 0x80000000u : 0u);
    }
    std::shuffle(ids.begin(), ids.end(), rng);
    std::vector<RectF> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = RectF(static_cast<float>(rng() % 100), keys[rng() % keys.size()],
                   static_cast<float>(rng() % 100), 0.0f, ids[i]);
    }
    EXPECT_TRUE(SameBytes(RadixSorted(v), StdSorted(v))) << "n=" << n;
  }
  // -0.0 and +0.0 compare equal, so ids alone decide their order.
  const std::vector<RectF> zeros = {RectF(0, 0.0f, 0, 0, 5),
                                    RectF(0, -0.0f, 0, 0, 3),
                                    RectF(0, 0.0f, 0, 0, 0x80000001u),
                                    RectF(0, -0.0f, 0, 0, 1)};
  const std::vector<RectF> sorted = RadixSorted(zeros);
  EXPECT_TRUE(SameBytes(sorted, StdSorted(zeros)));
  std::vector<ObjectId> order;
  for (const RectF& r : sorted) order.push_back(r.id);
  EXPECT_EQ(order, (std::vector<ObjectId>{1, 3, 5, 0x80000001u}));
}

TEST(RadixSortByYLo, NaNYLoSortsLastById) {
  // OrderByYLo cannot order NaN; the kernel puts every NaN ylo, of either
  // sign and any payload, after +inf, ordered by id, and sorts the rest
  // exactly as std::sort sorts them alone.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  uint32_t payload_bits = 0xffc00123u;  // Negative NaN with a payload.
  float payload_nan;
  std::memcpy(&payload_nan, &payload_bits, sizeof(payload_nan));
  const float inf = std::numeric_limits<float>::infinity();
  std::mt19937_64 rng(5);
  std::vector<RectF> v, finite, nans;
  for (ObjectId id = 0; id < 600; ++id) {
    float y;
    switch (rng() % 6) {
      case 0:
        y = nan;
        break;
      case 1:
        y = -nan;
        break;
      case 2:
        y = payload_nan;
        break;
      case 3:
        y = rng() % 2 == 0 ? inf : -inf;
        break;
      default:
        y = static_cast<float>(rng() % 1000) - 500.0f;
    }
    const ObjectId key = (id * 7919u) % 600u;  // Ids out of order.
    v.emplace_back(1.0f, y, 2.0f, 3.0f, key);
    (std::isnan(y) ? nans : finite).push_back(v.back());
  }
  std::sort(nans.begin(), nans.end(),
            [](const RectF& a, const RectF& b) { return a.id < b.id; });
  std::vector<RectF> expected = StdSorted(finite);
  expected.insert(expected.end(), nans.begin(), nans.end());
  ASSERT_FALSE(nans.empty());
  EXPECT_TRUE(SameBytes(RadixSorted(v), expected));
}

TEST(RadixSortByYLo, KeyPreservesFloatOrder) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> ascending = {
      -inf, -3e38f, -1.0f, -std::numeric_limits<float>::min(),
      -std::numeric_limits<float>::denorm_min(), 0.0f,
      std::numeric_limits<float>::denorm_min(), 1.0f, 3e38f, inf};
  for (size_t i = 1; i < ascending.size(); ++i) {
    EXPECT_LT(RadixYLoKey(ascending[i - 1]), RadixYLoKey(ascending[i]))
        << ascending[i - 1] << " vs " << ascending[i];
  }
  EXPECT_EQ(RadixYLoKey(-0.0f), RadixYLoKey(0.0f));
  EXPECT_GT(RadixYLoKey(std::numeric_limits<float>::quiet_NaN()),
            RadixYLoKey(inf));
  EXPECT_GT(RadixYLoKey(-std::numeric_limits<float>::quiet_NaN()),
            RadixYLoKey(inf));
}

}  // namespace
}  // namespace sj
