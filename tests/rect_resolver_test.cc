// RectResolver, the id -> MBR table behind a pipeline's join rows: the
// in-memory hash table and the external id-sorted table resolve the same
// rectangles for every id of a stream and of an R-tree, reject absent ids
// alike, and report usage within their op.rectmap grant.

#include "op/rect_resolver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/memory_arbiter.h"
#include "datagen/synthetic.h"
#include "join/executor.h"
#include "rtree/rtree.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::MakeDataset;
using testing_util::TestDisk;

constexpr uint64_t kRecords = 3000;
constexpr size_t kUncapped = ~size_t{0};

/// Slots in the hash index over `count` records, read off RectTableBytes.
uint64_t IndexSlots(uint64_t count) {
  return (RectTableBytes(count) - count * sizeof(RectF)) / sizeof(uint32_t);
}

/// kRecords random MBRs whose ids stress the index: 0 and 0xFFFFFFFF, a
/// dense run, multiples of the index's slot count (all one slot under a
/// modulo hash), and scattered ids, in shuffled order.
std::vector<RectF> StressIdRecords() {
  const uint64_t slots = IndexSlots(kRecords);
  std::set<ObjectId> ids = {0, 0xFFFFFFFFu};
  for (ObjectId id = 1; id < 1000; ++id) ids.insert(id);
  for (uint64_t k = 1; k <= 500; ++k) {
    ids.insert(static_cast<ObjectId>(k * slots));
  }
  std::mt19937 rng(17);
  std::uniform_int_distribution<ObjectId> scattered(5000000u, 0xF0000000u);
  while (ids.size() < kRecords) ids.insert(scattered(rng));

  std::vector<RectF> records =
      UniformRects(kRecords, RectF(0, 0, 500, 500), 3.0f, /*seed=*/23);
  auto id = ids.begin();
  for (RectF& r : records) r.id = *id++;
  std::shuffle(records.begin(), records.end(), rng);
  return records;
}

/// Ids the records never carry: past the dense run, the next multiple of
/// the slot count, and one below 0xFFFFFFFF.
std::vector<ObjectId> AbsentIds() {
  return {1000, static_cast<ObjectId>(501 * IndexSlots(kRecords)),
          0xFFFFFFFEu};
}

struct ResolverFixture {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  std::vector<RectF> records = StressIdRecords();
  DatasetRef stream;
  std::optional<RTree> tree;

  ResolverFixture() {
    stream = MakeDataset(&td, records, "resolver.in", &keep);
    keep.push_back(td.NewPager("resolver.tree"));
    Pager* tree_pager = keep.back().get();
    keep.push_back(td.NewPager("resolver.tree.scratch"));
    auto built = RTree::BulkLoadHilbert(tree_pager, stream.range,
                                        keep.back().get(), RTreeParams(),
                                        1 << 22);
    SJ_CHECK_OK(built.status());
    tree.emplace(std::move(built).value());
  }

  std::vector<JoinInput> Inputs() const {
    return {JoinInput::FromStream(stream), JoinInput::FromRTree(&*tree)};
  }
};

// Both paths over both input kinds return each id's own rectangle, for a
// shuffled batch that repeats ids.
TEST(RectResolverTest, InMemoryAndExternalPathsAgree) {
  ResolverFixture f;
  std::map<ObjectId, RectF> by_id;
  for (const RectF& r : f.records) by_id[r.id] = r;
  std::vector<ObjectId> ids;
  for (const RectF& r : f.records) ids.push_back(r.id);
  for (size_t i = 0; i < f.records.size(); i += 3) {
    ids.push_back(f.records[i].id);
  }
  std::shuffle(ids.begin(), ids.end(), std::mt19937(5));
  std::vector<RectF> expected;
  for (ObjectId id : ids) expected.push_back(by_id.at(id));

  for (const JoinInput& input : f.Inputs()) {
    SCOPED_TRACE(input.indexed() ? "r-tree input" : "stream input");
    for (const size_t budget : {size_t{24} << 20, size_t{64} << 10}) {
      MemoryArbiter arbiter(budget);
      auto resolver = RectResolver::Build(input, &f.td.disk, &arbiter,
                                          kUncapped, nullptr, "resolver");
      ASSERT_TRUE(resolver.ok()) << resolver.status().ToString();
      EXPECT_EQ((*resolver)->external(), budget < RectTableBytes(kRecords));
      EXPECT_EQ((*resolver)->count(), kRecords);
      std::vector<RectF> got;
      ASSERT_TRUE((*resolver)->Lookup(ids, &got).ok());
      EXPECT_EQ(got, expected);
    }
  }
}

TEST(RectResolverTest, AbsentIdIsInternalOnBothPaths) {
  ResolverFixture f;
  for (const JoinInput& input : f.Inputs()) {
    for (const size_t budget : {size_t{24} << 20, size_t{64} << 10}) {
      MemoryArbiter arbiter(budget);
      auto resolver = RectResolver::Build(input, &f.td.disk, &arbiter,
                                          kUncapped, nullptr, "resolver");
      ASSERT_TRUE(resolver.ok()) << resolver.status().ToString();
      for (ObjectId absent : AbsentIds()) {
        SCOPED_TRACE("id " + std::to_string(absent) +
                     ((*resolver)->external() ? " external" : " in memory"));
        std::vector<RectF> out;
        const Status s =
            (*resolver)->Lookup({f.records[0].id, absent}, &out);
        EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
      }
    }
  }
}

// Small tables, 1 to 300 records with random ids: in many of them a probe
// run passes the last slot and wraps to the first.
TEST(RectResolverTest, SmallTablesResolveEveryId) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  std::mt19937 rng(29);
  for (uint64_t n = 1; n <= 300; ++n) {
    SCOPED_TRACE("records " + std::to_string(n));
    std::vector<RectF> records =
        UniformRects(n, RectF(0, 0, 100, 100), 1.0f, /*seed=*/n);
    std::set<ObjectId> ids;
    while (ids.size() < n) ids.insert(static_cast<ObjectId>(rng()));
    auto id = ids.begin();
    for (RectF& r : records) r.id = *id++;
    const JoinInput input = JoinInput::FromStream(
        MakeDataset(&td, records, "small" + std::to_string(n), &keep));
    MemoryArbiter arbiter(1 << 20, /*strict=*/true);
    auto resolver = RectResolver::Build(input, &td.disk, &arbiter, kUncapped,
                                        nullptr, "small");
    ASSERT_TRUE(resolver.ok()) << resolver.status().ToString();
    ASSERT_FALSE((*resolver)->external());
    std::vector<ObjectId> lookups(ids.begin(), ids.end());
    std::vector<RectF> got;
    ASSERT_TRUE((*resolver)->Lookup(lookups, &got).ok());
    std::map<ObjectId, RectF> by_id;
    for (const RectF& r : records) by_id[r.id] = r;
    for (size_t i = 0; i < lookups.size(); ++i) {
      EXPECT_EQ(got[i], by_id.at(lookups[i]));
    }
    ObjectId absent = static_cast<ObjectId>(rng());
    while (ids.count(absent) > 0) absent++;
    EXPECT_EQ((*resolver)->Lookup({absent}, &got).code(),
              StatusCode::kInternal);
  }
}

TEST(RectResolverTest, EmptyInputRejectsEveryId) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const JoinInput input =
      JoinInput::FromStream(MakeDataset(&td, {}, "e", &keep));
  MemoryArbiter arbiter(1 << 20, /*strict=*/true);
  auto resolver =
      RectResolver::Build(input, &td.disk, &arbiter, kUncapped, nullptr, "e");
  ASSERT_TRUE(resolver.ok()) << resolver.status().ToString();
  EXPECT_FALSE((*resolver)->external());
  std::vector<RectF> out;
  EXPECT_EQ((*resolver)->Lookup({0}, &out).code(), StatusCode::kInternal);
  EXPECT_TRUE((*resolver)->Lookup({}, &out).ok());
}

// The index counts toward the table: a strict arbiter of exactly
// RectTableBytes holds the in-memory path with usage equal to the grant,
// one byte less (or a lower cap) sends the build external, and no build
// reports usage above its grant (a strict arbiter would abort).
TEST(RectResolverTest, StrictArbiterCoversTheIndex) {
  ResolverFixture f;
  const size_t table = static_cast<size_t>(RectTableBytes(kRecords));
  EXPECT_GT(table, kRecords * sizeof(RectF));
  struct Case {
    size_t budget;
    size_t cap;
    bool external;
  };
  for (const Case& c : {Case{table, kUncapped, false},
                        Case{table - 1, kUncapped, true},
                        Case{size_t{24} << 20, table - 1, true}}) {
    for (const JoinInput& input : f.Inputs()) {
      SCOPED_TRACE("budget " + std::to_string(c.budget) + " cap " +
                   std::to_string(c.cap) +
                   (input.indexed() ? " r-tree" : " stream"));
      MemoryArbiter arbiter(c.budget, /*strict=*/true);
      auto resolver = RectResolver::Build(input, &f.td.disk, &arbiter, c.cap,
                                          nullptr, "resolver");
      ASSERT_TRUE(resolver.ok()) << resolver.status().ToString();
      EXPECT_EQ((*resolver)->external(), c.external);
      for (const MemoryComponentStats& m : arbiter.ComponentStats()) {
        if (m.component != grants::kOpRectMap) continue;
        EXPECT_LE(m.used_high_water, m.granted_high_water);
        if (!c.external) {
          EXPECT_EQ(m.granted_high_water, table);
          EXPECT_EQ(m.used_high_water, table);
        }
      }
    }
  }
}

// The external path id-sorts the relation; formation units on a private
// team report their CPU (the building thread's clock misses it), a
// serial build reports none, and both resolve the same rectangles.
TEST(RectResolverTest, ExternalBuildReportsSortWorkerCpu) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const auto rects =
      UniformRects(20000, RectF(0, 0, 100, 100), 0.5f, /*seed=*/61);
  const JoinInput input =
      JoinInput::FromStream(MakeDataset(&td, rects, "resolver.in", &keep));
  std::vector<ObjectId> ids;
  for (ObjectId id = 0; id < 20000; id += 97) ids.push_back(id);
  std::vector<RectF> expected;
  for (ObjectId id : ids) expected.push_back(rects[id]);
  for (uint32_t threads : {1u, 4u}) {
    MemoryArbiter arbiter(64 << 10);
    SortConfig sort_config;
    sort_config.threads = threads;
    auto resolver = RectResolver::Build(input, &td.disk, &arbiter, kUncapped,
                                        nullptr, "resolver", sort_config);
    ASSERT_TRUE(resolver.ok()) << resolver.status().ToString();
    ASSERT_TRUE((*resolver)->external());
    const SortStats& sort = (*resolver)->sort_stats();
    if (threads == 1) {
      EXPECT_EQ(sort.parallel_units, 0u);
      EXPECT_EQ(sort.worker_cpu_seconds, 0.0);
    } else {
      EXPECT_GT(sort.parallel_units, 1u);
      EXPECT_GT(sort.worker_cpu_seconds, 0.0);
    }
    std::vector<RectF> got;
    ASSERT_TRUE((*resolver)->Lookup(ids, &got).ok());
    EXPECT_EQ(got, expected) << "threads " << threads;
  }
}

TEST(RectResolverTest, GrantShareIsHalfTheBudgetOverTheInputs) {
  EXPECT_EQ(RectMapGrantBytes(size_t{24} << 20, 2), size_t{6} << 20);
  EXPECT_EQ(RectMapGrantBytes(size_t{256} << 10, 3), size_t{43690});
  // Below 16 KiB the external path's 2-page floor binds.
  EXPECT_EQ(RectMapGrantBytes(size_t{64} << 10, 3), 2 * kPageSize);
}

}  // namespace
}  // namespace sj
