#include "join/pq_join.h"

#include "join/st_join.h"

#include <gtest/gtest.h>

#include "core/join_query.h"
#include "datagen/synthetic.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::BruteForcePairs;
using testing_util::MakeDataset;
using testing_util::Sorted;
using testing_util::TestDisk;

class PQJoinFixture {
 public:
  RTree Build(const std::vector<RectF>& rects, uint32_t fanout,
              const std::string& name) {
    pagers_.push_back(td.NewPager("tree." + name));
    Pager* tree_pager = pagers_.back().get();
    auto scratch = td.NewPager("scratch." + name);
    const DatasetRef ref = MakeDataset(&td, rects, name, &pagers_);
    RTreeParams params;
    params.max_entries = fanout;
    auto tree = RTree::BulkLoadHilbert(tree_pager, ref.range, scratch.get(),
                                       params, 1 << 22);
    SJ_CHECK(tree.ok()) << tree.status().ToString();
    pagers_.push_back(std::move(scratch));
    return std::move(tree).value();
  }

  DatasetRef Dataset(const std::vector<RectF>& rects,
                     const std::string& name) {
    return MakeDataset(&td, rects, name, &pagers_);
  }

  /// Runs `a` x `b` as a PQ query, the path every forced or planned PQ
  /// join takes: each index traversal is pruned by the other input's
  /// extent.
  Result<JoinStats> Query(const JoinInput& a, const JoinInput& b,
                          JoinSink* sink) {
    SpatialJoiner joiner(&td.disk, JoinOptions());
    return JoinQuery(joiner)
        .Input(a)
        .Input(b)
        .Algorithm(JoinAlgorithm::kPQ)
        .Run(sink);
  }

  TestDisk td;

 private:
  std::vector<std::unique_ptr<Pager>> pagers_;
};

TEST(PQJoin, IndexIndexMatchesBruteForce) {
  PQJoinFixture f;
  const RectF region(0, 0, 400, 400);
  const auto a = UniformRects(4000, region, 2.0f, 1);
  const auto b = ClusteredRects(3500, region, 6, 20.0f, 2.0f, 2);
  RTree ta = f.Build(a, 32, "a");
  RTree tb = f.Build(b, 32, "b");
  CollectingSink sink;
  auto stats = f.Query(JoinInput::FromRTree(&ta), JoinInput::FromRTree(&tb),
                       &sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(Sorted(sink.pairs()), BruteForcePairs(a, b));

  // Unpruned, the traversals touch every node exactly once: Table 4's
  // optimal page-request count.
  RTreePQSource source_a(&ta);
  RTreePQSource source_b(&tb);
  RectF extent = ta.bounding_box();
  extent.ExtendTo(tb.bounding_box());
  CollectingSink unpruned;
  auto unpruned_stats = PQJoinSources(&source_a, &source_b, extent,
                                      &f.td.disk, JoinOptions(), &unpruned);
  ASSERT_TRUE(unpruned_stats.ok()) << unpruned_stats.status().ToString();
  EXPECT_EQ(Sorted(unpruned.pairs()), Sorted(sink.pairs()));
  EXPECT_EQ(source_a.pages_read() + source_b.pages_read(),
            ta.node_count() + tb.node_count());
}

TEST(PQJoin, IndexStreamMatchesBruteForce) {
  PQJoinFixture f;
  const RectF region(0, 0, 400, 400);
  const auto a = UniformRects(3000, region, 2.0f, 3);
  const auto b = UniformRects(2500, region, 2.0f, 4);
  RTree ta = f.Build(a, 32, "a");
  const DatasetRef db = f.Dataset(b, "b");
  CollectingSink sink;
  auto stats =
      f.Query(JoinInput::FromRTree(&ta), JoinInput::FromStream(db), &sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->algorithm, JoinAlgorithm::kPQ);
  EXPECT_EQ(Sorted(sink.pairs()), BruteForcePairs(a, b));
  // Both inputs span the region, so the extent pruning skips no node.
  EXPECT_EQ(stats->index_pages_read, ta.node_count());
}

TEST(PQJoin, QueueMemoryIsTracked) {
  PQJoinFixture f;
  const RectF region(0, 0, 1000, 1000);
  const auto a = ClusteredRects(30000, region, 20, 12.0f, 0.5f, 5);
  const auto b = ClusteredRects(30000, region, 20, 12.0f, 0.5f, 6);
  RTree ta = f.Build(a, 400, "a");
  RTree tb = f.Build(b, 400, "b");
  CountingSink sink;
  auto stats = f.Query(JoinInput::FromRTree(&ta), JoinInput::FromRTree(&tb),
                       &sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->max_queue_bytes, 0u);
  // Table 3's observation: queues are a tiny fraction of the data.
  EXPECT_LT(stats->max_queue_bytes,
            (a.size() + b.size()) * sizeof(RectF) / 4);
  EXPECT_GT(stats->max_sweep_bytes, 0u);
}

TEST(PQJoin, MoreRandomIoThanSt) {
  // PQ's defining weakness (§6.2): it reads index pages in sweep order,
  // not layout order, so a much larger share of its reads is random than
  // for ST's depth-first traversal of the same bulk-loaded trees.
  PQJoinFixture f;
  const RectF region(0, 0, 1000, 1000);
  const auto a = UniformRects(40000, region, 0.5f, 7);
  const auto b = UniformRects(40000, region, 0.5f, 8);
  RTree ta = f.Build(a, 100, "a");
  RTree tb = f.Build(b, 100, "b");

  f.td.disk.ResetStats();
  CountingSink pq_sink;
  auto pq = f.Query(JoinInput::FromRTree(&ta), JoinInput::FromRTree(&tb),
                    &pq_sink);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  const DiskStats pq_disk = pq->disk;

  f.td.disk.ResetStats();
  CountingSink st_sink;
  auto st = STJoin(ta, tb, &f.td.disk, JoinOptions(), &st_sink);
  ASSERT_TRUE(st.ok());

  // PQ issues fewer requests but a clearly larger random fraction...
  auto random_share = [](const DiskStats& d) {
    return static_cast<double>(d.random_read_requests) /
           static_cast<double>(d.read_requests);
  };
  EXPECT_GT(random_share(pq_disk), random_share(st->disk));
  // ...and in absolute modeled time its I/O is the slower of the two —
  // the estimated-vs-observed inversion of Figure 2.
  EXPECT_GT(pq_disk.io_seconds, st->disk.io_seconds);
  // With the paper's pool both trees fit, so ST touches each page at most
  // once too — PQ never touches more.
  EXPECT_LE(pq_disk.pages_read, st->disk.pages_read);
}

TEST(PQJoin, EmptySides) {
  PQJoinFixture f;
  RTree ta = f.Build(UniformRects(500, RectF(0, 0, 10, 10), 1.0f, 9), 32, "a");
  RTree tb = f.Build({}, 32, "b");
  CountingSink sink;
  auto stats = f.Query(JoinInput::FromRTree(&ta), JoinInput::FromRTree(&tb),
                       &sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->output_count, 0u);
}

TEST(PQJoin, AgreesWithIndexStreamOnSameData) {
  // The unified property: the same join through different input
  // representations yields identical results.
  PQJoinFixture f;
  const RectF region(0, 0, 300, 300);
  const auto a = UniformRects(3000, region, 1.5f, 10);
  const auto b = UniformRects(3000, region, 1.5f, 11);
  RTree ta = f.Build(a, 32, "a");
  RTree tb = f.Build(b, 32, "b");
  const DatasetRef db = f.Dataset(b, "b.stream");

  CollectingSink s1, s2;
  ASSERT_TRUE(
      f.Query(JoinInput::FromRTree(&ta), JoinInput::FromRTree(&tb), &s1).ok());
  ASSERT_TRUE(
      f.Query(JoinInput::FromRTree(&ta), JoinInput::FromStream(db), &s2).ok());
  EXPECT_EQ(Sorted(s1.pairs()), Sorted(s2.pairs()));
}

}  // namespace
}  // namespace sj
