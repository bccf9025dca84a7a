#include "test_util.h"

#include <gtest/gtest.h>

#include "geometry/extent.h"

namespace sj {
namespace testing_util {

DatasetRef MakeDataset(TestDisk* td, const std::vector<RectF>& rects,
                       const std::string& name,
                       std::vector<std::unique_ptr<Pager>>* keepalive) {
  auto pager = td->NewPager(name);
  StreamWriter<RectF> writer(pager.get());
  const PageId first = writer.first_page();
  for (const RectF& r : rects) writer.Append(r);
  auto n = writer.Finish();
  DatasetRef ref;
  ref.range = StreamRange{pager.get(), first, n.value()};
  ref.extent = ComputeExtent(rects);
  keepalive->push_back(std::move(pager));
  return ref;
}

std::vector<IdPair> BruteForcePairs(const std::vector<RectF>& a,
                                    const std::vector<RectF>& b) {
  std::vector<IdPair> out;
  for (const RectF& ra : a) {
    for (const RectF& rb : b) {
      if (ra.Intersects(rb)) out.push_back({ra.id, rb.id});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<IdPair> BruteForceExactPairs(const std::vector<RectF>& a,
                                         const std::vector<RectF>& b,
                                         const std::vector<Segment>& ga,
                                         const std::vector<Segment>& gb) {
  std::vector<IdPair> out;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      if (a[i].Intersects(b[j]) && SegmentsIntersect(ga[i], gb[j])) {
        out.push_back({a[i].id, b[j].id});
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectPlanIsRunGrants(const MemoryPlan& plan,
                           const std::vector<MemoryComponentStats>& run,
                           const std::vector<std::string>& exempt) {
  auto exempted = [&](const std::string& component) {
    return std::find(exempt.begin(), exempt.end(), component) != exempt.end();
  };
  std::vector<std::string> planned, granted;
  for (const MemoryGrantSpec& g : plan.grants) {
    if (!exempted(g.component)) planned.push_back(g.component);
  }
  for (const MemoryComponentStats& m : run) {
    if (exempted(m.component)) continue;
    granted.push_back(m.component);
    EXPECT_EQ(plan.GrantFor(m.component), m.granted_high_water)
        << m.component << " in " << plan.Describe();
  }
  std::sort(planned.begin(), planned.end());
  EXPECT_EQ(planned, granted) << plan.Describe();
}

std::vector<std::string> DataDependentGrants(const JoinStats& stats) {
  std::vector<std::string> exempt;
  if (stats.algorithm == JoinAlgorithm::kPBSM) {
    exempt.push_back(grants::kPbsmPartition);
    if (stats.partitions_overflowed > 0) {
      exempt.push_back(grants::kSortRuns);
      exempt.push_back(grants::kSweep);
    }
  } else if (stats.algorithm == JoinAlgorithm::kSSSJ &&
             stats.partitions_total > 0) {
    exempt.push_back(grants::kSweep);
  }
  return exempt;
}

}  // namespace testing_util
}  // namespace sj
