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
  // RectF::Intersects over b's coordinates as parallel arrays, into one
  // hit byte per record, which the compiler vectorizes.
  const size_t n = b.size();
  std::vector<float> xlo(n), ylo(n), xhi(n), yhi(n);
  for (size_t j = 0; j < n; ++j) {
    xlo[j] = b[j].xlo;
    ylo[j] = b[j].ylo;
    xhi[j] = b[j].xhi;
    yhi[j] = b[j].yhi;
  }
  std::vector<uint8_t> hit(n);
  std::vector<IdPair> out;
  for (const RectF& ra : a) {
    for (size_t j = 0; j < n; ++j) {
      hit[j] = (ra.xlo <= xhi[j]) & (xlo[j] <= ra.xhi) & (ra.ylo <= yhi[j]) &
               (ylo[j] <= ra.yhi);
    }
    for (size_t j = 0; j < n; ++j) {
      if (hit[j]) out.push_back({ra.id, b[j].id});
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

std::vector<std::string> DataDependentGrants(const JoinStats& stats,
                                             const MemoryPlan& plan) {
  std::vector<std::string> exempt;
  const bool strips =
      stats.algorithm == JoinAlgorithm::kSSSJ && stats.partitions_total > 0;
  if (stats.algorithm != JoinAlgorithm::kPBSM && !strips) return exempt;
  exempt.push_back(grants::kPbsmPartition);
  if (stats.partitions_overflowed > 0) {
    // Explain replays no unit's sweep, and a unit's sorts only where it
    // replayed no load.
    exempt.push_back(grants::kSweep);
    if (plan.GrantFor(grants::kPbsmPartition) > 0) {
      exempt.push_back(grants::kSortRuns);
    }
  }
  return exempt;
}

}  // namespace testing_util
}  // namespace sj
