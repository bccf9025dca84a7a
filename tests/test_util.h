#ifndef USJ_TESTS_TEST_UTIL_H_
#define USJ_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/memory_arbiter.h"
#include "geometry/rect.h"
#include "geometry/segment.h"
#include "io/disk_model.h"
#include "io/pager.h"
#include "io/stream.h"
#include "join/join_types.h"
#include "sort/external_sort.h"

namespace sj {
namespace testing_util {

/// A DiskModel + pager bundle for tests (Machine 3 by default: fastest,
/// so modeled times are small but nonzero).
struct TestDisk {
  TestDisk() : disk(MachineModel::Machine3()) {}
  explicit TestDisk(MachineModel m) : disk(std::move(m)) {}

  std::unique_ptr<Pager> NewPager(const std::string& name) {
    return MakeMemoryPager(&disk, name);
  }

  DiskModel disk;
};

/// A memory-held file whose writes or reads start failing on demand: it
/// drives the error paths of every writer and reader above the storage
/// layer. It does not read in place, so its ViewPage is the default one
/// and fails with its ReadPage.
class FailingBackend final : public StorageBackend {
 public:
  Status ReadPage(uint64_t page, void* buf) override {
    if (fail_reads) return Status::IoError("injected read failure");
    return inner_.ReadPage(page, buf);
  }
  Status WritePage(uint64_t page, const void* buf) override {
    if (fail_writes) return Status::IoError("injected write failure");
    return inner_.WritePage(page, buf);
  }
  uint64_t PageCount() const override { return inner_.PageCount(); }

  bool fail_writes = false;
  bool fail_reads = false;

 private:
  MemoryBackend inner_;
};

/// Writes rects as a stream on a fresh pager and returns the DatasetRef.
DatasetRef MakeDataset(TestDisk* td, const std::vector<RectF>& rects,
                       const std::string& name,
                       std::vector<std::unique_ptr<Pager>>* keepalive);

/// All intersecting cross pairs by brute force, sorted.
std::vector<IdPair> BruteForcePairs(const std::vector<RectF>& a,
                                    const std::vector<RectF>& b);

/// The filter-and-refine reference oracle: pairs whose MBRs *and* exact
/// segments (ga[i] is the geometry of a[i]) intersect, sorted.
std::vector<IdPair> BruteForceExactPairs(const std::vector<RectF>& a,
                                         const std::vector<RectF>& b,
                                         const std::vector<Segment>& ga,
                                         const std::vector<Segment>& gb);

/// A sink whose first Emit blocks until the test releases it — the lever
/// for holding a query "running" (budget occupied) while others queue.
class BlockingSink final : public JoinSink {
 public:
  void Emit(ObjectId, ObjectId) override {
    if (!released_.load(std::memory_order_acquire)) {
      std::unique_lock<std::mutex> lock(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_.load(); });
    }
    ++count_;
  }

  /// Blocks the test until the query is inside Emit (budget held).
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
  }

  uint64_t count() const { return count_; }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  std::atomic<bool> released_{false};
  uint64_t count_ = 0;
};

/// Sorts a pair list (for order-insensitive comparison).
inline std::vector<IdPair> Sorted(std::vector<IdPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// Explain's memory plan against a run's grants: every planned line
/// equals the run's granted high-water mark for its component, and the
/// run is granted no component the plan leaves out. `exempt` components
/// are skipped on both sides: their grants follow data the plan has not
/// read.
void ExpectPlanIsRunGrants(const MemoryPlan& plan,
                           const std::vector<MemoryComponentStats>& run,
                           const std::vector<std::string>& exempt = {});

/// The lines of a pairwise join's unit path (PBSM, or SSSJ's strip
/// fallback) that Explain's `plan` did not replay, by what the run did
/// (PlanUnits): a loaded unit's `pbsm.partition`; where a unit sorted,
/// its `sweep`, and its `sort.runs` too when the plan replayed the load.
std::vector<std::string> DataDependentGrants(const JoinStats& stats,
                                             const MemoryPlan& plan);

}  // namespace testing_util
}  // namespace sj

#endif  // USJ_TESTS_TEST_UTIL_H_
