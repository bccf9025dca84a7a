#include "join/st_join.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "join/entry_sweep.h"
#include "rtree/node.h"

namespace sj {
namespace {

class STRunner {
 public:
  STRunner(const RTree& a, const RTree& b, BufferPool* pool, uint32_t client,
           JoinSink* sink)
      : tree_a_(a), tree_b_(b), pool_(pool), client_(client), sink_(sink) {}

  Status Run() {
    if (tree_a_.meta().entry_count == 0 || tree_b_.meta().entry_count == 0) {
      return Status::OK();
    }
    if (!tree_a_.bounding_box().Intersects(tree_b_.bounding_box())) {
      return Status::OK();
    }
    return JoinNodes(tree_a_.root(), tree_a_.bounding_box(),
                     tree_b_.root(), tree_b_.bounding_box());
  }

  size_t cached_pages() const { return pool_->cached_pages(); }

 private:
  /// Loads the entries of `page` that overlap `window`, sorted by xlo.
  /// Returns the node level via `level`.
  Status LoadOverlapping(const RTree& tree, PageId page, const RectF& window,
                         std::vector<RectF>* out, uint16_t* level) {
    uint8_t buf[kPageSize];
    SJ_RETURN_IF_ERROR(pool_->Get(tree.pager(), page, buf, client_));
    const NodeView node(buf);
    *level = node.level();
    out->clear();
    out->reserve(node.count());
    for (uint32_t i = 0; i < node.count(); ++i) {
      const RectF e = node.Entry(i);
      if (e.Intersects(window)) out->push_back(e);
    }
    std::sort(out->begin(), out->end(), OrderByXLo());
    return Status::OK();
  }

  Status JoinNodes(PageId page_a, const RectF& mbr_a, PageId page_b,
                   const RectF& mbr_b) {
    const RectF window = mbr_a.IntersectionWith(mbr_b);
    std::vector<RectF> ents_a, ents_b;
    uint16_t level_a = 0, level_b = 0;
    SJ_RETURN_IF_ERROR(
        LoadOverlapping(tree_a_, page_a, window, &ents_a, &level_a));
    SJ_RETURN_IF_ERROR(
        LoadOverlapping(tree_b_, page_b, window, &ents_b, &level_b));
    if (ents_a.empty() || ents_b.empty()) return Status::OK();

    if (level_a == 0 && level_b == 0) {
      SweepEntryLists(ents_a, ents_b, [this](const RectF& a, const RectF& b) {
        sink_->Emit(a.id, b.id);
      });
      return Status::OK();
    }
    if (level_a > 0 && level_b > 0 && level_a == level_b) {
      // Same level: pair children with the sweep, recurse in sweep order
      // (which groups pairs sharing a child — the locality ST relies on).
      std::vector<std::pair<RectF, RectF>> pairs;
      SweepEntryLists(ents_a, ents_b,
                      [&pairs](const RectF& a, const RectF& b) {
                        pairs.emplace_back(a, b);
                      });
      for (const auto& [ea, eb] : pairs) {
        SJ_RETURN_IF_ERROR(JoinNodes(ea.id, ea, eb.id, eb));
      }
      return Status::OK();
    }
    if (level_a > level_b) {
      // Descend A only.
      for (const RectF& ea : ents_a) {
        if (!ea.Intersects(mbr_b)) continue;
        SJ_RETURN_IF_ERROR(JoinNodes(ea.id, ea, page_b, mbr_b));
      }
      return Status::OK();
    }
    // Descend B only.
    for (const RectF& eb : ents_b) {
      if (!eb.Intersects(mbr_a)) continue;
      SJ_RETURN_IF_ERROR(JoinNodes(page_a, mbr_a, eb.id, eb));
    }
    return Status::OK();
  }

  const RTree& tree_a_;
  const RTree& tree_b_;
  BufferPool* pool_;
  uint32_t client_;
  JoinSink* sink_;
};

constexpr size_t kMinPoolPages = 8;

}  // namespace

GrantRequest STPoolRequest(const JoinOptions& options, size_t budget_bytes) {
  if (options.shared_buffer_pool != nullptr) return GrantRequest{};
  // The budget cap never squeezes the request below the 8-frame floor;
  // an explicitly smaller options.buffer_pool_pages is still honored
  // (tests force re-reads with tiny pools).
  const size_t requested = std::min<size_t>(
      options.buffer_pool_pages * kPageSize,
      std::max(budget_bytes - std::min(budget_bytes, size_t{2} * kPageSize),
               kMinPoolPages * kPageSize));
  return GrantRequest{grants::kBufferPool, requested,
                      kMinPoolPages * kPageSize};
}

Result<JoinStats> STJoin(const RTree& a, const RTree& b, DiskModel* disk,
                         const JoinOptions& options, JoinSink* sink,
                         MemoryArbiter* arbiter) {
  const ArbiterScope scope(arbiter, options);
  // Two pool modes. Standalone: a private pool whose frames are a grant
  // (STPoolRequest). Service: the shared process-wide pool, whose frames
  // are global state outside this query's budget (the service sizes it
  // once); traffic is attributed to this query's stats client.
  std::unique_ptr<BufferPool> owned_pool;
  MemoryGrant pool_grant;
  BufferPool* pool = options.shared_buffer_pool;
  uint32_t client = options.buffer_pool_client;
  if (pool == nullptr) {
    pool_grant =
        scope->AcquireShrinkable(STPoolRequest(options, scope->budget()));
    owned_pool = std::make_unique<BufferPool>(
        std::max<size_t>(1, pool_grant.bytes() / kPageSize));
    pool = owned_pool.get();
    client = 0;
  }
  const BufferPoolStats pool_before = pool->client_stats(client);
  JoinMeasurement measurement(disk);
  const uint64_t index_reads_before =
      disk->device_stats()[a.pager()->device_id()].pages_read +
      disk->device_stats()[b.pager()->device_id()].pages_read;

  CountingSink counter;
  class TeeSink final : public JoinSink {
   public:
    TeeSink(JoinSink* out, CountingSink* count) : out_(out), count_(count) {}
    void Emit(ObjectId x, ObjectId y) override {
      out_->Emit(x, y);
      count_->Emit(x, y);
    }

   private:
    JoinSink* out_;
    CountingSink* count_;
  } tee(sink, &counter);

  STRunner runner(a, b, pool, client, &tee);
  SJ_RETURN_IF_ERROR(runner.Run());
  if (pool_grant.active()) {
    pool_grant.NoteUsage(runner.cached_pages() * kPageSize);
  }

  JoinStats stats = measurement.Finish();
  stats.output_count = counter.count();
  FillMemoryStats(*scope, &stats);
  stats.index_pages_read =
      disk->device_stats()[a.pager()->device_id()].pages_read +
      disk->device_stats()[b.pager()->device_id()].pages_read -
      index_reads_before;
  const BufferPoolStats pool_delta = pool->client_stats(client) - pool_before;
  stats.pool_requests = pool_delta.requests;
  stats.pool_hits = pool_delta.hits;
  return stats;
}

}  // namespace sj
