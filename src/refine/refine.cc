#include "refine/refine.h"

#include <algorithm>
#include <functional>
#include <string>
#include <thread>

#include "join/predicate_batch.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sj {
namespace {

/// What RefinePairs and RefineTuples share: the "refine.batch" grant that
/// sizes a chunk, the DiskModel private to the run (one device per
/// store), the per-chunk fetches on the calling thread and the
/// slice-parallel predicate evaluation.
class ChunkedRefinement {
 public:
  ChunkedRefinement(std::vector<const FeatureStore*> stores,
                    const JoinOptions& options, MemoryArbiter* arbiter,
                    uint64_t candidates)
      : stores_(std::move(stores)),
        options_(options),
        scope_(arbiter, options),
        disk_(stores_[0]->pager()->disk()->machine()) {
    for (size_t k = 0; k < stores_.size(); ++k) {
      devices_.push_back(disk_.RegisterDevice("refine." + std::to_string(k)));
    }
    const size_t per_candidate = RefineBytesPerCandidate(stores_.size());
    grant_ = scope_->AcquireShrinkable(
        RefineGrantRequest(scope_->budget(), stores_.size()));
    chunk_ = std::min(candidates,
                      RefineChunkCandidates(grant_.bytes(), per_candidate));
    grant_.NoteUsage(FeatureStore::kFetchFixedBytes + chunk_ * per_candidate);
  }

  /// Candidates per chunk (the last chunk may hold fewer).
  uint64_t chunk() const { return chunk_; }

  /// Replaces `geom` with the geometry of input `side` for `rows`
  /// candidates, the i-th of which has id `id_of(i)`.
  template <typename IdOf>
  Status Fetch(size_t side, uint64_t rows, IdOf id_of,
               std::vector<Segment>* geom) {
    ids_.clear();
    for (uint64_t i = 0; i < rows; ++i) ids_.push_back(id_of(i));
    geom->clear();
    SJ_ASSIGN_OR_RETURN(uint64_t pages,
                        stores_[side]->FetchBatch(ids_, geom, &disk_,
                                                  devices_[side]));
    pages_read_ += pages;
    return Status::OK();
  }

  /// Runs `eval(first, count)` over [0, rows) in kRefineSliceCandidates
  /// slices on the options' workers.
  Status Evaluate(uint64_t rows,
                  const std::function<void(uint64_t, uint64_t)>& eval) {
    const uint64_t slices =
        (rows + kRefineSliceCandidates - 1) / kRefineSliceCandidates;
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<double> cpu(slices, 0.0);
    SJ_RETURN_IF_ERROR(ParallelFor(
        options_.worker_pool, options_.num_threads, slices,
        [&](uint64_t s) -> Status {
          ThreadCpuTimer timer;
          const uint64_t first = s * kRefineSliceCandidates;
          eval(first, std::min(kRefineSliceCandidates, rows - first));
          // Slices on the calling thread are already on its caller's clock.
          if (std::this_thread::get_id() != caller) cpu[s] = timer.Elapsed();
          return Status::OK();
        }));
    for (const double c : cpu) worker_cpu_seconds_ += c;
    return Status::OK();
  }

  RefineStats Finish(uint64_t candidates, uint64_t results) const {
    RefineStats stats;
    stats.candidates = candidates;
    stats.results = results;
    stats.pages_read = pages_read_;
    stats.disk = disk_.stats();
    stats.host_cpu_seconds = worker_cpu_seconds_;
    return stats;
  }

 private:
  const std::vector<const FeatureStore*> stores_;
  const JoinOptions& options_;
  const ArbiterScope scope_;
  DiskModel disk_;
  std::vector<uint32_t> devices_;
  MemoryGrant grant_;
  uint64_t chunk_ = 0;
  std::vector<ObjectId> ids_;
  uint64_t pages_read_ = 0;
  double worker_cpu_seconds_ = 0.0;
};

}  // namespace

GrantRequest RefineGrantRequest(size_t budget_bytes, size_t stores) {
  const size_t floor = FeatureStore::kFetchFixedBytes +
                       kMinRefineChunk * RefineBytesPerCandidate(stores);
  return GrantRequest{grants::kRefineBatch,
                      std::max(RefineGrantBytes(budget_bytes), floor), floor};
}

Result<RefineStats> RefinePairs(const std::vector<IdPair>& candidates,
                                const FeatureStore& store_a,
                                const FeatureStore& store_b,
                                const JoinOptions& options, JoinSink* sink,
                                const PredicateSpec& predicate,
                                MemoryArbiter* arbiter) {
  const uint64_t n = candidates.size();
  if (n == 0) return RefineStats{};
  ChunkedRefinement run({&store_a, &store_b}, options, arbiter, n);
  std::vector<Segment> geom_a, geom_b;
  std::vector<uint8_t> match;
  uint64_t results = 0;
  for (uint64_t lo = 0; lo < n; lo += run.chunk()) {
    const IdPair* chunk = candidates.data() + lo;
    const uint64_t rows = std::min(run.chunk(), n - lo);
    SJ_RETURN_IF_ERROR(
        run.Fetch(0, rows, [chunk](uint64_t i) { return chunk[i].a; },
                  &geom_a));
    SJ_RETURN_IF_ERROR(
        run.Fetch(1, rows, [chunk](uint64_t i) { return chunk[i].b; },
                  &geom_b));
    // Whole-slice predicate evaluation (join/predicate_batch.h): flat
    // passes compute the match mask, then emission replays it in
    // candidate order.
    match.resize(rows);
    SJ_RETURN_IF_ERROR(run.Evaluate(rows, [&](uint64_t first, uint64_t count) {
      EvaluateExactPredicateBatch(predicate, geom_a.data() + first,
                                  geom_b.data() + first, count,
                                  match.data() + first);
    }));
    for (uint64_t i = 0; i < rows; ++i) {
      if (match[i]) {
        sink->Emit(chunk[i].a, chunk[i].b);
        results++;
      }
    }
  }
  return run.Finish(n, results);
}

Result<RefineStats> RefineTuples(
    const std::vector<std::vector<ObjectId>>& tuples,
    const std::vector<const FeatureStore*>& stores, const JoinOptions& options,
    TupleSink* sink, MemoryArbiter* arbiter) {
  const size_t k = stores.size();
  if (k < 2) {
    return Status::InvalidArgument("tuple refinement needs at least 2 stores");
  }
  for (const FeatureStore* store : stores) {
    if (store == nullptr) {
      return Status::InvalidArgument("tuple refinement: missing store");
    }
  }
  const uint64_t n = tuples.size();
  if (n == 0) return RefineStats{};
  ChunkedRefinement run(stores, options, arbiter, n);
  std::vector<std::vector<Segment>> geom(k);
  std::vector<uint8_t> alive;
  uint64_t results = 0;
  for (uint64_t lo = 0; lo < n; lo += run.chunk()) {
    const std::vector<ObjectId>* chunk = tuples.data() + lo;
    const uint64_t rows = std::min(run.chunk(), n - lo);
    // Validate the whole chunk before any fetch is modeled.
    for (uint64_t t = 0; t < rows; ++t) {
      if (chunk[t].size() != k) {
        return Status::InvalidArgument(
            "tuple arity does not match store count");
      }
    }
    // Column-at-a-time gather: one fetch per input store.
    for (size_t input = 0; input < k; ++input) {
      SJ_RETURN_IF_ERROR(run.Fetch(
          input, rows, [chunk, input](uint64_t t) { return chunk[t][input]; },
          &geom[input]));
    }
    // Each (x, y) input pair runs one flat pass whose mask is ANDed into
    // the slice's alive bytes. The predicates are pure, so testing every
    // pair without a short-circuit cannot change which tuples survive.
    alive.resize(rows);
    SJ_RETURN_IF_ERROR(run.Evaluate(rows, [&](uint64_t first, uint64_t count) {
      uint8_t pair_mask[kRefineSliceCandidates];
      uint8_t* out = alive.data() + first;
      std::fill(out, out + count, uint8_t{1});
      for (size_t x = 0; x < k; ++x) {
        for (size_t y = x + 1; y < k; ++y) {
          BatchSegmentsIntersect(geom[x].data() + first,
                                 geom[y].data() + first, count, pair_mask);
          for (uint64_t row = 0; row < count; ++row) out[row] &= pair_mask[row];
        }
      }
    }));
    for (uint64_t t = 0; t < rows; ++t) {
      if (alive[t]) {
        sink->Emit(chunk[t]);
        results++;
      }
    }
  }
  return run.Finish(n, results);
}

}  // namespace sj
