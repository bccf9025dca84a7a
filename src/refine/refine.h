#ifndef USJ_REFINE_REFINE_H_
#define USJ_REFINE_REFINE_H_

#include <vector>

#include "core/memory_arbiter.h"
#include "io/disk_model.h"
#include "join/join_types.h"
#include "join/multiway.h"
#include "join/predicate.h"
#include "refine/feature_store.h"
#include "util/result.h"

namespace sj {

/// Working bytes one candidate occupies in a refinement chunk over
/// `stores` inputs: every side's fetched geometry, its byte of the match
/// mask, and the fetch scratch of the one side being fetched (its
/// gathered id and FeatureStore::FetchBatch's keys; the sides fetch in
/// turn). 53 bytes for a pair.
constexpr size_t RefineBytesPerCandidate(size_t stores) {
  return stores * sizeof(Segment) + sizeof(uint8_t) + sizeof(ObjectId) +
         FeatureStore::kFetchBytesPerId;
}

/// A pairwise chunk's working set per candidate.
inline constexpr size_t kRefineBytesPerCandidate = RefineBytesPerCandidate(2);

/// Smallest chunk a squeezed "refine.batch" grant shrinks refinement to.
inline constexpr uint64_t kMinRefineChunk = 64;

/// Candidates per predicate slice, the unit the workers claim. Fixed, so
/// the work split never depends on the thread count.
inline constexpr uint64_t kRefineSliceCandidates = 4096;

/// The bytes refinement asks of an arbiter with a budget of
/// `budget_bytes`: a quarter of it.
constexpr size_t RefineGrantBytes(size_t budget_bytes) {
  return budget_bytes / 4;
}

/// The "refine.batch" grant refinement over `stores` inputs asks under a
/// `budget_bytes` budget: RefineGrantBytes, never below its floor of one
/// kMinRefineChunk chunk beside FetchBatch's fixed scratch.
GrantRequest RefineGrantRequest(size_t budget_bytes, size_t stores);

/// Candidates one chunk holds under a `grant_bytes` grant: what fits
/// beside FeatureStore::FetchBatch's fixed scratch (its page buffer) at
/// `bytes_per_candidate` each, and never fewer than kMinRefineChunk. The
/// planner prices refinement with it.
constexpr uint64_t RefineChunkCandidates(
    size_t grant_bytes, size_t bytes_per_candidate = kRefineBytesPerCandidate) {
  constexpr size_t kFixed = FeatureStore::kFetchFixedBytes;
  const uint64_t fit =
      grant_bytes > kFixed ? (grant_bytes - kFixed) / bytes_per_candidate : 0;
  return fit > kMinRefineChunk ? fit : kMinRefineChunk;
}

/// Everything measured about one refinement run. Disk counters come from
/// a DiskModel private to the run (it starts from fresh disk state, so
/// modeled I/O depends only on the run's own page requests, never on the
/// query's other I/O); host_cpu_seconds covers only predicate slices that
/// pool workers ran, as the caller's own thread is already measured.
struct RefineStats {
  /// Candidate pairs/tuples consumed (the filter step's output).
  uint64_t candidates = 0;
  /// Candidates whose exact geometries really intersect.
  uint64_t results = 0;
  /// Feature-store pages fetched across all chunks.
  uint64_t pages_read = 0;
  DiskStats disk;
  double host_cpu_seconds = 0.0;
};

/// The chunked refinement executor for two-way joins: consumes candidate
/// MBR pairs (ids into `store_a` / `store_b`), fetches both geometries a
/// chunk at a time, applies the exact form of `predicate` (segment
/// intersection by default; ε-distance and containment for the query
/// API's other predicates — see join/predicate.h), and emits surviving
/// pairs to `sink` in candidate order.
///
/// The "refine.batch" grant (RefineGrantBytes of the arbiter's budget;
/// a null `arbiter` means a fresh one over options.memory_bytes) sizes
/// one chunk (RefineChunkCandidates). Per chunk each side is fetched once
/// on the calling thread, so every feature page a chunk needs is read
/// once; the predicate then runs in fixed-size slices on
/// options.num_threads workers. Chunk boundaries depend on the budget
/// alone, so output order, pages and modeled I/O are identical for every
/// thread count and storage backend.
Result<RefineStats> RefinePairs(const std::vector<IdPair>& candidates,
                                const FeatureStore& store_a,
                                const FeatureStore& store_b,
                                const JoinOptions& options, JoinSink* sink,
                                const PredicateSpec& predicate =
                                    PredicateSpec{},
                                MemoryArbiter* arbiter = nullptr);

/// Refinement for k-way joins: a candidate tuple survives when every pair
/// of member segments intersects (the natural exact analog of the k-way
/// MBR filter; a common point of k arbitrary segments is measure-zero).
/// stores[i] resolves tuple[i]. Same chunked structure and determinism
/// guarantees as RefinePairs, at RefineBytesPerCandidate(k) per tuple.
Result<RefineStats> RefineTuples(
    const std::vector<std::vector<ObjectId>>& tuples,
    const std::vector<const FeatureStore*>& stores, const JoinOptions& options,
    TupleSink* sink, MemoryArbiter* arbiter = nullptr);

}  // namespace sj

#endif  // USJ_REFINE_REFINE_H_
