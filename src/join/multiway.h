#ifndef USJ_JOIN_MULTIWAY_H_
#define USJ_JOIN_MULTIWAY_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/disk_model.h"
#include "join/join_types.h"
#include "join/sources.h"
#include "util/result.h"

namespace sj {

/// Consumer of k-way join results; `tuple[i]` is an object id from input i.
class TupleSink {
 public:
  virtual ~TupleSink() = default;
  virtual void Emit(const std::vector<ObjectId>& tuple) = 0;
};

class CountingTupleSink final : public TupleSink {
 public:
  void Emit(const std::vector<ObjectId>&) override { count_++; }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

class CollectingTupleSink final : public TupleSink {
 public:
  void Emit(const std::vector<ObjectId>& tuple) override {
    tuples_.push_back(tuple);
  }
  const std::vector<std::vector<ObjectId>>& tuples() const { return tuples_; }

 private:
  std::vector<std::vector<ObjectId>> tuples_;
};

/// A lazily-evaluated two-way PQ join exposed as a sorted source: yields
/// the intersection rectangle of every result pair, in nondecreasing ylo
/// order (a pair is discovered exactly when the sweep reaches the larger
/// of the two ylo values, so the output order is free). The id of an
/// emitted rectangle indexes pairs().
///
/// This is what makes the paper's multi-way extension (§4) one-line: the
/// output of a join is itself a valid PQ input.
class PairSourceBase : public SortedRectSource {
 public:
  virtual const std::vector<IdPair>& pairs() const = 0;
};

/// Creates a pair source over two sorted inputs (which must outlive it).
std::unique_ptr<PairSourceBase> MakePairSource(SortedRectSource* a,
                                               SortedRectSource* b,
                                               SweepStructureKind kind,
                                               const RectF& extent,
                                               uint32_t strips);

/// Measurements of a k-way join.
struct MultiwayStats {
  uint64_t output_count = 0;
  double host_cpu_seconds = 0.0;
  DiskStats disk;
  /// Max bytes across sources (incl. intermediate pair tables).
  size_t max_bytes = 0;
  /// Filter-and-refine split (see JoinStats): MBR tuples before
  /// refinement, and feature-store pages the refinement step fetched.
  uint64_t candidate_count = 0;
  uint64_t refine_pages_read = 0;
  /// Memory governance (see JoinStats): the arbiter's granted peak and
  /// per-component high-water marks for the whole k-way pipeline.
  size_t peak_memory_bytes = 0;
  std::vector<MemoryComponentStats> memory_components;

  /// One human-readable line of the machine-independent counters.
  std::string Describe() const;
  /// Describe() plus the modeled time under machine `m`, and the
  /// measured I/O wall when real bytes moved.
  std::string Describe(const MachineModel& m) const;
  /// Structured form, same convention as JoinStats::ToKeyValues().
  std::vector<std::pair<std::string, std::string>> ToKeyValues() const;
};

/// Streams Describe() — the machine-independent form.
std::ostream& operator<<(std::ostream& os, const MultiwayStats& stats);

/// k-way intersection join (k >= 2): reports every k-tuple of objects, one
/// per input, whose MBRs have a common intersection point. Evaluated as a
/// left-deep chain of lazy PQ sweeps, each feeding the next (§4); no
/// intermediate result is materialized on disk. The chain is the k-way
/// join's one plan and runs on the calling thread, so its output order
/// and modeled I/O do not depend on options.num_threads. Fills
/// output_count and max_bytes; the caller measures I/O and CPU, because
/// it also prepares the sources (ExecuteMultiwayFilter sorts stream
/// inputs first).
Result<MultiwayStats> MultiwayJoinSources(
    const std::vector<SortedRectSource*>& inputs, const RectF& extent,
    const JoinOptions& options, TupleSink* sink);

}  // namespace sj

#endif  // USJ_JOIN_MULTIWAY_H_
