#ifndef USJ_JOIN_PARTITIONED_H_
#define USJ_JOIN_PARTITIONED_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/memory_arbiter.h"
#include "io/disk_model.h"
#include "io/pager.h"
#include "join/join_types.h"
#include "sort/sort_config.h"
#include "util/result.h"

namespace sj {

/// One work unit of a partitioned join — a PBSM partition or an SSSJ
/// strip — as its body sees it.
struct PartitionUnit {
  /// Private shard: the unit's input files and any scratch its body
  /// creates charge here, so its modeled I/O depends only on its own
  /// request sequence, never on which thread ran it or what ran
  /// alongside. Run() folds it into the caller's disk.
  std::unique_ptr<DiskModel> disk;
  /// Private serial-equivalent memory scope: the unit runs with the
  /// whole unit budget, as if alone on the paper's machine, and its
  /// peaks fold into the caller's arbiter as a max.
  std::unique_ptr<MemoryArbiter> memory;
  /// One range per input, on `disk`: the records routed here, in input
  /// order (so a y-sorted input yields y-sorted ranges).
  std::vector<StreamRange> inputs;

  /// Set by the body; Run() folds them in unit order.
  uint64_t output = 0;    ///< Results the unit reported.
  size_t max_bytes = 0;   ///< Peak in-memory sweep state.
  uint32_t sweep_strips = 0;  ///< Strips of the unit's Striped-Sweep.
  bool strips_collapsed = false;
  bool overflowed = false;  ///< Its load was denied, so it sorted.
  SortStats sort_stats;

  /// Bytes of the unit's routed records over all inputs.
  size_t input_bytes() const;
};

/// The units' statistics, folded in unit order.
struct PartitionedTotals {
  uint32_t units = 0;
  uint64_t output = 0;
  size_t max_bytes = 0;
  uint32_t sweep_strips = 0;
  bool strips_collapsed = false;
  uint32_t overflowed = 0;
  size_t max_input_bytes = 0;
  SortStats sort_stats;
  /// CPU of units that ran off the calling thread; the caller's own
  /// measurement already covers the units it ran itself.
  double worker_cpu_seconds = 0.0;

  /// Adds the worker CPU to `stats` (the caller's finished measurement,
  /// whose disk delta already holds the folded shards) and sets the
  /// fields every partitioned pair join reports, overflows included.
  void AddTo(JoinStats* stats) const;
};

/// The serial-equivalent protocol both partition-based join paths run:
/// PBSM's partitions (§3.2) and SSSJ's single-dimension strip fallback
/// (§3.1). Every unit runs one body, SweepUnit. A path supplies only
/// what differs: its route, its file names, its writer blocks, and for
/// each unit the sweep extent, the sweep structure and the
/// reference-point test.
///
/// Distribute() writes the inputs, one after another, into one file per
/// input and unit on the caller's disk, replicating each record into
/// every unit the route lists, then re-homes each unit's files onto the
/// unit's private DiskModel shard. Run() runs the body once per unit
/// through ParallelFor and merges in unit order: buffered output replays
/// into the caller's sink, each shard's counters fold into the caller's
/// disk (DiskModel::Absorb), and child arbiters and sort statistics
/// fold. Output, modeled I/O and memory statistics are therefore
/// identical for every num_threads, and a measurement around the whole
/// join on the caller's disk covers every unit's I/O.
///
/// Every error unwinds one way: the writers still open are abandoned
/// (buffered records dropped, so their destructor check passes), every
/// file is released and the first failure returns — the lowest unit's
/// when bodies fail.
class PartitionedJoin {
 public:
  /// Appends the units record `r` goes to (`out` is cleared first).
  using Route =
      std::function<void(const RectF& r, std::vector<uint32_t>* out)>;
  /// Name of input `input`'s file for unit `unit`.
  using FileName = std::function<std::string(size_t input, uint32_t unit)>;

  /// Distributes `inputs` into `units` units. Each writer flushes in
  /// `block_pages`-page blocks; the caller grants them (see
  /// WriterBlocks). Files come from `storage` (null: memory) and
  /// the distribution I/O charges `disk`.
  static Result<PartitionedJoin> Distribute(
      const std::vector<StreamRange>& inputs, uint32_t units,
      const Route& route, const FileName& file_name, uint32_t block_pages,
      StorageFactory* storage, DiskModel* disk);

  /// A unit's body: SweepUnit over unit `i`, reporting to `out`.
  using Body =
      std::function<Status(uint64_t i, PartitionUnit& unit, JoinSink* out)>;

  /// Runs `body` for every unit on the options' workers. `out` is `sink`
  /// itself when ParallelFor runs every unit inline, in order, on this
  /// thread; otherwise it is the unit's own CollectingSink, replayed into
  /// `sink` in unit order after all units finish. Each unit gets a
  /// private arbiter over `unit_budget`, folded into `arbiter`.
  Result<PartitionedTotals> Run(const JoinOptions& options,
                                MemoryArbiter* arbiter, size_t unit_budget,
                                JoinSink* sink, const Body& body);

 private:
  PartitionedTotals Merge(MemoryArbiter* arbiter) const;

  /// The caller's disk: distribution charges it, and Merge() folds the
  /// units' shards into it.
  DiskModel* disk_ = nullptr;
  std::vector<PartitionUnit> units_;
  /// Per unit: the pagers of its `inputs`, and its thread CPU when it
  /// ran off the calling thread.
  std::vector<std::vector<std::unique_ptr<Pager>>> files_;
  std::vector<double> cpu_seconds_;
};

/// The flush blocks of `writers` distribution writers (every input's,
/// though Distribute() opens one input's at a time), at most
/// `max_block_pages` pages each, drawn from one `component` grant.
struct WriterBlocks {
  const char* component;
  size_t writers;
  uint32_t max_block_pages;

  /// The grant from a `budget_bytes` arbiter: every block, shrinkable to
  /// one page per writer. That floor is capped at the budget: with
  /// enormous unit counts even it is irreducible over-use, which then
  /// shows up as usage above the grant, not as a granted peak above it.
  GrantRequest Request(size_t budget_bytes) const;

  /// Acquires Request() into `*grant`, held until distribution ends, and
  /// returns the pages per block: `max_block_pages` when the arbiter
  /// covers them all, fewer (smaller flushes, never over budget) if not.
  uint32_t Grant(MemoryArbiter* arbiter, MemoryGrant* grant) const;
};

/// A unit's reference-point test: true when the unit owns pair (a, b),
/// so that a pair replicated into several units is reported once.
using OwnsPair = std::function<bool(const RectF& a, const RectF& b)>;

/// The one body of every partitioned unit, PBSM's partitions and SSSJ's
/// strips alike. It loads the unit's pair under a `pbsm.partition` grant
/// of the pair's bytes and std::sorts it. When that grant is denied the
/// unit overflows: each side is external-sorted into one scratch pager
/// named `overflow_name` under SSSJGrantRequests' sort request, and the
/// sweep takes that function's square-root grant. Either way one
/// `structure` sweep over `extent`, at SweepStrips strips of the unit's
/// records, reports to `out` the pairs `owns` accepts, and the unit's
/// fields record what it did.
Status SweepUnit(const JoinOptions& options, const RectF& extent,
                 SweepStructureKind structure, const OwnsPair& owns,
                 const std::string& overflow_name, PartitionUnit& unit,
                 JoinSink* out);

/// Explain's replay of the units of a partitioned plan over `records`
/// records in `units` units, each on a `unit_budget` arbiter folded into
/// `arbiter`. When the average pair fits the unit budget, a unit replays
/// its load at that cap (a run's load follows its pair). Otherwise it
/// replays SweepUnit's sorts (its sweep follows its data).
void PlanUnits(const JoinOptions& options, uint64_t records, uint32_t units,
               size_t unit_budget, MemoryArbiter* arbiter);

/// Sort settings for a sort inside a unit: units are the parallel grain,
/// so their sorts stay single-threaded (nested run-formation fan-out
/// would only contend for the same workers) but keep the other knobs.
SortConfig UnitSortConfig(const JoinOptions& options);

}  // namespace sj

#endif  // USJ_JOIN_PARTITIONED_H_
