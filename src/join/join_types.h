#ifndef USJ_JOIN_JOIN_TYPES_H_
#define USJ_JOIN_JOIN_TYPES_H_

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/memory_arbiter.h"
#include "geometry/rect.h"
#include "io/buffer_pool.h"
#include "io/disk_model.h"
#include "io/prefetch.h"
#include "io/stream.h"
#include "sort/external_sort.h"
#include "sweep/interval_structures.h"
#include "util/timer.h"

namespace sj {

class ThreadPool;

/// Which algorithm executes a join.
enum class JoinAlgorithm {
  kAuto,  ///< Let the planner decide from the cost model.
  kSSSJ,
  kPBSM,
  kST,
  kPQ,
};

const char* ToString(JoinAlgorithm algo);

/// A non-indexed input relation: a stream of MBR records plus its spatial
/// extent. If `extent` is invalid (RectF::Empty()), algorithms that need
/// it compute it with an extra scan.
struct DatasetRef {
  StreamRange range;
  RectF extent = RectF::Empty();
  uint64_t count() const { return range.count; }
};

/// Knobs shared by all join algorithms (paper defaults).
struct JoinOptions {
  /// Internal memory available to an algorithm (the paper's machines had
  /// 24 MB free; ST gives 22 MB of it to the buffer pool). This is the
  /// per-query budget the MemoryArbiter carves into component grants
  /// (core/memory_arbiter.h); the query layer rejects budgets below
  /// kMinMemoryBytes (64 KiB) with FailedPrecondition, and direct
  /// algorithm calls clamp up to that floor.
  size_t memory_bytes = 24u << 20;
  /// Debug aid: a strict MemoryArbiter aborts (SJ_CHECK) when a component
  /// reports usage above its grant — ungoverned allocation — instead of
  /// just recording the overshoot in the high-water marks.
  bool strict_memory_accounting = false;
  /// LRU pool capacity for ST, in pages (22 MB of 8 KB pages).
  size_t buffer_pool_pages = BufferPool::kPaperCapacityPages;
  /// Interval structure for the streaming sweeps (SSSJ, PQ). The paper
  /// uses Striped-Sweep here.
  SweepStructureKind stream_sweep = SweepStructureKind::kStriped;
  /// Interval structure for PBSM's per-partition sweeps. The paper follows
  /// Patel & DeWitt and uses Forward-Sweep.
  SweepStructureKind partition_sweep = SweepStructureKind::kForward;
  /// Most strips a Striped-Sweep may use. SSSJ's sweeps and PBSM's
  /// Striped partition sweeps use SweepStrips(N, striped_strips) =
  /// ceil(2 sqrt(N)) strips for their N records, so only sweeps over
  /// 262,144 records or more reach the default cap; PQ and the k-way
  /// chain use striped_strips itself.
  uint32_t striped_strips = 1024;
  /// PBSM tile grid for *fixed-grid* partitioning (the paper raised Patel
  /// & DeWitt's 32x32 to 128x128 to avoid overfull partitions). Ignored
  /// when adaptive_partitioning is on — the PartitionPlanner sizes the
  /// grid from the data instead.
  uint32_t pbsm_tiles_per_axis = 128;
  /// Skew-adaptive PBSM partitioning (src/join/partition_plan.h): size
  /// the tile grid from a spatial histogram (built on the fly from an
  /// extra scan when the query attaches none), split overfull tiles
  /// recursively, and assign tiles to partitions by weighted greedy
  /// bin-packing — so clustered data lands in balanced partitions and
  /// the external-sort overflow fallback becomes a last resort. Off =
  /// the paper's fixed pbsm_tiles_per_axis grid with round-robin
  /// assignment.
  bool adaptive_partitioning = true;
  /// SSSJ ablation: when true the merge phase of the final sort feeds the
  /// sweep directly instead of materializing the sorted stream, saving one
  /// write and one read pass over each input. Fusion happens only when
  /// neither input arrives sorted and each input's runs fit one merge;
  /// otherwise the join materializes its sorts. Sorted and resident
  /// inputs never fuse (they are not sorted at all).
  bool fuse_merge_sweep = false;
  /// Worker threads for the parallel phases (PBSM partition pairs, SSSJ
  /// strips, external-sort run formation). 1 = serial.
  /// Each parallel unit runs against a private DiskModel shard and a
  /// private sink that are merged in unit order afterwards, so output
  /// pairs and modeled I/O stats are identical for every value of this
  /// knob.
  uint32_t num_threads = 1;
  /// Filter-and-refine pipeline: when true, pairwise and k-way queries
  /// treat the MBR join as the filter step, resolve every candidate
  /// against the inputs' FeatureStores (JoinInput::WithFeatures) and emit
  /// only pairs/tuples whose exact geometries intersect.
  bool refine = false;
  /// Shared worker pool (service mode). When set, the parallel phases
  /// submit their work as task groups to this pool — up to num_threads
  /// runners each — instead of spawning a private team, so concurrent
  /// queries interleave fairly on one fixed set of threads. Null = the
  /// standalone behaviour (private per-call pools). Not owned.
  ThreadPool* worker_pool = nullptr;
  /// Shared page cache (service mode). When set, ST serves its R-tree
  /// reads through this process-wide pool (attributed under
  /// buffer_pool_client) instead of building a private pool sized by a
  /// "buffer.pool" grant. Null = the standalone behaviour. Not owned.
  BufferPool* shared_buffer_pool = nullptr;
  /// Stats client id in shared_buffer_pool (from RegisterClient) that
  /// this query's pool traffic is attributed to.
  uint32_t buffer_pool_client = 0;
  /// Storage choice for every scratch/spill file the query creates (sort
  /// runs, PBSM partition files, spill streams, expanded inputs). Null =
  /// MemoryBackend, the simulation default. Shared because a service
  /// injects one factory into many queries; implementations must be
  /// thread-safe. Results and modeled I/O are identical on any backend —
  /// only io_wall_seconds changes.
  std::shared_ptr<StorageFactory> storage;
};

/// The benchmark driver's empty PrefetchContext (see io/prefetch.h).
inline PrefetchContext PrefetchContextOf(const JoinOptions&) {
  return PrefetchContext();
}

/// The SortConfig a query's options describe (threaded through to every
/// external-sort instantiation).
inline SortConfig SortConfigOf(const JoinOptions& options) {
  SortConfig config;
  config.threads = std::max<uint32_t>(1, options.num_threads);
  config.pool = options.worker_pool;
  return config;
}

/// Everything measured about one join execution.
///
/// I/O counters are deltas of the experiment's DiskModel (plus, for
/// parallel runs, the summed per-worker shards), so they cover exactly
/// the algorithm's own work. CPU is host CPU time — the driving thread
/// plus any pool workers; the MachineModel's slowdown converts it to
/// modeled 1999-hardware seconds.
struct JoinStats {
  /// The filter algorithm that ran: the compiled plan's, which is always
  /// the one Explain() reports for the query. kAuto only in stats from a
  /// direct algorithm call, which has no plan.
  JoinAlgorithm algorithm = JoinAlgorithm::kAuto;
  uint64_t output_count = 0;
  double host_cpu_seconds = 0.0;
  DiskStats disk;
  /// Pages read from the index devices (Table 4's "page requests"; for ST
  /// these are buffer-pool misses, PQ has no pool).
  uint64_t index_pages_read = 0;
  /// ST buffer-pool behaviour.
  uint64_t pool_requests = 0;
  uint64_t pool_hits = 0;
  /// Maxima of the in-memory data structures (Table 3).
  size_t max_sweep_bytes = 0;
  size_t max_queue_bytes = 0;
  /// Partitioned units, PBSM's partitions or SSSJ's strips: how many
  /// ran, how many overflowed their load grant and sorted, and the
  /// largest unit's records in bytes (PBSM's feed paper_repro's §3.2
  /// tile-count rows).
  uint32_t partitions_total = 0;
  uint32_t partitions_overflowed = 0;
  size_t max_partition_bytes = 0;
  /// The partition map PBSM actually used: base grid shape, leaves after
  /// recursive splits (== the base tile count for fixed grids), split
  /// base tiles (0 for fixed), and whether the adaptive planner ran.
  uint32_t pbsm_tiles_x = 0;
  uint32_t pbsm_tiles_y = 0;
  uint32_t pbsm_leaf_tiles = 0;
  uint32_t pbsm_split_tiles = 0;
  bool pbsm_adaptive = false;
  /// Memory governance (core/memory_arbiter.h): high-water mark of the
  /// arbiter's concurrently granted bytes — the serial-equivalent peak
  /// footprint, identical for every thread count — plus the
  /// per-component granted/used high-water marks. peak_memory_bytes
  /// never exceeds the (floor-clamped) options.memory_bytes budget.
  size_t peak_memory_bytes = 0;
  std::vector<MemoryComponentStats> memory_components;
  /// Filter-and-refine split: candidate_count is the MBR filter's output.
  /// Without refinement it equals output_count; with options.refine the
  /// exact results land in output_count and refine_pages_read counts the
  /// feature-store pages the refinement step fetched (its modeled time is
  /// folded into `disk` like everything else).
  uint64_t candidate_count = 0;
  uint64_t refine_pages_read = 0;
  /// Strips of the join's Striped-Sweep (the most over a partitioned
  /// plan's units); 0 when no Striped-Sweep ran.
  uint32_t sweep_strips = 0;
  /// True when any StripedSweep in the join fell back to a single strip
  /// because its extent was degenerate or non-finite (StripedSweep's
  /// hardened construction) — the join ran correctly but the striping
  /// speedup was lost, which used to happen silently.
  bool sweep_strips_collapsed = false;
  /// External-sort behaviour (maxima over every sorter the join ran):
  /// run-formation units that sorted in parallel (0 = every sort stayed
  /// serial or single-run), the merge fan-in the planner chose, and the
  /// merge passes it took.
  uint32_t sort_parallel_units = 0;
  uint32_t sort_merge_fan_in = 0;
  uint32_t sort_merge_passes = 0;

  /// Folds a sorter's stats into the join-wide maxima and adds its
  /// formation workers' CPU to host_cpu_seconds (call after the join's
  /// measurement finished).
  void FoldSortStats(const SortStats& s) {
    sort_parallel_units = std::max(sort_parallel_units, s.parallel_units);
    sort_merge_fan_in = std::max(sort_merge_fan_in, s.merge_fan_in);
    sort_merge_passes = std::max(sort_merge_passes, s.merge_passes);
    host_cpu_seconds += s.worker_cpu_seconds;
  }

  /// The classic I/O estimate (Figure 2(a)-(c)): every page read priced
  /// as a random single-page access.
  double EstimatedIoSeconds(const MachineModel& m) const {
    const double page_s =
        (m.avg_access_ms + m.PageTransferMs(kPageSize)) * 1e-3;
    return static_cast<double>(disk.pages_read) * page_s;
  }
  /// The modeled "observed" time (Figure 2(d)-(f), Figure 3): the
  /// DiskModel's sequential/random-aware time plus scaled CPU.
  double ObservedSeconds(const MachineModel& m) const {
    return disk.io_seconds + host_cpu_seconds * m.cpu_slowdown;
  }
  double ObservedIoSeconds() const { return disk.io_seconds; }
  double ScaledCpuSeconds(const MachineModel& m) const {
    return host_cpu_seconds * m.cpu_slowdown;
  }

  /// One human-readable line of the machine-independent counters (result
  /// and candidate counts, pages, peak structure sizes).
  std::string Describe() const;
  /// Describe() plus the modeled times under machine `m` (observed
  /// seconds with the I/O and scaled-CPU split) and, when real bytes
  /// moved, the measured I/O wall next to the modeled figure.
  std::string Describe(const MachineModel& m) const;
  /// Structured form for logs and benchmark harnesses, same convention
  /// as PlanDecision::ToKeyValues().
  std::vector<std::pair<std::string, std::string>> ToKeyValues() const;
};

/// Streams Describe() — the machine-independent form.
std::ostream& operator<<(std::ostream& os, const JoinStats& stats);

/// Consumer of join output pairs. Pair order is (id from input A, id from
/// input B).
class JoinSink {
 public:
  virtual ~JoinSink() = default;
  virtual void Emit(ObjectId a, ObjectId b) = 0;
};

/// Counts results without storing them (the paper's joins exclude output
/// materialization from the measured cost).
class CountingSink final : public JoinSink {
 public:
  void Emit(ObjectId, ObjectId) override { count_++; }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

/// Collects results in memory (tests, small joins).
class CollectingSink final : public JoinSink {
 public:
  void Emit(ObjectId a, ObjectId b) override { pairs_.push_back({a, b}); }
  const std::vector<IdPair>& pairs() const { return pairs_; }
  /// Emits the collected pairs into `sink`, in order.
  void ReplayTo(JoinSink* sink) const {
    for (const IdPair& pair : pairs_) sink->Emit(pair.a, pair.b);
  }

 private:
  std::vector<IdPair> pairs_;
};

/// RAII measurement scope: snapshots the disk stats and CPU clock, and
/// fills a JoinStats with the deltas on Finish().
class JoinMeasurement {
 public:
  explicit JoinMeasurement(DiskModel* disk)
      : disk_(disk), start_disk_(disk->stats()) {}

  JoinStats Finish() {
    JoinStats stats;
    stats.host_cpu_seconds = cpu_.Elapsed();
    stats.disk = disk_->stats() - start_disk_;
    return stats;
  }

 private:
  DiskModel* disk_;
  DiskStats start_disk_;
  ThreadCpuTimer cpu_;
};

/// Arbiter plumbing shared by the join algorithms: uses the caller's
/// arbiter when one is passed (the JoinQuery pipeline hands down the
/// per-query arbiter), otherwise owns a fresh one over the options'
/// floor-clamped budget — so directly-called algorithms are governed too.
class ArbiterScope {
 public:
  ArbiterScope(MemoryArbiter* external, const JoinOptions& options)
      : owned_(external == nullptr
                   ? std::make_unique<MemoryArbiter>(
                         std::max(options.memory_bytes, kMinMemoryBytes),
                         options.strict_memory_accounting)
                   : nullptr),
        arbiter_(external != nullptr ? external : owned_.get()) {}

  MemoryArbiter* get() const { return arbiter_; }
  MemoryArbiter* operator->() const { return arbiter_; }
  MemoryArbiter& operator*() const { return *arbiter_; }

 private:
  std::unique_ptr<MemoryArbiter> owned_;
  MemoryArbiter* arbiter_;
};

/// Copies an arbiter's peak and per-component high-water marks into
/// `stats` (done by every algorithm just before returning).
inline void FillMemoryStats(const MemoryArbiter& arbiter, JoinStats* stats) {
  stats->peak_memory_bytes = arbiter.peak_bytes();
  stats->memory_components = arbiter.ComponentStats();
}

/// Computes the extent of a dataset if its descriptor lacks one (extra
/// scan, charged).
Result<RectF> EnsureExtent(const DatasetRef& input);

/// Extent spanning both inputs (the sweep/striping domain).
Result<RectF> CombinedExtent(const DatasetRef& a, const DatasetRef& b);

}  // namespace sj

#endif  // USJ_JOIN_JOIN_TYPES_H_
