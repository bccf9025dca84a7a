#ifndef USJ_CORE_MEMORY_ARBITER_H_
#define USJ_CORE_MEMORY_ARBITER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace sj {

/// Smallest per-query memory budget the query layer accepts (64 KiB).
/// Below this the component floors (one external-sort merge frame, a
/// minimal buffer pool, one refinement chunk) no longer fit together and
/// budget arithmetic would degenerate; JoinQuery::Compile rejects smaller
/// budgets with FailedPrecondition naming this constant. Internal callers
/// that bypass the query layer clamp up to it instead.
inline constexpr size_t kMinMemoryBytes = 64u << 10;

/// Canonical grant component names, shared by the grant requests (so
/// Explain() reports the same breakdown the executors acquire) and the
/// per-component high-water marks in JoinStats.
namespace grants {
inline constexpr char kSortRuns[] = "sort.runs";
inline constexpr char kSweep[] = "sweep";
inline constexpr char kPqQueue[] = "pq.queue";
inline constexpr char kBufferPool[] = "buffer.pool";
inline constexpr char kPbsmHistogram[] = "pbsm.histogram";
inline constexpr char kPbsmWriters[] = "pbsm.writers";
inline constexpr char kStripWriters[] = "sssj.writers";
inline constexpr char kPbsmPartition[] = "pbsm.partition";
inline constexpr char kRefineBatch[] = "refine.batch";
inline constexpr char kRTreeBulkLoad[] = "rtree.bulkload";
// Pipeline operators (src/op/): the id->MBR lookup table behind join
// outputs, the aggregation grid, and the top-k heap.
inline constexpr char kOpRectMap[] = "op.rectmap";
inline constexpr char kOpAggregate[] = "op.aggregate";
inline constexpr char kOpTopK[] = "op.topk";
}  // namespace grants

class MemoryArbiter;

/// One component's ask of an arbiter: AcquireShrinkable's arguments. A
/// component states its request in one function, which hands the same
/// request to its own acquisition and to Explain, which replays a run's
/// requests on a scratch arbiter (PlanJoinMemory, PipelineQuery::Explain).
struct GrantRequest {
  const char* component = nullptr;  ///< nullptr: nothing to acquire.
  size_t bytes = 0;
  size_t floor_bytes = 0;
};

/// An RAII share of a MemoryArbiter's budget. Movable, not copyable;
/// releases its bytes back to the arbiter on destruction (or an explicit
/// Release()). Components report their actual consumption through
/// NoteUsage so the arbiter can keep per-component high-water marks — and,
/// in strict mode, abort on ungoverned allocation above the grant.
class MemoryGrant {
 public:
  MemoryGrant() = default;
  MemoryGrant(MemoryGrant&& other) noexcept;
  MemoryGrant& operator=(MemoryGrant&& other) noexcept;
  MemoryGrant(const MemoryGrant&) = delete;
  MemoryGrant& operator=(const MemoryGrant&) = delete;
  ~MemoryGrant();

  /// True while the grant holds bytes in an arbiter.
  bool active() const { return arbiter_ != nullptr; }
  size_t bytes() const { return bytes_; }
  const std::string& component() const { return component_; }

  /// Records that the component's live structures currently occupy
  /// `used_bytes`. Updates the component's usage high-water mark; a
  /// strict-mode arbiter treats `used_bytes > bytes()` as an ungoverned
  /// allocation and aborts (SJ_CHECK). Thread-safe.
  void NoteUsage(size_t used_bytes);

  /// Tries to grow the grant to `new_bytes` (no-op when already that
  /// large); fails without side effects when the arbiter cannot cover the
  /// difference. A table that grows as it fills (a windowed pipeline's
  /// resident rect map) takes its grant this way.
  bool TryGrow(size_t new_bytes);

  /// Releases the whole grant early (idempotent).
  void Release();

 private:
  friend class MemoryArbiter;
  MemoryGrant(MemoryArbiter* arbiter, std::string component, size_t bytes)
      : arbiter_(arbiter), component_(std::move(component)), bytes_(bytes) {}

  MemoryArbiter* arbiter_ = nullptr;
  std::string component_;
  size_t bytes_ = 0;
};

/// Per-component accounting snapshot (JoinStats::memory_components).
struct MemoryComponentStats {
  std::string component;
  /// Max bytes concurrently granted to this component.
  size_t granted_high_water = 0;
  /// Max bytes the component reported actually using (NoteUsage /
  /// FoldChildPeak). May exceed granted_high_water only when a non-strict
  /// arbiter recorded an overshoot instead of aborting.
  size_t used_high_water = 0;
};

/// The per-query memory governor: one fixed budget carved into explicit,
/// tracked grants. Every memory-consuming component of a join — external
/// sort run buffers, PQ traversal queues, sweep structures, PBSM
/// distribution writers and partition loads, the ST buffer pool,
/// refinement chunks, R-tree bulk-load buffers — acquires its share
/// here instead of interpreting JoinOptions::memory_bytes ad hoc, so the
/// sum of live allocations can never silently exceed the budget.
///
/// Acquire() denies over-subscription outright (the caller must degrade:
/// spill, shrink batches, use fewer writer blocks); AcquireShrinkable()
/// hands back whatever is available, bounded below by a component floor.
/// In strict mode (JoinOptions::strict_memory_accounting, meant for debug
/// and tests) a component reporting usage above its grant aborts.
///
/// Thread-safe. Parallel work units (PBSM partition tasks, SSSJ strips)
/// model the paper's *serial* machine: each unit runs against a private
/// child arbiter with the full phase budget, and the parent folds the
/// child peaks in afterwards with FoldChildPeak — max over units, so the
/// reported peak is the serial-equivalent footprint and identical for
/// every thread count, like every other modeled stat in this repo.
class MemoryArbiter {
 public:
  explicit MemoryArbiter(size_t budget_bytes, bool strict = false);
  ~MemoryArbiter();

  MemoryArbiter(const MemoryArbiter&) = delete;
  MemoryArbiter& operator=(const MemoryArbiter&) = delete;

  /// Carves `bytes` out of this arbiter as a *child* arbiter with its own
  /// budget — the service's per-query arbiters under the one global
  /// budget. The child holds a `component`-named grant for its whole
  /// budget in this (parent) arbiter until the child dies, so the parent's
  /// in_use/peak always covers the sum of admitted query budgets and
  /// Acquire()'s denial rule makes global over-subscription impossible by
  /// construction. On destruction the child also reports its peak as the
  /// parent grant's usage, giving the global arbiter per-query used
  /// high-water marks. Fails with ResourceExhausted when the remaining
  /// parent budget cannot cover `bytes`.
  Result<std::shared_ptr<MemoryArbiter>> CarveChild(std::string component,
                                                    size_t bytes,
                                                    bool strict = false);

  /// Grants exactly `bytes` to `component`, or ResourceExhausted when the
  /// remaining budget cannot cover it.
  Result<MemoryGrant> Acquire(std::string component, size_t bytes);

  /// Grants min(bytes, available), except that a grant squeezed below
  /// `floor_bytes` — the documented minimum the component needs to make
  /// progress at all — is lifted back to the floor (never above the
  /// request). A floor above the remaining budget is still granted;
  /// floors are small and the query layer's kMinMemoryBytes check keeps
  /// them honest.
  MemoryGrant AcquireShrinkable(std::string component, size_t bytes,
                                size_t floor_bytes);
  /// The same for a stated request; one without a component grants
  /// nothing (an inactive grant of 0 bytes).
  MemoryGrant AcquireShrinkable(const GrantRequest& request);

  /// Folds a completed child scope (one serial-equivalent work unit run
  /// against its own arbiter — a PBSM partition task, an SSSJ strip)
  /// into this one: every component high-water merges in (max) and the
  /// overall peak rises to the grants live here plus the child's peak.
  /// Order-independent, so merged stats do not depend on the thread
  /// count. The child must be quiescent (its work unit finished).
  void FoldChild(const MemoryArbiter& child);

  size_t budget() const { return budget_; }
  size_t in_use() const;
  size_t available() const;
  /// High-water mark of the concurrently granted bytes (plus folded child
  /// peaks on top of the grants live at fold time).
  size_t peak_bytes() const;
  bool strict() const { return strict_; }

  /// Per-component high-water marks, sorted by component name.
  std::vector<MemoryComponentStats> ComponentStats() const;

  /// One human-readable line: budget, peak, per-component granted/used.
  std::string Describe() const;

 private:
  friend class MemoryGrant;

  struct Component {
    size_t live = 0;
    size_t granted_high_water = 0;
    size_t used_high_water = 0;
  };

  void AddLocked(const std::string& component, size_t bytes);
  void Release(const std::string& component, size_t bytes);
  void NoteUsage(const std::string& component, size_t granted_bytes,
                 size_t used_bytes);
  bool TryGrow(const std::string& component, size_t delta);

  const size_t budget_;
  const bool strict_;
  /// Set on children made by CarveChild: the slice of the parent's budget
  /// this arbiter governs, returned when the child dies.
  MemoryGrant parent_grant_;
  mutable std::mutex mu_;
  size_t in_use_ = 0;
  size_t peak_ = 0;
  std::map<std::string, Component> components_;
};

/// One planned grant line of a MemoryPlan.
struct MemoryGrantSpec {
  std::string component;
  size_t bytes = 0;
};

/// Explain's memory shape for one query under one budget: which
/// components a run is granted how much. Built by replaying the run's
/// grant requests on a scratch arbiter, so there is no second copy of the
/// grant arithmetic to drift.
struct MemoryPlan {
  size_t budget_bytes = 0;
  std::vector<MemoryGrantSpec> grants;

  /// `arbiter`'s budget, and each component at its granted high-water
  /// mark, in component-name order.
  static MemoryPlan Of(const MemoryArbiter& arbiter);

  bool empty() const { return grants.empty(); }
  /// Planned bytes for `component`, 0 when the plan has no such line.
  size_t GrantFor(std::string_view component) const;
  /// "budget 24 MB: sort.runs 12 MB + sweep 58 KB + ..."
  std::string Describe() const;
};

}  // namespace sj

#endif  // USJ_CORE_MEMORY_ARBITER_H_
