#ifndef USJ_OP_OPERATORS_H_
#define USJ_OP_OPERATORS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/memory_arbiter.h"
#include "histogram/grid_histogram.h"
#include "io/pager.h"
#include "io/stream.h"
#include "join/executor.h"
#include "join/multiway.h"
#include "op/rect_resolver.h"
#include "op/row.h"
#include "util/result.h"

namespace sj {

class CostModel;

/// Resources an operator pipeline executes against: the query's disk
/// model, its MemoryArbiter (every operator grant draws from here, so one
/// budget bounds the whole tree) and the scratch storage choice. All
/// borrowed; the pipeline driver owns the lifetime.
struct PipelineContext {
  DiskModel* disk = nullptr;
  MemoryArbiter* arbiter = nullptr;
  StorageFactory* storage = nullptr;
};

/// Per-operator counters, collected into PipelineStats::operators.
struct OperatorStats {
  std::string name;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  /// Pages this operator itself fetched (resolver lookups, index window
  /// descents) — the whole pipeline's I/O lands in PipelineStats::disk.
  uint64_t pages_read = 0;
  /// Scratch pages the operator spilled under memory pressure.
  uint64_t spill_pages = 0;
};

/// One node of a costed pipeline plan (PipelineQuery::Explain). Nodes are
/// listed root (sink-most operator) first; `depth` gives the indentation
/// of the printed tree (source scans are the deepest nodes).
struct OperatorPlan {
  std::string name;    ///< e.g. "TopKByDistance"
  std::string detail;  ///< e.g. "k=8 from (0.5, 0.5)"
  int depth = 0;
  double est_rows = 0.0;
  double cost_seconds = 0.0;
  /// Bytes the operator plans to hold under its arbiter grant (0 for
  /// constant-memory operators).
  size_t planned_bytes = 0;
};

/// A unary push operator: consumes rows via Emit, forwards its output to
/// the downstream sink. Lifecycle is Open -> Emit... -> Finish, mirroring
/// the StreamWriter contract: errors hit mid-stream are sticky and
/// surfaced by Finish(), so producers need no per-row status checks.
/// Operators that buffer (aggregate, top-k) emit their output during
/// Finish(), which is why the driver finishes the chain in upstream-to-
/// downstream order.
class PipelineOperator : public RowSink {
 public:
  explicit PipelineOperator(std::string name) { stats_.name = std::move(name); }
  ~PipelineOperator() override = default;

  void set_downstream(RowSink* down) { down_ = down; }

  /// Acquires grants and scratch files. Called once before any Emit.
  virtual Status Open(PipelineContext& ctx) {
    (void)ctx;
    return Status::OK();
  }

  /// Flushes buffered rows downstream and reports the first sticky error.
  virtual Status Finish() { return status_; }

  /// The grant Open acquires: its component, request and floor (none for
  /// a constant-memory operator). PipelineQuery::Explain acquires the
  /// same request, in Run's order, from a scratch arbiter.
  virtual GrantRequest Request() const { return GrantRequest(); }

  /// Explain's node for the operator when `*rows` rows reach it under a
  /// grant of `granted_bytes`, what the arbiter gave Request(); advances
  /// `*rows` to the rows it passes on, which are the node's est_rows (as
  /// a source's are the rows it emits).
  virtual OperatorPlan Estimate(double* rows, size_t granted_bytes,
                                const CostModel& cost) const = 0;

  const OperatorStats& stats() const { return stats_; }

 protected:
  void Forward(PipeRow row) {
    stats_.rows_out++;
    down_->Emit(std::move(row));
  }

  RowSink* down_ = nullptr;
  OperatorStats stats_;
  Status status_;
};

/// Filter: keeps rows satisfying an arbitrary predicate. `label` names
/// the predicate in stats and Explain output.
class FilterOp final : public PipelineOperator {
 public:
  using RowPredicate = std::function<bool(const PipeRow&)>;
  FilterOp(RowPredicate predicate, std::string label = "pred")
      : PipelineOperator("Filter(" + label + ")"),
        predicate_(std::move(predicate)),
        label_(std::move(label)) {}

  void Emit(PipeRow row) override {
    stats_.rows_in++;
    if (predicate_(row)) Forward(std::move(row));
  }

  /// Keeps a third of its rows: the classic default selectivity guess.
  OperatorPlan Estimate(double* rows, size_t granted_bytes,
                        const CostModel& cost) const override;

 private:
  RowPredicate predicate_;
  std::string label_;
};

/// Project: rewrites each row (typically its value — weights for a kSum
/// aggregation — or its id arity).
class ProjectOp final : public PipelineOperator {
 public:
  using RowTransform = std::function<PipeRow(PipeRow)>;
  ProjectOp(RowTransform transform, std::string label = "fn")
      : PipelineOperator("Project(" + label + ")"),
        transform_(std::move(transform)),
        label_(std::move(label)) {}

  void Emit(PipeRow row) override {
    stats_.rows_in++;
    Forward(transform_(std::move(row)));
  }

  OperatorPlan Estimate(double* rows, size_t granted_bytes,
                        const CostModel& cost) const override;

 private:
  RowTransform transform_;
  std::string label_;
};

/// What AggregateByCellOp accumulates per cell.
enum class AggregateMode {
  kCount,  ///< Cells a row's rect overlaps each gain 1.
  kSum,    ///< Cells a row's rect overlaps each gain the row's value.
};

const char* ToString(AggregateMode mode);

/// AggregateByCell: folds rows into an nx x ny grid over `extent` — the
/// density-heatmap operator. A row contributes to every cell its rect
/// overlaps (rows not intersecting the extent contribute nothing), the
/// same cell arithmetic as GridHistogram::Add, so a histogram-style
/// oracle can replicate it exactly.
///
/// Memory: the dense grid lives under a shrinkable "op.aggregate" grant.
/// When the grant cannot hold the whole grid, the operator keeps a band
/// of grid rows resident and spills contributions outside the band as
/// (cell, value) deltas to one MakePager-backed scratch stream, replaying
/// it once per remaining band at Finish. Spilled deltas replay in arrival
/// order, so each cell accumulates in exactly the order the in-memory
/// path would use — results are bit-identical at any budget; only the
/// modeled I/O differs.
///
/// Output (at Finish): one row per cell with a nonzero aggregate, in
/// ascending (y, x) cell order; rect = the cell rectangle, ids = {flat
/// cell index y * nx + x}, value = the aggregate.
class AggregateByCellOp final : public PipelineOperator {
 public:
  AggregateByCellOp(AggregateMode mode, const RectF& extent, uint32_t nx,
                    uint32_t ny);
  ~AggregateByCellOp() override;

  Status Open(PipelineContext& ctx) override;
  void Emit(PipeRow row) override;
  Status Finish() override;

  /// The whole grid plus the spill writer's and replay reader's blocks;
  /// the floor is one grid row plus those blocks.
  GrantRequest Request() const override;
  /// Prices the spill: rows outside the band a grant of `granted_bytes`
  /// keeps resident stream out as deltas and replay once per extra band.
  OperatorPlan Estimate(double* rows, size_t granted_bytes,
                        const CostModel& cost) const override;

  uint32_t nx() const { return nx_; }
  uint32_t ny() const { return ny_; }

 private:
  /// One spilled contribution: flat cell index plus the delta.
  struct CellDelta {
    uint64_t cell = 0;
    double value = 0.0;
  };
  static_assert(sizeof(CellDelta) == 16, "spill record layout");

  /// Grid rows a grant of `granted_bytes` holds beside the spill blocks
  /// (at least one).
  uint32_t ResidentRows(size_t granted_bytes) const;
  bool CellRangeOf(const RectF& r, uint32_t* x0, uint32_t* x1, uint32_t* y0,
                   uint32_t* y1) const;
  void Apply(uint64_t cell, double v);
  void EmitBand(uint32_t band_begin, uint32_t band_end);
  RectF CellRect(uint32_t ix, uint32_t iy) const;

  const AggregateMode mode_;
  const RectF extent_;
  const uint32_t nx_;
  const uint32_t ny_;
  const float cell_w_;
  const float cell_h_;

  MemoryGrant grant_;
  /// Grid rows [0, resident_rows_) are aggregated inline; the rest spill.
  uint32_t resident_rows_ = 0;
  std::vector<double> grid_;
  std::unique_ptr<Pager> spill_pager_;
  std::unique_ptr<StreamWriter<CellDelta>> spill_writer_;
  bool finished_ = false;
};

/// TopKByDistance: keeps the k rows whose rects are nearest (minimum
/// Euclidean distance, 0 inside) to a query point, emitting them in
/// ascending distance order at Finish. Ties are broken by a total order
/// over (ids, rect, value), so the result set and its order are
/// independent of arrival order — identical across thread counts and
/// memory budgets.
///
/// The k-entry heap is grant-sized: Open acquires an "op.topk" grant whose
/// floor is the full heap footprint, so a tight budget records the
/// overshoot in the arbiter's high-water marks rather than silently
/// changing k (results must not depend on the budget).
class TopKByDistanceOp final : public PipelineOperator {
 public:
  TopKByDistanceOp(size_t k, float qx, float qy);

  Status Open(PipelineContext& ctx) override;
  void Emit(PipeRow row) override;
  Status Finish() override;

  /// The full heap footprint, as request and floor.
  GrantRequest Request() const override;
  OperatorPlan Estimate(double* rows, size_t granted_bytes,
                        const CostModel& cost) const override;

  /// Minimum Euclidean distance from (qx, qy) to the closed rect (0 when
  /// the point lies inside). Exposed so oracles use the same arithmetic.
  static double DistanceTo(const RectF& r, float qx, float qy);

 private:
  struct Entry {
    double distance = 0.0;
    PipeRow row;
  };
  static bool EntryLess(const Entry& a, const Entry& b);

  const size_t k_;
  const float qx_;
  const float qy_;
  MemoryGrant grant_;
  /// Max-heap under EntryLess, so top() is the worst kept entry.
  std::vector<Entry> heap_;
};

/// WindowScan: the leaf source — visits the records of a JoinInput that
/// intersect `window` (closed-rect semantics; an invalid window matches
/// nothing). Scan hands each record over as it is; Run turns each into a
/// row with rect = the record MBR and ids = {record id}.
///
/// An attached histogram prunes: when GridHistogram::MightIntersect says
/// no record can overlap the window, the scan visits nothing and reads
/// nothing. Streams are scanned sequentially, resident records in memory
/// and R-trees through RTree::ScanLeaves, which reads the leaf level in
/// page order; each hands a record over as it reads it, so none holds a
/// result buffer.
class WindowScan {
 public:
  using RecordVisitor = std::function<void(const RectF&)>;

  WindowScan(const JoinInput& input, const RectF& window,
             const GridHistogram* histogram = nullptr);

  /// Drives the whole scan, calling `visit` with each in-window record
  /// (id included) — the windowed-overlay plan fills its rect maps, which
  /// are also the join's inputs, with them.
  Status Scan(const RecordVisitor& visit);

  /// Drives the whole scan into `out`, one row per record.
  Status Run(RowSink* out);

  /// Explain's node for the scan: the estimated hits and the modeled
  /// read cost (a window descent over an R-tree, a full stream scan).
  OperatorPlan Estimate(const CostModel& cost) const;

  const OperatorStats& stats() const { return stats_; }

  /// Planner estimate of the matching record count: the histogram's
  /// EstimateCountIn when one is attached, else the window/extent area
  /// ratio scaled to the input count.
  static double EstimateRows(const JoinInput& input, const RectF& window,
                             const GridHistogram* histogram);

 private:
  /// True when the scan reads nothing: an invalid window matches no
  /// record, and a histogram that says no record can overlap the window
  /// spares every read.
  bool Pruned() const;

  const JoinInput input_;
  const RectF window_;
  const GridHistogram* histogram_;
  OperatorStats stats_;
};

/// The row-side half of SpatialJoinOp: a JoinSink/TupleSink that turns
/// the join executors' bare id tuples back into geometry rows. Ids are
/// buffered in batches of `batch_size`; each batch is resolved through
/// the per-input RectResolvers (hash probes in memory; sorted,
/// page-coalesced lookups on the external path) and
/// forwarded downstream in join-output order, with rect = the contact box
/// of the member MBRs — their intersection when they overlap (always, for
/// kIntersects) else the axis-wise gap box (ε-distance pairs whose MBRs
/// are disjoint). Errors are sticky, surfaced by Finish().
class JoinRowAdapter final : public JoinSink, public TupleSink {
 public:
  /// `resolvers[i]` resolves ids of join input i. Borrowed.
  JoinRowAdapter(std::vector<RectResolver*> resolvers, RowSink* down,
                 uint32_t batch_size = 1024);
  ~JoinRowAdapter() override;

  void Emit(ObjectId a, ObjectId b) override;
  void Emit(const std::vector<ObjectId>& tuple) override;

  /// Flushes the tail batch; returns the first resolve error.
  Status Finish();

  uint64_t rows_forwarded() const { return rows_forwarded_; }

  /// The contact box of `rects`: per axis the max of lows and min of
  /// highs, corners swapped where inverted. Exposed for oracles.
  static RectF ContactBox(const std::vector<RectF>& rects);

 private:
  void FlushBatch();

  std::vector<RectResolver*> resolvers_;
  RowSink* down_;
  const uint32_t batch_size_;
  /// Buffered tuples, flattened: batch_[t * arity + i] = id of input i.
  std::vector<ObjectId> batch_;
  uint64_t rows_forwarded_ = 0;
  bool finished_ = false;
  Status status_;
};

}  // namespace sj

#endif  // USJ_OP_OPERATORS_H_
