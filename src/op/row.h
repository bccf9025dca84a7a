#ifndef USJ_OP_ROW_H_
#define USJ_OP_ROW_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "geometry/rect.h"

namespace sj {

/// A row flowing through a physical-operator pipeline (src/op/): the
/// unified record every operator consumes and produces, so joins, scans,
/// filters and aggregates compose freely.
///
///  * `rect`  — the row's geometry. For a scanned record it is the record
///    MBR; for a join result it is the *contact box* of the member MBRs
///    (their intersection when they overlap — always the case for
///    kIntersects results — else the axis-wise gap box between them,
///    which ε-distance pairs can produce); for an aggregated cell it is
///    the cell rectangle. `rect.id` is unused (ids travel in `ids`).
///  * `ids`   — the contributing object ids, one per joined input
///    (arity 1 for scan rows, 2 for pairwise join rows, k for k-way).
///    AggregateByCell rows carry the flat cell index as a single id.
///  * `value` — the aggregation weight (1.0 unless a Project rewrote it);
///    AggregateByCell rows carry the cell aggregate here.
struct PipeRow {
  RectF rect;
  std::vector<ObjectId> ids;
  double value = 1.0;

  friend bool operator==(const PipeRow& a, const PipeRow& b) {
    return a.rect == b.rect && a.ids == b.ids && a.value == b.value;
  }
};

/// Approximate live bytes of one row (the struct plus its id storage);
/// operators size their grants with this.
inline size_t RowBytes(size_t arity) {
  return sizeof(PipeRow) + arity * sizeof(ObjectId);
}

/// Consumer of pipeline rows — the operator-tree analog of JoinSink /
/// TupleSink. Rows arrive in the pipeline's deterministic order (fixed by
/// the plan, identical for every thread count and memory budget).
class RowSink {
 public:
  virtual ~RowSink() = default;
  virtual void Emit(PipeRow row) = 0;
};

/// Counts rows without storing them.
class CountingRowSink final : public RowSink {
 public:
  void Emit(PipeRow) override { count_++; }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

/// Collects rows in memory (tests, small pipelines).
class CollectingRowSink final : public RowSink {
 public:
  void Emit(PipeRow row) override { rows_.push_back(std::move(row)); }
  const std::vector<PipeRow>& rows() const { return rows_; }

 private:
  std::vector<PipeRow> rows_;
};

}  // namespace sj

#endif  // USJ_OP_ROW_H_
