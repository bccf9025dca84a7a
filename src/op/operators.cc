#include "op/operators.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "core/cost_model.h"
#include "util/logging.h"

namespace sj {

namespace {

/// Spill stream block size: small blocks, because the spill writer's
/// buffer lives inside the operator's (possibly tight) grant.
constexpr uint32_t kSpillBlockPages = 4;
/// The spill writer's and replay reader's block buffers.
constexpr size_t kSpillBufBytes = 2 * kSpillBlockPages * kPageSize;

/// Fraction of `extent` the window covers (1 when the extent is
/// degenerate), for index window-scan costing.
double WindowFraction(const RectF& window, const RectF& extent) {
  if (!window.Valid() || !extent.Valid()) return window.Valid() ? 1.0 : 0.0;
  const double total = extent.Area();
  if (!(total > 0.0)) return 1.0;
  if (!window.Intersects(extent)) return 0.0;
  return std::min(1.0, window.IntersectionWith(extent).Area() / total);
}

}  // namespace

// ---------------------------------------------------------------------------
// FilterOp, ProjectOp
// ---------------------------------------------------------------------------

OperatorPlan FilterOp::Estimate(double* rows, size_t, const CostModel&) const {
  OperatorPlan node{"Filter", label_};
  *rows /= 3.0;
  node.est_rows = *rows;
  return node;
}

OperatorPlan ProjectOp::Estimate(double* rows, size_t,
                                 const CostModel&) const {
  OperatorPlan node{"Project", label_};
  node.est_rows = *rows;
  return node;
}

const char* ToString(AggregateMode mode) {
  switch (mode) {
    case AggregateMode::kCount:
      return "count";
    case AggregateMode::kSum:
      return "sum";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// AggregateByCellOp
// ---------------------------------------------------------------------------

AggregateByCellOp::AggregateByCellOp(AggregateMode mode, const RectF& extent,
                                     uint32_t nx, uint32_t ny)
    : PipelineOperator(std::string("AggregateByCell(") + sj::ToString(mode) +
                       " " + std::to_string(nx) + "x" + std::to_string(ny) +
                       ")"),
      mode_(mode),
      extent_(extent),
      nx_(nx),
      ny_(ny),
      cell_w_((extent.xhi - extent.xlo) / static_cast<float>(nx)),
      cell_h_((extent.yhi - extent.ylo) / static_cast<float>(ny)) {
  SJ_CHECK(nx_ > 0 && ny_ > 0);
  SJ_CHECK(extent_.Valid());
  SJ_CHECK(uint64_t{nx_} * ny_ <= uint64_t{0xFFFFFFFFu})
      << "cell index must fit an ObjectId";
}

AggregateByCellOp::~AggregateByCellOp() {
  if (spill_writer_ != nullptr && !finished_) spill_writer_->Abandon();
}

GrantRequest AggregateByCellOp::Request() const {
  // The floor is the least that still makes progress.
  const uint64_t grid_bytes = uint64_t{nx_} * ny_ * sizeof(double);
  return GrantRequest{grants::kOpAggregate,
                      static_cast<size_t>(grid_bytes) + kSpillBufBytes,
                      nx_ * sizeof(double) + kSpillBufBytes};
}

uint32_t AggregateByCellOp::ResidentRows(size_t granted_bytes) const {
  const size_t for_grid =
      granted_bytes > kSpillBufBytes ? granted_bytes - kSpillBufBytes : 0;
  return static_cast<uint32_t>(std::min<uint64_t>(
      ny_, std::max<uint64_t>(1, for_grid / (nx_ * sizeof(double)))));
}

OperatorPlan AggregateByCellOp::Estimate(double* rows, size_t granted_bytes,
                                         const CostModel& cost) const {
  OperatorPlan node{"AggregateByCell", std::string(sj::ToString(mode_)) + " " +
                                           std::to_string(nx_) + "x" +
                                           std::to_string(ny_)};
  node.planned_bytes = granted_bytes;
  const uint32_t resident = ResidentRows(granted_bytes);
  if (resident < ny_) {
    const uint64_t bands = (ny_ + resident - 1) / resident;
    const double spill_fraction = 1.0 - static_cast<double>(resident) / ny_;
    const uint64_t spill_pages = static_cast<uint64_t>(
        std::ceil(*rows * spill_fraction * sizeof(CellDelta) / kPageSize));
    node.cost_seconds = cost.AggregateSpillSeconds(spill_pages, bands - 1);
  }
  *rows = std::min(*rows, static_cast<double>(uint64_t{nx_} * ny_));
  node.est_rows = *rows;
  return node;
}

Status AggregateByCellOp::Open(PipelineContext& ctx) {
  grant_ = ctx.arbiter->AcquireShrinkable(Request());
  resident_rows_ = ResidentRows(grant_.bytes());
  grid_.assign(static_cast<size_t>(resident_rows_) * nx_, 0.0);

  if (resident_rows_ < ny_) {
    SJ_ASSIGN_OR_RETURN(
        spill_pager_,
        MakePager(ctx.storage, ctx.disk, stats_.name + ".spill"));
    spill_writer_ = std::make_unique<StreamWriter<CellDelta>>(
        spill_pager_.get(), kSpillBlockPages);
  }
  grant_.NoteUsage(grid_.size() * sizeof(double) +
                   (spill_writer_ != nullptr ? kSpillBlockPages * kPageSize
                                             : 0));
  return Status::OK();
}

bool AggregateByCellOp::CellRangeOf(const RectF& r, uint32_t* x0, uint32_t* x1,
                                    uint32_t* y0, uint32_t* y1) const {
  if (!r.Valid() || !r.Intersects(extent_)) return false;
  // Same clamp arithmetic as GridHistogram: truncate the relative offset,
  // clamping *before* the integer cast so an infinite or oversized offset
  // (degenerate extents make cell_w_ zero) stays defined.
  auto cell_of = [](float v, float lo, float w, uint32_t n) -> uint32_t {
    const float rel = (v - lo) / w;
    if (!(rel > 0.0f)) return 0;
    const float clamped = std::min(rel, static_cast<float>(n - 1));
    return static_cast<uint32_t>(clamped);
  };
  *x0 = cell_of(r.xlo, extent_.xlo, cell_w_, nx_);
  *x1 = cell_of(r.xhi, extent_.xlo, cell_w_, nx_);
  *y0 = cell_of(r.ylo, extent_.ylo, cell_h_, ny_);
  *y1 = cell_of(r.yhi, extent_.ylo, cell_h_, ny_);
  return true;
}

void AggregateByCellOp::Apply(uint64_t cell, double v) {
  const uint32_t iy = static_cast<uint32_t>(cell / nx_);
  if (iy < resident_rows_) {
    grid_[static_cast<size_t>(cell)] += v;
  } else {
    spill_writer_->Append(CellDelta{cell, v});
  }
}

void AggregateByCellOp::Emit(PipeRow row) {
  stats_.rows_in++;
  uint32_t x0, x1, y0, y1;
  if (!CellRangeOf(row.rect, &x0, &x1, &y0, &y1)) return;
  const double v = mode_ == AggregateMode::kCount ? 1.0 : row.value;
  for (uint32_t iy = y0; iy <= y1; ++iy) {
    for (uint32_t ix = x0; ix <= x1; ++ix) {
      Apply(uint64_t{iy} * nx_ + ix, v);
    }
  }
}

RectF AggregateByCellOp::CellRect(uint32_t ix, uint32_t iy) const {
  // The last cell of each axis closes on the extent edge exactly, so the
  // cell tiling covers the extent without float drift.
  const float xlo = extent_.xlo + static_cast<float>(ix) * cell_w_;
  const float ylo = extent_.ylo + static_cast<float>(iy) * cell_h_;
  const float xhi =
      ix + 1 == nx_ ? extent_.xhi
                    : extent_.xlo + static_cast<float>(ix + 1) * cell_w_;
  const float yhi =
      iy + 1 == ny_ ? extent_.yhi
                    : extent_.ylo + static_cast<float>(iy + 1) * cell_h_;
  return RectF(xlo, ylo, xhi, yhi);
}

void AggregateByCellOp::EmitBand(uint32_t band_begin, uint32_t band_end) {
  for (uint32_t iy = band_begin; iy < band_end; ++iy) {
    for (uint32_t ix = 0; ix < nx_; ++ix) {
      const double v =
          grid_[static_cast<size_t>(iy - band_begin) * nx_ + ix];
      if (v == 0.0) continue;
      PipeRow row;
      row.rect = CellRect(ix, iy);
      row.ids.push_back(static_cast<ObjectId>(uint64_t{iy} * nx_ + ix));
      row.value = v;
      Forward(std::move(row));
    }
  }
}

Status AggregateByCellOp::Finish() {
  if (finished_) return status_;
  finished_ = true;

  uint64_t spill_count = 0;
  if (spill_writer_ != nullptr) {
    Result<uint64_t> n = spill_writer_->Finish();
    if (!n.ok()) {
      status_ = n.status();
      return status_;
    }
    spill_count = *n;
    constexpr uint32_t kPerPage = StreamWriter<CellDelta>::kRecordsPerPage;
    stats_.spill_pages = (spill_count + kPerPage - 1) / kPerPage;
  }

  EmitBand(0, resident_rows_);

  // Replay the spill stream once per remaining band. Deltas replay in
  // arrival order, so per-cell accumulation order matches the in-memory
  // path exactly (see class comment).
  const PageId spill_first =
      spill_writer_ != nullptr ? spill_writer_->first_page() : 0;
  for (uint32_t band_begin = resident_rows_; band_begin < ny_;
       band_begin += resident_rows_) {
    const uint32_t band_end =
        static_cast<uint32_t>(std::min<uint64_t>(ny_, uint64_t{band_begin} +
                                                          resident_rows_));
    std::fill(grid_.begin(), grid_.end(), 0.0);
    if (spill_count > 0) {
      StreamReader<CellDelta> reader(spill_pager_.get(), spill_first,
                                     spill_count, kSpillBlockPages);
      stats_.pages_read += stats_.spill_pages;
      while (std::optional<CellDelta> d = reader.Next()) {
        const uint32_t iy = static_cast<uint32_t>(d->cell / nx_);
        if (iy < band_begin || iy >= band_end) continue;
        grid_[static_cast<size_t>(d->cell) -
              static_cast<size_t>(band_begin) * nx_] += d->value;
      }
      SJ_RETURN_IF_ERROR(reader.status());
    }
    EmitBand(band_begin, band_end);
  }
  return status_;
}

// ---------------------------------------------------------------------------
// TopKByDistanceOp
// ---------------------------------------------------------------------------

TopKByDistanceOp::TopKByDistanceOp(size_t k, float qx, float qy)
    : PipelineOperator("TopKByDistance(k=" + std::to_string(k) + ")"),
      k_(k),
      qx_(qx),
      qy_(qy) {}

double TopKByDistanceOp::DistanceTo(const RectF& r, float qx, float qy) {
  double dx = 0.0, dy = 0.0;
  if (qx < r.xlo) {
    dx = static_cast<double>(r.xlo) - qx;
  } else if (qx > r.xhi) {
    dx = static_cast<double>(qx) - r.xhi;
  }
  if (qy < r.ylo) {
    dy = static_cast<double>(r.ylo) - qy;
  } else if (qy > r.yhi) {
    dy = static_cast<double>(qy) - r.yhi;
  }
  return std::sqrt(dx * dx + dy * dy);
}

bool TopKByDistanceOp::EntryLess(const Entry& a, const Entry& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  if (a.row.ids != b.row.ids) return a.row.ids < b.row.ids;
  const RectF& x = a.row.rect;
  const RectF& y = b.row.rect;
  if (x.xlo != y.xlo) return x.xlo < y.xlo;
  if (x.ylo != y.ylo) return x.ylo < y.ylo;
  if (x.xhi != y.xhi) return x.xhi < y.xhi;
  if (x.yhi != y.yhi) return x.yhi < y.yhi;
  return a.row.value < b.row.value;
}

GrantRequest TopKByDistanceOp::Request() const {
  // The floor is the full heap footprint: the result must not depend on
  // the budget, so a tight arbiter records the overshoot instead of
  // shrinking k.
  const size_t heap_bytes = k_ * (sizeof(Entry) + RowBytes(2));
  return GrantRequest{grants::kOpTopK, heap_bytes, heap_bytes};
}

OperatorPlan TopKByDistanceOp::Estimate(double* rows, size_t granted_bytes,
                                        const CostModel&) const {
  std::ostringstream detail;
  detail << "k=" << k_ << " from (" << qx_ << ", " << qy_ << ")";
  OperatorPlan node{"TopKByDistance", detail.str()};
  node.planned_bytes = granted_bytes;
  *rows = std::min(*rows, static_cast<double>(k_));
  node.est_rows = *rows;
  return node;
}

Status TopKByDistanceOp::Open(PipelineContext& ctx) {
  grant_ = ctx.arbiter->AcquireShrinkable(Request());
  heap_.reserve(std::min<size_t>(k_, 1u << 16));
  return Status::OK();
}

void TopKByDistanceOp::Emit(PipeRow row) {
  stats_.rows_in++;
  if (k_ == 0) return;
  Entry e;
  e.distance = DistanceTo(row.rect, qx_, qy_);
  e.row = std::move(row);
  if (heap_.size() < k_) {
    heap_.push_back(std::move(e));
    std::push_heap(heap_.begin(), heap_.end(), EntryLess);
  } else if (EntryLess(e, heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), EntryLess);
    heap_.back() = std::move(e);
    std::push_heap(heap_.begin(), heap_.end(), EntryLess);
  }
  grant_.NoteUsage(heap_.size() * (sizeof(Entry) + RowBytes(2)));
}

Status TopKByDistanceOp::Finish() {
  std::sort(heap_.begin(), heap_.end(), EntryLess);
  for (Entry& e : heap_) Forward(std::move(e.row));
  heap_.clear();
  return status_;
}

// ---------------------------------------------------------------------------
// WindowScan
// ---------------------------------------------------------------------------

WindowScan::WindowScan(const JoinInput& input, const RectF& window,
                       const GridHistogram* histogram)
    : input_(input), window_(window), histogram_(histogram) {
  stats_.name = "WindowScan";
}

double WindowScan::EstimateRows(const JoinInput& input, const RectF& window,
                                const GridHistogram* histogram) {
  if (!window.Valid()) return 0.0;
  if (histogram != nullptr) return histogram->EstimateCountIn(window);
  const RectF extent = input.extent();
  if (!extent.Valid() || !window.Intersects(extent)) return 0.0;
  const double total_area = extent.Area();
  if (total_area <= 0.0) return static_cast<double>(input.count());
  const double frac =
      std::min(1.0, window.IntersectionWith(extent).Area() / total_area);
  return frac * static_cast<double>(input.count());
}

bool WindowScan::Pruned() const {
  return !window_.Valid() ||
         (histogram_ != nullptr && !histogram_->MightIntersect(window_));
}

OperatorPlan WindowScan::Estimate(const CostModel& cost) const {
  OperatorPlan node;
  node.name = "WindowScan";
  node.est_rows = EstimateRows(input_, window_, histogram_);
  node.cost_seconds =
      input_.indexed()
          ? cost.IndexWindowSeconds(input_.pages(),
                                    WindowFraction(window_, input_.extent()))
          : cost.ScanSeconds(input_.pages());
  return node;
}

Status WindowScan::Scan(const RecordVisitor& visit) {
  if (Pruned()) return Status::OK();
  if (input_.indexed()) {
    auto count = [&](const RectF& r) {
      stats_.rows_in++;
      stats_.rows_out++;
      visit(r);
    };
    SJ_ASSIGN_OR_RETURN(const uint64_t pages,
                        input_.rtree()->ScanLeaves(window_, count));
    stats_.pages_read += pages;
    return Status::OK();
  }
  // A stream is read whole; resident records are read from memory.
  if (!input_.resident()) stats_.pages_read += input_.pages();
  return VisitRecords(input_, [&](const RectF& r) {
    stats_.rows_in++;
    if (r.Intersects(window_)) {
      stats_.rows_out++;
      visit(r);
    }
  });
}

Status WindowScan::Run(RowSink* out) {
  return Scan([out](const RectF& r) {
    PipeRow row;
    row.rect = r;
    row.rect.id = 0;
    row.ids.push_back(r.id);
    out->Emit(std::move(row));
  });
}

// ---------------------------------------------------------------------------
// JoinRowAdapter
// ---------------------------------------------------------------------------

JoinRowAdapter::JoinRowAdapter(std::vector<RectResolver*> resolvers,
                               RowSink* down, uint32_t batch_size)
    : resolvers_(std::move(resolvers)),
      down_(down),
      batch_size_(std::max<uint32_t>(1, batch_size)) {
  SJ_CHECK(resolvers_.size() >= 2);
  batch_.reserve(static_cast<size_t>(batch_size_) * resolvers_.size());
}

JoinRowAdapter::~JoinRowAdapter() = default;

RectF JoinRowAdapter::ContactBox(const std::vector<RectF>& rects) {
  SJ_DCHECK(!rects.empty());
  RectF box(rects[0].xlo, rects[0].ylo, rects[0].xhi, rects[0].yhi);
  for (size_t i = 1; i < rects.size(); ++i) {
    box.xlo = std::max(box.xlo, rects[i].xlo);
    box.ylo = std::max(box.ylo, rects[i].ylo);
    box.xhi = std::min(box.xhi, rects[i].xhi);
    box.yhi = std::min(box.yhi, rects[i].yhi);
  }
  // Overlapping members leave an intersection box; disjoint members (an
  // ε-distance pair) leave inverted corners — swap them into the gap box.
  if (box.xlo > box.xhi) std::swap(box.xlo, box.xhi);
  if (box.ylo > box.yhi) std::swap(box.ylo, box.yhi);
  return box;
}

void JoinRowAdapter::Emit(ObjectId a, ObjectId b) {
  SJ_DCHECK(resolvers_.size() == 2);
  batch_.push_back(a);
  batch_.push_back(b);
  if (batch_.size() >= static_cast<size_t>(batch_size_) * 2) FlushBatch();
}

void JoinRowAdapter::Emit(const std::vector<ObjectId>& tuple) {
  SJ_DCHECK(tuple.size() == resolvers_.size());
  batch_.insert(batch_.end(), tuple.begin(), tuple.end());
  if (batch_.size() >= static_cast<size_t>(batch_size_) * resolvers_.size()) {
    FlushBatch();
  }
}

void JoinRowAdapter::FlushBatch() {
  if (batch_.empty()) return;
  if (!status_.ok()) {
    batch_.clear();
    return;
  }
  const size_t arity = resolvers_.size();
  const size_t ntuples = batch_.size() / arity;
  // One sorted, page-coalesced lookup per input over the whole batch.
  std::vector<std::vector<RectF>> resolved(arity);
  std::vector<ObjectId> ids(ntuples);
  for (size_t i = 0; i < arity; ++i) {
    for (size_t t = 0; t < ntuples; ++t) ids[t] = batch_[t * arity + i];
    const Status s = resolvers_[i]->Lookup(ids, &resolved[i]);
    if (!s.ok()) {
      status_ = s;
      batch_.clear();
      return;
    }
  }
  std::vector<RectF> members(arity);
  for (size_t t = 0; t < ntuples; ++t) {
    for (size_t i = 0; i < arity; ++i) members[i] = resolved[i][t];
    PipeRow row;
    row.rect = ContactBox(members);
    row.ids.assign(batch_.begin() + t * arity,
                   batch_.begin() + (t + 1) * arity);
    rows_forwarded_++;
    down_->Emit(std::move(row));
  }
  batch_.clear();
}

Status JoinRowAdapter::Finish() {
  if (!finished_) {
    FlushBatch();
    finished_ = true;
  }
  return status_;
}

}  // namespace sj
