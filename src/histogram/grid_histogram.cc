#include "histogram/grid_histogram.h"

#include <algorithm>
#include <cstring>

#include "geometry/extent.h"
#include "io/stream.h"
#include "util/logging.h"

namespace sj {

GridHistogram::GridHistogram(const RectF& extent, uint32_t nx, uint32_t ny)
    : extent_(extent), nx_(std::max(1u, nx)), ny_(std::max(1u, ny)) {
  cell_w_ = (extent_.xhi - extent_.xlo) / static_cast<float>(nx_);
  cell_h_ = (extent_.yhi - extent_.ylo) / static_cast<float>(ny_);
  if (!(cell_w_ > 0.0f)) {
    nx_ = 1;
    cell_w_ = 1.0f;
  }
  if (!(cell_h_ > 0.0f)) {
    ny_ = 1;
    cell_h_ = 1.0f;
  }
  cells_.assign(static_cast<size_t>(nx_) * ny_, 0);
}

Result<GridHistogram> GridHistogram::Build(const StreamRange& input,
                                           const RectF& extent, uint32_t nx,
                                           uint32_t ny) {
  GridHistogram hist(extent, nx, ny);
  StreamReader<RectF> reader(input.pager, input.first_page, input.count);
  while (std::optional<RectF> r = reader.Next()) {
    if (!r->Valid()) {
      return Status::InvalidArgument("malformed rectangle in histogram input");
    }
    hist.Add(*r);
  }
  SJ_RETURN_IF_ERROR(reader.status());
  return hist;
}

Result<GridHistogram> GridHistogram::BuildSampled(const StreamRange& input,
                                                  const RectF& extent,
                                                  uint32_t nx, uint32_t ny,
                                                  uint32_t sample_one_in) {
  sample_one_in = std::max(1u, sample_one_in);
  if (sample_one_in == 1) return Build(input, extent, nx, ny);
  GridHistogram hist(extent, nx, ny);
  constexpr uint32_t kRecordsPerPage = StreamReader<RectF>::kRecordsPerPage;
  const uint64_t per_block = uint64_t{kRecordsPerPage} * kStreamBlockPages;
  std::vector<uint8_t> buffer(kStreamBlockPages * kPageSize);
  for (uint64_t block = 0; block * per_block < input.count;
       block += sample_one_in) {
    const uint64_t first_record = block * per_block;
    const uint64_t take = std::min(input.count - first_record, per_block);
    const uint32_t npages = static_cast<uint32_t>(
        (take + kRecordsPerPage - 1) / kRecordsPerPage);
    SJ_RETURN_IF_ERROR(input.pager->ReadRun(
        input.first_page + block * kStreamBlockPages, npages, buffer.data()));
    for (uint64_t i = 0; i < take; ++i) {
      const uint64_t page = i / kRecordsPerPage;
      const uint64_t slot = i % kRecordsPerPage;
      RectF r;
      std::memcpy(&r, buffer.data() + page * kPageSize + slot * sizeof(RectF),
                  sizeof(RectF));
      if (!r.Valid()) {
        return Status::InvalidArgument(
            "malformed rectangle in histogram input");
      }
      hist.Add(r);
    }
  }
  hist.ScaleTo(input.count);
  return hist;
}

void GridHistogram::ScaleTo(uint64_t target_total) {
  if (total_ == 0 || total_ == target_total) return;
  const double factor = static_cast<double>(target_total) /
                        static_cast<double>(total_);
  mass_ = 0;
  for (uint64_t& c : cells_) {
    c = static_cast<uint64_t>(static_cast<double>(c) * factor + 0.5);
    mass_ += c;
  }
  total_ = target_total;
}

void GridHistogram::CellRange(const RectF& r, uint32_t* x0, uint32_t* x1,
                              uint32_t* y0, uint32_t* y1) const {
  *x0 = ClampedCell((r.xlo - extent_.xlo) / cell_w_, nx_);
  *x1 = ClampedCell((r.xhi - extent_.xlo) / cell_w_, nx_);
  *y0 = ClampedCell((r.ylo - extent_.ylo) / cell_h_, ny_);
  *y1 = ClampedCell((r.yhi - extent_.ylo) / cell_h_, ny_);
}

void GridHistogram::Add(const RectF& r) {
  uint32_t x0, x1, y0, y1;
  CellRange(r, &x0, &x1, &y0, &y1);
  for (uint32_t y = y0; y <= y1; ++y) {
    for (uint32_t x = x0; x <= x1; ++x) {
      cells_[static_cast<size_t>(y) * nx_ + x]++;
    }
  }
  if (x0 <= x1 && y0 <= y1) mass_ += uint64_t{x1 - x0 + 1} * (y1 - y0 + 1);
  total_++;
}

bool GridHistogram::MightIntersect(const RectF& r) const {
  if (total_ == 0) return false;
  if (!r.Intersects(extent_)) return false;
  uint32_t x0, x1, y0, y1;
  CellRange(r, &x0, &x1, &y0, &y1);
  for (uint32_t y = y0; y <= y1; ++y) {
    for (uint32_t x = x0; x <= x1; ++x) {
      if (cells_[static_cast<size_t>(y) * nx_ + x] != 0) return true;
    }
  }
  return false;
}

double GridHistogram::EstimateCountIn(const RectF& r) const {
  // Invalid (inverted / NaN) and fully-outside rectangles contribute no
  // mass; neither do degenerate (zero-area) ones — the estimator is a
  // fractional-area model, and a zero-measure query must come out as an
  // exact 0 rather than a NaN from 0-times-infinity corner cases.
  if (total_ == 0 || !r.Valid() || !r.Intersects(extent_)) return 0.0;
  if (!(r.Area() > 0.0)) return 0.0;
  uint32_t x0, x1, y0, y1;
  CellRange(r, &x0, &x1, &y0, &y1);
  const double cell_area =
      static_cast<double>(cell_w_) * static_cast<double>(cell_h_);
  double estimate = 0.0;
  for (uint32_t y = y0; y <= y1; ++y) {
    const float cell_ylo = extent_.ylo + static_cast<float>(y) * cell_h_;
    const double oy =
        std::max(0.0, static_cast<double>(
                          std::min(r.yhi, cell_ylo + cell_h_) -
                          std::max(r.ylo, cell_ylo)));
    for (uint32_t x = x0; x <= x1; ++x) {
      const uint64_t count = cells_[static_cast<size_t>(y) * nx_ + x];
      if (count == 0) continue;
      const float cell_xlo = extent_.xlo + static_cast<float>(x) * cell_w_;
      const double ox =
          std::max(0.0, static_cast<double>(
                            std::min(r.xhi, cell_xlo + cell_w_) -
                            std::max(r.xlo, cell_xlo)));
      estimate += static_cast<double>(count) * (ox * oy) / cell_area;
    }
  }
  return estimate;
}

double GridHistogram::AverageCellsPerObject() const {
  if (total_ == 0) return 1.0;
  return std::max(1.0,
                  static_cast<double>(mass_) / static_cast<double>(total_));
}

double GridHistogram::EstimateJoinFraction(const GridHistogram& other) const {
  SJ_CHECK(nx_ == other.nx_ && ny_ == other.ny_)
      << "histograms must share a grid";
  if (total_ == 0) return 0.0;
  // Cell mass is the count of overlapping rectangles, so the sum over
  // cells exceeds total_ for large objects; normalizing by the full mass
  // keeps the estimate in [0, 1]. Integer sums, so the result is what
  // summing the counts as doubles gives.
  uint64_t joined = 0;
  for (size_t i = 0; i < cells_.size(); ++i) {
    joined += other.cells_[i] != 0 ? cells_[i] : 0;
  }
  return mass_ > 0 ? static_cast<double>(joined) / static_cast<double>(mass_)
                   : 0.0;
}

}  // namespace sj
