#ifndef USJ_HISTOGRAM_GRID_HISTOGRAM_H_
#define USJ_HISTOGRAM_GRID_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "geometry/rect.h"
#include "io/pager.h"
#include "sort/external_sort.h"
#include "util/result.h"

namespace sj {

/// A uniform-grid spatial histogram.
///
/// Stands in for the spatial histograms of Acharya, Poosala & Ramaswamy
/// [1], which the paper proposes for estimating what fraction of an index
/// a join will touch (§6.3). Each cell counts the rectangles overlapping
/// it; the occupancy bitmap supports conservative pruning ("might any
/// object live here?") for the selective PQ traversal.
class GridHistogram {
 public:
  /// A grid of `nx` x `ny` cells over `extent`. Rectangles outside the
  /// extent are clamped to the boundary cells.
  GridHistogram(const RectF& extent, uint32_t nx, uint32_t ny);

  /// Builds a histogram by scanning a stream (charged to its disk model).
  static Result<GridHistogram> Build(const StreamRange& input,
                                     const RectF& extent, uint32_t nx,
                                     uint32_t ny);

  /// Builds a histogram from a block sample of the stream: every
  /// `sample_one_in`-th 64-page block is read (block 0 always), and the
  /// cell counts are scaled to the stream's exact record count — the
  /// sampling construction of the Acharya–Poosala–Ramaswamy histograms
  /// the paper's §6.3 points at, so the density pass costs a fraction of
  /// a full scan. sample_one_in = 1 degrades to Build().
  static Result<GridHistogram> BuildSampled(const StreamRange& input,
                                            const RectF& extent, uint32_t nx,
                                            uint32_t ny,
                                            uint32_t sample_one_in);

  /// Rescales the cell counts so total() becomes `target_total`
  /// (rounding cells); no-op when total() is 0 or already the target.
  /// Used by the sampled build above.
  void ScaleTo(uint64_t target_total);

  /// Adds one rectangle (increments every cell it overlaps).
  void Add(const RectF& r);

  uint64_t CellCount(uint32_t ix, uint32_t iy) const {
    return cells_[iy * nx_ + ix];
  }
  bool Occupied(uint32_t ix, uint32_t iy) const {
    return cells_[iy * nx_ + ix] != 0;
  }

  /// Conservative test: false only if no added rectangle can intersect
  /// `r`. Used to prune R-tree subtrees in the selective PQ traversal.
  bool MightIntersect(const RectF& r) const;

  /// Estimates the fraction of this histogram's rectangle mass lying in
  /// cells where `other` has at least one object — an estimate of the
  /// fraction of this input (and, proportionally, of its index leaves)
  /// that participates in a join with `other`. Returns a value in [0, 1].
  double EstimateJoinFraction(const GridHistogram& other) const;

  /// Estimates how many of the added rectangles overlap `r`: each cell's
  /// count is weighted by the fraction of the cell `r` covers, so the
  /// estimate works for query rectangles of any size relative to the
  /// grid (the PartitionPlanner queries tile quadrants finer than one
  /// cell). Cell counts tally *overlapping* rectangles, so summing the
  /// estimate over a tiling of the extent counts replicated objects once
  /// per tile they touch — exactly the mass a PBSM partition holds.
  double EstimateCountIn(const RectF& r) const;

  /// Average number of cells an added rectangle overlaps (>= 1 when
  /// total() > 0) — the replication factor a tile grid at this
  /// resolution would induce. O(1): the cell mass is kept up to date.
  double AverageCellsPerObject() const;

  /// Number of rectangles added.
  uint64_t total() const { return total_; }
  const RectF& extent() const { return extent_; }
  uint32_t nx() const { return nx_; }
  uint32_t ny() const { return ny_; }

 private:
  void CellRange(const RectF& r, uint32_t* x0, uint32_t* x1, uint32_t* y0,
                 uint32_t* y1) const;

  RectF extent_;
  uint32_t nx_;
  uint32_t ny_;
  float cell_w_;
  float cell_h_;
  std::vector<uint64_t> cells_;
  uint64_t total_ = 0;
  /// Sum of cells_: each rectangle counts once per cell it overlaps.
  /// Add and ScaleTo keep it current.
  uint64_t mass_ = 0;
};

}  // namespace sj

#endif  // USJ_HISTOGRAM_GRID_HISTOGRAM_H_
