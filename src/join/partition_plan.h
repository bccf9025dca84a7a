#ifndef USJ_JOIN_PARTITION_PLAN_H_
#define USJ_JOIN_PARTITION_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "geometry/extent.h"
#include "geometry/rect.h"
#include "histogram/grid_histogram.h"

namespace sj {

/// The tile-to-partition geometry behind PBSM (§3.2): maps rectangles to
/// the partitions they replicate into and resolves the reference-point
/// duplicate-suppression test. Two implementations exist — the paper's
/// fixed uniform grid with row-major round-robin assignment, and the
/// skew-adaptive plan produced by PartitionPlanner — and PBSMJoin runs
/// the same distribution/join phases against either.
///
/// Correctness contract shared by all implementations: every (x, y) point
/// of the plane maps to exactly one tile, every tile belongs to exactly
/// one partition, and PartitionsOf(r) includes the partition of every
/// tile r overlaps. Then the reference point of a pair (the lower-left
/// corner of the intersection) lies in exactly one tile, both rectangles
/// are replicated into that tile's partition, and reporting the pair only
/// there makes the output exact and duplicate free.
class PartitionMap {
 public:
  virtual ~PartitionMap() = default;

  virtual uint32_t partitions() const = 0;

  /// Appends the distinct partitions overlapping `r` to `out` (cleared
  /// first).
  virtual void PartitionsOf(const RectF& r,
                            std::vector<uint32_t>* out) const = 0;

  /// The partition owning the reference point of the pair (r, s): the
  /// lower-left corner of r ∩ s, which both rectangles necessarily
  /// overlap.
  virtual uint32_t ReferencePartition(const RectF& r,
                                      const RectF& s) const = 0;

  /// Base grid shape and leaf statistics, for JoinStats / Explain.
  virtual uint32_t tiles_x() const = 0;
  virtual uint32_t tiles_y() const = 0;
  /// Tiles after recursive splits (== tiles_x * tiles_y for fixed grids).
  virtual uint32_t leaf_tiles() const = 0;
  /// Base tiles the planner split recursively (0 for fixed grids).
  virtual uint32_t split_tiles() const { return 0; }
  virtual bool adaptive() const = 0;

  /// One human-readable line: grid shape, splits, partition count.
  std::string Describe() const;
};

/// Patel & DeWitt's partitioning: a uniform `tiles_per_axis`^2 grid whose
/// tiles are assigned round-robin (in row-major order) to `partitions`
/// partitions. Skew answer: none — clustered data overflows partitions,
/// which the paper mitigated by raising the tile count (32^2 -> 128^2).
class FixedGridPartitionMap final : public PartitionMap {
 public:
  FixedGridPartitionMap(const RectF& extent, uint32_t tiles_per_axis,
                        uint32_t partitions);

  uint32_t partitions() const override { return partitions_; }
  void PartitionsOf(const RectF& r,
                    std::vector<uint32_t>* out) const override;
  uint32_t ReferencePartition(const RectF& r, const RectF& s) const override;
  uint32_t tiles_x() const override { return tiles_; }
  uint32_t tiles_y() const override { return tiles_; }
  uint32_t leaf_tiles() const override { return tiles_ * tiles_; }
  bool adaptive() const override { return false; }

 private:
  uint32_t TileX(float x) const {
    return ClampedCell((x - extent_.xlo) / tile_w_, tiles_);
  }
  uint32_t TileY(float y) const {
    return ClampedCell((y - extent_.ylo) / tile_h_, tiles_);
  }
  uint32_t PartitionOfTile(uint32_t tx, uint32_t ty) const {
    return (ty * tiles_ + tx) % partitions_;  // Row-major round-robin.
  }

  RectF extent_;
  uint32_t tiles_;
  uint32_t partitions_;
  float tile_w_;
  float tile_h_;
};

/// The skew-adaptive plan: a base grid whose overfull tiles are split
/// recursively into 2x2 quadrants (a flat quadtree over the base grid),
/// with leaf tiles assigned to partitions by weighted greedy bin-packing
/// (heaviest leaf first onto the lightest partition) instead of
/// round-robin. Built by PartitionPlanner; immutable afterwards.
class AdaptivePartitionMap final : public PartitionMap {
 public:
  uint32_t partitions() const override { return partitions_; }
  void PartitionsOf(const RectF& r,
                    std::vector<uint32_t>* out) const override;
  uint32_t ReferencePartition(const RectF& r, const RectF& s) const override;
  uint32_t tiles_x() const override { return nx_; }
  uint32_t tiles_y() const override { return ny_; }
  uint32_t leaf_tiles() const override { return leaf_tiles_; }
  uint32_t split_tiles() const override { return split_tiles_; }
  bool adaptive() const override { return true; }

  /// The leaf tile containing (x, y) (points outside the extent clamp to
  /// the boundary tiles). Exposed for the duplicate-suppression property
  /// tests.
  uint32_t LeafForPoint(float x, float y) const;

 private:
  friend class PartitionPlanner;

  /// One node of the tile tree. Base tiles occupy [0, nx*ny) in row-major
  /// order; children of split tiles are appended in quadrant order
  /// (lower-left, lower-right, upper-left, upper-right).
  struct Tile {
    int32_t child = -1;      ///< >= 0: index of the lower-left child.
    uint32_t partition = 0;  ///< Leaf tiles only.
  };

  uint32_t BaseTileX(float x) const {
    return ClampedCell((x - extent_.xlo) / tile_w_, nx_);
  }
  uint32_t BaseTileY(float y) const {
    return ClampedCell((y - extent_.ylo) / tile_h_, ny_);
  }
  void CollectPartitions(uint32_t tile, const RectF& bounds, const RectF& r,
                         std::vector<uint32_t>* out) const;

  RectF extent_;
  uint32_t nx_ = 1;
  uint32_t ny_ = 1;
  float tile_w_ = 1.0f;
  float tile_h_ = 1.0f;
  uint32_t partitions_ = 1;
  uint32_t leaf_tiles_ = 0;
  uint32_t split_tiles_ = 0;
  std::vector<Tile> tiles_;
  std::vector<RectF> bounds_;  ///< Parallel to tiles_ (descent midpoints).
};

/// Knobs for the adaptive planner. Defaults follow JoinOptions: the
/// memory budget is the partition-pair budget, partitions are filled to
/// `partition_fill` of it, and a tile estimated above `split_fraction`
/// of one partition's budget is split (until `max_resolution` tiles per
/// axis — normally the histogram resolution, beyond which quadrant
/// estimates carry no new information).
struct PartitionPlannerConfig {
  size_t memory_bytes = 24u << 20;
  /// Base grid resolution; 0 derives it from the partition count.
  uint32_t base_tiles_per_axis = 0;
  /// Finest effective resolution recursive splits may reach. May exceed
  /// the histogram resolution: below one histogram cell
  /// GridHistogram::EstimateCountIn degrades to a uniform-within-cell
  /// assumption, and splitting on it still quarters a hot blob
  /// *geometrically* — exactly what balancing needs. Data truly
  /// concentrated in a point defeats any resolution and falls back to
  /// the overflow path at run time.
  uint32_t max_resolution = 2048;
  /// Target fill of a partition's share of the memory budget. Higher
  /// than the fixed path's 0.8: weighted bin-packing plans balance, so
  /// it needs less slack than round-robin's unplanned imbalance, and
  /// every partition saved is one less open writer and one less
  /// non-sequential flush stream during distribution.
  double partition_fill = 0.95;
  double split_fraction = 0.5;
};

/// Builds AdaptivePartitionMaps from per-side histograms (§6.3's grid
/// histograms driving partitioning instead of a hand-tuned constant).
/// Pure CPU — the histograms are in memory; building *them* is the
/// charged pass (GridHistogram::Build), priced by
/// CostModel::HistogramPassSeconds.
class PartitionPlanner {
 public:
  /// Plans the tile tree and partition assignment for a join over
  /// `extent` whose per-side densities are estimated by `hist_a` /
  /// `hist_b` (any grid resolution or extent; weights are queried
  /// geometrically). Deterministic for fixed inputs.
  static std::unique_ptr<AdaptivePartitionMap> Plan(
      const RectF& extent, const GridHistogram& hist_a,
      const GridHistogram& hist_b, const PartitionPlannerConfig& config);
};

/// Block-sampling rate of PBSM's on-the-fly histogram build (see
/// GridHistogram::BuildSampled): one in this many stream blocks is
/// read. Shared with the cost model so HistogramPassSeconds prices the
/// pass the executor actually runs.
inline constexpr uint32_t kPbsmHistogramSampleOneInBlocks = 4;

/// Partitions needed so an average partition pair fills at most `fill`
/// of `memory_bytes` (shared by PBSMJoin's fixed path, the adaptive
/// planner and the cost-model pre-plan, so Explain reports the grid
/// execution would use). The fixed path keeps the paper's 0.8 slack;
/// the adaptive planner passes its partition_fill.
uint32_t PbsmPartitionCount(uint64_t total_bytes, size_t memory_bytes,
                            double fill = 0.8);

/// Base grid resolution the adaptive planner derives for `partitions`
/// when none is configured: coarse (splits refine it where the data
/// actually is), but with several times more tiles than partitions so
/// bin-packing has room to balance.
uint32_t AdaptiveBaseTilesPerAxis(uint32_t partitions);

/// Flush-block pages the adaptive plan budgets per open distribution
/// writer: most of the phase's memory spread across the 2p writers,
/// clamped to [4, kStreamBlockPages] (see PbsmWriters).
uint32_t PbsmWriterBlockPages(size_t memory_bytes, uint32_t partitions);

}  // namespace sj

#endif  // USJ_JOIN_PARTITION_PLAN_H_
