#include "join/partition_plan.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>
#include <sstream>

#include "io/stream.h"
#include "util/logging.h"

namespace sj {

std::string PartitionMap::Describe() const {
  std::ostringstream os;
  if (adaptive()) {
    os << "adaptive " << tiles_x() << "x" << tiles_y() << " base, "
       << leaf_tiles() << " leaves (" << split_tiles() << " split)";
  } else {
    os << "fixed " << tiles_x() << "x" << tiles_y();
  }
  os << ", " << partitions() << " partitions";
  return os.str();
}

uint32_t PbsmPartitionCount(uint64_t total_bytes, size_t memory_bytes,
                            double fill) {
  const uint64_t budget = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(memory_bytes) * fill));
  return static_cast<uint32_t>(
      std::max<uint64_t>(1, (total_bytes + budget - 1) / budget));
}

uint32_t PbsmWriterBlockPages(size_t memory_bytes, uint32_t partitions) {
  // 7/8 of the memory budget split across the 2p open partition writers
  // (the rest covers the distribution read block; the planner's
  // histograms are released before distribution starts), clamped to the
  // stream block the sequential passes use.
  return static_cast<uint32_t>(std::clamp<uint64_t>(
      static_cast<uint64_t>(memory_bytes) * 7 / 8 /
          (static_cast<uint64_t>(2) * std::max(1u, partitions) * kPageSize),
      4, kStreamBlockPages));
}

uint32_t AdaptiveBaseTilesPerAxis(uint32_t partitions) {
  // Several times more base tiles than partitions so bin-packing has room
  // to balance; coarse overall because splits refine the hot regions.
  const double tiles = std::ceil(std::sqrt(16.0 * partitions));
  return static_cast<uint32_t>(std::clamp(tiles, 8.0, 64.0));
}

// ---------------------------------------------------------------------------
// FixedGridPartitionMap (Patel & DeWitt round-robin, moved from pbsm.cc).
// ---------------------------------------------------------------------------

FixedGridPartitionMap::FixedGridPartitionMap(const RectF& extent,
                                             uint32_t tiles_per_axis,
                                             uint32_t partitions)
    : extent_(extent),
      tiles_(std::max(1u, tiles_per_axis)),
      partitions_(std::max(1u, partitions)) {
  tile_w_ = (extent.xhi - extent.xlo) / static_cast<float>(tiles_);
  tile_h_ = (extent.yhi - extent.ylo) / static_cast<float>(tiles_);
  if (!(tile_w_ > 0.0f)) tile_w_ = 1.0f;
  if (!(tile_h_ > 0.0f)) tile_h_ = 1.0f;
}

void FixedGridPartitionMap::PartitionsOf(const RectF& r,
                                         std::vector<uint32_t>* out) const {
  out->clear();
  const uint32_t x0 = TileX(r.xlo), x1 = TileX(r.xhi);
  const uint32_t y0 = TileY(r.ylo), y1 = TileY(r.yhi);
  const uint64_t span = static_cast<uint64_t>(x1 - x0 + 1) * (y1 - y0 + 1);
  if (span >= partitions_) {
    // A rectangle covering >= p tiles in a row-major round-robin grid
    // can touch every partition; enumerate them all.
    for (uint32_t p = 0; p < partitions_; ++p) out->push_back(p);
    return;
  }
  for (uint32_t ty = y0; ty <= y1; ++ty) {
    for (uint32_t tx = x0; tx <= x1; ++tx) {
      const uint32_t p = PartitionOfTile(tx, ty);
      if (std::find(out->begin(), out->end(), p) == out->end()) {
        out->push_back(p);
      }
    }
  }
}

uint32_t FixedGridPartitionMap::ReferencePartition(const RectF& r,
                                                   const RectF& s) const {
  const float rx = std::max(r.xlo, s.xlo);
  const float ry = std::max(r.ylo, s.ylo);
  return PartitionOfTile(TileX(rx), TileY(ry));
}

// ---------------------------------------------------------------------------
// AdaptivePartitionMap
// ---------------------------------------------------------------------------

uint32_t AdaptivePartitionMap::LeafForPoint(float x, float y) const {
  uint32_t t = BaseTileY(y) * nx_ + BaseTileX(x);
  while (tiles_[t].child >= 0) {
    const RectF& b = bounds_[t];
    const float mx = 0.5f * (b.xlo + b.xhi);
    const float my = 0.5f * (b.ylo + b.yhi);
    t = static_cast<uint32_t>(tiles_[t].child) + (y >= my ? 2u : 0u) +
        (x >= mx ? 1u : 0u);
  }
  return t;
}

void AdaptivePartitionMap::CollectPartitions(uint32_t tile,
                                             const RectF& bounds,
                                             const RectF& r,
                                             std::vector<uint32_t>* out) const {
  if (tiles_[tile].child < 0) {
    const uint32_t p = tiles_[tile].partition;
    if (std::find(out->begin(), out->end(), p) == out->end()) {
      out->push_back(p);
    }
    return;
  }
  // Quadrant membership uses the same half-open comparisons as the point
  // descent in LeafForPoint (left/lower quadrants own [lo, mid), right/
  // upper own [mid, hi]), so the reference-point tile is always among the
  // tiles either rectangle replicates into.
  const uint32_t child = static_cast<uint32_t>(tiles_[tile].child);
  const float mx = 0.5f * (bounds.xlo + bounds.xhi);
  const float my = 0.5f * (bounds.ylo + bounds.yhi);
  const bool left = r.xlo < mx, right = r.xhi >= mx;
  const bool lower = r.ylo < my, upper = r.yhi >= my;
  if (lower && left) CollectPartitions(child + 0, bounds_[child + 0], r, out);
  if (lower && right) CollectPartitions(child + 1, bounds_[child + 1], r, out);
  if (upper && left) CollectPartitions(child + 2, bounds_[child + 2], r, out);
  if (upper && right) CollectPartitions(child + 3, bounds_[child + 3], r, out);
}

void AdaptivePartitionMap::PartitionsOf(const RectF& r,
                                        std::vector<uint32_t>* out) const {
  out->clear();
  const uint32_t x0 = BaseTileX(r.xlo), x1 = BaseTileX(r.xhi);
  const uint32_t y0 = BaseTileY(r.ylo), y1 = BaseTileY(r.yhi);
  for (uint32_t ty = y0; ty <= y1; ++ty) {
    for (uint32_t tx = x0; tx <= x1; ++tx) {
      const uint32_t t = ty * nx_ + tx;
      CollectPartitions(t, bounds_[t], r, out);
    }
  }
}

uint32_t AdaptivePartitionMap::ReferencePartition(const RectF& r,
                                                  const RectF& s) const {
  const float rx = std::max(r.xlo, s.xlo);
  const float ry = std::max(r.ylo, s.ylo);
  return tiles_[LeafForPoint(rx, ry)].partition;
}

// ---------------------------------------------------------------------------
// PartitionPlanner
// ---------------------------------------------------------------------------

std::unique_ptr<AdaptivePartitionMap> PartitionPlanner::Plan(
    const RectF& extent, const GridHistogram& hist_a,
    const GridHistogram& hist_b, const PartitionPlannerConfig& config) {
  auto map = std::make_unique<AdaptivePartitionMap>();
  map->extent_ = extent;

  const uint64_t total_records = hist_a.total() + hist_b.total();
  const uint32_t rough_partitions =
      PbsmPartitionCount(total_records * sizeof(RectF), config.memory_bytes,
                         config.partition_fill);
  uint32_t base = config.base_tiles_per_axis != 0
                      ? config.base_tiles_per_axis
                      : AdaptiveBaseTilesPerAxis(rough_partitions);
  base = std::clamp(base, 1u, std::max(1u, config.max_resolution));
  map->nx_ = base;
  map->ny_ = base;
  map->tile_w_ = (extent.xhi - extent.xlo) / static_cast<float>(base);
  map->tile_h_ = (extent.yhi - extent.ylo) / static_cast<float>(base);
  if (!(map->tile_w_ > 0.0f)) map->tile_w_ = 1.0f;
  if (!(map->tile_h_ > 0.0f)) map->tile_h_ = 1.0f;

  const double partition_budget =
      std::max(1.0, config.partition_fill *
                        static_cast<double>(config.memory_bytes));
  const double split_threshold =
      std::max(static_cast<double>(sizeof(RectF)),
               config.split_fraction * partition_budget);
  auto weight_of = [&](const RectF& bounds) {
    return (hist_a.EstimateCountIn(bounds) + hist_b.EstimateCountIn(bounds)) *
           static_cast<double>(sizeof(RectF));
  };

  // Base tiles, then breadth-first recursive splits of overfull tiles
  // while quadrant estimates still carry information (effective
  // resolution <= max_resolution) and the geometry still halves cleanly.
  map->tiles_.assign(static_cast<size_t>(base) * base,
                     AdaptivePartitionMap::Tile{});
  map->bounds_.resize(map->tiles_.size());
  std::vector<double> weights(map->tiles_.size());
  struct Pending {
    uint32_t tile;
    uint32_t depth;
  };
  std::deque<Pending> queue;
  for (uint32_t ty = 0; ty < base; ++ty) {
    for (uint32_t tx = 0; tx < base; ++tx) {
      const uint32_t t = ty * base + tx;
      map->bounds_[t] =
          RectF(extent.xlo + static_cast<float>(tx) * map->tile_w_,
                extent.ylo + static_cast<float>(ty) * map->tile_h_,
                extent.xlo + static_cast<float>(tx + 1) * map->tile_w_,
                extent.ylo + static_cast<float>(ty + 1) * map->tile_h_);
      weights[t] = weight_of(map->bounds_[t]);
      queue.push_back({t, 0});
    }
  }
  while (!queue.empty()) {
    const Pending item = queue.front();
    queue.pop_front();
    if (weights[item.tile] <= split_threshold) continue;
    if (static_cast<uint64_t>(base) << (item.depth + 1) >
        config.max_resolution) {
      continue;
    }
    const RectF b = map->bounds_[item.tile];
    const float mx = 0.5f * (b.xlo + b.xhi);
    const float my = 0.5f * (b.ylo + b.yhi);
    if (!(mx > b.xlo) || !(mx < b.xhi) || !(my > b.ylo) || !(my < b.yhi)) {
      continue;  // Degenerate halves; float resolution exhausted.
    }
    const int32_t child = static_cast<int32_t>(map->tiles_.size());
    map->tiles_[item.tile].child = child;
    map->split_tiles_++;
    const RectF quads[4] = {RectF(b.xlo, b.ylo, mx, my),
                            RectF(mx, b.ylo, b.xhi, my),
                            RectF(b.xlo, my, mx, b.yhi),
                            RectF(mx, my, b.xhi, b.yhi)};
    for (const RectF& q : quads) {
      map->tiles_.push_back(AdaptivePartitionMap::Tile{});
      map->bounds_.push_back(q);
      weights.push_back(weight_of(q));
      queue.push_back({static_cast<uint32_t>(map->tiles_.size() - 1),
                       item.depth + 1});
    }
  }

  // Leaves, heaviest first (stable tie-break on tile index so the plan is
  // deterministic), onto the currently lightest partition. The partition
  // count comes from the true record mass (the same formula the fixed
  // path uses), not the replication-inflated tile weights: bin-packing
  // then *fills* each partition to the budget instead of provisioning
  // extra ones, and extra partitions are pure overhead (more open
  // writers, more non-sequential flushes).
  std::vector<uint32_t> leaves;
  for (uint32_t t = 0; t < map->tiles_.size(); ++t) {
    if (map->tiles_[t].child < 0) leaves.push_back(t);
  }
  map->leaf_tiles_ = static_cast<uint32_t>(leaves.size());
  const uint32_t partitions = static_cast<uint32_t>(std::clamp<uint64_t>(
      PbsmPartitionCount(total_records * sizeof(RectF), config.memory_bytes,
                         config.partition_fill),
      1, leaves.size()));
  map->partitions_ = partitions;
  std::sort(leaves.begin(), leaves.end(), [&](uint32_t a, uint32_t b) {
    if (weights[a] != weights[b]) return weights[a] > weights[b];
    return a < b;
  });

  using Load = std::pair<double, uint32_t>;
  std::priority_queue<Load, std::vector<Load>, std::greater<Load>> heap;
  for (uint32_t p = 0; p < partitions; ++p) heap.push({0.0, p});
  for (uint32_t leaf : leaves) {
    Load lightest = heap.top();
    heap.pop();
    map->tiles_[leaf].partition = lightest.second;
    lightest.first += weights[leaf];
    heap.push(lightest);
  }
  return map;
}

}  // namespace sj
