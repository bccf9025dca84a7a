#ifndef USJ_SWEEP_INTERVAL_STRUCTURES_H_
#define USJ_SWEEP_INTERVAL_STRUCTURES_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "geometry/rect.h"
#include "sweep/sweep_kernels.h"
#include "util/logging.h"

namespace sj {

/// Which interval structure a sweep uses. The paper's implementations use
/// Forward-Sweep inside PBSM and ST (as the original publications did) and
/// Striped-Sweep — the fastest structure in the SSSJ study [4] — inside
/// SSSJ and PQ.
enum class SweepStructureKind {
  kForward,
  kStriped,
};

inline const char* ToString(SweepStructureKind k) {
  return k == SweepStructureKind::kForward ? "forward" : "striped";
}

/// Forward-Sweep interval structure (Brinkhoff et al. / Patel & DeWitt).
///
/// The active set is stored struct-of-arrays (parallel xlo/ylo/xhi/yhi/id
/// lanes): a query classifies all lanes in one contiguous kernel pass
/// (sweep/sweep_kernels.h: 16-lane blocks the compiler vectorizes, then a
/// scalar tail), then a branch-light compaction drops expired lanes while
/// matches are emitted.
/// Insertion is an append. Simple and cache friendly, but every query
/// pays for the full active set.
///
/// Emit contract: QueryAndExpire reports matches *by value* — the emitted
/// RectF is a lane copy, never a reference into the arrays the compaction
/// is rewriting — and the emit callback must not reenter Insert or
/// QueryAndExpire on this structure.
class ForwardSweep {
 public:
  /// `extent` is unused (the structure is extent-agnostic); the parameter
  /// exists so both structures construct uniformly.
  ForwardSweep(const RectF& extent, uint32_t strips) {
    (void)extent;
    (void)strips;
  }
  ForwardSweep() : ForwardSweep(RectF(), 0) {}

  void Insert(const RectF& r) {
    active_.PushBack(r);
    inserts_since_purge_++;
    // Amortized self-purge: queries against this structure expire entries,
    // but a long one-sided stretch of input (e.g. a region covered by only
    // one relation) would otherwise let passed rectangles pile up. The
    // threshold tracks the live size, so the structure stays within a
    // small constant factor of the truly-active set (pinned by
    // sweep_structures_test's one-sided pile-up regressions).
    if (inserts_since_purge_ > active_.size() / 2 + 64) {
      PurgeExpired(r.ylo);
      inserts_since_purge_ = 0;
    }
  }

  /// Reports every active rectangle whose x-interval overlaps `q` to
  /// `emit(const RectF&)` (a by-value lane copy — see the class emit
  /// contract), expiring rectangles with yhi < q.ylo along the way.
  /// `q.ylo` is the current sweep-line position.
  template <typename Emit>
  void QueryAndExpire(const RectF& q, Emit&& emit) {
    const size_t n = active_.size();
    mask_.resize(n);
    kernels::ClassifySweepLanes(active_.xlo.data(), active_.xhi.data(),
                                active_.yhi.data(), n, q.xlo, q.xhi, q.ylo,
                                mask_.data());
    size_t keep = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint8_t m = mask_[i];
      if ((m & kernels::kLaneKeep) == 0) continue;  // Expired: drop.
      if (keep != i) active_.MoveLane(i, keep);
      if ((m & kernels::kLaneMatch) != 0) emit(active_.Lane(keep));
      keep++;
    }
    active_.Resize(keep);
    // A query compacts the whole active set, which is exactly what the
    // amortized purge would do — restart its insert counter.
    inserts_since_purge_ = 0;
  }

  size_t ActiveCount() const { return active_.size(); }
  /// Logical footprint in the paper's 20-byte-record units (Table 3's
  /// "Sweep Structure" row).
  size_t MemoryBytes() const { return active_.size() * sizeof(RectF); }
  /// Forward-Sweep has no strips to collapse.
  bool StripsCollapsed() const { return false; }

 private:
  void PurgeExpired(float y) {
    mask_.resize(active_.size());
    kernels::ExpiryKeepMask(active_.yhi.data(), active_.size(), y,
                            mask_.data());
    active_.CompactKept(mask_.data());
  }

  SoaRects active_;
  std::vector<uint8_t> mask_;
  size_t inserts_since_purge_ = 0;  // Copies stored since the last purge.
};

/// Striped-Sweep interval structure (Arge et al. [4]).
///
/// The x-extent is divided into equal-width strips; an active rectangle is
/// stored in every strip its x-interval overlaps, and a query scans only
/// the strips the query rectangle overlaps. Each overlapping pair is
/// reported exactly once: in the strip containing the left endpoint of the
/// x-overlap region. On the paper's data this is 2-5x faster than
/// Forward-Sweep because queries touch a small fraction of the active set.
///
/// A coordinate's strip is floor((x - xlo) / width), computed in double
/// precision and clamped to [0, strips). The sweep never divides: the
/// constructor finds each strip's edge, the smallest float that division
/// puts in the strip or right of it, and StripIndex multiplies by
/// 1 / width, whose floor is at most one strip off, then corrects against
/// the edges. The dedup test needs no index at all: a stored copy whose
/// overlap starts right of the query's first strip s0 is reported in
/// strip s exactly when its xlo is at or right of edge s.
///
/// Each strip is a plain RectF array. A strip holds a handful of entries
/// on real data, so a query classifies and compacts each strip in one
/// inline pass without a data-dependent branch, collecting the matching
/// slots, and emits them after the pass in list order; the lane kernels
/// pay off only on ForwardSweep's long active lists. The ForwardSweep
/// emit contract (by-value emission, no reentry) applies here too.
///
/// Striping arithmetic is hardened against degenerate extents: the strip
/// width is computed in double precision (a float-sized extent such as
/// [-3e38, 3e38] used to overflow (xhi-xlo) to +inf, silently landing
/// every rectangle in strip 0 — Forward-Sweep behaviour at Striped-Sweep
/// cost, with no signal), non-finite or zero-width extents collapse to a
/// single strip with StripsCollapsed() raised (surfaced via
/// SweepRunStats::strips_collapsed and JoinStats), and StripIndex clamps
/// before the float-to-integer cast so out-of-range and NaN coordinates
/// deterministically land in a boundary strip instead of invoking UB —
/// the same clamp-before-cast hardening GridHistogram::EstimateCountIn
/// received.
class StripedSweep {
 public:
  /// `extent` must span all x-coordinates that will be inserted or
  /// queried; values outside are clamped to the boundary strips.
  StripedSweep(const RectF& extent, uint32_t strips)
      : xlo_(static_cast<double>(extent.xlo)),
        strips_(std::max<uint32_t>(1, strips)) {
    const double span =
        static_cast<double>(extent.xhi) - static_cast<double>(extent.xlo);
    if (!std::isfinite(xlo_) || !std::isfinite(span) || !(span > 0.0)) {
      // Degenerate or non-finite extent: a meaningful striping does not
      // exist. Collapse to one strip (= Forward-Sweep behaviour) and say
      // so, instead of silently degrading.
      collapsed_ = strips_ > 1;
      strips_ = 1;
      xlo_ = 0.0;
      width_ = 1.0;
    } else {
      width_ = span / static_cast<double>(strips_);
    }
    inv_width_ = 1.0 / width_;
    // edges_[0] admits every coordinate, and the NaN after the last edge
    // admits none, so StripIndex reads s + 1 without a bound check.
    edges_.resize(strips_ + 1);
    edges_[0] = -std::numeric_limits<float>::infinity();
    for (uint32_t s = 1; s < strips_; ++s) edges_[s] = FindEdge(s);
    edges_[strips_] = std::numeric_limits<float>::quiet_NaN();
    lists_.resize(strips_);
  }

  void Insert(const RectF& r) {
    const uint32_t s0 = StripIndex(r.xlo);
    const uint32_t s1 = std::max(s0, StripIndex(r.xhi));
    for (uint32_t s = s0; s <= s1; ++s) lists_[s].push_back(r);
    entries_ += s1 - s0 + 1;
    inserts_since_purge_ += s1 - s0 + 1;
    // Amortized cleanup: strips a sweep never queries again would
    // otherwise retain expired rectangles forever. Counted in copies, like
    // entries_, so rectangles spanning many strips still trigger it. A
    // purge visits every strip and every stored copy, so the slack before
    // the next one grows with both, keeping its cost per copy constant.
    if (inserts_since_purge_ > entries_ / 2 + strips_) Purge(r.ylo);
  }

  template <typename Emit>
  void QueryAndExpire(const RectF& q, Emit&& emit) {
    const uint32_t s0 = StripIndex(q.xlo);
    const uint32_t s1 = std::max(s0, StripIndex(q.xhi));
    for (uint32_t s = s0; s <= s1; ++s) {
      std::vector<RectF>& list = lists_[s];
      const size_t n = list.size();
      if (hits_.size() < n) hits_.resize(n);
      // Dedup: report only in the strip holding the overlap's left edge,
      // max(q.xlo, r.xlo): strip s0 reports every overlap, a later strip
      // only copies whose xlo lies in it.
      const float home =
          s == s0 ? -std::numeric_limits<float>::infinity() : edges_[s];
      RectF* rects = list.data();
      uint32_t* hits = hits_.data();
      size_t keep = 0;
      size_t found = 0;
      for (size_t i = 0; i < n; ++i) {
        const RectF r = rects[i];
        const bool live = !(r.yhi < q.ylo);  // Else expired: dropped.
        const bool hit = live & (r.xlo <= q.xhi) & (q.xlo <= r.xhi) &
                         (r.xlo >= home);
        rects[keep] = r;
        hits[found] = static_cast<uint32_t>(keep);
        keep += live;
        found += hit;
      }
      entries_ -= n - keep;
      list.resize(keep);
      for (size_t j = 0; j < found; ++j) {
        const RectF r = rects[hits[j]];
        emit(r);
      }
    }
  }

  size_t ActiveCount() const { return entries_; }
  /// Logical footprint: stored copies across strips, in 20-byte-record
  /// units.
  size_t MemoryBytes() const { return entries_ * sizeof(RectF); }
  /// True when the requested striping could not be honored (degenerate or
  /// non-finite extent) and the structure fell back to a single strip.
  bool StripsCollapsed() const { return collapsed_; }
  uint32_t strips() const { return strips_; }

  /// The strip `x` falls in: floor((x - xlo) / width) in double
  /// precision, clamped to [0, strips). NaN coordinates and everything
  /// left of the extent land in strip 0, everything right of it in the
  /// last strip.
  uint32_t StripIndex(float x) const {
    const double rel = (static_cast<double>(x) - xlo_) * inv_width_;
    // Clamp *before* the integer cast — a huge rel cast straight to
    // uint32_t is UB.
    uint32_t s = 0;
    if (rel >= static_cast<double>(strips_)) {
      s = strips_ - 1;
    } else if (rel > 0.0) {
      s = static_cast<uint32_t>(rel);
    }
    // The product's floor is the quotient's or one off; the edges decide.
    return s - (x < edges_[s]) + (x >= edges_[s + 1]);
  }

 private:
  /// Whether the division puts `x` in strip `s` or right of it: for
  /// 0 < s < strips that is exactly rel >= s, NaN excluded.
  bool AtOrRightOfEdge(float x, uint32_t s) const {
    return (static_cast<double>(x) - xlo_) / width_ >=
           static_cast<double>(s);
  }

  /// The smallest float the division puts in strip `s` or right of it,
  /// for 0 < s < strips. The division is monotone in x, so a bisection
  /// over the float order finds it. Its first probes walk from
  /// float(xlo + s * width), which is almost always the edge or a float
  /// beside it; the halving takes over where many floats share one
  /// quotient (near zero in a huge extent, whose (x - xlo) in double
  /// absorbs every small x), where a walk would take up to ~10^9 steps.
  float FindEdge(uint32_t s) const {
    constexpr float kInf = std::numeric_limits<float>::infinity();
    constexpr int kWalk = 4;
    auto at_or_right = [&](int64_t key) {
      return AtOrRightOfEdge(FloatOfOrderKey(key), s);
    };
    int64_t lo = FloatOrderKey(-kInf);  // Left of the edge.
    int64_t hi = FloatOrderKey(kInf);   // At or right of it.
    int64_t key = FloatOrderKey(
        static_cast<float>(xlo_ + static_cast<double>(s) * width_));
    const int64_t step = at_or_right(key) ? -1 : 1;
    (step < 0 ? hi : lo) = key;
    for (int i = 0; i < kWalk && hi - lo > 1; ++i) {
      key += step;
      (at_or_right(key) ? hi : lo) = key;
    }
    while (hi - lo > 1) {
      const int64_t mid = lo + (hi - lo) / 2;
      (at_or_right(mid) ? hi : lo) = mid;
    }
    return FloatOfOrderKey(hi);
  }

  /// Non-NaN floats as integers in their numeric order (-0 and +0 share
  /// 0), and back.
  static int64_t FloatOrderKey(float x) {
    uint32_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    const int64_t magnitude = bits & 0x7fffffffu;
    return (bits & 0x80000000u) != 0 ? -magnitude : magnitude;
  }
  static float FloatOfOrderKey(int64_t key) {
    const uint32_t bits = key < 0 ? 0x80000000u | static_cast<uint32_t>(-key)
                                  : static_cast<uint32_t>(key);
    float x;
    std::memcpy(&x, &bits, sizeof(x));
    return x;
  }

  void Purge(float y) {
    for (std::vector<RectF>& list : lists_) {
      const size_t n = list.size();
      list.erase(std::remove_if(list.begin(), list.end(),
                                [y](const RectF& r) { return r.yhi < y; }),
                 list.end());
      entries_ -= n - list.size();
    }
    inserts_since_purge_ = 0;
  }

  double xlo_;
  uint32_t strips_;
  double width_ = 1.0;
  double inv_width_ = 1.0;
  bool collapsed_ = false;
  /// edges_[s] is the smallest float in strip s or right of it; see the
  /// constructor for the two sentinels.
  std::vector<float> edges_;
  std::vector<std::vector<RectF>> lists_;
  std::vector<uint32_t> hits_;  // A strip's matching slots, per query.
  size_t entries_ = 0;  // Total stored copies across strips.
  size_t inserts_since_purge_ = 0;  // Copies stored since the last purge.
};

}  // namespace sj

#endif  // USJ_SWEEP_INTERVAL_STRUCTURES_H_
