#ifndef USJ_JOIN_STRIP_MAP_H_
#define USJ_JOIN_STRIP_MAP_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geometry/extent.h"
#include "geometry/rect.h"

namespace sj {

/// 1-D vertical strip geometry of SSSJ's strip fallback: the sweep domain
/// is cut into equal-width strips, a rectangle is replicated into every
/// strip it overlaps, and a result is reported only in the strip owning
/// the left edge of the overlap (the reference-point test).
class StripMap {
 public:
  StripMap(const RectF& extent, uint32_t strips)
      : xlo_(extent.xlo), strips_(std::max(1u, strips)) {
    width_ = (extent.xhi - extent.xlo) / static_cast<float>(strips_);
    if (!(width_ > 0.0f)) {
      strips_ = 1;
      width_ = 1.0f;
    }
  }

  /// The strip holding `x`; coordinates outside the extent land in the
  /// boundary strips.
  uint32_t StripOf(float x) const {
    return ClampedCell((x - xlo_) / width_, strips_);
  }
  /// The strips `r` overlaps, in order (`out` is cleared first).
  void StripsOf(const RectF& r, std::vector<uint32_t>* out) const {
    out->clear();
    const uint32_t last = StripOf(r.xhi);
    for (uint32_t s = StripOf(r.xlo); s <= last; ++s) out->push_back(s);
  }
  /// Strip `s`'s slice of `extent`, the extent the map was built on: its
  /// x-range, with the outer strips' outer edges at the extent's own (a
  /// one-strip map returns `extent` itself).
  RectF Strip(uint32_t s, const RectF& extent) const {
    RectF strip = extent;
    if (s > 0) strip.xlo = xlo_ + static_cast<float>(s) * width_;
    if (s + 1 < strips_) strip.xhi = xlo_ + static_cast<float>(s + 1) * width_;
    return strip;
  }
  uint32_t strips() const { return strips_; }

 private:
  float xlo_;
  uint32_t strips_;
  float width_;
};

}  // namespace sj

#endif  // USJ_JOIN_STRIP_MAP_H_
