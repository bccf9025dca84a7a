#ifndef USJ_GEOMETRY_EXTENT_H_
#define USJ_GEOMETRY_EXTENT_H_

#include <algorithm>
#include <cstdint>

#include "geometry/rect.h"
#include "util/span.h"

namespace sj {

/// Returns the bounding rectangle of a set of rectangles; RectF::Empty()
/// for an empty input. The returned rectangle's id is 0.
inline RectF ComputeExtent(Span<const RectF> rects) {
  RectF extent = RectF::Empty();
  for (const RectF& r : rects) extent.ExtendTo(r);
  extent.id = 0;
  return extent;
}

/// The cell, of `n` equal cells along one axis, holding a coordinate
/// `rel` cell widths past the axis's low edge. Clamps in float space
/// before the integer cast: casting a float beyond uint32_t's range
/// (far-away or infinite coordinates) is undefined behaviour, not a
/// saturation. NaN and everything below the first cell land in cell 0,
/// everything past the last in cell n - 1.
inline uint32_t ClampedCell(float rel, uint32_t n) {
  if (!(rel > 0.0f)) return 0;
  return static_cast<uint32_t>(std::min(rel, static_cast<float>(n - 1)));
}

}  // namespace sj

#endif  // USJ_GEOMETRY_EXTENT_H_
