#include "join/predicate_batch.h"

#include <algorithm>
#include <vector>

namespace sj {
namespace {

using geometry_internal::Orientation;
using geometry_internal::PointSegmentDistanceSquared;

/// Branch-free flat pass over the proper-intersection sign test. Lanes
/// where any orientation is exactly zero (collinear or endpoint-touching
/// configurations — rare on real data) are marked in `needs_exact` and
/// left false; the caller resolves them with the per-pair predicate.
///
/// NaN coordinates make every orientation comparison false, so such lanes
/// end up proper=0, needs_exact=0 — exactly the per-pair result (false).
void IntersectFlatPass(const Segment* a, const Segment* b, size_t n,
                       uint8_t* out, uint8_t* needs_exact) {
  for (size_t i = 0; i < n; ++i) {
    const Segment& s = a[i];
    const Segment& t = b[i];
    const double d1 = Orientation(s.x1, s.y1, s.x2, s.y2, t.x1, t.y1);
    const double d2 = Orientation(s.x1, s.y1, s.x2, s.y2, t.x2, t.y2);
    const double d3 = Orientation(t.x1, t.y1, t.x2, t.y2, s.x1, s.y1);
    const double d4 = Orientation(t.x1, t.y1, t.x2, t.y2, s.x2, s.y2);
    const int proper = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) &
                       (((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0)));
    out[i] = static_cast<uint8_t>(proper);
    needs_exact[i] =
        static_cast<uint8_t>((d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0));
  }
}

/// min of the four endpoint-to-segment distances — the non-intersecting
/// branch of SegmentDistanceSquared, batched. Only meaningful for lanes
/// the intersect mask left false (intersecting lanes have distance 0).
void MinEndpointDistanceSquaredPass(const Segment* a, const Segment* b,
                                    size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const Segment& s = a[i];
    const Segment& t = b[i];
    const double d1 =
        PointSegmentDistanceSquared(s.x1, s.y1, t.x1, t.y1, t.x2, t.y2);
    const double d2 =
        PointSegmentDistanceSquared(s.x2, s.y2, t.x1, t.y1, t.x2, t.y2);
    const double d3 =
        PointSegmentDistanceSquared(t.x1, t.y1, s.x1, s.y1, s.x2, s.y2);
    const double d4 =
        PointSegmentDistanceSquared(t.x2, t.y2, s.x1, s.y1, s.x2, s.y2);
    out[i] = std::min(std::min(d1, d2), std::min(d3, d4));
  }
}

void DistanceBatch(const Segment* a, const Segment* b, size_t n,
                   double epsilon, uint8_t* out) {
  thread_local std::vector<double> dist2;
  dist2.resize(n);
  BatchSegmentsIntersect(a, b, n, out);
  MinEndpointDistanceSquaredPass(a, b, n, dist2.data());
  const double eps2 = epsilon * epsilon;
  for (size_t i = 0; i < n; ++i) {
    // Intersecting lanes have exact distance 0; keeping the comparison
    // (rather than hard-coding true) preserves the per-pair NaN-epsilon
    // semantics: 0.0 <= NaN² is false either way.
    const double d2 = out[i] ? 0.0 : dist2[i];
    out[i] = static_cast<uint8_t>(d2 <= eps2);
  }
}

void ContainsBatch(const Segment* a, const Segment* b, size_t n,
                   uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const Segment& outer = a[i];
    const Segment& inner = b[i];
    // Flat form of SegmentContainsSegment: same Orientation/OnSegment
    // arithmetic without the early return. The predicates are pure, so
    // dropping the short-circuit cannot change the result.
    const double o1 = Orientation(outer.x1, outer.y1, outer.x2, outer.y2,
                                  inner.x1, inner.y1);
    const double o2 = Orientation(outer.x1, outer.y1, outer.x2, outer.y2,
                                  inner.x2, inner.y2);
    const double xmin = std::min<double>(outer.x1, outer.x2);
    const double xmax = std::max<double>(outer.x1, outer.x2);
    const double ymin = std::min<double>(outer.y1, outer.y2);
    const double ymax = std::max<double>(outer.y1, outer.y2);
    const int on1 = (xmin <= inner.x1) & (inner.x1 <= xmax) &
                    (ymin <= inner.y1) & (inner.y1 <= ymax);
    const int on2 = (xmin <= inner.x2) & (inner.x2 <= xmax) &
                    (ymin <= inner.y2) & (inner.y2 <= ymax);
    out[i] = static_cast<uint8_t>((o1 == 0) & on1 & (o2 == 0) & on2);
  }
}

}  // namespace

void BatchSegmentsIntersect(const Segment* a, const Segment* b, size_t n,
                            uint8_t* out) {
  thread_local std::vector<uint8_t> needs_exact;
  needs_exact.resize(n);
  IntersectFlatPass(a, b, n, out, needs_exact.data());
  for (size_t i = 0; i < n; ++i) {
    // A proper intersection has four strictly-signed orientations, so the
    // two flags are mutually exclusive; only degenerate lanes take the
    // per-pair predicate.
    if (needs_exact[i] && !out[i]) {
      out[i] = static_cast<uint8_t>(SegmentsIntersect(a[i], b[i]));
    }
  }
}

void EvaluateExactPredicateBatch(const PredicateSpec& spec, const Segment* a,
                                 const Segment* b, size_t n, uint8_t* out) {
  switch (spec.kind) {
    case Predicate::kIntersects:
      BatchSegmentsIntersect(a, b, n, out);
      return;
    case Predicate::kDistanceWithin:
      DistanceBatch(a, b, n, spec.epsilon, out);
      return;
    case Predicate::kContains:
      ContainsBatch(a, b, n, out);
      return;
  }
}

}  // namespace sj
