#ifndef USJ_JOIN_PREDICATE_BATCH_H_
#define USJ_JOIN_PREDICATE_BATCH_H_

#include <cstddef>
#include <cstdint>

#include "geometry/segment.h"
#include "join/predicate.h"

namespace sj {

/// Batched exact-geometry predicates for the refinement step: evaluate a
/// whole candidate batch with flat per-lane passes instead of one
/// pair-at-a-time EvaluateExactPredicate call per candidate.
///
/// The passes are branch-light orientation/distance loops over the whole
/// batch, written so the compiler can auto-vectorize. Their arithmetic is
/// the same double-precision expressions as the geometry/segment.h
/// predicates, so every lane computes the identical value, and the rare
/// collinear or endpoint-touching lanes are resolved by the per-pair
/// predicate. The masks therefore equal the per-pair predicates' for every
/// input, including NaN/infinite coordinates and NaN epsilon;
/// tests/sweep_kernels_test.cc checks this against the per-pair calls.

/// out[i] = SegmentsIntersect(a[i], b[i]).
void BatchSegmentsIntersect(const Segment* a, const Segment* b, size_t n,
                            uint8_t* out);

/// out[i] = EvaluateExactPredicate(spec, a[i], b[i]). Order matters for
/// kContains (a contains b), matching the per-pair evaluator.
void EvaluateExactPredicateBatch(const PredicateSpec& spec, const Segment* a,
                                 const Segment* b, size_t n, uint8_t* out);

}  // namespace sj

#endif  // USJ_JOIN_PREDICATE_BATCH_H_
