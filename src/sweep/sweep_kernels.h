#ifndef USJ_SWEEP_SWEEP_KERNELS_H_
#define USJ_SWEEP_SWEEP_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/rect.h"

namespace sj {
namespace kernels {

// The lane kernels of Forward-Sweep and ST's entry lists, one portable
// body each (sweep_kernels.cc). Masks follow IEEE comparisons lane for
// lane, NaN, infinite and inverted coordinates included, and equal the
// one-lane oracles of tests/sweep_kernels_test.cc. `out` must overlap
// none of a kernel's input arrays: it is __restrict, which lets the
// compiler vectorize without a run-time alias check.

/// Classify and expiry run a call of at least this many lanes as whole
/// blocks (the last one ends at lane n and may overlap the one before),
/// and a shorter call one lane at a time. A block's byte mask fills one
/// 128-bit vector (four vectors of floats per input), and a trip count
/// that is a known multiple of the vector width is what GCC's -O2 cost
/// model requires before it vectorizes a loop; a plain loop over n lanes
/// vectorizes only at -O3.
inline constexpr size_t kKernelBlockLanes = 16;

/// Lane classification bits produced by ClassifySweepLanes.
inline constexpr uint8_t kLaneKeep = 1;   // yhi has not passed the sweep line
inline constexpr uint8_t kLaneMatch = 2;  // kept AND x-intervals overlap

/// Classifies `n` active-set lanes against the query rectangle `q` at
/// sweep position q.ylo:
///
///   out[i] = (yhi[i] < qylo        ? 0 : kLaneKeep)
///          | (kept && xlo[i] <= qxhi && qxlo <= xhi[i] ? kLaneMatch : 0)
///
/// NaN coordinates follow IEEE comparisons: a NaN yhi never expires, a
/// NaN x endpoint never matches.
void ClassifySweepLanes(const float* xlo, const float* xhi, const float* yhi,
                        size_t n, float qxlo, float qxhi, float qylo,
                        uint8_t* __restrict out);

/// Expiry-only form: out[i] = (yhi[i] < y) ? 0 : kLaneKeep. Used by the
/// amortized self-purge passes.
void ExpiryKeepMask(const float* yhi, size_t n, float y,
                    uint8_t* __restrict out);

/// Batched MBR-overlap scan over an xlo-sorted entry list (ST's
/// node-pairing kernel): tests lanes [0, n) against the query row
/// (qxhi, qylo, qyhi), writing
///
///   out[k] = qylo <= yhi[k] && ylo[k] <= qyhi
///
/// and returning the scan end — the index of the first lane with
/// !(xlo[k] <= qxhi), after which the caller's sorted-input invariant
/// guarantees no further lane can overlap (out[k] is only valid below
/// the returned end). The caller guarantees the full x test's other half
/// (qxlo <= xhi[k]) by construction. The early exit keeps this loop
/// scalar.
size_t BatchRectOverlap(const float* xlo, const float* ylo, const float* yhi,
                        size_t n, float qxhi, float qylo, float qyhi,
                        uint8_t* __restrict out);

}  // namespace kernels

/// Struct-of-arrays rectangle storage: five parallel arrays so the
/// kernels stream contiguous lanes instead of striding over 20-byte
/// records. Logical accounting stays in RectF units (20 bytes/lane) so
/// Table-3 sweep-structure numbers are unchanged.
struct SoaRects {
  std::vector<float> xlo, ylo, xhi, yhi;
  std::vector<ObjectId> id;

  size_t size() const { return id.size(); }
  bool empty() const { return id.empty(); }

  void Clear() {
    xlo.clear();
    ylo.clear();
    xhi.clear();
    yhi.clear();
    id.clear();
  }

  void Reserve(size_t n) {
    xlo.reserve(n);
    ylo.reserve(n);
    xhi.reserve(n);
    yhi.reserve(n);
    id.reserve(n);
  }

  void PushBack(const RectF& r) {
    xlo.push_back(r.xlo);
    ylo.push_back(r.ylo);
    xhi.push_back(r.xhi);
    yhi.push_back(r.yhi);
    id.push_back(r.id);
  }

  /// Reassembles lane `i` as a value — emits never hand out references
  /// into arrays a compaction may be rewriting.
  RectF Lane(size_t i) const {
    return RectF(xlo[i], ylo[i], xhi[i], yhi[i], id[i]);
  }

  void MoveLane(size_t from, size_t to) {
    xlo[to] = xlo[from];
    ylo[to] = ylo[from];
    xhi[to] = xhi[from];
    yhi[to] = yhi[from];
    id[to] = id[from];
  }

  void Resize(size_t n) {
    xlo.resize(n);
    ylo.resize(n);
    xhi.resize(n);
    yhi.resize(n);
    id.resize(n);
  }

  void Assign(const RectF* rects, size_t n) {
    Clear();
    Reserve(n);
    for (size_t i = 0; i < n; ++i) PushBack(rects[i]);
  }

  /// Compacts lanes whose mask byte has kLaneKeep set, preserving order.
  /// Returns the new size.
  size_t CompactKept(const uint8_t* mask) {
    size_t keep = 0;
    const size_t n = size();
    for (size_t i = 0; i < n; ++i) {
      if ((mask[i] & kernels::kLaneKeep) == 0) continue;
      if (keep != i) MoveLane(i, keep);
      keep++;
    }
    Resize(keep);
    return keep;
  }
};

}  // namespace sj

#endif  // USJ_SWEEP_SWEEP_KERNELS_H_
