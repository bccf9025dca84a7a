#ifndef USJ_JOIN_ENTRY_SWEEP_H_
#define USJ_JOIN_ENTRY_SWEEP_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geometry/rect.h"
#include "sweep/sweep_kernels.h"

namespace sj {

/// Forward sweep along x over two xlo-sorted entry lists; calls
/// `emit(const RectF&, const RectF&)` for every pair overlapping in both
/// axes, each pair exactly once. This is ST's per-node-pair pairing step
/// (Brinkhoff et al.'s restriction + sweep).
///
/// The inner scan runs as a batched kernel: each list is staged into
/// struct-of-arrays lanes once, and the run of candidates for a sweep
/// step is classified by kernels::BatchRectOverlap over contiguous
/// lanes. The scan end (first lane with !(xlo <= a.xhi)) and the y-test
/// per lane follow IEEE comparison semantics, so the pairs and their
/// order are those of the one-pair-at-a-time scan (tests/sweep_kernels_test.cc
/// keeps that scan as the oracle).
template <typename Emit>
void SweepEntryLists(const std::vector<RectF>& as, const std::vector<RectF>& bs,
                     Emit&& emit) {
  if (as.empty() || bs.empty()) return;
  // Node entry lists are small (ST caps them at a few hundred) but
  // this runs once per node pair; thread_local scratch avoids per-call
  // allocation in the parallel tree joins.
  thread_local SoaRects lanes_a, lanes_b;
  thread_local std::vector<uint8_t> mask;
  lanes_a.Assign(as.data(), as.size());
  lanes_b.Assign(bs.data(), bs.size());
  mask.resize(std::max(as.size(), bs.size()));

  size_t i = 0, j = 0;
  while (i < as.size() && j < bs.size()) {
    if (as[i].xlo < bs[j].xlo) {
      const RectF& a = as[i];
      const size_t run = kernels::BatchRectOverlap(
          lanes_b.xlo.data() + j, lanes_b.ylo.data() + j,
          lanes_b.yhi.data() + j, bs.size() - j, a.xhi, a.ylo, a.yhi,
          mask.data());
      for (size_t k = 0; k < run; ++k) {
        if (mask[k]) emit(a, bs[j + k]);
      }
      i++;
    } else {
      const RectF& b = bs[j];
      const size_t run = kernels::BatchRectOverlap(
          lanes_a.xlo.data() + i, lanes_a.ylo.data() + i,
          lanes_a.yhi.data() + i, as.size() - i, b.xhi, b.ylo, b.yhi,
          mask.data());
      for (size_t k = 0; k < run; ++k) {
        if (mask[k]) emit(as[i + k], b);
      }
      j++;
    }
  }
}

}  // namespace sj

#endif  // USJ_JOIN_ENTRY_SWEEP_H_
