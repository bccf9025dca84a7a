#include "sweep/sweep_kernels.h"

namespace sj {
namespace kernels {

// Each lane's comparisons become 0/1 ints assembled into the mask
// arithmetically, so a block has no branch to vectorize around. A call
// shorter than a block runs lane by lane; a longer one runs only whole
// blocks, the last ending at lane n and rewriting any lanes it shares
// with the one before to the same bytes. A scalar tail instead made
// DISK1@0.02's Forward-Sweep (mostly 8 to 31 lanes a call) ~10 % slower.

void ClassifySweepLanes(const float* xlo, const float* xhi, const float* yhi,
                        size_t n, float qxlo, float qxhi, float qylo,
                        uint8_t* __restrict out) {
  auto lanes = [&](size_t begin, size_t end) {
    for (size_t l = begin; l < end; ++l) {
      const int keep = !(yhi[l] < qylo);
      const int match = keep & (xlo[l] <= qxhi) & (qxlo <= xhi[l]);
      out[l] = static_cast<uint8_t>(keep | (match << 1));
    }
  };
  if (n < kKernelBlockLanes) return lanes(0, n);
  size_t i = 0;
  for (; i + kKernelBlockLanes <= n; i += kKernelBlockLanes) {
    lanes(i, i + kKernelBlockLanes);
  }
  if (i < n) lanes(n - kKernelBlockLanes, n);
}

void ExpiryKeepMask(const float* yhi, size_t n, float y,
                    uint8_t* __restrict out) {
  auto lanes = [&](size_t begin, size_t end) {
    for (size_t l = begin; l < end; ++l) {
      out[l] = static_cast<uint8_t>(!(yhi[l] < y));
    }
  };
  if (n < kKernelBlockLanes) return lanes(0, n);
  size_t i = 0;
  for (; i + kKernelBlockLanes <= n; i += kKernelBlockLanes) {
    lanes(i, i + kKernelBlockLanes);
  }
  if (i < n) lanes(n - kKernelBlockLanes, n);
}

size_t BatchRectOverlap(const float* xlo, const float* ylo, const float* yhi,
                        size_t n, float qxhi, float qylo, float qyhi,
                        uint8_t* __restrict out) {
  size_t k = 0;
  for (; k < n; ++k) {
    if (!(xlo[k] <= qxhi)) break;
    out[k] = static_cast<uint8_t>((qylo <= yhi[k]) & (ylo[k] <= qyhi));
  }
  return k;
}

}  // namespace kernels
}  // namespace sj
