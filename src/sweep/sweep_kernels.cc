#include "sweep/sweep_kernels.h"

#include "sweep/sweep_kernel_bodies.h"

namespace sj {
namespace {

#if defined(SJ_KERNELS_X86)
bool CpuHasAvx2() {
#if defined(__GNUC__) || defined(__clang__)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}
#endif

}  // namespace

const char* SweepKernelIsa() {
#if defined(SJ_KERNELS_X86)
  return CpuHasAvx2() ? "avx2" : "sse2";
#elif defined(SJ_KERNELS_NEON)
  return "neon";
#else
  return "portable";
#endif
}

namespace kernels {

void ClassifySweepLanes(const float* xlo, const float* xhi, const float* yhi,
                        size_t n, float qxlo, float qxhi, float qylo,
                        uint8_t* out) {
#if defined(SJ_KERNELS_X86)
  if (CpuHasAvx2()) {
    internal::ClassifyAvx2(xlo, xhi, yhi, n, qxlo, qxhi, qylo, out);
  } else {
    internal::ClassifySse2(xlo, xhi, yhi, n, qxlo, qxhi, qylo, out);
  }
#elif defined(SJ_KERNELS_NEON)
  internal::ClassifyNeon(xlo, xhi, yhi, n, qxlo, qxhi, qylo, out);
#else
  internal::ClassifyPortable(xlo, xhi, yhi, n, qxlo, qxhi, qylo, out);
#endif
}

void ExpiryKeepMask(const float* yhi, size_t n, float y, uint8_t* out) {
#if defined(SJ_KERNELS_X86)
  if (CpuHasAvx2()) {
    internal::ExpiryAvx2(yhi, n, y, out);
  } else {
    internal::ExpirySse2(yhi, n, y, out);
  }
#elif defined(SJ_KERNELS_NEON)
  internal::ExpiryNeon(yhi, n, y, out);
#else
  internal::ExpiryPortable(yhi, n, y, out);
#endif
}

size_t BatchRectOverlap(const float* xlo, const float* ylo, const float* yhi,
                        size_t n, float qxhi, float qylo, float qyhi,
                        uint8_t* out) {
#if defined(SJ_KERNELS_X86)
  return CpuHasAvx2()
             ? internal::OverlapAvx2(xlo, ylo, yhi, n, qxhi, qylo, qyhi, out)
             : internal::OverlapSse2(xlo, ylo, yhi, n, qxhi, qylo, qyhi, out);
#elif defined(SJ_KERNELS_NEON)
  return internal::OverlapNeon(xlo, ylo, yhi, n, qxhi, qylo, qyhi, out);
#else
  return internal::OverlapPortable(xlo, ylo, yhi, n, qxhi, qylo, qyhi, out);
#endif
}

}  // namespace kernels
}  // namespace sj
