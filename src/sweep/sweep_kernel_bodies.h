#ifndef USJ_SWEEP_SWEEP_KERNEL_BODIES_H_
#define USJ_SWEEP_SWEEP_KERNEL_BODIES_H_

// The bodies behind the dispatchers of sweep/sweep_kernels.h: a portable
// loop and one body per instruction set. They are inline so that each
// dispatcher in sweep_kernels.cc still inlines the bodies it calls, while
// tests/sweep_kernels_test.cc runs every body the host CPU supports, not
// only the one the dispatchers pick. Include this header only from those
// two files.

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SJ_KERNELS_X86 1
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#define SJ_KERNELS_NEON 1
#endif

namespace sj {
namespace kernels {
namespace internal {

// ---------------------------------------------------------------------------
// Portable kernels: branch-free loops the compiler can auto-vectorize.
// Comparison results are 0/1 ints assembled into the mask arithmetically.
// They are the whole kernel where no SIMD body exists, and every SIMD
// body below hands them its ragged tail.
// ---------------------------------------------------------------------------

inline void ClassifyPortable(const float* xlo, const float* xhi,
                             const float* yhi, size_t n, float qxlo,
                             float qxhi, float qylo, uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const int keep = !(yhi[i] < qylo);
    const int match = keep & (xlo[i] <= qxhi) & (qxlo <= xhi[i]);
    out[i] = static_cast<uint8_t>(keep | (match << 1));
  }
}

inline void ExpiryPortable(const float* yhi, size_t n, float y, uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(!(yhi[i] < y));
  }
}

inline size_t OverlapPortable(const float* xlo, const float* ylo,
                              const float* yhi, size_t n, float qxhi,
                              float qylo, float qyhi, uint8_t* out) {
  size_t k = 0;
  for (; k < n; ++k) {
    if (!(xlo[k] <= qxhi)) break;
    out[k] = static_cast<uint8_t>((qylo <= yhi[k]) & (ylo[k] <= qyhi));
  }
  return k;
}

// ---------------------------------------------------------------------------
// SIMD bodies. Every comparison uses non-signaling IEEE semantics with the
// portable loops' truth table (NaN compares false), so masks are identical
// bit for bit.
// ---------------------------------------------------------------------------

#if defined(SJ_KERNELS_X86)

#if defined(__GNUC__) || defined(__clang__)
#define SJ_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define SJ_TARGET_AVX2
#endif

SJ_TARGET_AVX2
inline void ClassifyAvx2(const float* xlo, const float* xhi,
                         const float* yhi, size_t n, float qxlo, float qxhi,
                         float qylo, uint8_t* out) {
  const __m256 vqxlo = _mm256_set1_ps(qxlo);
  const __m256 vqxhi = _mm256_set1_ps(qxhi);
  const __m256 vqylo = _mm256_set1_ps(qylo);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vyhi = _mm256_loadu_ps(yhi + i);
    const __m256 vxlo = _mm256_loadu_ps(xlo + i);
    const __m256 vxhi = _mm256_loadu_ps(xhi + i);
    const __m256 expired = _mm256_cmp_ps(vyhi, vqylo, _CMP_LT_OQ);
    const __m256 xmatch =
        _mm256_and_ps(_mm256_cmp_ps(vxlo, vqxhi, _CMP_LE_OQ),
                      _mm256_cmp_ps(vqxlo, vxhi, _CMP_LE_OQ));
    const unsigned keep = ~_mm256_movemask_ps(expired) & 0xffu;
    const unsigned match = _mm256_movemask_ps(xmatch) & keep;
    for (unsigned l = 0; l < 8; ++l) {
      out[i + l] = static_cast<uint8_t>(((keep >> l) & 1u) |
                                        (((match >> l) & 1u) << 1));
    }
  }
  ClassifyPortable(xlo + i, xhi + i, yhi + i, n - i, qxlo, qxhi, qylo, out + i);
}

inline void ClassifySse2(const float* xlo, const float* xhi,
                         const float* yhi, size_t n, float qxlo, float qxhi,
                         float qylo, uint8_t* out) {
  const __m128 vqxlo = _mm_set1_ps(qxlo);
  const __m128 vqxhi = _mm_set1_ps(qxhi);
  const __m128 vqylo = _mm_set1_ps(qylo);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 vyhi = _mm_loadu_ps(yhi + i);
    const __m128 vxlo = _mm_loadu_ps(xlo + i);
    const __m128 vxhi = _mm_loadu_ps(xhi + i);
    const __m128 expired = _mm_cmplt_ps(vyhi, vqylo);
    const __m128 xmatch =
        _mm_and_ps(_mm_cmple_ps(vxlo, vqxhi), _mm_cmple_ps(vqxlo, vxhi));
    const unsigned keep = ~_mm_movemask_ps(expired) & 0xfu;
    const unsigned match =
        static_cast<unsigned>(_mm_movemask_ps(xmatch)) & keep;
    for (unsigned l = 0; l < 4; ++l) {
      out[i + l] = static_cast<uint8_t>(((keep >> l) & 1u) |
                                        (((match >> l) & 1u) << 1));
    }
  }
  ClassifyPortable(xlo + i, xhi + i, yhi + i, n - i, qxlo, qxhi, qylo, out + i);
}

SJ_TARGET_AVX2
inline void ExpiryAvx2(const float* yhi, size_t n, float y, uint8_t* out) {
  const __m256 vy = _mm256_set1_ps(y);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 expired =
        _mm256_cmp_ps(_mm256_loadu_ps(yhi + i), vy, _CMP_LT_OQ);
    const unsigned keep = ~_mm256_movemask_ps(expired) & 0xffu;
    for (unsigned l = 0; l < 8; ++l) {
      out[i + l] = static_cast<uint8_t>((keep >> l) & 1u);
    }
  }
  ExpiryPortable(yhi + i, n - i, y, out + i);
}

inline void ExpirySse2(const float* yhi, size_t n, float y, uint8_t* out) {
  const __m128 vy = _mm_set1_ps(y);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 expired = _mm_cmplt_ps(_mm_loadu_ps(yhi + i), vy);
    const unsigned keep = ~_mm_movemask_ps(expired) & 0xfu;
    for (unsigned l = 0; l < 4; ++l) {
      out[i + l] = static_cast<uint8_t>((keep >> l) & 1u);
    }
  }
  ExpiryPortable(yhi + i, n - i, y, out + i);
}

SJ_TARGET_AVX2
inline size_t OverlapAvx2(const float* xlo, const float* ylo,
                          const float* yhi, size_t n, float qxhi, float qylo,
                          float qyhi, uint8_t* out) {
  const __m256 vqxhi = _mm256_set1_ps(qxhi);
  const __m256 vqylo = _mm256_set1_ps(qylo);
  const __m256 vqyhi = _mm256_set1_ps(qyhi);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vxlo = _mm256_loadu_ps(xlo + i);
    const __m256 inrun = _mm256_cmp_ps(vxlo, vqxhi, _CMP_LE_OQ);
    const unsigned runbits = static_cast<unsigned>(_mm256_movemask_ps(inrun));
    const __m256 ymatch =
        _mm256_and_ps(_mm256_cmp_ps(vqylo, _mm256_loadu_ps(yhi + i),
                                    _CMP_LE_OQ),
                      _mm256_cmp_ps(_mm256_loadu_ps(ylo + i), vqyhi,
                                    _CMP_LE_OQ));
    const unsigned match = static_cast<unsigned>(_mm256_movemask_ps(ymatch));
    if (runbits == 0xffu) {
      for (unsigned l = 0; l < 8; ++l) {
        out[i + l] = static_cast<uint8_t>((match >> l) & 1u);
      }
      continue;
    }
    // The scan stops at the first lane leaving the x run, like the
    // portable loop's break (later lanes in the block are never inspected).
    const unsigned stop =
        static_cast<unsigned>(__builtin_ctz(~runbits & 0x1ffu));
    for (unsigned l = 0; l < stop; ++l) {
      out[i + l] = static_cast<uint8_t>((match >> l) & 1u);
    }
    return i + stop;
  }
  return i + OverlapPortable(xlo + i, ylo + i, yhi + i, n - i, qxhi, qylo, qyhi,
                           out + i);
}

inline size_t OverlapSse2(const float* xlo, const float* ylo,
                          const float* yhi, size_t n, float qxhi, float qylo,
                          float qyhi, uint8_t* out) {
  const __m128 vqxhi = _mm_set1_ps(qxhi);
  const __m128 vqylo = _mm_set1_ps(qylo);
  const __m128 vqyhi = _mm_set1_ps(qyhi);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 vxlo = _mm_loadu_ps(xlo + i);
    const unsigned runbits =
        static_cast<unsigned>(_mm_movemask_ps(_mm_cmple_ps(vxlo, vqxhi)));
    const __m128 ymatch =
        _mm_and_ps(_mm_cmple_ps(vqylo, _mm_loadu_ps(yhi + i)),
                   _mm_cmple_ps(_mm_loadu_ps(ylo + i), vqyhi));
    const unsigned match = static_cast<unsigned>(_mm_movemask_ps(ymatch));
    if (runbits == 0xfu) {
      for (unsigned l = 0; l < 4; ++l) {
        out[i + l] = static_cast<uint8_t>((match >> l) & 1u);
      }
      continue;
    }
    const unsigned stop =
        static_cast<unsigned>(__builtin_ctz(~runbits & 0x1fu));
    for (unsigned l = 0; l < stop; ++l) {
      out[i + l] = static_cast<uint8_t>((match >> l) & 1u);
    }
    return i + stop;
  }
  return i + OverlapPortable(xlo + i, ylo + i, yhi + i, n - i, qxhi, qylo, qyhi,
                           out + i);
}

#elif defined(SJ_KERNELS_NEON)

inline void ClassifyNeon(const float* xlo, const float* xhi,
                         const float* yhi, size_t n, float qxlo, float qxhi,
                         float qylo, uint8_t* out) {
  const float32x4_t vqxlo = vdupq_n_f32(qxlo);
  const float32x4_t vqxhi = vdupq_n_f32(qxhi);
  const float32x4_t vqylo = vdupq_n_f32(qylo);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t expired = vcltq_f32(vld1q_f32(yhi + i), vqylo);
    const uint32x4_t keep = vmvnq_u32(expired);
    const uint32x4_t xmatch =
        vandq_u32(vcleq_f32(vld1q_f32(xlo + i), vqxhi),
                  vcleq_f32(vqxlo, vld1q_f32(xhi + i)));
    const uint32x4_t match = vandq_u32(keep, xmatch);
    uint32_t keep_arr[4], match_arr[4];
    vst1q_u32(keep_arr, keep);
    vst1q_u32(match_arr, match);
    for (int l = 0; l < 4; ++l) {
      out[i + l] = static_cast<uint8_t>((keep_arr[l] & 1u) |
                                        ((match_arr[l] & 1u) << 1));
    }
  }
  ClassifyPortable(xlo + i, xhi + i, yhi + i, n - i, qxlo, qxhi, qylo, out + i);
}

inline void ExpiryNeon(const float* yhi, size_t n, float y, uint8_t* out) {
  const float32x4_t vy = vdupq_n_f32(y);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t keep = vmvnq_u32(vcltq_f32(vld1q_f32(yhi + i), vy));
    uint32_t keep_arr[4];
    vst1q_u32(keep_arr, keep);
    for (int l = 0; l < 4; ++l) {
      out[i + l] = static_cast<uint8_t>(keep_arr[l] & 1u);
    }
  }
  ExpiryPortable(yhi + i, n - i, y, out + i);
}

inline size_t OverlapNeon(const float* xlo, const float* ylo,
                          const float* yhi, size_t n, float qxhi, float qylo,
                          float qyhi, uint8_t* out) {
  const float32x4_t vqxhi = vdupq_n_f32(qxhi);
  const float32x4_t vqylo = vdupq_n_f32(qylo);
  const float32x4_t vqyhi = vdupq_n_f32(qyhi);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t inrun = vcleq_f32(vld1q_f32(xlo + i), vqxhi);
    const uint32x4_t ymatch =
        vandq_u32(vcleq_f32(vqylo, vld1q_f32(yhi + i)),
                  vcleq_f32(vld1q_f32(ylo + i), vqyhi));
    uint32_t run_arr[4], match_arr[4];
    vst1q_u32(run_arr, inrun);
    vst1q_u32(match_arr, ymatch);
    for (int l = 0; l < 4; ++l) {
      if (run_arr[l] == 0) return i + static_cast<size_t>(l);
      out[i + l] = static_cast<uint8_t>(match_arr[l] & 1u);
    }
  }
  return i + OverlapPortable(xlo + i, ylo + i, yhi + i, n - i, qxhi, qylo, qyhi,
                           out + i);
}

#endif

}  // namespace internal
}  // namespace kernels
}  // namespace sj

#endif  // USJ_SWEEP_SWEEP_KERNEL_BODIES_H_
