#ifndef USJ_SORT_RADIX_SORT_H_
#define USJ_SORT_RADIX_SORT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "geometry/rect.h"
#include "util/logging.h"

namespace sj {

/// Run formation radix-sorts a RectF chunk in the sweep order when it
/// holds at least this many records; below it the fixed cost of the
/// digit histograms eats the gain. Measured on TIGER DISK1-6 chunks
/// (4-vCPU x86-64, -O3), radix vs std::sort per record: hydro 26.5 vs
/// 28.0 ns at 128 records, 23.8 vs 29.4 ns at 256 and 31 vs 78 ns at
/// 26,214; roads 29 vs 52 ns at 128.
inline constexpr size_t kRadixSortMinRecords = 256;

/// The order-preserving unsigned image of a ylo coordinate: a < b as
/// floats exactly when the images compare the same way. -0.0 maps to
/// +0.0's image (they compare equal), and every NaN (either sign, any
/// payload) maps to the top value, after +inf, where OrderByYLo — which
/// cannot order NaN — leaves its place open.
inline uint32_t RadixYLoKey(float y) {
  uint32_t bits;
  std::memcpy(&bits, &y, sizeof(bits));
  if (bits == 0x80000000u) bits = 0;
  if ((bits & 0x7fffffffu) > 0x7f800000u) return 0xffffffffu;
  return (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
}

/// Sorts data[0, n) by the 64-bit key (RadixYLoKey(ylo), id) with a
/// stable LSD radix sort of eight 8-bit digits, ping-ponging between
/// `data` and `scratch` (room for n records); the result ends in `data`.
/// For every input without NaN ylo this is OrderByYLo's order, so it
/// equals std::sort byte for byte whenever no two records share ylo (up
/// to the sign of zero) and id. Records with NaN ylo follow all others,
/// ordered by id. A digit every record shares skips its pass.
inline void RadixSortByYLo(RectF* data, size_t n, RectF* scratch) {
  SJ_CHECK(n <= UINT32_MAX) << "radix chunk of " << n << " records";
  if (n < 2) return;
  // Digits 0-3 are the id's bytes, 4-7 the ylo image's, least
  // significant first.
  auto digit = [](const RectF& r, int d) -> uint32_t {
    const uint32_t word = d < 4 ? r.id : RadixYLoKey(r.ylo);
    return (word >> (8 * (d & 3))) & 0xffu;
  };
  std::array<std::array<uint32_t, 256>, 8> counts{};
  for (size_t i = 0; i < n; ++i) {
    const uint32_t id = data[i].id;
    const uint32_t y = RadixYLoKey(data[i].ylo);
    for (int b = 0; b < 4; ++b) {
      counts[b][(id >> (8 * b)) & 0xffu]++;
      counts[4 + b][(y >> (8 * b)) & 0xffu]++;
    }
  }
  RectF* src = data;
  RectF* dst = scratch;
  for (int d = 0; d < 8; ++d) {
    std::array<uint32_t, 256>& offset = counts[d];
    if (offset[digit(src[0], d)] == n) continue;
    uint32_t sum = 0;
    for (uint32_t& c : offset) {
      const uint32_t count = c;
      c = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) dst[offset[digit(src[i], d)]++] = src[i];
    std::swap(src, dst);
  }
  if (src != data) std::memcpy(data, src, n * sizeof(RectF));
}

}  // namespace sj

#endif  // USJ_SORT_RADIX_SORT_H_
