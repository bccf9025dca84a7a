#ifndef USJ_IO_PREFETCH_H_
#define USJ_IO_PREFETCH_H_

#include <cstdint>

#include "io/pager.h"
#include "io/stream.h"

namespace sj {

// Names the benchmark driver in perfbench/ still spells. Stream I/O is
// synchronous on every backend, so there is nothing left to prefetch: the
// context is empty and the reader is a plain StreamReader. Library code
// names StreamReader and passes no context.

/// Empty; produced by PrefetchContextOf (join/join_types.h) and accepted
/// by SortRectsByYLo (sort/external_sort.h) for the driver's call sites.
struct PrefetchContext {};

/// A StreamReader under the driver's name, with its context argument.
template <typename T>
class PrefetchingStreamReader : public StreamReader<T> {
 public:
  PrefetchingStreamReader(Pager* pager, PageId first_page,
                          uint64_t record_count, const PrefetchContext&)
      : StreamReader<T>(pager, first_page, record_count) {}
};

}  // namespace sj

#endif  // USJ_IO_PREFETCH_H_
