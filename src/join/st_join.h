#ifndef USJ_JOIN_ST_JOIN_H_
#define USJ_JOIN_ST_JOIN_H_

#include "io/disk_model.h"
#include "join/join_types.h"
#include "rtree/rtree.h"
#include "util/result.h"

namespace sj {

/// ST's private pool frames under a `budget_bytes` budget (none with
/// `options.shared_buffer_pool`): `options.buffer_pool_pages`, capped at
/// the budget less two pages for the entry lists, with an 8-frame floor.
GrantRequest STPoolRequest(const JoinOptions& options, size_t budget_bytes);

/// Synchronized R-tree Traversal (Brinkhoff, Kriegel & Seeger, SIGMOD'93)
/// — §3.3.
///
/// Performs a synchronized depth-first traversal of the two R-trees. For
/// each node pair whose bounding rectangles intersect, it restricts both
/// entry lists to the intersection window of the node MBRs and pairs them
/// with a forward sweep along x (the original paper's optimizations),
/// recursing on intersecting child pairs and emitting object-id pairs at
/// the leaves. Trees of different heights are handled by descending the
/// taller tree first.
///
/// Node pages are read through a shared LRU buffer pool of
/// `options.buffer_pool_pages` frames (the paper's 22 MB). Pool misses are
/// the "page requests" of Table 4; revisits of cached pages cost nothing,
/// which is why NJ/NY come out at (or slightly below) the index size.
///
/// The pool is grant-backed: its frames come from a "buffer.pool" memory
/// grant and the capacity shrinks to whatever the arbiter can give
/// (floor: 8 frames), so a 256 KB query budget yields a ~30-frame pool
/// rather than an ungoverned 22 MB one. `arbiter` is the query's memory
/// governor; nullptr runs against a private one over the options' budget.
Result<JoinStats> STJoin(const RTree& a, const RTree& b, DiskModel* disk,
                         const JoinOptions& options, JoinSink* sink,
                         MemoryArbiter* arbiter = nullptr);

}  // namespace sj

#endif  // USJ_JOIN_ST_JOIN_H_
