#ifndef USJ_JOIN_PQ_JOIN_H_
#define USJ_JOIN_PQ_JOIN_H_

#include "io/disk_model.h"
#include "join/join_types.h"
#include "join/sources.h"
#include "util/result.h"

namespace sj {

/// PQ's grant requests under a `budget_bytes` budget: a stream side's
/// sort (half of it, one side at a time, before the traversal), then the
/// traversal queues and the sweep (half each, held together). The k-way
/// chain makes the same requests, less the queues.
struct PQGrants {
  GrantRequest sort;
  GrantRequest queue;
  GrantRequest sweep;
};
PQGrants PQGrantRequests(size_t budget_bytes);

/// Priority-Queue-Driven Traversal join (the paper's contribution, §4).
///
/// Both inputs arrive as y-sorted rectangle sources — a sorted stream for
/// non-indexed inputs, an RTreePQSource for indexed ones — and are merged
/// by the same plane sweep SSSJ uses (Striped-Sweep by default). Because
/// the index adapter touches every R-tree node at most once, an unpruned
/// PQ join issues exactly `node_count` page requests per index: the
/// paper's "optimal" number (Table 4).
///
/// `extent` is the sweep domain (union of both inputs' extents);
/// `max_queue_bytes` in the returned stats is the sampled maximum of the
/// adapters' priority queues plus leaf buffers (Table 3).
///
/// Memory governance: the sweep structures and the source queues each
/// hold a grant (half the budget apiece); their sampled maxima are
/// reported as usage, so a strict arbiter aborts when an input defeats
/// the paper's in-memory assumption instead of silently over-allocating.
/// `arbiter` is the query's memory governor; nullptr runs against a
/// private one over the options' budget.
Result<JoinStats> PQJoinSources(SortedRectSource* a, SortedRectSource* b,
                                const RectF& extent, DiskModel* disk,
                                const JoinOptions& options, JoinSink* sink,
                                MemoryArbiter* arbiter = nullptr);

}  // namespace sj

#endif  // USJ_JOIN_PQ_JOIN_H_
