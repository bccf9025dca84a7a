#include "join/executor.h"

#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "join/partition_plan.h"
#include "join/pbsm.h"
#include "refine/refine.h"
#include "join/pq_join.h"
#include "join/sources.h"
#include "join/sssj.h"
#include "join/st_join.h"
#include "sort/external_sort.h"

namespace sj {

const char* ToString(JoinAlgorithm algo) {
  switch (algo) {
    case JoinAlgorithm::kAuto:
      return "AUTO";
    case JoinAlgorithm::kSSSJ:
      return "SSSJ";
    case JoinAlgorithm::kPBSM:
      return "PBSM";
    case JoinAlgorithm::kST:
      return "ST";
    case JoinAlgorithm::kPQ:
      return "PQ";
  }
  return "?";
}

uint64_t JoinInput::pages() const {
  if (indexed()) return rtree_->node_count();
  constexpr uint64_t per_page = kPageSize / sizeof(RectF);
  return (count() + per_page - 1) / per_page;
}

std::string PlanDecision::Describe() const {
  std::ostringstream os;
  os << "plan " << ToString(algorithm) << " (est. touches "
     << static_cast<int>(touched_fraction * 100.0 + 0.5)
     << "% of index; stream " << stream_cost_seconds << " s vs index "
     << index_cost_seconds << " s";
  if (refine_cost_seconds > 0.0) {
    os << ", incl. refine " << refine_cost_seconds << " s";
  }
  if (sort_cpu_seconds > 0.0) {
    os << ", incl. sort CPU " << sort_cpu_seconds << " s";
  }
  if (pbsm_partitions > 0) {
    os << "; PBSM " << (pbsm_adaptive ? "adaptive" : "fixed") << " "
       << pbsm_tiles_per_axis << "x" << pbsm_tiles_per_axis << " grid";
    if (pbsm_adaptive && pbsm_leaf_tiles > 0) {
      os << " (" << pbsm_leaf_tiles << " leaves)";
    }
    os << ", " << pbsm_partitions << " partitions, " << pbsm_cost_seconds
       << " s";
  }
  if (!memory.empty()) os << "; mem " << memory.Describe();
  os << ") — " << rationale;
  return os.str();
}

std::vector<std::pair<std::string, std::string>> PlanDecision::ToKeyValues()
    const {
  std::vector<std::pair<std::string, std::string>> kv;
  auto num = [](double v) {
    std::ostringstream os;
    os.precision(6);
    os << v;
    return os.str();
  };
  kv.emplace_back("algorithm", ToString(algorithm));
  kv.emplace_back("touched_fraction", num(touched_fraction));
  kv.emplace_back("stream_cost_seconds", num(stream_cost_seconds));
  kv.emplace_back("index_cost_seconds", num(index_cost_seconds));
  if (refine_cost_seconds > 0.0) {
    kv.emplace_back("refine_cost_seconds", num(refine_cost_seconds));
  }
  if (sort_cpu_seconds > 0.0) {
    kv.emplace_back("sort_cpu_seconds", num(sort_cpu_seconds));
  }
  if (pbsm_partitions > 0) {
    kv.emplace_back("pbsm.adaptive", pbsm_adaptive ? "true" : "false");
    kv.emplace_back("pbsm.tiles_per_axis",
                    std::to_string(pbsm_tiles_per_axis));
    kv.emplace_back("pbsm.partitions", std::to_string(pbsm_partitions));
    if (pbsm_leaf_tiles > 0) {
      kv.emplace_back("pbsm.leaf_tiles", std::to_string(pbsm_leaf_tiles));
    }
    if (histogram_build_seconds > 0.0) {
      kv.emplace_back("pbsm.histogram_build_seconds",
                      num(histogram_build_seconds));
    }
    kv.emplace_back("pbsm.cost_seconds", num(pbsm_cost_seconds));
  }
  if (!memory.empty()) {
    kv.emplace_back("memory.budget_bytes",
                    std::to_string(memory.budget_bytes));
    for (const MemoryGrantSpec& g : memory.grants) {
      kv.emplace_back("memory.grant." + g.component,
                      std::to_string(g.bytes));
    }
  }
  kv.emplace_back("rationale", rationale);
  return kv;
}

MemoryPlan PlanJoinMemory(JoinAlgorithm algo, const JoinOptions& options,
                          uint64_t input_bytes) {
  MemoryPlan plan;
  const size_t budget = std::max(options.memory_bytes, kMinMemoryBytes);
  plan.budget_bytes = budget;
  auto add = [&plan](const char* component, size_t bytes) {
    plan.grants.push_back(MemoryGrantSpec{component, bytes});
  };
  switch (algo) {
    case JoinAlgorithm::kAuto:
      break;  // Resolves to a concrete algorithm at plan time.
    case JoinAlgorithm::kSSSJ:
      // Each side sorts within half the budget (phases are sequential);
      // the sweep grant follows the executor's square-root active-set
      // estimate — when even that exceeds the budget, SSSJ degrades to
      // the strip fallback.
      add(grants::kSortRuns, budget / 2);
      add(grants::kSweep,
          std::min<size_t>(EstimateSweepBytes(input_bytes / sizeof(RectF)),
                           budget));
      break;
    case JoinAlgorithm::kPBSM: {
      const uint32_t p =
          options.adaptive_partitioning
              ? PbsmPartitionCount(input_bytes, budget,
                                   PartitionPlannerConfig().partition_fill)
              : PbsmPartitionCount(input_bytes, budget);
      if (options.adaptive_partitioning) {
        const uint64_t res = std::max(1u, options.pbsm_histogram_resolution);
        add(grants::kPbsmHistogram,
            std::min<uint64_t>(2 * res * res * sizeof(uint64_t), budget));
      }
      // One open writer per partition and side during distribution,
      // with the partition map's preferred flush block: the adaptive
      // planner budgets most of the phase's memory across the 2p
      // writers (PbsmWriterBlockPages, shared with AdaptivePartitionMap),
      // the fixed grid keeps the paper's 4-page constant. The executor
      // shrinks the blocks when the grant comes back smaller.
      const uint64_t block_pages = options.adaptive_partitioning
                                       ? PbsmWriterBlockPages(budget, p)
                                       : 4;
      add(grants::kPbsmWriters,
          std::min<size_t>(budget,
                           size_t{2} * p * block_pages * kPageSize));
      // The join phase loads one partition pair at a time (per
      // serial-equivalent work unit); denial is the overflow signal that
      // routes the pair through the external-sort fallback.
      add(grants::kPbsmPartition, budget);
      break;
    }
    case JoinAlgorithm::kST:
      // The paper gives most of the budget to the shared LRU pool (22 of
      // 24 MB); the pool shrinks to its grant under smaller budgets, the
      // remainder covers the per-node entry lists.
      add(grants::kBufferPool,
          std::min<size_t>(options.buffer_pool_pages * kPageSize,
                           budget - std::min(budget, kPageSize * 2)));
      break;
    case JoinAlgorithm::kPQ:
      // Traversal queues + leaf buffers on one grant, sweep structures
      // on the other (half the budget apiece, exactly what
      // PQJoinSources acquires); a stream side additionally sorts
      // within half the budget before the queues exist.
      add(grants::kSortRuns, budget / 2);
      add(grants::kPqQueue, budget / 2);
      add(grants::kSweep, budget - budget / 2);
      break;
  }
  if (options.refine) {
    add(grants::kRefineBatch,
        std::min<size_t>(budget / 4,
                         size_t{std::max(1u, options.refine_batch_pairs)} *
                             kRefineBytesPerCandidate));
  }
  return plan;
}

std::ostream& operator<<(std::ostream& os, const PlanDecision& decision) {
  return os << decision.Describe();
}

Status JoinExecutor::Validate(const CompiledPlan& plan) const {
  if (plan.inputs.size() != 2) {
    return Status::InvalidArgument(std::string(name()) +
                                   " executes pairwise joins only");
  }
  return Status::OK();
}

namespace {

/// Materializes an indexed input as a stream (sequential leaf scan), for
/// running stream algorithms against trees. The backing pager is parked
/// on the plan so the returned DatasetRef outlives the executor call.
Result<DatasetRef> ExtractLeaves(CompiledPlan& plan, const RTree& tree) {
  // Collect before the writer exists so an index error unwinds without
  // leaving an unfinished stream behind.
  std::vector<RectF> all;
  SJ_RETURN_IF_ERROR(tree.CollectAll(&all));
  SJ_ASSIGN_OR_RETURN(
      auto out,
      MakePager(plan.options.storage.get(), plan.disk, "extract.leaves"));
  StreamWriter<RectF> writer(out.get());
  const PageId first = writer.first_page();
  for (const RectF& r : all) writer.Append(r);
  SJ_ASSIGN_OR_RETURN(uint64_t n, writer.Finish());
  DatasetRef ref;
  ref.range = StreamRange{out.get(), first, n};
  ref.extent = tree.bounding_box();
  plan.owned_pagers.push_back(std::move(out));
  return ref;
}

/// Sorted source over any input (sorting streams as needed). The returned
/// pagers (if any) own temporary space and must stay alive for the
/// source's lifetime. Indexed inputs become *selective* PQ traversals
/// pruned by the other input's extent (always safe) and occupancy
/// histogram (when provided) — the §6.3 refinement that makes localized
/// joins touch only the relevant part of the index.
struct PreparedSource {
  std::unique_ptr<SortedRectSource> source;
  std::unique_ptr<Pager> scratch;
  std::unique_ptr<Pager> sorted;
  std::unique_ptr<RectF> filter;  // Owned pruning rectangle.
  RTreePQSource* pq = nullptr;  // Set when the source is an index adapter.

  uint64_t index_pages_read() const {
    return pq != nullptr ? pq->pages_read() : 0;
  }
};

Result<PreparedSource> PrepareSource(CompiledPlan& plan,
                                     const JoinInput& input,
                                     const RectF* other_extent = nullptr,
                                     const GridHistogram* other_hist =
                                         nullptr) {
  PreparedSource prepared;
  switch (input.kind()) {
    case JoinInput::Kind::kRTree: {
      RTreePQSource::Options options;
      if (other_extent != nullptr && other_extent->Valid()) {
        prepared.filter = std::make_unique<RectF>(*other_extent);
        options.filter = prepared.filter.get();
      }
      options.occupancy = other_hist;
      auto source = std::make_unique<RTreePQSource>(input.rtree(), options);
      prepared.pq = source.get();
      prepared.source = std::move(source);
      return prepared;
    }
    case JoinInput::Kind::kSortedStream: {
      prepared.source =
          std::make_unique<SortedStreamSource>(input.stream().range);
      return prepared;
    }
    case JoinInput::Kind::kStream: {
      SJ_ASSIGN_OR_RETURN(prepared.scratch,
                          MakePager(plan.options.storage.get(), plan.disk,
                                    "join.sort.runs"));
      SJ_ASSIGN_OR_RETURN(prepared.sorted,
                          MakePager(plan.options.storage.get(), plan.disk,
                                    "join.sort.out"));
      SJ_ASSIGN_OR_RETURN(
          StreamRange sorted,
          SortRectsByYLo(input.stream().range, prepared.scratch.get(),
                         prepared.sorted.get(),
                         plan.options.memory_bytes / 2,
                         plan.arbiter.get(), SortConfigOf(plan.options)));
      prepared.source = std::make_unique<SortedStreamSource>(sorted);
      return prepared;
    }
  }
  return Status::Internal("unreachable join input kind");
}

/// SSSJ and PBSM share their input handling: both consume plain streams,
/// so indexed inputs are first flattened with a leaf scan.
class StreamAlgorithmExecutor : public JoinExecutor {
 public:
  Result<JoinStats> Execute(CompiledPlan& plan, JoinSink* sink) const final {
    DatasetRef ra, rb;
    if (plan.inputs[0].indexed()) {
      SJ_ASSIGN_OR_RETURN(ra, ExtractLeaves(plan, *plan.inputs[0].rtree()));
    } else {
      ra = plan.inputs[0].stream();
    }
    if (plan.inputs[1].indexed()) {
      SJ_ASSIGN_OR_RETURN(rb, ExtractLeaves(plan, *plan.inputs[1].rtree()));
    } else {
      rb = plan.inputs[1].stream();
    }
    return ExecuteStreams(plan, ra, rb, sink);
  }

 protected:
  virtual Result<JoinStats> ExecuteStreams(CompiledPlan& plan,
                                           const DatasetRef& a,
                                           const DatasetRef& b,
                                           JoinSink* sink) const = 0;
};

class SSSJExecutor final : public StreamAlgorithmExecutor {
 public:
  JoinAlgorithm algorithm() const override { return JoinAlgorithm::kSSSJ; }
  const char* name() const override { return "SSSJ"; }

 protected:
  Result<JoinStats> ExecuteStreams(CompiledPlan& plan, const DatasetRef& a,
                                   const DatasetRef& b,
                                   JoinSink* sink) const override {
    return SSSJJoin(a, b, plan.disk, plan.options, sink, plan.arbiter.get());
  }
};

class PBSMExecutor final : public StreamAlgorithmExecutor {
 public:
  JoinAlgorithm algorithm() const override { return JoinAlgorithm::kPBSM; }
  const char* name() const override { return "PBSM"; }

 protected:
  Result<JoinStats> ExecuteStreams(CompiledPlan& plan, const DatasetRef& a,
                                   const DatasetRef& b,
                                   JoinSink* sink) const override {
    // Attached histograms spare the adaptive planner its build pass.
    // (The compile step clears them when an ε-expansion makes them
    // stale, so PBSM then re-derives density from the expanded stream.)
    return PBSMJoin(a, b, plan.disk, plan.options, sink,
                    plan.prune_histogram(0), plan.prune_histogram(1),
                    plan.arbiter.get());
  }
};

class STExecutor final : public JoinExecutor {
 public:
  JoinAlgorithm algorithm() const override { return JoinAlgorithm::kST; }
  const char* name() const override { return "ST"; }

  Status Validate(const CompiledPlan& plan) const override {
    SJ_RETURN_IF_ERROR(JoinExecutor::Validate(plan));
    if (!plan.inputs[0].indexed() || !plan.inputs[1].indexed()) {
      return Status::FailedPrecondition(
          "ST requires R-tree indexes on both inputs");
    }
    return Status::OK();
  }

  Result<JoinStats> Execute(CompiledPlan& plan, JoinSink* sink) const override {
    return STJoin(*plan.inputs[0].rtree(), *plan.inputs[1].rtree(), plan.disk,
                  plan.options, sink, plan.arbiter.get());
  }
};

class PQExecutor final : public JoinExecutor {
 public:
  JoinAlgorithm algorithm() const override { return JoinAlgorithm::kPQ; }
  const char* name() const override { return "PQ"; }

  Result<JoinStats> Execute(CompiledPlan& plan, JoinSink* sink) const override {
    const RectF extent_a = plan.inputs[0].extent();
    const RectF extent_b = plan.inputs[1].extent();
    SJ_ASSIGN_OR_RETURN(
        PreparedSource sa,
        PrepareSource(plan, plan.inputs[0], &extent_b,
                      plan.prune_histogram(1)));
    SJ_ASSIGN_OR_RETURN(
        PreparedSource sb,
        PrepareSource(plan, plan.inputs[1], &extent_a,
                      plan.prune_histogram(0)));
    RectF extent = extent_a;
    extent.ExtendTo(extent_b);
    SJ_ASSIGN_OR_RETURN(
        JoinStats stats,
        PQJoinSources(sa.source.get(), sb.source.get(), extent, plan.disk,
                      plan.options, sink, plan.arbiter.get()));
    stats.index_pages_read = sa.index_pages_read() + sb.index_pages_read();
    return stats;
  }
};

}  // namespace

ExecutorRegistry::ExecutorRegistry() {
  static const SSSJExecutor sssj;
  static const PBSMExecutor pbsm;
  static const STExecutor st;
  static const PQExecutor pq;
  Register(&sssj);
  Register(&pbsm);
  Register(&st);
  Register(&pq);
}

ExecutorRegistry& ExecutorRegistry::Instance() {
  static ExecutorRegistry registry;
  return registry;
}

void ExecutorRegistry::Register(const JoinExecutor* executor) {
  const size_t slot = static_cast<size_t>(executor->algorithm());
  SJ_CHECK(slot < kSlots) << "JoinAlgorithm value out of registry range";
  table_[slot] = executor;
}

const JoinExecutor* ExecutorRegistry::Find(JoinAlgorithm algo) const {
  const size_t slot = static_cast<size_t>(algo);
  return slot < kSlots ? table_[slot] : nullptr;
}

const JoinExecutor* FindExecutor(JoinAlgorithm algo) {
  return ExecutorRegistry::Instance().Find(algo);
}

Result<MultiwayStats> ExecuteMultiwayFilter(CompiledPlan& plan,
                                            TupleSink* sink) {
  std::vector<PreparedSource> prepared;
  prepared.reserve(plan.inputs.size());
  RectF extent = RectF::Empty();
  for (const JoinInput& input : plan.inputs) {
    SJ_ASSIGN_OR_RETURN(PreparedSource p, PrepareSource(plan, input));
    prepared.push_back(std::move(p));
    extent.ExtendTo(input.extent());
  }
  // The chain's in-memory state (sweep structures, lazy pair tables,
  // traversal queues) runs under one grant; its sampled maximum
  // (MultiwayStats::max_bytes) is reported as usage, so a strict
  // arbiter aborts when a k-way chain outgrows the budget.
  MemoryGrant chain_grant;
  if (plan.arbiter != nullptr) {
    chain_grant = plan.arbiter->AcquireShrinkable(
        grants::kSweep, plan.arbiter->budget() / 2, /*floor_bytes=*/0);
  }
  auto note_chain = [&chain_grant](const MultiwayStats& stats) {
    chain_grant.NoteUsage(stats.max_bytes);
  };
  if (plan.options.num_threads > 1) {
    // Parallel path: materialize every prepared source as a y-sorted
    // stream (index traversals included), then strip-partition the
    // domain and join strips on the worker pool. The serial chain reads
    // its sources lazily inside its own measurement, so the
    // materialization pass here is measured too and folded into the
    // returned stats — the counters must cover exactly the algorithm's
    // own work either way.
    JoinMeasurement materialize_measurement(plan.disk);
    std::vector<std::unique_ptr<Pager>> stream_pagers;
    std::vector<DatasetRef> streams;
    stream_pagers.reserve(prepared.size());
    streams.reserve(prepared.size());
    for (size_t i = 0; i < prepared.size(); ++i) {
      SJ_ASSIGN_OR_RETURN(
          auto pager,
          MakePager(plan.options.storage.get(), plan.disk,
                    "multiway.materialized." + std::to_string(i)));
      StreamWriter<RectF> writer(pager.get());
      const PageId first = writer.first_page();
      while (std::optional<RectF> r = prepared[i].source->Next()) {
        writer.Append(*r);
      }
      SJ_ASSIGN_OR_RETURN(uint64_t n, writer.Finish());
      DatasetRef ref;
      ref.range = StreamRange{pager.get(), first, n};
      ref.extent = plan.inputs[i].extent();
      streams.push_back(ref);
      stream_pagers.push_back(std::move(pager));
    }
    const JoinStats materialize = materialize_measurement.Finish();
    SJ_ASSIGN_OR_RETURN(
        MultiwayStats stats,
        MultiwayJoinStreams(streams, extent, plan.disk, plan.options, sink));
    stats.disk += materialize.disk;
    stats.host_cpu_seconds += materialize.host_cpu_seconds;
    stats.candidate_count = stats.output_count;
    note_chain(stats);
    return stats;
  }
  std::vector<SortedRectSource*> sources;
  sources.reserve(prepared.size());
  for (PreparedSource& p : prepared) sources.push_back(p.source.get());
  SJ_ASSIGN_OR_RETURN(
      MultiwayStats stats,
      MultiwayJoinSources(sources, extent, plan.disk, plan.options, sink));
  stats.candidate_count = stats.output_count;
  note_chain(stats);
  return stats;
}

}  // namespace sj
