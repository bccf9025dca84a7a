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
#include "sweep/sweep_join.h"

namespace sj {

uint64_t JoinInput::pages() const {
  if (indexed()) return rtree_->node_count();
  constexpr uint64_t per_page = kPageSize / sizeof(RectF);
  return (count() + per_page - 1) / per_page;
}

Status VisitRecords(const JoinInput& input,
                    const std::function<void(const RectF&)>& visit) {
  switch (input.kind()) {
    case JoinInput::Kind::kRTree: {
      const RTree& tree = *input.rtree();
      return tree.ScanLeaves(tree.bounding_box(), visit).status();
    }
    case JoinInput::Kind::kSortedRects:
      for (uint64_t i = 0; i < input.count(); ++i) visit(input.rects()[i]);
      return Status::OK();
    case JoinInput::Kind::kStream:
    case JoinInput::Kind::kSortedStream: {
      const StreamRange& range = input.stream().range;
      StreamReader<RectF> reader(range.pager, range.first_page, range.count);
      while (std::optional<RectF> r = reader.Next()) visit(*r);
      return reader.status();
    }
  }
  return Status::Internal("unreachable join input kind");
}

Result<StreamRange> WriteRecords(
    const JoinInput& input, Pager* out,
    const std::function<RectF(const RectF&)>& map) {
  StreamWriter<RectF> writer(out);
  const PageId first = writer.first_page();
  const Status read = VisitRecords(input, [&](const RectF& r) {
    writer.Append(map ? map(r) : r);
  });
  if (!read.ok()) {
    writer.Abandon();
    return read;
  }
  SJ_ASSIGN_OR_RETURN(uint64_t n, writer.Finish());
  return StreamRange{out, first, n};
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

void PlanJoinMemory(const CompiledPlan& plan, MemoryArbiter* arbiter) {
  const JoinOptions& options = plan.options;
  const size_t budget = arbiter->budget();
  // The k-way chain makes PQ's requests, less the traversal queues.
  const bool pairwise = plan.inputs.size() == 2;
  const JoinAlgorithm algorithm =
      pairwise ? plan.decision.algorithm : JoinAlgorithm::kPQ;
  uint64_t records = 0;
  for (const JoinInput& input : plan.inputs) records += input.count();
  if (plan.predicate.kind == Predicate::kDistanceWithin &&
      algorithm == JoinAlgorithm::kST) {
    arbiter->AcquireShrinkable(RTree::BulkLoadRequest(options.memory_bytes));
  }
  switch (algorithm) {
    case JoinAlgorithm::kAuto:
      break;
    case JoinAlgorithm::kPQ: {
      // Each stream input's sort in turn, then the queues and the sweep.
      const PQGrants requests = PQGrantRequests(budget);
      for (const JoinInput& input : plan.inputs) {
        if (input.kind() == JoinInput::Kind::kStream) {
          arbiter->AcquireShrinkable(requests.sort);
        }
      }
      const MemoryGrant queue = pairwise
                                    ? arbiter->AcquireShrinkable(requests.queue)
                                    : MemoryGrant();
      arbiter->AcquireShrinkable(requests.sweep);
      break;
    }
    case JoinAlgorithm::kSSSJ: {
      const SSSJGrants requests =
          SSSJGrantRequests(options.memory_bytes, records);
      if (arbiter->AcquireShrinkable(requests.sweep).bytes() <
          requests.sweep.bytes) {
        // The strip fallback: its writers, then every strip's sorts on a
        // unit arbiter of the whole budget.
        arbiter->AcquireShrinkable(
            SSSJStripWriters(SSSJStripCount(requests.sweep.bytes, budget))
                .Request(budget));
        MemoryArbiter unit(budget);
        unit.AcquireShrinkable(requests.sort);
        arbiter->FoldChild(unit);
        break;
      }
      const bool sorted_input =
          plan.inputs[0].sorted() || plan.inputs[1].sorted();
      if (options.fuse_merge_sweep && !sorted_input) {
        // The fused merge's sorters are alive together. Whether their runs
        // then fuse, or each input sorts again in turn, moves no
        // high-water mark.
        const MemoryGrant sort_a = arbiter->AcquireShrinkable(requests.sort);
        arbiter->AcquireShrinkable(requests.sort);
      }
      // Each unsorted input sorts in turn; a sorted one needs no sort.
      for (const JoinInput& input : plan.inputs) {
        if (!input.sorted()) arbiter->AcquireShrinkable(requests.sort);
      }
      arbiter->AcquireShrinkable(requests.sweep);
      break;
    }
    case JoinAlgorithm::kPBSM: {
      const PBSMGrants requests = PBSMGrantRequests(
          options, plan.prune_histogram(0), plan.prune_histogram(1));
      arbiter->AcquireShrinkable(requests.histogram);
      arbiter->AcquireShrinkable(
          PbsmWriters(plan.decision.pbsm_partitions, options).Request(budget));
      MemoryArbiter unit(requests.partition_budget);
      (void)unit.Acquire(grants::kPbsmPartition, requests.partition_budget);
      arbiter->FoldChild(unit);
      break;
    }
    case JoinAlgorithm::kST:
      arbiter->AcquireShrinkable(STPoolRequest(options, budget));
      break;
  }
  if (options.refine) {
    arbiter->AcquireShrinkable(RefineGrantRequest(budget, plan.inputs.size()));
  }
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

/// `input` as a stream, for the plans that read streams (PBSM, SSSJ and
/// its strips): a stream input's own; a tree's leaf level (in page
/// order) or resident records written to a scratch stream, whose pager
/// is parked on the plan so the returned DatasetRef outlives the
/// executor call.
Result<DatasetRef> StreamOf(CompiledPlan& plan, const JoinInput& input) {
  if (!input.indexed() && !input.resident()) return input.stream();
  SJ_ASSIGN_OR_RETURN(
      auto out, MakePager(plan.options.storage.get(), plan.disk,
                          input.indexed() ? "extract.leaves" : "extract.rects"));
  DatasetRef ref;
  SJ_ASSIGN_OR_RETURN(ref.range, WriteRecords(input, out.get()));
  ref.extent = input.extent();
  plan.owned_pagers.push_back(std::move(out));
  return ref;
}

/// Sorted source over any input (a stream sorts under PQ's sort request).
/// The returned pagers (if any) own temporary space and must stay alive
/// for the source's lifetime. Indexed inputs become *selective* PQ
/// traversals pruned by the other input's extent (always safe) and
/// occupancy histogram (when provided) — the §6.3 refinement that makes
/// localized joins touch only the relevant part of the index.
struct PreparedSource {
  std::unique_ptr<SortedRectSource> source;
  std::unique_ptr<Pager> scratch;
  std::unique_ptr<Pager> sorted;
  std::unique_ptr<RectF> filter;  // Owned pruning rectangle.
  RTreePQSource* pq = nullptr;  // Set when the source is an index adapter.
  SortStats sort;  // What a stream input's sort did.

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
    case JoinInput::Kind::kSortedRects: {
      prepared.source =
          std::make_unique<SortedRectsSource>(input.rects(), input.count());
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
                         PQGrantRequests(plan.options.memory_bytes).sort.bytes,
                         plan.arbiter.get(), SortConfigOf(plan.options),
                         &prepared.sort));
      prepared.source = std::make_unique<SortedStreamSource>(sorted);
      return prepared;
    }
  }
  return Status::Internal("unreachable join input kind");
}

class SSSJExecutor final : public JoinExecutor {
 public:
  JoinAlgorithm algorithm() const override { return JoinAlgorithm::kSSSJ; }
  const char* name() const override { return "SSSJ"; }

  Result<JoinStats> Execute(CompiledPlan& plan, JoinSink* sink) const override {
    if (plan.inputs[0].sorted() || plan.inputs[1].sorted()) {
      return SweepSorted(plan, sink);
    }
    // Plain SSSJ over streams; a tree's leaf level is flattened first.
    SJ_ASSIGN_OR_RETURN(const DatasetRef a, StreamOf(plan, plan.inputs[0]));
    SJ_ASSIGN_OR_RETURN(const DatasetRef b, StreamOf(plan, plan.inputs[1]));
    return SSSJJoin(a, b, plan.disk, plan.options, sink, plan.arbiter.get());
  }

 private:
  /// SSSJ when an input arrives sorted: a sorted input is swept as it is,
  /// and only an unsorted one sorts first, as SSSJJoin sorts it. The
  /// strip fallback reads streams, so there every input is flattened.
  static Result<JoinStats> SweepSorted(CompiledPlan& plan, JoinSink* sink) {
    const JoinOptions& options = plan.options;
    MemoryArbiter* arbiter = plan.arbiter.get();
    const uint64_t records = plan.inputs[0].count() + plan.inputs[1].count();
    const SSSJGrants requests =
        SSSJGrantRequests(options.memory_bytes, records);
    DatasetRef streams[2];
    {
      MemoryGrant probe = arbiter->AcquireShrinkable(requests.sweep);
      const bool strips = probe.bytes() < requests.sweep.bytes;
      probe.Release();
      for (int i = 0; i < 2; ++i) {
        const JoinInput& input = plan.inputs[i];
        if (strips || !input.sorted()) {
          SJ_ASSIGN_OR_RETURN(streams[i], StreamOf(plan, input));
        } else if (!input.resident()) {
          streams[i] = input.stream();
        }
      }
      if (strips) {
        return SSSJStripJoin(
            streams[0], streams[1],
            SSSJStripCount(requests.sweep.bytes, arbiter->budget()),
            plan.disk, options, sink, arbiter);
      }
    }

    JoinMeasurement measurement(plan.disk);
    RectF extent = RectF::Empty();
    SortStats sort_stats;
    // The sorted streams' pagers outlive the sources reading them.
    std::vector<std::unique_ptr<Pager>> scratch;
    std::unique_ptr<SortedRectSource> sources[2];
    for (int i = 0; i < 2; ++i) {
      const JoinInput& input = plan.inputs[i];
      if (input.resident()) {
        extent.ExtendTo(input.extent());
        sources[i] =
            std::make_unique<SortedRectsSource>(input.rects(), input.count());
        continue;
      }
      SJ_ASSIGN_OR_RETURN(const RectF input_extent, EnsureExtent(streams[i]));
      extent.ExtendTo(input_extent);
      StreamRange sorted = streams[i].range;
      if (!input.sorted()) {
        const std::string side = i == 0 ? "a" : "b";
        SJ_ASSIGN_OR_RETURN(auto runs, MakePager(options.storage.get(),
                                                 plan.disk, "sssj.runs." + side));
        SJ_ASSIGN_OR_RETURN(auto out, MakePager(options.storage.get(), plan.disk,
                                                "sssj.sorted." + side));
        SJ_ASSIGN_OR_RETURN(
            sorted, SortRectsByYLo(streams[i].range, runs.get(), out.get(),
                                   requests.sort.bytes, arbiter,
                                   SortConfigOf(options), &sort_stats));
        scratch.push_back(std::move(runs));
        scratch.push_back(std::move(out));
      }
      sources[i] = std::make_unique<SortedStreamSource>(sorted);
    }

    MemoryGrant sweep_grant = arbiter->AcquireShrinkable(requests.sweep);
    auto emit = [sink](const RectF& ra, const RectF& rb) {
      sink->Emit(ra.id, rb.id);
    };
    const SweepRunStats sweep = SweepJoinWithKind(
        options.stream_sweep, extent,
        SweepStrips(records, options.striped_strips), *sources[0],
        *sources[1], emit);
    SJ_RETURN_IF_ERROR(sources[0]->status());
    SJ_RETURN_IF_ERROR(sources[1]->status());
    sweep_grant.NoteUsage(sweep.max_structure_bytes);

    JoinStats stats = measurement.Finish();
    stats.output_count = sweep.output_count;
    stats.max_sweep_bytes = sweep.max_structure_bytes;
    stats.sweep_strips = sweep.strips;
    stats.sweep_strips_collapsed = sweep.strips_collapsed;
    stats.FoldSortStats(sort_stats);
    FillMemoryStats(*arbiter, &stats);
    return stats;
  }
};

class PBSMExecutor final : public JoinExecutor {
 public:
  JoinAlgorithm algorithm() const override { return JoinAlgorithm::kPBSM; }
  const char* name() const override { return "PBSM"; }

  Result<JoinStats> Execute(CompiledPlan& plan, JoinSink* sink) const override {
    SJ_ASSIGN_OR_RETURN(const DatasetRef a, StreamOf(plan, plan.inputs[0]));
    SJ_ASSIGN_OR_RETURN(const DatasetRef b, StreamOf(plan, plan.inputs[1]));
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
    stats.FoldSortStats(sa.sort);
    stats.FoldSortStats(sb.sort);
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
  // Measured from before the first stream sort, so the sorts' I/O and
  // this thread's share of their CPU count as the join's.
  JoinMeasurement measurement(plan.disk);
  std::vector<PreparedSource> prepared;
  prepared.reserve(plan.inputs.size());
  RectF extent = RectF::Empty();
  // CPU of stream sorts' formation workers, which no measurement sees.
  double sort_worker_cpu = 0.0;
  for (const JoinInput& input : plan.inputs) {
    SJ_ASSIGN_OR_RETURN(PreparedSource p,
                        PrepareSource(plan, input));
    sort_worker_cpu += p.sort.worker_cpu_seconds;
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
        PQGrantRequests(plan.options.memory_bytes).sweep);
  }
  std::vector<SortedRectSource*> sources;
  sources.reserve(prepared.size());
  for (PreparedSource& p : prepared) sources.push_back(p.source.get());
  SJ_ASSIGN_OR_RETURN(
      MultiwayStats stats,
      MultiwayJoinSources(sources, extent, plan.options, sink));
  const JoinStats measured = measurement.Finish();
  stats.disk = measured.disk;
  stats.host_cpu_seconds = measured.host_cpu_seconds + sort_worker_cpu;
  stats.candidate_count = stats.output_count;
  chain_grant.NoteUsage(stats.max_bytes);
  return stats;
}

}  // namespace sj
