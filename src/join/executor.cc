#include "join/executor.h"

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

namespace sj {

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

std::ostream& operator<<(std::ostream& os, const PlanDecision& decision) {
  return os << decision.Describe();
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
        // The strip fallback: its writers, then its units, each on an
        // arbiter of the whole budget.
        const uint32_t strips = SSSJStripCount(requests.sweep.bytes, budget);
        arbiter->AcquireShrinkable(SSSJStripWriters(strips).Request(budget));
        PlanUnits(options, records, strips, budget, arbiter);
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
      const uint32_t partitions = plan.decision.pbsm_partitions;
      arbiter->AcquireShrinkable(PbsmWriters(partitions, options).Request(budget));
      PlanUnits(options, records, partitions, requests.partition_budget,
                arbiter);
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

namespace {

/// `input` as a stream, for PBSM: a stream input's own; a tree's leaf
/// level or resident records written out (ExtractStream), whose pager is
/// parked on the plan so the returned DatasetRef outlives the executor
/// call.
Result<DatasetRef> StreamOf(CompiledPlan& plan, const JoinInput& input) {
  if (!input.indexed() && !input.resident()) return input.stream();
  std::unique_ptr<Pager> pager;
  SJ_ASSIGN_OR_RETURN(
      const DatasetRef ref,
      ExtractStream(input, plan.options.storage.get(), plan.disk, &pager));
  plan.owned_pagers.push_back(std::move(pager));
  return ref;
}

/// How PQ and the k-way chain sort a stream input: under PQ's sort
/// request, into "join.sort.*" pagers.
SourceSort PQSort(const JoinOptions& options) {
  return SourceSort{PQGrantRequests(options.memory_bytes).sort.bytes,
                    "join.sort.runs", "join.sort.out"};
}

}  // namespace

Result<JoinStats> ExecuteJoin(CompiledPlan& plan, JoinSink* sink) {
  const JoinInput& a = plan.inputs[0];
  const JoinInput& b = plan.inputs[1];
  MemoryArbiter* arbiter = plan.arbiter.get();
  switch (plan.decision.algorithm) {
    case JoinAlgorithm::kSSSJ:
      return SSSJJoin(a, b, plan.disk, plan.options, sink, arbiter);
    case JoinAlgorithm::kPBSM: {
      SJ_ASSIGN_OR_RETURN(const DatasetRef sa, StreamOf(plan, a));
      SJ_ASSIGN_OR_RETURN(const DatasetRef sb, StreamOf(plan, b));
      // Attached histograms spare the adaptive planner its build pass.
      // (The compile step clears them when an ε-expansion makes them
      // stale, so PBSM then re-derives density from the expanded stream.)
      return PBSMJoin(sa, sb, plan.disk, plan.options, sink,
                      plan.prune_histogram(0), plan.prune_histogram(1),
                      arbiter);
    }
    case JoinAlgorithm::kST:
      if (!a.indexed() || !b.indexed()) {
        return Status::FailedPrecondition(
            "ST requires R-tree indexes on both inputs");
      }
      return STJoin(*a.rtree(), *b.rtree(), plan.disk, plan.options, sink,
                    arbiter);
    case JoinAlgorithm::kPQ: {
      const RectF extent_a = a.extent();
      const RectF extent_b = b.extent();
      const SourceSort sort = PQSort(plan.options);
      SJ_ASSIGN_OR_RETURN(
          PreparedSource sa,
          PrepareSource(a, sort, plan.disk, plan.options, arbiter, &extent_b,
                        plan.prune_histogram(1)));
      SJ_ASSIGN_OR_RETURN(
          PreparedSource sb,
          PrepareSource(b, sort, plan.disk, plan.options, arbiter, &extent_a,
                        plan.prune_histogram(0)));
      RectF extent = extent_a;
      extent.ExtendTo(extent_b);
      SJ_ASSIGN_OR_RETURN(
          JoinStats stats,
          PQJoinSources(sa.source.get(), sb.source.get(), extent, plan.disk,
                        plan.options, sink, arbiter));
      stats.index_pages_read = sa.index_pages_read() + sb.index_pages_read();
      stats.FoldSortStats(sa.sort);
      stats.FoldSortStats(sb.sort);
      return stats;
    }
    case JoinAlgorithm::kAuto:
      break;
  }
  return Status::Internal(std::string("no execution for algorithm ") +
                          ToString(plan.decision.algorithm));
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
  const SourceSort sort = PQSort(plan.options);
  for (const JoinInput& input : plan.inputs) {
    SJ_ASSIGN_OR_RETURN(PreparedSource p,
                        PrepareSource(input, sort, plan.disk, plan.options,
                                      plan.arbiter.get()));
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
