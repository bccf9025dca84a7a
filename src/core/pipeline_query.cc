#include "core/pipeline_query.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "core/join_query.h"
#include "io/stream.h"
#include "service/spatial_service.h"
#include "util/timer.h"

namespace sj {

namespace {

std::string FmtG(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string HumanBytes(size_t bytes) {
  char buf[32];
  if (bytes >= (1u << 20)) {
    std::snprintf(buf, sizeof(buf), "%.3g MB",
                  static_cast<double>(bytes) / (1u << 20));
  } else if (bytes >= (1u << 10)) {
    std::snprintf(buf, sizeof(buf), "%.3g KB",
                  static_cast<double>(bytes) / (1u << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%zu B", bytes);
  }
  return buf;
}

/// Counts the rows crossing into the caller's sink (PipelineStats::
/// output_count without requiring anything of the sink itself).
class CountingForward final : public RowSink {
 public:
  explicit CountingForward(RowSink* down) : down_(down) {}
  void Emit(PipeRow row) override {
    count_++;
    down_->Emit(std::move(row));
  }
  uint64_t count() const { return count_; }

 private:
  RowSink* down_;
  uint64_t count_ = 0;
};

/// The join input the windowed-overlay plan builds from `input`: its
/// in-window records as a stream (ids, and so FeatureStores, preserved).
JoinInput WindowedInput(const JoinInput& input, const DatasetRef& windowed) {
  return JoinInput::FromStream(windowed).WithFeatures(input.features());
}

}  // namespace

// --- PipelinePlan ----------------------------------------------------------

std::string PipelinePlan::Describe() const {
  std::ostringstream os;
  for (size_t i = 0; i < operators.size(); ++i) {
    const OperatorPlan& node = operators[i];
    if (node.depth > 0) {
      os << std::string(3 * (node.depth - 1), ' ');
      const bool has_sibling_next =
          i + 1 < operators.size() && operators[i + 1].depth == node.depth;
      os << (has_sibling_next ? "├─ " : "└─ ");
    }
    os << node.name;
    if (!node.detail.empty()) os << "(" << node.detail << ")";
    os << "  rows~" << FmtG(node.est_rows) << " cost~" << FmtG(node.cost_seconds)
       << "s";
    if (node.planned_bytes > 0) os << " mem " << HumanBytes(node.planned_bytes);
    os << "\n";
  }
  os << "total cost~" << FmtG(total_cost_seconds) << "s, "
     << memory.Describe();
  if (has_join) os << "\njoin: " << join.Describe();
  return os.str();
}

std::vector<std::pair<std::string, std::string>> PipelinePlan::ToKeyValues()
    const {
  std::vector<std::pair<std::string, std::string>> kv;
  for (size_t i = 0; i < operators.size(); ++i) {
    const std::string prefix = "op." + std::to_string(i) + ".";
    kv.emplace_back(prefix + "name", operators[i].name);
    kv.emplace_back(prefix + "est_rows", FmtG(operators[i].est_rows));
    kv.emplace_back(prefix + "cost_seconds", FmtG(operators[i].cost_seconds));
    kv.emplace_back(prefix + "planned_bytes",
                    std::to_string(operators[i].planned_bytes));
  }
  kv.emplace_back("total_cost_seconds", FmtG(total_cost_seconds));
  kv.emplace_back("memory.budget_bytes", std::to_string(memory.budget_bytes));
  for (const MemoryGrantSpec& g : memory.grants) {
    kv.emplace_back("memory.grant." + g.component, std::to_string(g.bytes));
  }
  if (has_join) {
    for (auto& [k, v] : join.ToKeyValues()) kv.emplace_back("join." + k, v);
  }
  return kv;
}

std::ostream& operator<<(std::ostream& os, const PipelinePlan& plan) {
  return os << plan.Describe();
}

// --- PipelineStats ---------------------------------------------------------

std::string PipelineStats::Describe() const {
  std::ostringstream os;
  os << "rows=" << output_count << " candidates=" << candidate_count
     << " pages[r=" << disk.pages_read << " w=" << disk.pages_written
     << "] peak_mem=" << HumanBytes(peak_memory_bytes);
  for (const OperatorStats& op : operators) {
    os << " | " << op.name << " " << op.rows_in << "->" << op.rows_out;
    if (op.pages_read > 0) os << " pr=" << op.pages_read;
    if (op.spill_pages > 0) os << " spill=" << op.spill_pages;
  }
  return os.str();
}

std::string PipelineStats::Describe(const MachineModel& m) const {
  std::ostringstream os;
  os << Describe() << " | observed=" << FmtG(ObservedSeconds(m))
     << "s (io=" << FmtG(disk.io_seconds)
     << "s cpu=" << FmtG(host_cpu_seconds * m.cpu_slowdown) << "s)";
  return os.str();
}

std::vector<std::pair<std::string, std::string>> PipelineStats::ToKeyValues()
    const {
  std::vector<std::pair<std::string, std::string>> kv;
  kv.emplace_back("output_count", std::to_string(output_count));
  kv.emplace_back("candidate_count", std::to_string(candidate_count));
  kv.emplace_back("refine_pages_read", std::to_string(refine_pages_read));
  kv.emplace_back("join_algorithm", ToString(join_algorithm));
  kv.emplace_back("sweep_strips", std::to_string(sweep_strips));
  kv.emplace_back("partitions_total", std::to_string(partitions_total));
  kv.emplace_back("partitions_overflowed",
                  std::to_string(partitions_overflowed));
  kv.emplace_back("host_cpu_seconds", FmtG(host_cpu_seconds));
  kv.emplace_back("disk.pages_read", std::to_string(disk.pages_read));
  kv.emplace_back("disk.pages_written", std::to_string(disk.pages_written));
  kv.emplace_back("disk.io_seconds", FmtG(disk.io_seconds));
  kv.emplace_back("peak_memory_bytes", std::to_string(peak_memory_bytes));
  for (size_t i = 0; i < operators.size(); ++i) {
    const std::string prefix = "op." + std::to_string(i) + ".";
    kv.emplace_back(prefix + "name", operators[i].name);
    kv.emplace_back(prefix + "rows_in", std::to_string(operators[i].rows_in));
    kv.emplace_back(prefix + "rows_out", std::to_string(operators[i].rows_out));
    kv.emplace_back(prefix + "pages_read",
                    std::to_string(operators[i].pages_read));
    kv.emplace_back(prefix + "spill_pages",
                    std::to_string(operators[i].spill_pages));
  }
  for (const MemoryComponentStats& c : memory_components) {
    kv.emplace_back("memory." + c.component + ".granted",
                    std::to_string(c.granted_high_water));
    kv.emplace_back("memory." + c.component + ".used",
                    std::to_string(c.used_high_water));
  }
  return kv;
}

std::ostream& operator<<(std::ostream& os, const PipelineStats& stats) {
  return os << stats.Describe();
}

// --- PipelineQuery: builder ------------------------------------------------

PipelineQuery& PipelineQuery::Filter(FilterOp::RowPredicate predicate,
                                     std::string label) {
  OpSpec spec;
  spec.kind = OpSpec::Kind::kFilter;
  spec.filter = std::move(predicate);
  spec.label = std::move(label);
  ops_.push_back(std::move(spec));
  return *this;
}

PipelineQuery& PipelineQuery::Project(ProjectOp::RowTransform transform,
                                      std::string label) {
  OpSpec spec;
  spec.kind = OpSpec::Kind::kProject;
  spec.project = std::move(transform);
  spec.label = std::move(label);
  ops_.push_back(std::move(spec));
  return *this;
}

PipelineQuery& PipelineQuery::AggregateByCell(AggregateMode mode, uint32_t nx,
                                              uint32_t ny,
                                              const RectF& extent) {
  OpSpec spec;
  spec.kind = OpSpec::Kind::kAggregate;
  spec.agg_mode = mode;
  spec.agg_nx = nx;
  spec.agg_ny = ny;
  spec.agg_extent = extent;
  ops_.push_back(std::move(spec));
  return *this;
}

PipelineQuery& PipelineQuery::TopKByDistance(size_t k, float qx, float qy) {
  OpSpec spec;
  spec.kind = OpSpec::Kind::kTopK;
  spec.topk_k = k;
  spec.topk_x = qx;
  spec.topk_y = qy;
  ops_.push_back(std::move(spec));
  return *this;
}

JoinQuery PipelineQuery::JoinOver(std::vector<JoinInput> inputs) const {
  QuerySpec spec = spec_;
  spec.inputs = std::move(inputs);
  return JoinQuery(std::move(spec));
}

RectF PipelineQuery::ResolveAggregateExtent(const OpSpec& spec) const {
  if (spec.agg_extent.Valid()) return spec.agg_extent;
  if (has_window_ && window_.Valid()) return window_;
  RectF combined = RectF::Empty();
  for (const JoinInput& input : spec_.inputs) {
    if (input.extent().Valid()) combined.ExtendTo(input.extent());
  }
  return combined;
}

Status PipelineQuery::Validate() const {
  const size_t n = spec_.inputs.size();
  SJ_RETURN_IF_ERROR(spec_.Validate(n <= 1   ? QuerySource::kScan
                                    : n == 2 ? QuerySource::kPairwise
                                             : QuerySource::kMultiway,
                                    "PipelineQuery"));
  for (const OpSpec& spec : ops_) {
    switch (spec.kind) {
      case OpSpec::Kind::kFilter:
        if (!spec.filter) {
          return Status::InvalidArgument("Filter() needs a predicate");
        }
        break;
      case OpSpec::Kind::kProject:
        if (!spec.project) {
          return Status::InvalidArgument("Project() needs a transform");
        }
        break;
      case OpSpec::Kind::kAggregate: {
        if (spec.agg_nx == 0 || spec.agg_ny == 0) {
          return Status::InvalidArgument(
              "AggregateByCell() needs nx > 0 and ny > 0");
        }
        if (static_cast<uint64_t>(spec.agg_nx) * spec.agg_ny >
            uint64_t{0xFFFFFFFF}) {
          return Status::InvalidArgument(
              "AggregateByCell() grid too large: " +
              std::to_string(spec.agg_nx) + "x" + std::to_string(spec.agg_ny));
        }
        if (!ResolveAggregateExtent(spec).Valid()) {
          return Status::InvalidArgument(
              "AggregateByCell() cannot resolve a grid extent: pass one "
              "explicitly (the inputs carry no extents and no window is "
              "set)");
        }
        break;
      }
      case OpSpec::Kind::kTopK:
        if (spec.topk_k == 0) {
          return Status::InvalidArgument("TopKByDistance() needs k > 0");
        }
        break;
    }
  }
  return Status::OK();
}

std::vector<std::unique_ptr<PipelineOperator>> PipelineQuery::BuildChain()
    const {
  std::vector<std::unique_ptr<PipelineOperator>> chain;
  chain.reserve(ops_.size());
  for (const OpSpec& spec : ops_) {
    switch (spec.kind) {
      case OpSpec::Kind::kFilter:
        chain.push_back(std::make_unique<FilterOp>(spec.filter, spec.label));
        break;
      case OpSpec::Kind::kProject:
        chain.push_back(std::make_unique<ProjectOp>(spec.project, spec.label));
        break;
      case OpSpec::Kind::kAggregate:
        chain.push_back(std::make_unique<AggregateByCellOp>(
            spec.agg_mode, ResolveAggregateExtent(spec), spec.agg_nx,
            spec.agg_ny));
        break;
      case OpSpec::Kind::kTopK:
        chain.push_back(std::make_unique<TopKByDistanceOp>(
            spec.topk_k, spec.topk_x, spec.topk_y));
        break;
    }
  }
  return chain;
}

// --- Explain ---------------------------------------------------------------

Result<PipelinePlan> PipelineQuery::Explain() {
  SJ_RETURN_IF_ERROR(Validate());
  const std::vector<JoinInput>& inputs = spec_.inputs;
  const JoinOptions& options = spec_.options;
  const CostModel& cost = spec_.joiner->cost_model();
  const bool join_source = inputs.size() >= 2;

  PipelinePlan plan;
  // Run's grant requests, replayed in Run's order on an arbiter of the
  // query's budget: its high-water marks are the planned lines, so
  // Explain shrinks a request exactly where Run's arbiter would.
  MemoryArbiter scratch(options.memory_bytes);
  std::vector<MemoryGrant> held;

  // The operators Run opens, first, holding their grants to the end
  // (held[i] is operator i's).
  const std::vector<std::unique_ptr<PipelineOperator>> chain = BuildChain();
  for (const auto& op : chain) {
    held.push_back(scratch.AcquireShrinkable(op->Request()));
  }

  // Leaves. A windowed pipeline scans each input, one scan after another;
  // without a window a join source consumes its inputs directly and a
  // scan source reads everything.
  std::vector<OperatorPlan> leaves;
  for (size_t i = 0; i < inputs.size(); ++i) {
    OperatorPlan leaf;
    if (has_window_ || !join_source) {
      const WindowScan scan(inputs[i],
                            has_window_ ? window_ : inputs[i].extent(),
                            spec_.HistogramOf(i));
      leaf = scan.Estimate(cost);
    } else {
      leaf.name = "Input";  // Consumed (and priced) by the join itself.
      leaf.est_rows = static_cast<double>(inputs[i].count());
    }
    leaf.detail = "input " + std::to_string(i) + ", " +
                  std::to_string(inputs[i].count()) + " records";
    leaves.push_back(std::move(leaf));
  }

  OperatorPlan source;
  if (!join_source) {
    source = std::move(leaves[0]);
    if (!has_window_) source.detail += ", full extent";
    leaves.clear();
  } else {
    // Join output estimate: coarse lower-envelope heuristic (the planner
    // estimates costs, not cardinalities — min of the input estimates is
    // the documented stand-in until a join cardinality model exists).
    source.est_rows = leaves[0].est_rows;
    for (const OperatorPlan& leaf : leaves) {
      source.est_rows = std::min(source.est_rows, leaf.est_rows);
    }
    // The inputs the join runs over, each with its rect map: one id ->
    // MBR table per join input, built before the join and held through
    // it. With a window they are the in-window records, described by
    // their estimated counts and the window-clipped extents (the planner
    // reads no data), so an indexed input never makes Explain report a
    // traversal Run cannot take, and the rect maps and the join are
    // planned over the records Run gives them: a resident table where
    // the estimate fits it, else a stream. Beyond its grant a table goes
    // external, id-sorting its input under a grant its size.
    const size_t rectmap_share =
        RectMapGrantBytes(options.memory_bytes, inputs.size());
    std::vector<JoinInput> join_inputs = inputs;
    std::vector<double> resolve_seconds;
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (has_window_) {
        const uint64_t count =
            static_cast<uint64_t>(std::llround(leaves[i].est_rows));
        RectF extent = inputs[i].extent();
        extent = extent.Valid() && extent.Intersects(window_)
                     ? extent.IntersectionWith(window_)
                     : window_;
        MemoryGrant table = scratch.AcquireShrinkable(
            RectResolver::ResidentRequest(count, rectmap_share));
        if (table.bytes() >= ResidentTableBytes(count)) {
          source.planned_bytes += table.bytes();
          held.push_back(std::move(table));
          join_inputs[i] = JoinInput::FromSortedRects(nullptr, count, extent)
                               .WithFeatures(inputs[i].features());
          resolve_seconds.push_back(0.0);
          continue;
        }
        // The scan spills to a window stream, which resolves as any
        // stream does.
        table.Release();
        join_inputs[i] = WindowedInput(
            inputs[i], DatasetRef{StreamRange{nullptr, 0, count}, extent});
      }
      const JoinInput& input = join_inputs[i];
      held.push_back(scratch.AcquireShrinkable(
          RectResolver::Request(input.count(), rectmap_share)));
      const size_t granted = held.back().bytes();
      if (granted < RectTableBytes(input.count())) {
        scratch.AcquireShrinkable(SortGrantRequest(granted));
        resolve_seconds.push_back(cost.RectResolveSeconds(
            static_cast<uint64_t>(source.est_rows), input.pages()));
      } else {
        resolve_seconds.push_back(cost.ScanSeconds(input.pages()));
      }
      source.planned_bytes += granted;
    }
    // The join Run executes, its grants replayed on what the operators
    // and the rect maps leave.
    SJ_ASSIGN_OR_RETURN(PlanDecision join,
                        JoinOver(join_inputs)
                            .ExplainOn(&scratch, join_inputs.size() > 2));
    if (inputs.size() == 2) {
      plan.join = std::move(join);
      plan.has_join = true;
      switch (plan.join.algorithm) {
        case JoinAlgorithm::kPBSM:
          source.cost_seconds = plan.join.pbsm_cost_seconds > 0.0
                                    ? plan.join.pbsm_cost_seconds
                                    : plan.join.stream_cost_seconds;
          break;
        case JoinAlgorithm::kPQ:
        case JoinAlgorithm::kST:
          source.cost_seconds = plan.join.index_cost_seconds;
          break;
        default:
          source.cost_seconds = plan.join.stream_cost_seconds;
          break;
      }
      source.name =
          std::string("SpatialJoin[") + ToString(plan.join.algorithm) + "]";
      source.detail = ToString(spec_.predicate.kind);
    } else {
      // The k-way chain: no PlanDecision; price it as the streaming
      // sort-and-sweep it is, over the inputs it joins.
      source.cost_seconds =
          SweepInputSeconds(cost, join_inputs, options.memory_bytes);
      source.name = "MultiwayJoin";
      source.detail = std::to_string(inputs.size()) + "-way chain";
    }
    for (const double seconds : resolve_seconds) {
      source.cost_seconds += seconds;
    }
  }
  plan.memory = MemoryPlan::Of(scratch);

  // The tree, root (sink-most) first: the operators reversed, the source,
  // then its leaves when they are distinct nodes.
  double rows = source.est_rows;
  std::vector<OperatorPlan> op_nodes;
  for (size_t i = 0; i < chain.size(); ++i) {
    op_nodes.push_back(chain[i]->Estimate(&rows, held[i].bytes(), cost));
  }
  int depth = 0;
  for (auto it = op_nodes.rbegin(); it != op_nodes.rend(); ++it) {
    it->depth = depth++;
    plan.operators.push_back(std::move(*it));
  }
  source.depth = depth;
  plan.operators.push_back(std::move(source));
  for (OperatorPlan& leaf : leaves) {
    leaf.depth = depth + 1;
    plan.operators.push_back(std::move(leaf));
  }
  for (const OperatorPlan& node : plan.operators) {
    plan.total_cost_seconds += node.cost_seconds;
  }
  return plan;
}

// --- Execution -------------------------------------------------------------

Result<JoinInput> PipelineQuery::ScanWindow(
    size_t i, size_t rectmap_share, DiskModel* disk, const PipelineContext& ctx,
    std::unique_ptr<RectResolver>* resolver,
    std::vector<std::unique_ptr<Pager>>* pagers,
    std::vector<OperatorStats>* scans) const {
  const JoinInput& input = spec_.inputs[i];
  const GridHistogram* histogram = spec_.HistogramOf(i);
  WindowScan scan(input, window_, histogram);
  std::unique_ptr<RectResolver> table = RectResolver::StartTable(
      ctx.arbiter,
      static_cast<uint64_t>(
          std::llround(WindowScan::EstimateRows(input, window_, histogram))),
      rectmap_share);
  std::unique_ptr<Pager> pager;
  std::optional<StreamWriter<RectF>> spill;
  Status spill_status;
  RectF extent = RectF::Empty();
  const Status scanned = scan.Scan([&](const RectF& r) {
    extent.ExtendTo(r);
    if (table != nullptr) {
      if (table->Add(r)) return;
      // Past its grant: the records held, and the rest, go to a stream.
      Result<std::unique_ptr<Pager>> made = MakePager(
          ctx.storage, disk, "pipeline.window." + std::to_string(i));
      if (made.ok()) {
        pager = std::move(*made);
        spill.emplace(pager.get());
        for (const RectF& held : table->records()) spill->Append(held);
      } else {
        spill_status = made.status();
      }
      table.reset();
    }
    if (spill.has_value()) spill->Append(r);
  });
  if (!scanned.ok() || !spill_status.ok()) {
    if (spill.has_value()) spill->Abandon();
    return scanned.ok() ? spill_status : scanned;
  }
  OperatorStats stats = scan.stats();
  if (table != nullptr) {
    table->Seal();
    scans->push_back(std::move(stats));
    *resolver = std::move(table);
    const std::vector<RectF>& records = (*resolver)->records();
    return JoinInput::FromSortedRects(records.data(), records.size(), extent)
        .WithFeatures(input.features());
  }
  SJ_ASSIGN_OR_RETURN(const uint64_t n, spill->Finish());
  constexpr uint32_t kPerPage = StreamWriter<RectF>::kRecordsPerPage;
  stats.spill_pages = (n + kPerPage - 1) / kPerPage;
  scans->push_back(std::move(stats));
  DatasetRef windowed;
  windowed.range = StreamRange{pager.get(), spill->first_page(), n};
  windowed.extent = extent;
  pagers->push_back(std::move(pager));
  return WindowedInput(input, windowed);
}

Result<PipelineStats> PipelineQuery::Run(RowSink* sink) {
  return SpatialService::RunInline(*this, sink);
}

Result<PipelineStats> PipelineQuery::RunDirect(RowSink* sink) {
  SJ_RETURN_IF_ERROR(Validate());
  const std::vector<JoinInput>& inputs = spec_.inputs;
  const JoinOptions& options = spec_.options;
  const std::shared_ptr<MemoryArbiter> arbiter = spec_.RunArbiter();

  DiskModel* main_disk = spec_.joiner->disk();
  // The pipeline's own scratch disk: rect maps and aggregation spills live
  // here so their traffic — some of it concurrent with the join, whose
  // stats are measured as a main-disk delta — is accounted exactly once.
  DiskModel op_disk(main_disk->machine());
  PipelineContext ctx;
  ctx.disk = &op_disk;
  ctx.arbiter = arbiter.get();
  ctx.storage = options.storage.get();

  PipelineStats out;
  ThreadCpuTimer cpu;
  DiskStats main_mark = main_disk->stats();

  // Wire the chain sink-first: user sink <- counter <- ops... <- source.
  std::vector<std::unique_ptr<PipelineOperator>> chain = BuildChain();
  CountingForward counter(sink);
  RowSink* head = &counter;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    (*it)->set_downstream(head);
    head = it->get();
  }
  for (auto& op : chain) SJ_RETURN_IF_ERROR(op->Open(ctx));

  if (inputs.size() == 1) {
    RectF window = window_;
    if (!has_window_) {
      window = inputs[0].extent();
      if (!window.Valid()) {
        SJ_ASSIGN_OR_RETURN(window, EnsureExtent(inputs[0].stream()));
      }
    }
    WindowScan scan(inputs[0], window, spec_.HistogramOf(0));
    SJ_RETURN_IF_ERROR(scan.Run(head));
    for (auto& op : chain) SJ_RETURN_IF_ERROR(op->Finish());
    out.operators.push_back(scan.stats());
  } else {
    // One id -> MBR resolver per input, under the shared arbiter, each
    // capped at its share so the join keeps half the budget.
    const size_t rectmap_share =
        RectMapGrantBytes(options.memory_bytes, inputs.size());
    std::vector<JoinInput> join_inputs = inputs;
    std::vector<std::unique_ptr<RectResolver>> resolvers;
    std::vector<std::unique_ptr<Pager>> owned_pagers;
    for (size_t i = 0; i < inputs.size(); ++i) {
      std::unique_ptr<RectResolver> resolver;
      if (has_window_) {
        // Windowed-overlay plan: reduce every input to its in-window
        // records before the join. Ids are preserved, so the user's
        // histograms remain conservative pruners and FeatureStores stay
        // valid for refinement.
        SJ_ASSIGN_OR_RETURN(
            join_inputs[i],
            ScanWindow(i, rectmap_share, main_disk, ctx, &resolver,
                       &owned_pagers, &out.operators));
      }
      if (resolver == nullptr) {
        SJ_ASSIGN_OR_RETURN(
            resolver,
            RectResolver::Build(join_inputs[i], &op_disk, arbiter.get(),
                                rectmap_share, ctx.storage,
                                "pipeline.in" + std::to_string(i),
                                SortConfigOf(options)));
        // The id-sort's formation workers ran off this thread's clock.
        out.host_cpu_seconds += resolver->sort_stats().worker_cpu_seconds;
      }
      resolvers.push_back(std::move(resolver));
    }
    std::vector<RectResolver*> resolver_ptrs;
    for (const auto& resolver : resolvers) {
      resolver_ptrs.push_back(resolver.get());
    }
    JoinRowAdapter adapter(resolver_ptrs, head);

    JoinQuery jq = JoinOver(join_inputs);
    jq.UseArbiter(arbiter);

    // Close the preparation segment: the join's own measurement (which
    // includes its compile and parallel shards the main delta would miss)
    // takes over.
    out.host_cpu_seconds += cpu.Elapsed();
    out.disk += main_disk->stats() - main_mark;

    uint64_t join_rows = 0;
    auto fold_join = [&](const auto& join_stats) {
      out.disk += join_stats.disk;
      out.host_cpu_seconds += join_stats.host_cpu_seconds;
      out.candidate_count = join_stats.candidate_count;
      out.refine_pages_read = join_stats.refine_pages_read;
      join_rows = join_stats.output_count;
    };
    if (join_inputs.size() == 2) {
      // One compile: the join plans as it runs and reports what it ran.
      SJ_ASSIGN_OR_RETURN(JoinStats join_stats, jq.RunDirect(&adapter));
      out.join_algorithm = join_stats.algorithm;
      out.sweep_strips = join_stats.sweep_strips;
      out.partitions_total = join_stats.partitions_total;
      out.partitions_overflowed = join_stats.partitions_overflowed;
      fold_join(join_stats);
    } else {
      SJ_ASSIGN_OR_RETURN(MultiwayStats join_stats,
                          jq.Run(static_cast<TupleSink*>(&adapter)));
      fold_join(join_stats);
    }
    cpu.Restart();
    main_mark = main_disk->stats();

    SJ_RETURN_IF_ERROR(adapter.Finish());
    for (auto& op : chain) SJ_RETURN_IF_ERROR(op->Finish());

    OperatorStats join_op;
    join_op.name = join_inputs.size() == 2
                       ? std::string("SpatialJoin[") +
                             ToString(out.join_algorithm) + "]"
                       : "MultiwayJoin";
    join_op.rows_in = join_rows;
    join_op.rows_out = adapter.rows_forwarded();
    for (const RectResolver* r : resolver_ptrs) {
      join_op.pages_read += r->lookup_pages_read();
    }
    out.operators.push_back(std::move(join_op));
  }

  for (auto& op : chain) out.operators.push_back(op->stats());
  out.output_count = counter.count();
  out.host_cpu_seconds += cpu.Elapsed();
  out.disk += main_disk->stats() - main_mark;
  out.disk += op_disk.stats();
  out.peak_memory_bytes = arbiter->peak_bytes();
  out.memory_components = arbiter->ComponentStats();
  return out;
}

}  // namespace sj
