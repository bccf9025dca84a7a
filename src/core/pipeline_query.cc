#include "core/pipeline_query.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
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

/// Writes window-scan rows back out as an MBR stream (the windowed-
/// overlay plan: each join input is reduced to its in-window records
/// before the join proper). Record ids are preserved, so histograms stay
/// conservative for pruning and FeatureStores stay valid for refinement.
class MaterializeSink final : public RowSink {
 public:
  explicit MaterializeSink(StreamWriter<RectF>* writer) : writer_(writer) {}

  void Emit(PipeRow row) override {
    RectF r = row.rect;
    r.id = row.ids.empty() ? 0 : row.ids[0];
    if (!extent_.Valid()) {
      extent_ = r;
    } else {
      extent_.xlo = std::min(extent_.xlo, r.xlo);
      extent_.ylo = std::min(extent_.ylo, r.ylo);
      extent_.xhi = std::max(extent_.xhi, r.xhi);
      extent_.yhi = std::max(extent_.yhi, r.yhi);
    }
    writer_->Append(r);
  }

  const RectF& extent() const { return extent_; }

 private:
  StreamWriter<RectF>* writer_;
  RectF extent_ = RectF::Empty();
};

/// Fraction of `extent` the window covers (1 when the extent is
/// degenerate), for index window-scan costing.
double WindowFraction(const RectF& window, const RectF& extent) {
  if (!window.Valid() || !extent.Valid()) return window.Valid() ? 1.0 : 0.0;
  const double total = extent.Area();
  if (!(total > 0.0)) return 1.0;
  if (!window.Intersects(extent)) return 0.0;
  return std::min(1.0, window.IntersectionWith(extent).Area() / total);
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

const GridHistogram* PipelineQuery::HistogramFor(size_t index) const {
  const GridHistogram* found = nullptr;
  for (const auto& [i, hist] : histograms_) {
    if (i == index) found = hist;
  }
  return found;
}

const FeatureStore* PipelineQuery::FeaturesFor(size_t index) const {
  const FeatureStore* found = nullptr;
  for (const auto& [i, store] : features_) {
    if (i == index) found = store;
  }
  return found;
}

RectF PipelineQuery::ResolveAggregateExtent(const OpSpec& spec) const {
  if (spec.agg_extent.Valid()) return spec.agg_extent;
  if (has_window_ && window_.Valid()) return window_;
  RectF combined = RectF::Empty();
  for (const JoinInput& input : inputs_) {
    const RectF e = input.extent();
    if (!e.Valid()) continue;
    if (!combined.Valid()) {
      combined = e;
    } else {
      combined.xlo = std::min(combined.xlo, e.xlo);
      combined.ylo = std::min(combined.ylo, e.ylo);
      combined.xhi = std::max(combined.xhi, e.xhi);
      combined.yhi = std::max(combined.yhi, e.yhi);
    }
  }
  return combined;
}

Status PipelineQuery::Validate() const {
  if (inputs_.empty()) {
    return Status::InvalidArgument(
        "PipelineQuery needs at least one Input(): one is a (window) scan "
        "source, two run the pairwise spatial join, three or more the k-way "
        "chain");
  }
  if (inputs_.size() == 1) {
    if (predicate_.kind != Predicate::kIntersects || predicate_.epsilon != 0.0) {
      return Status::InvalidArgument(
          "Predicate() applies to join sources; a single-input pipeline is a "
          "scan (add a second Input, or drop the predicate)");
    }
    if (algorithm_ != JoinAlgorithm::kAuto) {
      return Status::InvalidArgument(
          "Algorithm() applies to join sources; a single-input pipeline is a "
          "scan");
    }
    if (options_.refine) {
      return Status::InvalidArgument(
          "Refine(true) applies to join sources; a single-input pipeline "
          "emits MBR records directly");
    }
  }
  if (inputs_.size() > 2 && algorithm_ != JoinAlgorithm::kAuto) {
    return Status::InvalidArgument(
        "Algorithm() applies to pairwise joins; the k-way chain has a single "
        "execution strategy");
  }
  for (const auto& [index, hist] : histograms_) {
    (void)hist;
    if (index >= inputs_.size()) {
      return Status::InvalidArgument(
          "PipelineQuery::WithHistogram index " + std::to_string(index) +
          " out of range: the pipeline has " + std::to_string(inputs_.size()) +
          " inputs");
    }
  }
  for (const auto& [index, store] : features_) {
    (void)store;
    if (index >= inputs_.size()) {
      return Status::InvalidArgument(
          "PipelineQuery::WithFeatures index " + std::to_string(index) +
          " out of range: the pipeline has " + std::to_string(inputs_.size()) +
          " inputs");
    }
  }
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
  if (options_.memory_bytes < kMinMemoryBytes) {
    return Status::FailedPrecondition(
        "memory budget " + std::to_string(options_.memory_bytes) +
        " B is below the supported floor of " +
        std::to_string(kMinMemoryBytes) + " B (kMinMemoryBytes, 64 KiB)");
  }
  const CostModel& cost = joiner_->cost_model();
  const bool join_source = inputs_.size() >= 2;

  PipelinePlan plan;
  plan.memory.budget_bytes = options_.memory_bytes;

  // Leaf estimates. A windowed pipeline scans each input; without a window
  // a join source consumes its inputs directly (the join's cost covers the
  // reads) and a scan source reads everything.
  std::vector<double> leaf_rows(inputs_.size());
  std::vector<double> leaf_cost(inputs_.size());
  for (size_t i = 0; i < inputs_.size(); ++i) {
    const JoinInput& input = inputs_[i];
    const RectF window = has_window_ ? window_ : input.extent();
    if (has_window_ || !join_source) {
      leaf_rows[i] = WindowScan::EstimateRows(input, window, HistogramFor(i));
      leaf_cost[i] =
          input.indexed()
              ? cost.IndexWindowSeconds(input.pages(),
                                        WindowFraction(window, input.extent()))
              : cost.ScanSeconds(input.pages());
    } else {
      leaf_rows[i] = static_cast<double>(input.count());
      leaf_cost[i] = 0.0;  // Consumed (and priced) by the join itself.
    }
  }

  // Source estimate + cost.
  double source_rows = 0.0;
  double source_cost = 0.0;
  std::string source_name;
  std::string source_detail;
  size_t source_planned = 0;
  if (!join_source) {
    source_rows = leaf_rows[0];
    source_cost = leaf_cost[0];
    source_name = "WindowScan";
    source_detail = "input 0, " + std::to_string(inputs_[0].count()) +
                    " records" + (has_window_ ? "" : ", full extent");
    if (inputs_[0].indexed()) {
      source_planned = static_cast<size_t>(
          std::max(1.0, source_rows) * sizeof(RectF));
    }
  } else {
    // Join output estimate: coarse lower-envelope heuristic (the planner
    // estimates costs, not cardinalities — min of the input estimates is
    // the documented stand-in until a join cardinality model exists).
    source_rows = leaf_rows[0];
    for (size_t i = 1; i < inputs_.size(); ++i) {
      source_rows = std::min(source_rows, leaf_rows[i]);
    }
    if (inputs_.size() == 2) {
      JoinQuery jq(*joiner_);
      jq.mutable_options() = options_;
      for (const JoinInput& input : inputs_) jq.Input(input);
      for (const auto& [i, h] : histograms_) jq.WithHistogram(i, h);
      for (const auto& [i, f] : features_) jq.WithFeatures(i, f);
      jq.Predicate(predicate_.kind, predicate_.epsilon);
      jq.Algorithm(algorithm_);
      SJ_ASSIGN_OR_RETURN(plan.join, jq.Explain());
      plan.has_join = true;
      plan.memory = plan.join.memory;
      if (plan.memory.budget_bytes == 0) {
        plan.memory.budget_bytes = options_.memory_bytes;
      }
      switch (plan.join.algorithm) {
        case JoinAlgorithm::kPBSM:
          source_cost = plan.join.pbsm_cost_seconds > 0.0
                            ? plan.join.pbsm_cost_seconds
                            : plan.join.stream_cost_seconds;
          break;
        case JoinAlgorithm::kPQ:
        case JoinAlgorithm::kST:
          source_cost = plan.join.index_cost_seconds;
          break;
        default:
          source_cost = plan.join.stream_cost_seconds;
          break;
      }
      source_name =
          std::string("SpatialJoin[") + ToString(plan.join.algorithm) + "]";
      source_detail = std::string(ToString(predicate_.kind));
    } else {
      // The k-way chain: no PlanDecision; price it as the streaming
      // sort-and-sweep it is.
      uint64_t total_pages = 0;
      for (const JoinInput& input : inputs_) total_pages += input.pages();
      source_cost = cost.SSSJSeconds(total_pages, options_.memory_bytes);
      source_name = "MultiwayJoin";
      source_detail = std::to_string(inputs_.size()) + "-way chain";
    }
    // Rect resolution behind the join: one lookup table per input.
    for (size_t i = 0; i < inputs_.size(); ++i) {
      const uint64_t table_bytes = inputs_[i].count() * sizeof(RectF);
      const bool fits = table_bytes <= options_.memory_bytes / 4;
      source_cost +=
          fits ? cost.ScanSeconds(inputs_[i].pages())
               : cost.RectResolveSeconds(
                     static_cast<uint64_t>(source_rows), inputs_[i].pages());
      source_planned += static_cast<size_t>(
          std::min<uint64_t>(table_bytes, options_.memory_bytes / 4));
    }
    plan.memory.grants.push_back(
        MemoryGrantSpec{grants::kOpRectMap, source_planned});
  }

  // Downstream chain, source -> sink, then assemble the tree root-first.
  std::vector<OperatorPlan> op_nodes;
  double rows = source_rows;
  for (const OpSpec& spec : ops_) {
    OperatorPlan node;
    node.est_rows = rows;
    switch (spec.kind) {
      case OpSpec::Kind::kFilter:
        node.name = "Filter";
        node.detail = spec.label;
        rows = rows / 3.0;  // The classic default selectivity guess.
        break;
      case OpSpec::Kind::kProject:
        node.name = "Project";
        node.detail = spec.label;
        break;
      case OpSpec::Kind::kAggregate: {
        node.name = "AggregateByCell";
        node.detail = std::string(ToString(spec.agg_mode)) + " " +
                      std::to_string(spec.agg_nx) + "x" +
                      std::to_string(spec.agg_ny);
        const uint64_t cells =
            static_cast<uint64_t>(spec.agg_nx) * spec.agg_ny;
        const size_t grid_bytes = cells * sizeof(double);
        node.planned_bytes = grid_bytes;
        // Spill estimate under half the budget (the join holds the rest):
        // non-resident contributions stream out as 16-byte deltas and
        // replay once per extra band.
        const size_t resident_budget = options_.memory_bytes / 2;
        const uint64_t resident_rows = std::max<uint64_t>(
            1, std::min<uint64_t>(spec.agg_ny,
                                  resident_budget /
                                      (spec.agg_nx * sizeof(double))));
        const uint64_t bands =
            (spec.agg_ny + resident_rows - 1) / resident_rows;
        if (bands > 1) {
          const double spill_fraction =
              1.0 - static_cast<double>(resident_rows) / spec.agg_ny;
          const uint64_t spill_pages = static_cast<uint64_t>(
              std::ceil(rows * spill_fraction * 16.0 / kPageSize));
          node.cost_seconds = cost.AggregateSpillSeconds(spill_pages, bands - 1);
        }
        plan.memory.grants.push_back(
            MemoryGrantSpec{grants::kOpAggregate,
                            std::min(grid_bytes, options_.memory_bytes / 2)});
        rows = std::min(rows, static_cast<double>(cells));
        break;
      }
      case OpSpec::Kind::kTopK: {
        node.name = "TopKByDistance";
        node.detail = "k=" + std::to_string(spec.topk_k) + " from (" +
                      FmtG(spec.topk_x) + ", " + FmtG(spec.topk_y) + ")";
        node.planned_bytes =
            spec.topk_k * (sizeof(double) + RowBytes(inputs_.size()));
        plan.memory.grants.push_back(
            MemoryGrantSpec{grants::kOpTopK, node.planned_bytes});
        rows = std::min(rows, static_cast<double>(spec.topk_k));
        break;
      }
    }
    op_nodes.push_back(std::move(node));
  }

  // Tree assembly, root (sink-most) first: ops reversed, then the source,
  // then the per-input leaves (only when they are distinct scan nodes).
  const bool leaves_are_scans = join_source && has_window_;
  int depth = 0;
  for (auto it = op_nodes.rbegin(); it != op_nodes.rend(); ++it) {
    it->depth = depth++;
    plan.operators.push_back(std::move(*it));
  }
  {
    OperatorPlan source;
    source.name = std::move(source_name);
    source.detail = std::move(source_detail);
    source.depth = depth;
    source.est_rows = source_rows;
    source.cost_seconds = source_cost;
    source.planned_bytes = source_planned;
    plan.operators.push_back(std::move(source));
  }
  if (join_source) {
    for (size_t i = 0; i < inputs_.size(); ++i) {
      OperatorPlan leaf;
      leaf.name = leaves_are_scans ? "WindowScan" : "Input";
      leaf.detail = "input " + std::to_string(i) + ", " +
                    std::to_string(inputs_[i].count()) + " records";
      leaf.depth = depth + 1;
      leaf.est_rows = leaf_rows[i];
      leaf.cost_seconds = leaf_cost[i];
      plan.operators.push_back(std::move(leaf));
    }
  }
  for (const OperatorPlan& node : plan.operators) {
    plan.total_cost_seconds += node.cost_seconds;
  }
  return plan;
}

// --- Execution -------------------------------------------------------------

Result<PipelineStats> PipelineQuery::Run(RowSink* sink) {
  // The single-query service, exactly like JoinQuery::Run: an inline
  // scheduler owning this query's budget, so standalone pipelines and
  // multi-tenant submissions execute the same admission + execution path.
  ServiceOptions service_options;
  service_options.global_memory_bytes = options_.memory_bytes;
  service_options.worker_threads = 0;
  service_options.buffer_pool_pages = 0;
  SpatialService service(service_options);
  return service.Run(*this, sink);
}

Result<PipelineStats> PipelineQuery::RunDirect(RowSink* sink) {
  SJ_RETURN_IF_ERROR(Validate());
  if (options_.memory_bytes < kMinMemoryBytes) {
    return Status::FailedPrecondition(
        "memory budget " + std::to_string(options_.memory_bytes) +
        " B is below the supported floor of " +
        std::to_string(kMinMemoryBytes) +
        " B (kMinMemoryBytes, 64 KiB); raise PipelineQuery::MemoryBytes / "
        "JoinOptions::memory_bytes");
  }
  std::shared_ptr<MemoryArbiter> arbiter =
      arbiter_override_ != nullptr
          ? arbiter_override_
          : std::make_shared<MemoryArbiter>(options_.memory_bytes,
                                            options_.strict_memory_accounting);

  DiskModel* main_disk = joiner_->disk();
  // The pipeline's own scratch disk: rect maps and aggregation spills live
  // here so their traffic — some of it concurrent with the join, whose
  // stats are measured as a main-disk delta — is accounted exactly once.
  DiskModel op_disk(main_disk->machine());
  PipelineContext ctx;
  ctx.disk = &op_disk;
  ctx.arbiter = arbiter.get();
  ctx.storage = options_.storage.get();

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

  if (inputs_.size() == 1) {
    RectF window = window_;
    if (!has_window_) {
      window = inputs_[0].extent();
      if (!window.Valid()) {
        SJ_ASSIGN_OR_RETURN(window, EnsureExtent(inputs_[0].stream()));
      }
    }
    WindowScan scan(inputs_[0], window, HistogramFor(0));
    SJ_RETURN_IF_ERROR(scan.Run(ctx, head));
    for (auto& op : chain) SJ_RETURN_IF_ERROR(op->Finish());
    out.operators.push_back(scan.stats());
  } else {
    // Windowed-overlay plan: reduce every input to its in-window records
    // before the join. Ids are preserved, so the user's histograms remain
    // conservative pruners and FeatureStores stay valid for refinement.
    std::vector<JoinInput> join_inputs = inputs_;
    std::vector<std::unique_ptr<Pager>> owned_pagers;
    if (has_window_) {
      for (size_t i = 0; i < inputs_.size(); ++i) {
        WindowScan scan(inputs_[i], window_, HistogramFor(i));
        SJ_ASSIGN_OR_RETURN(
            std::unique_ptr<Pager> pager,
            MakePager(ctx.storage, main_disk,
                      "pipeline.window." + std::to_string(i)));
        StreamWriter<RectF> writer(pager.get());
        MaterializeSink materialize(&writer);
        const PageId first = writer.first_page();
        SJ_RETURN_IF_ERROR(scan.Run(ctx, &materialize));
        SJ_ASSIGN_OR_RETURN(uint64_t n, writer.Finish());
        DatasetRef windowed;
        windowed.range = StreamRange{pager.get(), first, n};
        windowed.extent = materialize.extent();
        join_inputs[i] = JoinInput::FromStream(windowed);
        owned_pagers.push_back(std::move(pager));
        out.operators.push_back(scan.stats());
      }
    }

    // One id -> MBR resolver per input, under the shared arbiter.
    std::vector<std::unique_ptr<RectResolver>> resolvers;
    std::vector<RectResolver*> resolver_ptrs;
    for (size_t i = 0; i < join_inputs.size(); ++i) {
      SJ_ASSIGN_OR_RETURN(
          std::unique_ptr<RectResolver> resolver,
          RectResolver::Build(join_inputs[i], &op_disk, arbiter.get(),
                              ctx.storage, "pipeline.in" + std::to_string(i),
                              SortConfigOf(options_)));
      resolver_ptrs.push_back(resolver.get());
      resolvers.push_back(std::move(resolver));
    }
    JoinRowAdapter adapter(resolver_ptrs, head);

    JoinQuery jq(*joiner_);
    jq.mutable_options() = options_;
    for (const JoinInput& input : join_inputs) jq.Input(input);
    for (const auto& [i, h] : histograms_) jq.WithHistogram(i, h);
    for (const auto& [i, f] : features_) jq.WithFeatures(i, f);
    jq.Predicate(predicate_.kind, predicate_.epsilon);
    jq.UseArbiter(arbiter);

    // Close the preparation segment: the join's own measurement (which
    // includes parallel shards the main delta would miss) takes over.
    out.host_cpu_seconds += cpu.Elapsed();
    out.disk += main_disk->stats() - main_mark;

    uint64_t join_rows = 0;
    if (join_inputs.size() == 2) {
      jq.Algorithm(algorithm_);
      SJ_ASSIGN_OR_RETURN(PlanDecision decision, jq.Explain());
      out.join_algorithm = decision.algorithm;
      SJ_ASSIGN_OR_RETURN(JoinStats join_stats, jq.RunDirect(&adapter));
      out.disk += join_stats.disk;
      out.host_cpu_seconds += join_stats.host_cpu_seconds;
      out.candidate_count = join_stats.candidate_count;
      out.refine_pages_read = join_stats.refine_pages_read;
      join_rows = join_stats.output_count;
    } else {
      SJ_ASSIGN_OR_RETURN(MultiwayStats join_stats,
                          jq.Run(static_cast<TupleSink*>(&adapter)));
      out.disk += join_stats.disk;
      out.host_cpu_seconds += join_stats.host_cpu_seconds;
      out.candidate_count = join_stats.candidate_count;
      out.refine_pages_read = join_stats.refine_pages_read;
      join_rows = join_stats.output_count;
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
