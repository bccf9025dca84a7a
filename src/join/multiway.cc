#include "join/multiway.h"

#include <algorithm>
#include <deque>
#include <ostream>
#include <sstream>
#include <string>

#include "sweep/sweep_join.h"
#include "util/logging.h"

namespace sj {

std::string MultiwayStats::Describe() const {
  std::ostringstream os;
  os << output_count << " result tuples";
  if (candidate_count != output_count) {
    os << " (" << candidate_count << " candidates before refinement, "
       << refine_pages_read << " feature pages fetched)";
  }
  os << "; " << disk.pages_read << " pages read, " << disk.pages_written
     << " written; peak in-memory state "
     << (max_bytes + 1023) / 1024 << " KB";
  if (peak_memory_bytes > 0) {
    os << "; peak mem " << (peak_memory_bytes + 1023) / 1024 << " KB granted";
  }
  return os.str();
}

std::string MultiwayStats::Describe(const MachineModel& m) const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << Describe() << "; modeled "
     << (disk.io_seconds + host_cpu_seconds * m.cpu_slowdown) << " s ("
     << disk.io_seconds << " s I/O)";
  if (disk.io_wall_seconds > 0.0) {
    os.precision(4);
    os << "; measured " << disk.io_wall_seconds << " s I/O wall";
  }
  return os.str();
}

std::vector<std::pair<std::string, std::string>> MultiwayStats::ToKeyValues()
    const {
  std::vector<std::pair<std::string, std::string>> kv;
  auto num = [](double v) {
    std::ostringstream os;
    os.precision(6);
    os << v;
    return os.str();
  };
  kv.emplace_back("output_count", std::to_string(output_count));
  kv.emplace_back("candidate_count", std::to_string(candidate_count));
  kv.emplace_back("pages_read", std::to_string(disk.pages_read));
  kv.emplace_back("pages_written", std::to_string(disk.pages_written));
  kv.emplace_back("io_seconds", num(disk.io_seconds));
  kv.emplace_back("io_wall_seconds", num(disk.io_wall_seconds));
  kv.emplace_back("host_cpu_seconds", num(host_cpu_seconds));
  kv.emplace_back("max_bytes", std::to_string(max_bytes));
  if (refine_pages_read > 0) {
    kv.emplace_back("refine_pages_read", std::to_string(refine_pages_read));
  }
  if (peak_memory_bytes > 0) {
    kv.emplace_back("peak_memory_bytes", std::to_string(peak_memory_bytes));
  }
  return kv;
}

std::ostream& operator<<(std::ostream& os, const MultiwayStats& stats) {
  return os << stats.Describe();
}

namespace {

template <typename Structure>
class PairSourceImpl final : public PairSourceBase {
 public:
  PairSourceImpl(SortedRectSource* a, SortedRectSource* b, const RectF& extent,
                 uint32_t strips)
      : a_(a),
        b_(b),
        active_a_(extent, strips),
        active_b_(extent, strips) {
    head_a_ = a_->Next();
    head_b_ = b_->Next();
  }

  std::optional<RectF> Next() override {
    while (pending_.empty() &&
           (head_a_.has_value() || head_b_.has_value())) {
      SweepStep(*a_, *b_, head_a_, head_b_, active_a_, active_b_,
                [&](const RectF& a, const RectF& b) { Found(a, b); });
    }
    if (pending_.empty()) return std::nullopt;
    RectF out = pending_.front();
    pending_.pop_front();
    return out;
  }

  size_t MemoryBytes() const override {
    return a_->MemoryBytes() + b_->MemoryBytes() + active_a_.MemoryBytes() +
           active_b_.MemoryBytes() + pending_.size() * sizeof(RectF) +
           pairs_.size() * sizeof(IdPair);
  }

  const std::vector<IdPair>& pairs() const override { return pairs_; }

 private:
  void Found(const RectF& from_a, const RectF& from_b) {
    RectF overlap = from_a.IntersectionWith(from_b);
    overlap.id = static_cast<ObjectId>(pairs_.size());
    pairs_.push_back(IdPair{from_a.id, from_b.id});
    pending_.push_back(overlap);
  }

  SortedRectSource* a_;
  SortedRectSource* b_;
  Structure active_a_;
  Structure active_b_;
  std::optional<RectF> head_a_;
  std::optional<RectF> head_b_;
  std::deque<RectF> pending_;
  std::vector<IdPair> pairs_;
};

}  // namespace

std::unique_ptr<PairSourceBase> MakePairSource(SortedRectSource* a,
                                               SortedRectSource* b,
                                               SweepStructureKind kind,
                                               const RectF& extent,
                                               uint32_t strips) {
  if (kind == SweepStructureKind::kStriped) {
    return std::make_unique<PairSourceImpl<StripedSweep>>(a, b, extent,
                                                          strips);
  }
  return std::make_unique<PairSourceImpl<ForwardSweep>>(a, b, extent, strips);
}

Result<MultiwayStats> MultiwayJoinSources(
    const std::vector<SortedRectSource*>& inputs, const RectF& extent,
    const JoinOptions& options, TupleSink* sink) {
  if (inputs.size() < 2) {
    return Status::InvalidArgument("multiway join needs at least 2 inputs");
  }

  // ((in0 x in1) x in2) x ...: all but the last stage are lazy pair
  // sources.
  std::vector<std::unique_ptr<PairSourceBase>> chain;
  SortedRectSource* left = inputs[0];
  for (size_t i = 1; i + 1 < inputs.size(); ++i) {
    chain.push_back(MakePairSource(left, inputs[i], options.stream_sweep,
                                   extent, options.striped_strips));
    left = chain.back().get();
  }
  SortedRectSource* right = inputs.back();

  // Expands a composite id from chain stage `depth` (0 = raw input 0).
  std::vector<ObjectId> tuple;
  auto expand = [&](auto&& self, size_t depth, ObjectId id) -> void {
    if (depth == 0) {
      tuple.push_back(id);
      return;
    }
    const IdPair& p = chain[depth - 1]->pairs()[id];
    self(self, depth - 1, p.a);
    tuple.push_back(p.b);
  };

  MultiwayStats stats;
  auto emit = [&](const RectF& ra, const RectF& rb) {
    tuple.clear();
    expand(expand, chain.size(), ra.id);
    tuple.push_back(rb.id);
    sink->Emit(tuple);
    stats.output_count++;
  };
  struct Adapter {
    SortedRectSource* s;
    std::optional<RectF> Next() { return s->Next(); }
  } sa{left}, sb{right};
  auto probe = [&]() {
    stats.max_bytes =
        std::max(stats.max_bytes, left->MemoryBytes() + right->MemoryBytes());
  };
  SweepJoinWithKind(options.stream_sweep, extent, options.striped_strips, sa,
                    sb, emit, probe);
  SJ_RETURN_IF_ERROR(FirstReadError(inputs));
  return stats;
}

}  // namespace sj
