#include "join/multiway.h"

#include <algorithm>
#include <deque>
#include <ostream>
#include <sstream>
#include <string>

#include "join/partitioned.h"
#include "join/strip_map.h"
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
      Step();
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
  void Step() {
    const bool take_a = head_a_.has_value() &&
                        (!head_b_.has_value() || head_a_->ylo <= head_b_->ylo);
    if (take_a) {
      const RectF r = *head_a_;
      active_b_.QueryAndExpire(r, [&](const RectF& other) { Found(r, other); });
      active_a_.Insert(r);
      head_a_ = a_->Next();
    } else {
      const RectF r = *head_b_;
      active_a_.QueryAndExpire(r, [&](const RectF& other) { Found(other, r); });
      active_b_.Insert(r);
      head_b_ = b_->Next();
    }
  }

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

struct ChainRunStats {
  uint64_t output_count = 0;
  size_t max_bytes = 0;
};

/// The left-deep chain shared by the serial and per-strip parallel paths:
/// ((in0 x in1) x in2) x ...; all but the last stage are lazy pair
/// sources. `accept(ra, rb)` filters final results before expansion (the
/// parallel path uses it for the strip reference-point test); `ra` is the
/// running intersection of inputs 0..k-2, so max(ra.xlo, rb.xlo) is the
/// left edge of the full k-way intersection.
template <typename Accept>
ChainRunStats RunMultiwayChain(const std::vector<SortedRectSource*>& inputs,
                               const RectF& extent, const JoinOptions& options,
                               TupleSink* sink, Accept&& accept) {
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

  ChainRunStats stats;
  auto emit = [&](const RectF& ra, const RectF& rb) {
    if (!accept(ra, rb)) return;
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
  return stats;
}

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
    DiskModel* disk, const JoinOptions& options, TupleSink* sink) {
  if (inputs.size() < 2) {
    return Status::InvalidArgument("multiway join needs at least 2 inputs");
  }
  JoinMeasurement measurement(disk);

  const ChainRunStats run = RunMultiwayChain(
      inputs, extent, options, sink,
      [](const RectF&, const RectF&) { return true; });

  MultiwayStats stats;
  const JoinStats base = measurement.Finish();
  stats.host_cpu_seconds = base.host_cpu_seconds;
  stats.disk = base.disk;
  stats.output_count = run.output_count;
  stats.max_bytes = run.max_bytes;
  return stats;
}

Result<MultiwayStats> MultiwayJoinStreams(const std::vector<DatasetRef>& inputs,
                                          const RectF& extent, DiskModel* disk,
                                          const JoinOptions& options,
                                          TupleSink* sink) {
  if (inputs.size() < 2) {
    return Status::InvalidArgument("multiway join needs at least 2 inputs");
  }
  JoinMeasurement measurement(disk);
  const StripMap map(extent, kMultiwayStrips);

  // Inputs are y-sorted and distribution preserves order, so each strip
  // file is itself a valid sorted source.
  std::vector<StreamRange> ranges;
  for (const DatasetRef& input : inputs) ranges.push_back(input.range);
  SJ_ASSIGN_OR_RETURN(
      PartitionedJoin join,
      PartitionedJoin::Distribute(
          ranges, map.strips(),
          [&map](const RectF& r, std::vector<uint32_t>* out) {
            map.StripsOf(r, out);
          },
          [](size_t input, uint32_t strip) {
            return "multiway.strip." + std::to_string(strip) + "." +
                   std::to_string(input);
          },
          /*block_pages=*/4, options.storage.get(), disk));

  // One chain per strip; a tuple is reported only in the strip owning
  // the left edge of its full k-way intersection.
  auto join_strip = [&](uint64_t s, PartitionUnit& unit,
                        TupleSink* out) -> Status {
    std::vector<std::unique_ptr<SortedStreamSource>> sources;
    std::vector<SortedRectSource*> source_ptrs;
    for (const StreamRange& input : unit.inputs) {
      sources.push_back(std::make_unique<SortedStreamSource>(input));
      source_ptrs.push_back(sources.back().get());
    }
    const ChainRunStats run = RunMultiwayChain(
        source_ptrs, extent, options, out,
        [&](const RectF& ra, const RectF& rb) {
          return map.StripOf(std::max(ra.xlo, rb.xlo)) == s;
        });
    unit.output = run.output_count;
    unit.max_bytes = run.max_bytes;
    return Status::OK();
  };
  SJ_ASSIGN_OR_RETURN(
      PartitionedTotals totals,
      join.Run<CollectingTupleSink>(options, /*arbiter=*/nullptr,
                                    /*unit_budget=*/0, sink, join_strip));

  JoinStats base = measurement.Finish();
  totals.AddTo(&base);
  MultiwayStats stats;
  stats.host_cpu_seconds = base.host_cpu_seconds;
  stats.disk = base.disk;
  stats.output_count = base.output_count;
  stats.max_bytes = base.max_sweep_bytes;
  return stats;
}

}  // namespace sj
