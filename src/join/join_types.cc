#include "join/join_types.h"

#include <ostream>
#include <sstream>

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

std::string JoinStats::Describe() const {
  std::ostringstream os;
  os << output_count << " result pairs";
  if (candidate_count != output_count) {
    os << " (" << candidate_count << " candidates before refinement, "
       << refine_pages_read << " feature pages fetched)";
  }
  os << "; " << disk.pages_read << " pages read, " << disk.pages_written
     << " written";
  if (index_pages_read > 0) os << " (" << index_pages_read << " index)";
  if (max_sweep_bytes > 0) {
    os << "; sweep max " << (max_sweep_bytes + 1023) / 1024 << " KB";
  }
  if (sweep_strips > 0) os << "; " << sweep_strips << " sweep strips";
  if (sweep_strips_collapsed) {
    os << "; STRIPED SWEEP COLLAPSED (degenerate extent, single strip)";
  }
  if (partitions_total > 0) {
    // SSSJ's strip fallback partitions without a PBSM tile grid.
    if (pbsm_tiles_x > 0) {
      os << "; " << (pbsm_adaptive ? "adaptive" : "fixed") << " "
         << pbsm_tiles_x << "x" << pbsm_tiles_y << " grid";
      if (pbsm_split_tiles > 0) {
        os << " (" << pbsm_leaf_tiles << " leaves, " << pbsm_split_tiles
           << " split)";
      }
      os << ", " << partitions_total << " partitions";
    } else {
      os << "; " << partitions_total << " strips";
    }
    if (partitions_overflowed > 0) {
      os << " (" << partitions_overflowed << " overflowed)";
    }
  }
  if (peak_memory_bytes > 0) {
    os << "; peak mem " << (peak_memory_bytes + 1023) / 1024 << " KB";
    const char* sep = " (";
    for (const MemoryComponentStats& c : memory_components) {
      os << sep << c.component << " "
         << (std::max(c.granted_high_water, c.used_high_water) + 1023) / 1024
         << " KB";
      sep = ", ";
    }
    if (!memory_components.empty()) os << ")";
  }
  return os.str();
}

std::string JoinStats::Describe(const MachineModel& m) const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << Describe() << "; modeled " << ObservedSeconds(m) << " s ("
     << ObservedIoSeconds() << " s I/O + " << ScaledCpuSeconds(m)
     << " s CPU)";
  if (disk.io_wall_seconds > 0.0) {
    // Real bytes moved (file backend): the measured wall next to the
    // modeled figure. Parallel workers' transfers can sum to more than
    // elapsed time.
    os.precision(4);
    os << "; measured " << disk.io_wall_seconds << " s I/O wall";
  }
  return os.str();
}

std::vector<std::pair<std::string, std::string>> JoinStats::ToKeyValues()
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
  if (index_pages_read > 0) {
    kv.emplace_back("index_pages_read", std::to_string(index_pages_read));
  }
  if (refine_pages_read > 0) {
    kv.emplace_back("refine_pages_read", std::to_string(refine_pages_read));
  }
  if (max_sweep_bytes > 0) {
    kv.emplace_back("max_sweep_bytes", std::to_string(max_sweep_bytes));
  }
  if (max_queue_bytes > 0) {
    kv.emplace_back("max_queue_bytes", std::to_string(max_queue_bytes));
  }
  if (sweep_strips > 0) {
    kv.emplace_back("sweep_strips", std::to_string(sweep_strips));
  }
  if (sweep_strips_collapsed) {
    kv.emplace_back("sweep_strips_collapsed", "1");
  }
  if (sort_merge_fan_in > 0) {
    kv.emplace_back("sort_runs_parallel", std::to_string(sort_parallel_units));
    kv.emplace_back("merge_fan_in", std::to_string(sort_merge_fan_in));
    kv.emplace_back("merge_passes", std::to_string(sort_merge_passes));
  }
  if (partitions_total > 0) {
    kv.emplace_back("partitions_total", std::to_string(partitions_total));
    kv.emplace_back("partitions_overflowed",
                    std::to_string(partitions_overflowed));
  }
  if (peak_memory_bytes > 0) {
    kv.emplace_back("peak_memory_bytes", std::to_string(peak_memory_bytes));
  }
  return kv;
}

std::ostream& operator<<(std::ostream& os, const JoinStats& stats) {
  return os << stats.Describe();
}

Result<RectF> EnsureExtent(const DatasetRef& input) {
  if (input.extent.Valid()) return input.extent;
  StreamReader<RectF> reader(input.range.pager, input.range.first_page,
                             input.range.count);
  RectF extent = RectF::Empty();
  while (std::optional<RectF> r = reader.Next()) {
    if (!r->Valid()) {
      return Status::InvalidArgument("malformed rectangle in join input: " +
                                     r->ToString());
    }
    extent.ExtendTo(*r);
  }
  SJ_RETURN_IF_ERROR(reader.status());
  extent.id = 0;
  return extent;
}

Result<RectF> CombinedExtent(const DatasetRef& a, const DatasetRef& b) {
  SJ_ASSIGN_OR_RETURN(RectF ea, EnsureExtent(a));
  SJ_ASSIGN_OR_RETURN(RectF eb, EnsureExtent(b));
  RectF both = ea;
  both.ExtendTo(eb);
  return both;
}

}  // namespace sj
