#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.h"

namespace perfbench {
namespace {

uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t FloatBits(float f) {
  uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

double PerQuery(double total, uint64_t queries) {
  return queries > 0 ? total / static_cast<double>(queries) : 0.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

void PairDigest::Add(sj::ObjectId a, sj::ObjectId b) {
  count++;
  sum += Mix64((uint64_t{a} << 32) | b);
}

std::string PairDigest::ToString() const {
  return std::to_string(count) + ":" + Hex(sum);
}

uint64_t RowsDigest(const std::vector<sj::PipeRow>& rows) {
  uint64_t h = Mix64(rows.size());
  for (const sj::PipeRow& row : rows) {
    h = Mix64(h ^ FloatBits(row.rect.xlo));
    h = Mix64(h ^ FloatBits(row.rect.ylo));
    h = Mix64(h ^ FloatBits(row.rect.xhi));
    h = Mix64(h ^ FloatBits(row.rect.yhi));
    for (sj::ObjectId id : row.ids) h = Mix64(h ^ id);
    uint64_t value_bits = 0;
    std::memcpy(&value_bits, &row.value, sizeof(value_bits));
    h = Mix64(h ^ value_bits);
  }
  return h;
}

uint64_t CombineDigest(uint64_t acc, uint64_t v) { return Mix64(acc ^ v); }

void AddEndToEnd(Report* report, const std::string& prefix,
                 const TimedPhase& phase) {
  const std::vector<QuerySample>& s = phase.samples;
  const size_t pass = std::max<size_t>(1, phase.list_size);
  // Per pass: queries per second and CPU per query.
  std::vector<double> qps, cpu;
  double wall0 = phase.start_wall, cpu0 = phase.start_cpu;
  for (size_t end = pass; end <= s.size(); end += pass) {
    const QuerySample& last = s[end - 1];
    qps.push_back(Ratio(static_cast<double>(pass), last.done_wall - wall0));
    cpu.push_back((last.done_cpu - cpu0) / static_cast<double>(pass));
    wall0 = last.done_wall;
    cpu0 = last.done_cpu;
  }
  // Per block of whole passes with at least kMinTimedQueries queries (a
  // short remainder joins the last block): the latency percentiles.
  const size_t block =
      (kMinTimedQueries + pass - 1) / pass * pass;
  std::vector<double> p50, p90;
  for (size_t begin = 0; begin < s.size();) {
    size_t end = begin + block;
    if (end > s.size() || s.size() - end < block) end = s.size();
    std::vector<double> latencies;
    for (size_t i = begin; i < end; ++i) latencies.push_back(s[i].latency);
    p50.push_back(Quantile(latencies, 0.5));
    p90.push_back(Quantile(latencies, 0.9));
    begin = end;
  }
  report->Metric(prefix + "throughput_qps", Median(qps), "1/s");
  report->Metric(prefix + "latency_p50_s", Median(p50), "s");
  report->Metric(prefix + "latency_p90_s", Median(p90), "s");
  report->Metric(prefix + "cpu_s_per_query", Median(cpu), "s");
  report->Detail(prefix + "timed_queries", std::to_string(s.size()));
  report->Detail(prefix + "latency_blocks", std::to_string(p50.size()));
}

void AddSetupMetrics(Report* report, const SetupTimes& times, bool traced) {
  if (!traced) {
    report->Metric("setup_s", Median(times.totals), "s");
    return;
  }
  // Every workload reports every set-up phase; phases a workload skips
  // (no index, no geometry) read 0.
  for (const char* phase : {"datagen.generate", "io.load", "rtree.bulkload",
                            "histogram.build", "refine.store_build"}) {
    auto it = times.phases.find(phase);
    report->Metric(std::string(phase) + "_s",
                   it == times.phases.end() ? 0.0 : Median(it->second), "s");
  }
}

void AddLayerMetrics(Report* report, const LayerTotals& t,
                     const std::map<std::string, double>& self_seconds) {
  const uint64_t q = t.queries;
  auto self = [&](const char* span) {
    auto it = self_seconds.find(span);
    return it == self_seconds.end() ? 0.0 : it->second;
  };
  const double pages_read = static_cast<double>(t.disk.pages_read);
  report->Metric("io.pages_read_per_query", PerQuery(pages_read, q), "pages");
  report->Metric("io.pages_written_per_query",
                 PerQuery(static_cast<double>(t.disk.pages_written), q),
                 "pages");
  report->Metric("io.seq_read_share",
                 Ratio(static_cast<double>(t.disk.sequential_read_requests),
                       static_cast<double>(t.disk.read_requests)),
                 "ratio");
  report->Metric("io.wall_s_per_query", PerQuery(t.disk.io_wall_seconds, q),
                 "s");

  report->Metric("sort.self_s_per_query", PerQuery(self("sort"), q), "s");
  report->Metric("sort.records_per_s",
                 Ratio(static_cast<double>(t.sort_records), self("sort")),
                 "1/s");
  report->Metric("sort.runs", t.sort_runs, "count");
  report->Metric("sort.merge_passes", t.sort_merge_passes, "count");
  report->Metric("sort.parallel_units", t.sort_parallel_units, "count");

  report->Metric("sweep.self_s_per_query", PerQuery(self("sweep"), q), "s");
  report->Metric("sweep.pairs_per_s",
                 Ratio(static_cast<double>(t.sweep_pairs), self("sweep")),
                 "1/s");
  report->Metric("sweep.max_bytes", static_cast<double>(t.sweep_max_bytes),
                 "bytes");

  report->Metric("rtree.pages_read_per_query",
                 PerQuery(static_cast<double>(t.rtree_pages), q), "pages");

  report->Metric("join.self_s_per_query", PerQuery(self("join"), q), "s");
  report->Metric("join.candidates_per_query",
                 PerQuery(static_cast<double>(t.candidates), q), "count");

  report->Metric("refine.self_s_per_query", PerQuery(self("refine"), q), "s");
  report->Metric("refine.candidates_per_s",
                 Ratio(static_cast<double>(t.refine_candidates),
                       self("refine")),
                 "1/s");
  report->Metric("refine.pages_per_candidate",
                 Ratio(static_cast<double>(t.refine_pages),
                       static_cast<double>(t.refine_candidates)),
                 "pages");
  report->Metric("refine.precision",
                 Ratio(static_cast<double>(t.refine_results),
                       static_cast<double>(t.refine_candidates)),
                 "ratio");

  report->Metric("op.rows_in_per_query",
                 PerQuery(static_cast<double>(t.op_rows_in), q), "count");
  report->Metric("op.pages_read_per_query",
                 PerQuery(static_cast<double>(t.op_pages_read), q), "pages");
  report->Metric("op.spill_pages_per_query",
                 PerQuery(static_cast<double>(t.op_spill_pages), q), "pages");

  report->Metric("core.plan_s_per_query", PerQuery(self("core.plan"), q), "s");
  report->Metric("core.plan_error",
                 Ratio(t.plan_estimate_seconds, t.observed_seconds), "ratio");
  for (const char* algo : {"sssj", "pbsm", "st", "pq"}) {
    auto it = t.plans.find(algo);
    report->Metric(std::string("core.plans.") + algo,
                   it == t.plans.end() ? 0.0 : static_cast<double>(it->second),
                   "count");
  }
  report->Metric("core.peak_grant_share", t.peak_grant_share, "ratio");

  report->Metric("service.wait_s_p50", Quantile(t.wait_seconds, 0.5), "s");
  report->Metric("service.wait_s_p90", Quantile(t.wait_seconds, 0.9), "s");
  report->Metric("service.exec_s_p50", Quantile(t.exec_seconds, 0.5), "s");
  report->Metric("service.admitted", static_cast<double>(t.admitted), "count");
  report->Metric("service.rejected", static_cast<double>(t.rejected), "count");
  report->Metric("service.expired", static_cast<double>(t.expired), "count");
  report->Metric("service.global_peak_share", t.global_peak_share, "ratio");
}

}  // namespace perfbench
