// Shared declarations of the repository benchmark driver: run
// configuration, the report every workload fills, the in-memory span
// recorder of traced runs, and the measurement helpers the workloads
// share. Everything here is benchmark-side; the library is reached only
// through its public headers.
#ifndef SJ_PERFBENCH_BENCH_H_
#define SJ_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "geometry/rect.h"
#include "io/disk_model.h"
#include "op/row.h"

namespace perfbench {

/// Command-line configuration of one benchmark run.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies every input size and query-list length (the self-check
  /// runs at a tiny scale).
  double scale = 1.0;
  /// Complete set-ups per run; setup_s is their median.
  int setups = 5;
  /// Directory for scratch files (created if missing).
  std::string tmp_dir = ".bench_build/tmp";
  /// Chrome trace-event file written by traced runs ("" = none).
  std::string trace_out;
};

/// What one run prints: the result line's fields plus a detail line of
/// exact counts the self-check compares between two runs.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> detail;
  std::vector<std::string> errors;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Detail(const std::string& key, const std::string& value) {
    detail.emplace_back(key, value);
  }
  /// Records a failed check; the run reports correct=false.
  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
};

// ---------------------------------------------------------------------------
// Tracing: spans recorded around the public layer calls a query is made
// of. Kept in memory, written once at exit.
// ---------------------------------------------------------------------------

/// Query id of spans that belong to set-up rather than to a query.
inline constexpr uint64_t kSetupQuery = ~uint64_t{0};

class Trace {
 public:
  struct Span {
    std::string name;
    uint64_t query = 0;
    int parent = -1;
    uint32_t thread = 0;
    double start = 0.0;  // Seconds since the trace's origin.
    double end = 0.0;
  };

  Trace();

  /// Opens a span and returns its handle.
  int Begin(const std::string& name, uint64_t query, int parent = -1);
  void End(int span);

  /// Sum of self time (duration minus the part of it covered by child
  /// spans) per span name, over the spans of queries (not set-up).
  std::map<std::string, double> SelfSeconds() const;
  /// Durations of every query span named `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON (chrome://tracing,
  /// Perfetto). Returns false when the file cannot be written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  double Now() const;

  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
};

/// The workloads. `trace` is null for untraced runs, which report the
/// end-to-end metrics; traced runs record their spans there and report
/// the per-layer metrics.
Report RunSpillStreamJoin(const Config& config, Trace* trace);
Report RunIndexedRefine(const Config& config, Trace* trace);
Report RunServiceWindows(const Config& config, Trace* trace);

/// RAII span.
class SpanScope {
 public:
  SpanScope(Trace* trace, const std::string& name, uint64_t query,
            int parent = -1)
      : trace_(trace), id_(trace->Begin(name, query, parent)) {}
  ~SpanScope() { trace_->End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }

 private:
  Trace* trace_;
  const int id_;
};

// ---------------------------------------------------------------------------
// Measurement helpers.
// ---------------------------------------------------------------------------

double WallNow();
/// Process CPU (user + sys, every thread) in seconds.
double ProcessCpuSeconds();
/// ru_maxrss in MiB.
double PeakRssMiB();
/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
std::string Hex(uint64_t v);

/// Order-independent digest of a join's id pairs: count plus a sum of
/// mixed 64-bit keys, so any emission order of the same set agrees.
struct PairDigest {
  uint64_t count = 0;
  uint64_t sum = 0;
  void Add(sj::ObjectId a, sj::ObjectId b);
  bool operator==(const PairDigest& o) const {
    return count == o.count && sum == o.sum;
  }
  std::string ToString() const;
};

/// Order-dependent digest of pipeline rows (rect bits, ids, value).
uint64_t RowsDigest(const std::vector<sj::PipeRow>& rows);
/// Folds per-query digests, in query-list order, into one run checksum.
uint64_t CombineDigest(uint64_t acc, uint64_t v);

/// Queries a run makes at least, so latency_p90_s has ten samples
/// beyond it.
inline constexpr uint64_t kMinTimedQueries = 100;

/// One timed query: its latency and the wall and process-CPU clocks when
/// it completed.
struct QuerySample {
  double latency = 0.0;
  double done_wall = 0.0;
  double done_cpu = 0.0;
};

/// The timed phase's measurements: whole passes over a query list of
/// `list_size` entries, samples in completion order.
struct TimedPhase {
  size_t list_size = 1;
  double start_wall = 0.0;
  double start_cpu = 0.0;
  std::vector<QuerySample> samples;
  uint64_t queries() const { return samples.size(); }
};

/// Runs whole passes over a query list of `list_size` queries until
/// `seconds` have passed and at least kMinTimedQueries ran. `run(i)`
/// executes list entry i and returns its latency. Whole passes keep each
/// query's predecessor fixed, so the work of a pass does not depend on
/// when the clock ran out.
template <typename Fn>
TimedPhase RunPasses(size_t list_size, double seconds, Fn&& run) {
  TimedPhase phase;
  phase.list_size = list_size;
  phase.start_cpu = ProcessCpuSeconds();
  phase.start_wall = WallNow();
  do {
    for (size_t i = 0; i < list_size; ++i) {
      QuerySample sample;
      sample.latency = run(i);
      sample.done_wall = WallNow();
      sample.done_cpu = ProcessCpuSeconds();
      phase.samples.push_back(sample);
    }
  } while (WallNow() - phase.start_wall < seconds ||
           phase.samples.size() < kMinTimedQueries);
  return phase;
}

/// Adds the end-to-end metrics every workload reports, under `prefix`
/// ("" for untraced runs, "traced." for the traced replay). The host's
/// speed drifts by 10-20 % over seconds, so throughput and CPU are the
/// medians over passes (a pass runs the whole query list once), and the
/// latency percentiles are medians over blocks of whole passes holding at
/// least kMinTimedQueries queries each, so that ten lie beyond each
/// block's 90th percentile.
void AddEndToEnd(Report* report, const std::string& prefix,
                 const TimedPhase& phase);

/// Set-up durations: per phase, one entry per complete set-up (a phase
/// may run in several steps of one set-up; `current` sums them).
struct SetupTimes {
  std::map<std::string, std::vector<double>> phases;
  std::map<std::string, double> current;
  std::vector<double> totals;

  /// Closes one complete set-up of `seconds` wall time.
  void EndSetup(double seconds) {
    totals.push_back(seconds);
    for (const auto& [phase, s] : current) phases[phase].push_back(s);
    current.clear();
  }
};

/// Times one set-up phase and, in traced runs, records it as a span.
class PhaseTimer {
 public:
  PhaseTimer(SetupTimes* times, Trace* trace, const char* name)
      : times_(times), name_(name), start_(WallNow()),
        span_(trace != nullptr ? trace->Begin(name, kSetupQuery) : -1),
        trace_(trace) {}
  ~PhaseTimer() {
    times_->current[name_] += WallNow() - start_;
    if (trace_ != nullptr) trace_->End(span_);
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  SetupTimes* times_;
  const char* name_;
  double start_;
  int span_;
  Trace* trace_;
};

/// Reports setup_s (untraced) or the per-phase set-up medians (traced).
void AddSetupMetrics(Report* report, const SetupTimes& times, bool traced);

/// Accumulates per-query layer counters of a traced run and emits the
/// per-layer metrics. Every workload emits every name; a layer a
/// workload does not exercise reports 0.
struct LayerTotals {
  uint64_t queries = 0;
  sj::DiskStats disk;
  uint64_t sort_records = 0;
  uint32_t sort_runs = 0;
  uint32_t sort_merge_passes = 0;
  uint32_t sort_parallel_units = 0;
  uint64_t sweep_pairs = 0;
  size_t sweep_max_bytes = 0;
  uint64_t rtree_pages = 0;
  uint64_t candidates = 0;
  uint64_t refine_candidates = 0;
  uint64_t refine_results = 0;
  uint64_t refine_pages = 0;
  uint64_t op_rows_in = 0;
  uint64_t op_pages_read = 0;
  uint64_t op_spill_pages = 0;
  double plan_estimate_seconds = 0.0;
  double observed_seconds = 0.0;
  std::map<std::string, uint64_t> plans;  // Per query-list entry.
  double peak_grant_share = 0.0;
  // Service layer (service_windows only).
  std::vector<double> wait_seconds;
  std::vector<double> exec_seconds;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t expired = 0;
  double global_peak_share = 0.0;
};

void AddLayerMetrics(Report* report, const LayerTotals& totals,
                     const std::map<std::string, double>& self_seconds);

}  // namespace perfbench

#endif  // SJ_PERFBENCH_BENCH_H_
