// Microbenchmark for the §3.1 claim (from [4]) that Striped-Sweep is a
// factor 2-5 faster than Forward-Sweep on realistic data, plus
// Forward-Sweep's scalar-vs-vectorized kernel comparison: Forward-Sweep
// runs the same TIGER-ladder sweep with the kernels forced scalar and
// forced vectorized (sweep/sweep_kernels.h), asserting identical output
// pair counts and memory accounting, and reporting the kernel speedup.
// Striped-Sweep scans its strips without the kernels and is timed once,
// next to a strip-count sensitivity sweep. Ends with a one-line JSON
// summary for the CI bench-smoke log.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sweep/interval_structures.h"
#include "sweep/sweep_join.h"
#include "util/logging.h"

namespace sj {
namespace bench {
namespace {

struct SweepResult {
  double ms = 0;
  uint64_t output = 0;
  size_t max_bytes = 0;
};

/// One timed sweep join (best of 3) with the kernels forced to `mode`
/// (only ForwardSweep uses them).
template <typename Structure>
SweepResult TimedSweep(const std::vector<RectF>& roads,
                       const std::vector<RectF>& hydro, const RectF& region,
                       uint32_t strips,
                       SweepKernelMode mode = SweepKernelMode::kVectorized) {
  SweepResult result;
  SetSweepKernelMode(mode);
  result.ms = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    VectorRectSource a(&roads), b(&hydro);
    Structure sa(region, strips), sb(region, strips);
    const auto t0 = std::chrono::steady_clock::now();
    const SweepRunStats stats = SweepJoinRun(
        a, b, sa, sb, [](const RectF&, const RectF&) {}, [] {});
    const auto t1 = std::chrono::steady_clock::now();
    result.ms = std::min(
        result.ms, std::chrono::duration<double, std::milli>(t1 - t0).count());
    result.output = stats.output_count;
    result.max_bytes = stats.max_structure_bytes;
  }
  ResetSweepKernelMode();
  return result;
}

void Run(const BenchConfig& config) {
  std::printf(
      "== Sweep structures: Forward-Sweep kernels scalar vs vectorized, "
      "Striped-Sweep (isa %s, scale %.4g) ==\n\n",
      SweepKernelIsa(), config.scale);
  std::printf("%-10s %-8s %10s %10s %8s %12s\n", "Dataset", "Struct",
              "Scalar(ms)", "Vector(ms)", "Speedup", "Output");
  PrintHeaderRule(64);

  double fwd_scalar = 0, fwd_vector = 0, striped_ms = 0;
  std::string striped_row;
  bool identical = true;
  for (const std::string& name : config.datasets) {
    const LoadedDataset& data = GetDataset(name, config.scale);
    std::vector<RectF> roads = data.roads, hydro = data.hydro;
    std::sort(roads.begin(), roads.end(), OrderByYLo());
    std::sort(hydro.begin(), hydro.end(), OrderByYLo());
    RectF region = RectF::Empty();
    for (const RectF& r : roads) region.ExtendTo(r);
    for (const RectF& r : hydro) region.ExtendTo(r);

    const SweepResult fs = TimedSweep<ForwardSweep>(
        roads, hydro, region, 0, SweepKernelMode::kScalar);
    const SweepResult fv = TimedSweep<ForwardSweep>(
        roads, hydro, region, 0, SweepKernelMode::kVectorized);
    const SweepResult st =
        TimedSweep<StripedSweep>(roads, hydro, region, 1024);
    // Both kernel modes must be indistinguishable in output and
    // accounting, and both structures must find the same pairs.
    SJ_CHECK(fs.output == fv.output && fs.max_bytes == fv.max_bytes);
    SJ_CHECK(fs.output == st.output);
    identical = identical && fs.output == fv.output;
    fwd_scalar += fs.ms;
    fwd_vector += fv.ms;
    striped_ms += st.ms;

    std::printf("%-10s %-8s %10.2f %10.2f %7.2fx %12llu\n", name.c_str(),
                "forward", fs.ms, fv.ms, fs.ms / fv.ms,
                static_cast<unsigned long long>(fs.output));
    char cell[64];
    std::snprintf(cell, sizeof(cell), "%s:%.2fms ", name.c_str(), st.ms);
    striped_row += cell;
  }

  // Strip-count sensitivity (first dataset): the [4] claim is about
  // queries touching few strips; too few strips degrades toward
  // Forward-Sweep, too many pays replication.
  const LoadedDataset& first = GetDataset(config.datasets.front(),
                                          config.scale);
  std::vector<RectF> roads = first.roads, hydro = first.hydro;
  std::sort(roads.begin(), roads.end(), OrderByYLo());
  std::sort(hydro.begin(), hydro.end(), OrderByYLo());
  RectF region = RectF::Empty();
  for (const RectF& r : roads) region.ExtendTo(r);
  for (const RectF& r : hydro) region.ExtendTo(r);
  std::printf("\nstriped, 1024 strips: %s\n", striped_row.c_str());
  std::printf("%s striped strip sensitivity: ",
              config.datasets.front().c_str());
  for (uint32_t strips : {16u, 128u, 1024u, 8192u}) {
    const SweepResult r =
        TimedSweep<StripedSweep>(roads, hydro, region, strips);
    std::printf("%u:%.2fms ", strips, r.ms);
  }
  std::printf("\n\n");

  std::printf(
      "{\"bench\":\"sweep_structures\",\"isa\":\"%s\",\"scale\":%.4g,"
      "\"forward_speedup\":%.2f,\"forward_scalar_ms\":%.2f,"
      "\"forward_vector_ms\":%.2f,\"striped_ms\":%.2f,"
      "\"identical_output\":%s}\n",
      SweepKernelIsa(), config.scale, fwd_scalar / fwd_vector, fwd_scalar,
      fwd_vector, striped_ms, identical ? "true" : "false");
}

}  // namespace
}  // namespace bench
}  // namespace sj

int main(int argc, char** argv) {
  sj::bench::Run(sj::bench::BenchConfig::FromArgs(argc, argv));
  return 0;
}
