// Microbenchmark for the §3.1 claim (from [4]) that Striped-Sweep is a
// factor 2-5 faster than Forward-Sweep on realistic data: both structures
// run the same TIGER-ladder sweep, and the table reports each one's time,
// their ratio and the pair count, asserting that both find the same
// pairs. A strip-count sensitivity row follows, and a one-line JSON
// summary for the CI bench-smoke log ends the output.

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
};

/// One timed sweep join (best of 3).
template <typename Structure>
SweepResult TimedSweep(const std::vector<RectF>& roads,
                       const std::vector<RectF>& hydro, const RectF& region,
                       uint32_t strips) {
  SweepResult result;
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
  }
  return result;
}

void Run(const BenchConfig& config) {
  std::printf(
      "== Sweep structures: Forward-Sweep vs Striped-Sweep, 1024 strips "
      "(isa %s, scale %.4g) ==\n\n",
      SweepKernelIsa(), config.scale);
  std::printf("%-10s %11s %11s %8s %12s\n", "Dataset", "Forward(ms)",
              "Striped(ms)", "Speedup", "Output");
  PrintHeaderRule(56);

  double forward_ms = 0, striped_ms = 0;
  for (const std::string& name : config.datasets) {
    const LoadedDataset& data = GetDataset(name, config.scale);
    std::vector<RectF> roads = data.roads, hydro = data.hydro;
    std::sort(roads.begin(), roads.end(), OrderByYLo());
    std::sort(hydro.begin(), hydro.end(), OrderByYLo());
    RectF region = RectF::Empty();
    for (const RectF& r : roads) region.ExtendTo(r);
    for (const RectF& r : hydro) region.ExtendTo(r);

    const SweepResult fw = TimedSweep<ForwardSweep>(roads, hydro, region, 0);
    const SweepResult st =
        TimedSweep<StripedSweep>(roads, hydro, region, 1024);
    // Both structures must find the same pairs.
    SJ_CHECK(fw.output == st.output);
    forward_ms += fw.ms;
    striped_ms += st.ms;

    std::printf("%-10s %11.2f %11.2f %7.2fx %12llu\n", name.c_str(), fw.ms,
                st.ms, fw.ms / st.ms,
                static_cast<unsigned long long>(fw.output));
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
  std::printf("\n%s striped strip sensitivity: ",
              config.datasets.front().c_str());
  for (uint32_t strips : {16u, 128u, 1024u, 8192u}) {
    const SweepResult r =
        TimedSweep<StripedSweep>(roads, hydro, region, strips);
    std::printf("%u:%.2fms ", strips, r.ms);
  }
  std::printf("\n\n");

  // The SJ_CHECK above aborts on any mismatch, so a printed summary
  // always reports identical output.
  std::printf(
      "{\"bench\":\"sweep_structures\",\"isa\":\"%s\",\"scale\":%.4g,"
      "\"forward_ms\":%.2f,\"striped_ms\":%.2f,\"striped_speedup\":%.2f,"
      "\"identical_output\":true}\n",
      SweepKernelIsa(), config.scale, forward_ms, striped_ms,
      forward_ms / striped_ms);
}

}  // namespace
}  // namespace bench
}  // namespace sj

int main(int argc, char** argv) {
  sj::bench::Run(sj::bench::BenchConfig::FromArgs(argc, argv));
  return 0;
}
