// I/O calibration: measures what the real storage path actually costs and
// fits the DiskModel's MachineModel constants to it, then runs one join
// per algorithm over file-backed storage and prints the modeled
// io_seconds next to the measured I/O wall (JoinStats::disk
// .io_wall_seconds) so the two accounting systems can be compared on the
// same run.
//
// Phase 1 (microbenchmark, FileBackend in a tmpdir):
//   sequential write / sequential read  ->  transfer_mb_per_s, write_factor
//   random one-page read               ->  avg_access_ms
//
// On a host whose page cache absorbs the working set the fitted
// avg_access_ms lands near zero — that is the honest measurement, and the
// point of printing the fit instead of hard-coding it.
//
// Phase 2: the TIGER ladder workload (same generator as the paper-figure
// benches) joined by each algorithm with scratch/spill on real files. The
// last line is a machine-readable JSON summary.
//
//   bench_io_calibration [--pages=N] [--scale=F] [--datasets=NJ]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "io/storage.h"
#include "util/random.h"
#include "util/timer.h"

namespace sj {
namespace bench {
namespace {

struct Calibration {
  uint64_t pages = 0;
  double seq_write_seconds = 0;
  double seq_read_seconds = 0;
  double rand_read_ms_per_page = 0;
  double rand_write_ms_per_page = 0;
  MachineModel fitted;
};

double MbPerS(uint64_t pages, double seconds) {
  if (seconds <= 0) return 0;
  return static_cast<double>(pages) * kPageSize / 1e6 / seconds;
}

Calibration Calibrate(StorageFactory* factory, uint64_t pages) {
  Calibration c;
  c.pages = pages;
  auto backend = factory->Create("calibration");
  SJ_CHECK_OK(backend.status());

  std::vector<uint8_t> buf(kPageSize);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<uint8_t>(i);

  WallTimer timer;
  for (uint64_t p = 0; p < pages; ++p) {
    SJ_CHECK_OK((*backend)->WritePage(p, buf.data()));
  }
  c.seq_write_seconds = timer.Elapsed();

  timer.Restart();
  for (uint64_t p = 0; p < pages; ++p) {
    SJ_CHECK_OK((*backend)->ReadPage(p, buf.data()));
  }
  c.seq_read_seconds = timer.Elapsed();

  const uint64_t ops = std::min<uint64_t>(pages, 512);
  Random rng(42);
  timer.Restart();
  for (uint64_t i = 0; i < ops; ++i) {
    SJ_CHECK_OK((*backend)->ReadPage(rng.Uniform(pages), buf.data()));
  }
  c.rand_read_ms_per_page = timer.Elapsed() * 1e3 / static_cast<double>(ops);
  timer.Restart();
  for (uint64_t i = 0; i < ops; ++i) {
    SJ_CHECK_OK((*backend)->WritePage(rng.Uniform(pages), buf.data()));
  }
  c.rand_write_ms_per_page = timer.Elapsed() * 1e3 / static_cast<double>(ops);

  // Fit the model's three disk constants. The host is the machine, so no
  // CPU slowdown.
  MachineModel m;
  m.name = "Calibrated(host)";
  m.transfer_mb_per_s = std::max(1.0, MbPerS(pages, c.seq_read_seconds));
  const double transfer_ms = m.PageTransferMs(kPageSize);
  m.avg_access_ms = std::max(0.0, c.rand_read_ms_per_page - transfer_ms);
  m.write_factor =
      c.seq_read_seconds > 0
          ? std::max(1.0, c.seq_write_seconds / c.seq_read_seconds)
          : 1.0;
  m.cpu_slowdown = 1.0;
  c.fitted = m;
  return c;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out;
}

void Run(const BenchConfig& config, uint64_t pages) {
  auto factory = TmpFileStorageFactory::Make();
  SJ_CHECK_OK(factory.status());
  std::shared_ptr<StorageFactory> storage = std::move(*factory);

  std::printf("== I/O calibration: modeled vs measured on %s ==\n\n",
              storage->description().c_str());
  const Calibration c = Calibrate(storage.get(), pages);
  std::printf("calibration file: %llu pages x %zu B\n",
              static_cast<unsigned long long>(c.pages), kPageSize);
  std::printf("  sequential write : %8.2f MB/s\n",
              MbPerS(c.pages, c.seq_write_seconds));
  std::printf("  sequential read  : %8.2f MB/s\n",
              MbPerS(c.pages, c.seq_read_seconds));
  std::printf("  random read      : %8.4f ms/page\n", c.rand_read_ms_per_page);
  std::printf("  random write     : %8.4f ms/page\n",
              c.rand_write_ms_per_page);
  std::printf(
      "fitted MachineModel: avg_access_ms=%.4f transfer_mb_per_s=%.1f "
      "write_factor=%.2f\n\n",
      c.fitted.avg_access_ms, c.fitted.transfer_mb_per_s,
      c.fitted.write_factor);

  // One join per algorithm on file-backed scratch. The
  // modeled column uses the *fitted* machine, so a perfect model (and a
  // calibration that generalizes) would put both columns within a small
  // factor of each other.
  const std::string dataset =
      config.datasets.empty() ? std::string("NJ") : config.datasets.front();
  const LoadedDataset& data = GetDataset(dataset, config.scale);
  std::printf("-- dataset %s (scale %.4g), file-backed scratch --\n",
              dataset.c_str(), config.scale);
  std::printf("%-6s | %12s | %12s | %10s | %10s\n", "Algo", "modeled I/O s",
              "measured s", "pages rd", "pages wr");
  PrintHeaderRule(62);

  struct JoinRow {
    JoinAlgorithm algo;
    JoinStats stats;
  };
  std::vector<JoinRow> rows;
  for (JoinAlgorithm algo : {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM,
                             JoinAlgorithm::kST, JoinAlgorithm::kPQ}) {
    // A fresh workload per algorithm: modeled stream-detection state and
    // the measured page cache both start cold(ish) for each run.
    Workload w = MakeWorkload(data, c.fitted, /*build_trees=*/true);
    JoinOptions options = config.ScaledOptions();
    options.storage = storage;
    auto stats = RunJoin(&w, algo, options);
    SJ_CHECK_OK(stats.status());
    std::printf("%-6s | %12.4f | %12.4f | %10llu | %10llu\n", ToString(algo),
                stats->ObservedIoSeconds(),
                stats->disk.io_wall_seconds,
                static_cast<unsigned long long>(stats->disk.pages_read),
                static_cast<unsigned long long>(stats->disk.pages_written));
    rows.push_back({algo, *stats});
  }
  std::printf(
      "\nReading the table: 'modeled' charges the fitted machine's "
      "access/transfer\nconstants per request; 'measured' is wall time "
      "inside real pread/pwrite calls\n(page-cache hits make it an "
      "optimistic disk).\n\n");

  // Machine-readable summary (one line).
  std::string json = "{\"calibration\":{";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"pages\":%llu,\"page_bytes\":%zu,"
                "\"seq_write_mb_per_s\":%.3f,\"seq_read_mb_per_s\":%.3f,"
                "\"rand_read_ms_per_page\":%.5f,"
                "\"rand_write_ms_per_page\":%.5f,"
                "\"fitted_avg_access_ms\":%.5f,"
                "\"fitted_transfer_mb_per_s\":%.3f,"
                "\"fitted_write_factor\":%.3f}",
                static_cast<unsigned long long>(c.pages), kPageSize,
                MbPerS(c.pages, c.seq_write_seconds),
                MbPerS(c.pages, c.seq_read_seconds), c.rand_read_ms_per_page,
                c.rand_write_ms_per_page, c.fitted.avg_access_ms,
                c.fitted.transfer_mb_per_s, c.fitted.write_factor);
  json += buf;
  json += ",\"dataset\":\"" + JsonEscape(dataset) + "\",\"joins\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) json += ",";
    json += "{\"algorithm\":\"" + JsonEscape(ToString(rows[i].algo)) + "\"";
    std::snprintf(buf, sizeof(buf), ",\"modeled_io_seconds\":%.6f",
                  rows[i].stats.ObservedIoSeconds());
    json += buf;
    for (const auto& kv : rows[i].stats.ToKeyValues()) {
      json += ",\"" + JsonEscape(kv.first) + "\":\"" + JsonEscape(kv.second) +
              "\"";
    }
    json += "}";
  }
  json += "]}";
  std::printf("JSON %s\n", json.c_str());
}

}  // namespace
}  // namespace bench
}  // namespace sj

int main(int argc, char** argv) {
  uint64_t pages = 2048;  // 16 MB calibration file.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--pages=", 0) == 0) {
      pages = std::strtoull(arg.c_str() + 8, nullptr, 0);
      if (pages == 0) pages = 1;
    }
  }
  sj::bench::Run(sj::bench::BenchConfig::FromArgs(argc, argv), pages);
  return 0;
}
