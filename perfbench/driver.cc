// Repository benchmark driver.
//
//   perfbench_driver --workload <spill_stream_join|indexed_refine|
//                                service_windows>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--scale <f>] [--setups <k>] [--tmp <dir>]
//                    [--trace-out <file>]
//
// Prints one detail line of exact counts ({"detail": {...}}) and, as the
// last line, the result: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of the traced replay.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <spill_stream_join|"
               "indexed_refine|service_windows> --seed <n> --seconds <s> "
               "--trace <0|1> [--scale <f>] [--setups <k>] [--tmp <dir>] "
               "[--trace-out <file>]\n");
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = config.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--scale") {
      config.scale = std::strtod(value, nullptr);
    } else if (flag == "--setups") {
      config.setups = std::atoi(value);
    } else if (flag == "--tmp") {
      config.tmp_dir = value;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || !have_trace || !(config.seconds > 0) ||
      !(config.scale > 0)) {
    Usage();
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(config.tmp_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 config.tmp_dir.c_str(), ec.message().c_str());
    return 1;
  }

  perfbench::Trace trace;
  perfbench::Trace* tracer = config.trace ? &trace : nullptr;
  perfbench::Report report;
  if (config.workload == "spill_stream_join") {
    report = perfbench::RunSpillStreamJoin(config, tracer);
  } else if (config.workload == "indexed_refine") {
    report = perfbench::RunIndexedRefine(config, tracer);
  } else if (config.workload == "service_windows") {
    report = perfbench::RunServiceWindows(config, tracer);
  } else {
    Usage();
    return 2;
  }
  if (!config.trace) {
    report.Metric("peak_rss_mb", perfbench::PeakRssMiB(), "MiB");
  } else if (!config.trace_out.empty() &&
             !trace.WriteChromeJson(config.trace_out)) {
    report.Fail("cannot write " + config.trace_out);
  }

  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::string detail = "{\"detail\": {";
  for (size_t i = 0; i < report.detail.size(); ++i) {
    detail += (i ? ", " : "") + JsonString(report.detail[i].first) + ": " +
              JsonString(report.detail[i].second);
  }
  std::printf("%s}}\n", detail.c_str());
  std::string metrics;
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, value_unit] = report.metrics[i];
    metrics += (i ? ", " : "") + JsonString(name) + ": {\"value\": " +
               JsonNumber(value_unit.first) +
               ", \"unit\": " + JsonString(value_unit.second) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
