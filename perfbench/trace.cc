#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

uint32_t ThreadTag() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) & 0xffff);
}

}  // namespace

Trace::Trace() : origin_(std::chrono::steady_clock::now()) {}

double Trace::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Trace::Begin(const std::string& name, uint64_t query, int parent) {
  Span span;
  span.name = name;
  span.query = query;
  span.parent = parent;
  span.thread = ThreadTag();
  span.start = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void Trace::End(int span) {
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].end = now;
}

std::map<std::string, double> Trace::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.query == kSetupQuery) continue;
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> covered;
    for (size_t c : children[i]) {
      covered.emplace_back(std::max(spans_[c].start, s.start),
                           std::min(spans_[c].end, s.end));
    }
    std::sort(covered.begin(), covered.end());
    double covered_s = 0.0;
    double reach = s.start;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) {
        covered_s += hi - from;
        reach = hi;
      }
    }
    self[s.name] += std::max(0.0, (s.end - s.start) - covered_s);
  }
  return self;
}

std::vector<double> Trace::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.query != kSetupQuery) {
      out.push_back(s.end - s.start);
    }
  }
  return out;
}

bool Trace::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string query =
        s.query == kSetupQuery ? "\"setup\"" : std::to_string(s.query);
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"query\":%s}}",
                 i == 0 ? "" : ",\n", s.name.c_str(),
                 s.query == kSetupQuery ? "setup" : "query", s.thread,
                 s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent,
                 query.c_str());
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
