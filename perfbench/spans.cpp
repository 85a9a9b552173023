#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

namespace perfbench {

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int SpanLog::add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                 int parent, int job) {
  spans_.push_back({std::move(name), start_ns, end_ns, parent, job});
  return static_cast<int>(spans_.size()) - 1;
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"parent\":%d,\"job\":%d}",
                 i == 0 ? "" : ",", s.name.c_str(), s.start_ns / 1e3,
                 s.end_ns / 1e3, s.parent, s.job);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::int64_t covered_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t end = std::numeric_limits<std::int64_t>::min();
  for (const auto& [lo, hi] : iv) {
    const std::int64_t from = std::max(lo, end);
    if (hi > from) total += hi - from;
    end = std::max(end, hi);
  }
  return total;
}

}  // namespace perfbench
