#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <utility>

#include "support/artifact.h"
#include "support/env.h"

namespace revft::benchutil {

std::uint64_t trials_from_env(std::uint64_t fallback) {
  return env::decimal("REVFT_TRIALS", 1).value_or(fallback);
}

std::uint64_t seed_from_env() {
  return env::decimal("REVFT_SEED").value_or(0xD5A2005ULL);
}

namespace {

/// Process-CPU nanoseconds now; the steady clock where the POSIX clock
/// is unavailable.
std::int64_t cpu_now_ns() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0)
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
#endif
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

InterleavedTiming interleaved_ns_per_op(
    std::uint64_t ops, int iters,
    const std::vector<std::function<void()>>& variants, int reps) {
  const std::size_t n = variants.size();
  InterleavedTiming out;
  out.min_ns_per_op.assign(n, 0.0);
  out.ratio.assign(n, 0.0);
  for (const auto& variant : variants) variant();  // warm-up, untimed
  std::vector<std::vector<double>> ratios(n);
  std::vector<double> t(n, 0.0);
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t v = (static_cast<std::size_t>(rep) + k) % n;
      const std::int64_t start = cpu_now_ns();
      for (int i = 0; i < iters; ++i) variants[v]();
      const std::int64_t stop = cpu_now_ns();
      t[v] = static_cast<double>(stop - start) /
             (static_cast<double>(iters) * static_cast<double>(ops));
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (rep == 0 || t[v] < out.min_ns_per_op[v]) out.min_ns_per_op[v] = t[v];
      if (t[0] > 0.0) ratios[v].push_back(t[v] / t[0]);
    }
  }
  for (std::size_t v = 0; v < n; ++v) out.ratio[v] = median_of(ratios[v]);
  return out;
}

void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s  (Boykin & Roychowdhury, DSN 2005)\n",
              paper_ref.c_str());
  std::printf("================================================================\n");
}

JsonResultWriter::JsonResultWriter(std::string name) : name_(std::move(name)) {}

const char* target_isa() {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#else
  return "sse2";
#endif
}

void stamp_run_meta(JsonResultWriter& json, std::uint64_t trials,
                    std::uint64_t seed, unsigned lane_words) {
  json.meta("trials", trials);
  json.meta("seed", seed);
  json.meta("lane_words", lane_words);
  json.meta("target_isa", target_isa());
}

void JsonResultWriter::meta(const std::string& key, json::Value value) {
  meta_.set(key, std::move(value));
}

void JsonResultWriter::add(const std::string& section, const std::string& key,
                           json::Value value) {
  json::Value* entries = results_.find(section);
  if (entries == nullptr) entries = &results_.set(section, json::Value::object());
  entries->set(key, std::move(value));
}

std::string JsonResultWriter::write() const {
  json::Value body = json::Value::object();
  body.set("meta", meta_);
  body.set("results", results_);
  const std::string path = artifact::write(artifact::Kind::kBench, name_, body);
  if (!path.empty()) std::printf("\n[json] results written to %s\n", path.c_str());
  return path;
}

}  // namespace revft::benchutil
