#include "bench_common.h"

#include <cstdio>
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
