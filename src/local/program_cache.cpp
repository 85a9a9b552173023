#include "local/program_cache.h"

namespace revft {

namespace {

/// FNV-1a over the gate stream: kind byte + the three operand words
/// per gate, seeded with the circuit width. Collisions would need two
/// different workloads hashing alike AND agreeing on every other key
/// field — and the cache only ever serves a program compiled from
/// SOME circuit of that exact shape, so a collision is an aliasing
/// hazard, not a correctness time bomb for the common single-workload
/// drivers. Keep the full stream in the hash (not a prefix) so edits
/// anywhere in a workload re-key it.
std::uint64_t fingerprint(const Circuit& logical) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(logical.width());
  for (const Gate& g : logical.ops()) {
    mix(static_cast<std::uint64_t>(g.kind));
    for (const std::uint32_t bit : g.bits) mix(bit);
  }
  return h;
}

}  // namespace

ProgramCache& ProgramCache::instance() {
  static ProgramCache cache;
  return cache;
}

ProgramCache::Key ProgramCache::make_key(MachineKind kind,
                                         const Circuit& logical,
                                         bool with_init,
                                         const CheckedMachineOptions& opts) {
  return Key{kind, logical.width(), with_init, opts, fingerprint(logical)};
}

std::shared_ptr<const CachedMachineProgram> ProgramCache::get(
    MachineKind kind, const Circuit& logical, bool with_init,
    const CheckedMachineOptions& opts) {
  const Key key = make_key(kind, logical, with_init, opts);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [k, v] : entries_) {
      if (k == key) {
        ++hits_;
        return v;
      }
    }
    ++misses_;
  }

  // Compile outside the lock: compilation is the expensive part, and
  // a concurrent miss on the same key just compiles twice (both
  // results are identical; first publish wins).
  auto bundle = std::make_shared<CachedMachineProgram>();
  bundle->program =
      kind == MachineKind::k1d
          ? CheckedMachine1d(logical.width(), with_init, opts).compile(logical)
          : CheckedMachine2d(logical.width(), with_init, opts).compile(logical);
  bundle->plan = recover::build_segment_plan(bundle->program.checked);

  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [k, v] : entries_)
    if (k == key) return v;  // lost the race; serve the published copy
  entries_.emplace_back(key, bundle);
  return bundle;
}

std::uint64_t ProgramCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t ProgramCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::size_t ProgramCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void ProgramCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

void ProgramCache::export_metrics(telemetry::MetricsRegistry& metrics) const {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics.counter("program_cache.hits") += hits_;
  metrics.counter("program_cache.misses") += misses_;
  metrics.counter("program_cache.entries") += entries_.size();
}

}  // namespace revft
