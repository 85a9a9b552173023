// revft/local/program_cache.h
//
// Compiled-program cache for the checked local machines. The machine
// compilers are pure functions of (machine kind, logical-bit count,
// with_init, CheckedMachineOptions, logical circuit) — the same key
// the bench and experiment drivers re-derive over and over: one bench
// binary compiles the identical scattered 10-bit workload half a
// dozen times across its sections, and every compile pays routing
// synthesis, the scheduling pass, the rail transform and the segment
// plan. This cache memoizes the whole bundle (CheckedMachineProgram +
// recover::SegmentPlan) behind a shared_ptr so sections, experiments
// and google-benchmark kernels share one compilation.
//
// The key hashes every compilation input, including a fingerprint of
// the logical circuit's gate stream, so two workloads never alias.
// Entries are immutable once published (consumers hold
// shared_ptr<const ...>), which also makes the cache safe to read
// from concurrent shards. Hit/miss totals are exported into a
// telemetry::MetricsRegistry under "program_cache.*" for the bench
// JSON trajectory.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "local/checked_machine.h"
#include "recover/plan.h"
#include "telemetry/metrics.h"

namespace revft {

/// Which machine compiler built a cached program.
enum class MachineKind : std::uint8_t { k1d, k2d };

/// Everything a checked/recovering driver needs for one workload: the
/// rail-transformed program and its replay segmentation (built
/// unconditionally — it is cheap next to compilation and most
/// consumers want both).
struct CachedMachineProgram {
  CheckedMachineProgram program;
  recover::SegmentPlan plan;
};

/// Process-wide memoization of CheckedMachine1d/2d::compile plus
/// recover::build_segment_plan. Lookups are linear over a handful of
/// entries (the drivers use a few workload/options combinations, not
/// thousands), guarded by one mutex.
class ProgramCache {
 public:
  /// The shared process-wide instance the drivers use.
  static ProgramCache& instance();

  /// Find-or-compile. The returned bundle is immutable and shared;
  /// it stays valid after clear() as long as the caller holds the
  /// pointer.
  std::shared_ptr<const CachedMachineProgram> get(
      MachineKind kind, const Circuit& logical, bool with_init = true,
      const CheckedMachineOptions& opts = {});

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::size_t size() const;

  /// Drop every entry (counters keep accumulating).
  void clear();

  /// Export "program_cache.hits" / ".misses" / ".entries" counters.
  void export_metrics(telemetry::MetricsRegistry& metrics) const;

 private:
  /// Every compilation input. The options are stored whole, so a new
  /// option joins the key through CheckedMachineOptions::operator==
  /// alone. `workload` fingerprints the logical circuit (width +
  /// FNV-1a over the gate stream).
  struct Key {
    MachineKind kind;
    std::uint32_t logical_bits;
    bool with_init;
    CheckedMachineOptions opts;
    std::uint64_t workload;

    bool operator==(const Key&) const = default;
  };

  static Key make_key(MachineKind kind, const Circuit& logical, bool with_init,
                      const CheckedMachineOptions& opts);

  mutable std::mutex mutex_;
  std::vector<std::pair<Key, std::shared_ptr<const CachedMachineProgram>>>
      entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace revft
