// bench/bench_common.h
//
// Shared scaffolding for the paper-reproduction bench binaries. Each
// binary first prints its reproduction table ([paper] vs [measured]
// columns), emits a machine-readable BENCH_<name>.json results file,
// then runs its google-benchmark kernel timings.
//
// Environment knobs (decimal integers only — anything else throws
// revft::Error naming the variable; see support/env.h):
//   REVFT_TRIALS   — Monte-Carlo trials per data point, >= 1 (default
//                    differs per bench; raise it for tighter error
//                    bars).
//   REVFT_SEED     — master seed (default 224010245 = 0xD5A2005).
//   REVFT_THREADS  — worker threads for the sharded Monte-Carlo engine
//                    (default: hardware concurrency). Never changes the
//                    estimates, only wall-clock time.
//   REVFT_JSON_DIR — directory for the JSON artifacts (default ".";
//                    empty string disables emission; see
//                    support/artifact.h).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/json.h"

namespace revft::benchutil {

/// Monte-Carlo trial count: REVFT_TRIALS (>= 1) or `fallback`.
std::uint64_t trials_from_env(std::uint64_t fallback);

/// Master seed: REVFT_SEED (0 allowed) or 0xD5A2005.
std::uint64_t seed_from_env();
// (REVFT_THREADS is read by the engine itself — resolve_thread_count
// in noise/parallel_mc.h — whenever a config leaves threads at 0.)

/// Interleaved timing of kernel variants against variants[0], the
/// baseline: per variant the best (minimum) CPU ns/op over the reps,
/// and the median over reps of each variant's time over the
/// baseline's in the same rep (ratio[0] == 1).
struct InterleavedTiming {
  std::vector<double> min_ns_per_op;
  std::vector<double> ratio;
};

/// The noise-hardened overhead estimator. After one untimed warm-up call
/// of every variant, each of `reps` repetitions times `iters` calls of
/// every variant back to back, each call covering `ops` ops, IN A
/// ROTATING ORDER, and takes the ratios within the repetition; the
/// per-rep ratios are combined by median:
///
///   * process-CPU time (where the POSIX clock exists) doesn't tick
///     while the process is descheduled, so time-slicing against
///     neighbour processes (observed: 35% wall-clock swings between
///     identical runs) stays out of the figure;
///   * back-to-back blocks mean clock-frequency and load drift hit
///     every variant of a rep roughly equally (sequential min-of-N
///     regularly produced >20% phantom deltas on a busy container);
///   * rotating the order keeps a monotonic load ramp from always
///     landing on the variant timed last — with a fixed order that bias
///     is systematic and the median keeps it;
///   * the median discards the reps a noisy neighbour stomped on,
///     which a min-based ratio turns into a false bar verdict.
InterleavedTiming interleaved_ns_per_op(
    std::uint64_t ops, int iters,
    const std::vector<std::function<void()>>& variants, int reps = 15);

/// Runs `measure` and, while `badness(result) > 1` (a failing bar),
/// up to two more times, keeping the result with the least badness. A
/// sustained interference burst on a shared host can still poison one
/// whole interleaved attempt, and a false FAIL fails CI; a genuine
/// overhead is systematic and fails all three attempts alike.
template <typename Measure, typename Badness>
auto measure_with_retry(Measure&& measure, Badness&& badness) {
  auto best = measure();
  for (int attempt = 1; attempt < 3 && badness(best) > 1.0; ++attempt) {
    auto again = measure();
    if (badness(again) < badness(best)) best = again;
  }
  return best;
}

/// Print a section header for one reproduced table/figure.
void print_header(const std::string& title, const std::string& paper_ref);

class JsonResultWriter;

/// The widest SIMD tier this binary was compiled for ("avx512f",
/// "avx2" or "sse2") — the compile-time answer, what the
/// auto-vectorized packed kernels could use, independent of runtime
/// CPU detection (there is none; the build flag decides).
const char* target_isa();

/// Stamp the run-configuration meta every bench repeats — "trials",
/// "seed", plus the packed-engine geometry ("lane_words") and the
/// compiled SIMD tier ("target_isa") — in one call so the keys cannot
/// drift between binaries (CI's JSON checker greps for them by name).
/// lane_words is part of the determinism key (like batches_per_shard),
/// which is why it belongs in the meta block of every results file.
void stamp_run_meta(JsonResultWriter& json, std::uint64_t trials,
                    std::uint64_t seed, unsigned lane_words = 1);

/// Collects named results and writes them as BENCH_<name>.json through
/// support/artifact (Kind::kBench), so successive PRs accumulate a
/// machine-readable perf/accuracy trajectory. The body groups values
/// into sections after the provenance envelope:
///
///   {
///     "kind": "bench", "name": "fig2_threshold", "provenance": {...},
///     "meta":    {"trials": 1000000, ...},
///     "results": {"noisy_init": {"pseudo_threshold": 0.021, ...}, ...}
///   }
///
/// Values are json::Values: 64-bit integers stay exact (a double would
/// silently round seeds above 2^53), doubles print round-trip and
/// non-finite ones become null.
class JsonResultWriter {
 public:
  /// `name` is the bench identifier, e.g. "fig2_threshold".
  explicit JsonResultWriter(std::string name);

  /// Record one run-configuration value (trials, seed, threads, ...).
  void meta(const std::string& key, json::Value value);
  /// Record one measured value under `section`.
  void add(const std::string& section, const std::string& key,
           json::Value value);

  /// Write BENCH_<name>.json and return its path ("" when
  /// REVFT_JSON_DIR="" disables emission). Throws revft::Error when
  /// the file cannot be written.
  std::string write() const;

 private:
  std::string name_;
  json::Value meta_ = json::Value::object();
  json::Value results_ = json::Value::object();
};

}  // namespace revft::benchutil
