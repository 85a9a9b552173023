// revft/noise/monte_carlo.h
//
// The plain packed Monte-Carlo engine: run a circuit noisily over a
// prepared batch of 64 * lane_words trials, let the kernel classify
// the outputs, and count failures into a Bernoulli estimate with
// Wilson confidence intervals. PlainEngine is the engine; the batch
// step that clears, prepares and masks a batch, the serial shard loop
// and the sharded driver that call it live in noise/parallel_mc.h
// (run_packed_mc, the single-threaded harness, among them).
#pragma once

#include <cstdint>

#include "noise/packed_sim.h"
#include "support/stats.h"
#include "telemetry/trace.h"

namespace revft {

struct McOptions {
  std::uint64_t trials = 100000;
  std::uint64_t seed = 0x5eedf00dULL;
  /// Lane words per circuit bit: each batch simulates 64 * lane_words
  /// trials (noise/lanes.h). Part of the determinism key — like
  /// batches_per_shard, changing it changes the RNG stream; 1 is the
  /// legacy 64-lane engine bit for bit.
  unsigned lane_words = 1;
};

/// A kernel with the optional batch classifier of the kernel contract
/// (noise/parallel_mc.h).
template <typename Kernel>
concept BatchClassifier = requires(Kernel& kernel, const PackedState& state,
                                   std::uint64_t batch, LaneMask& wrong) {
  kernel.classify_batch(state, batch, wrong);
};

/// The classify callable of a kernel object (the kernel contract of
/// noise/parallel_mc.h) in the engines' batch form (state, batch,
/// judge) -> the wrong lanes of `judge`: one classify_batch call masked
/// by `judge` when the kernel has a batch classifier, else its per-lane
/// classify asked about each lane of `judge` once, in ascending order.
template <typename Kernel>
auto kernel_classify(Kernel& kernel) {
  return [&kernel](const PackedState& s, std::uint64_t batch,
                   const LaneMask& judge) {
    LaneMask wrong(judge.words());
    if constexpr (BatchClassifier<Kernel>) {
      kernel.classify_batch(s, batch, wrong);
      wrong &= judge;
    } else {
      for_each_lane(judge, [&](unsigned lane) {
        if (kernel.classify(s, static_cast<int>(lane), batch)) wrong.set(lane);
      });
    }
    return wrong;
  };
}

/// The plain engine (noise/parallel_mc.h runs it one prepared batch at
/// a time): apply the circuit noisily, classify the live lanes once and
/// count the wrong ones; the accepted lanes are the live lanes it
/// judged right. Its headline is the raw failure rate. Under a tracing
/// `trace` it bumps mc.failures.
struct PlainEngine {
  using Estimate = BernoulliEstimate;
  static constexpr const char* kName = "plain";
  static constexpr const char* kMetricPrefix = "mc";

  const Circuit& circuit;

  std::uint32_t width() const noexcept { return circuit.width(); }

  template <typename Kernel>
  Estimate run_batch(PackedSimulator& sim, PackedState& state, Kernel& kernel,
                     std::uint64_t batch, const LaneMask& live,
                     LaneMask& accepted, telemetry::ShardTrace* trace) const {
    sim.apply_noisy(state, circuit);
    const LaneMask wrong = kernel_classify(kernel)(state, batch, live);
    accepted = live;
    accepted.remove(wrong);
    Estimate est;
    est.failures = wrong.popcount();
    if (trace != nullptr && trace->enabled())
      trace->metrics().counter("mc.failures") += est.failures;
    return est;
  }

  static BernoulliEstimate headline(const Estimate& est) noexcept {
    return est;
  }
};

}  // namespace revft
