// revft/noise/monte_carlo.h
//
// Thin Monte-Carlo harness over the packed simulator: run a circuit
// for N trials in 64-lane batches, let the caller prepare lanes and
// classify outcomes, and accumulate a Bernoulli estimate with Wilson
// confidence intervals.
//
// The batch loop itself lives in detail::run_mc_span so the
// Monte-Carlo driver (noise/parallel_mc.h) can run the identical
// per-batch semantics one batch at a time, through PlainEngine.
#pragma once

#include <bit>
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

namespace detail {

/// Runs ceil(trials/lanes_per_batch) batches starting at global batch
/// index `first_batch` on an existing simulator/state pair, where
/// lanes_per_batch = 64 * state.lane_words(). For each batch:
///   prepare(state, rng, batch)           — set up all lanes;
///   ... circuit applied noisily ...
///   classify(state, lane, batch) -> bool — true means "error".
/// Only the first (trials % lanes_per_batch) lanes of the last batch
/// are counted, so the estimate covers exactly `trials` trials.
///
/// `trace` (nullable) receives per-batch telemetry: mc.batches /
/// mc.trials / mc.failures counters plus one kBatchAccept event per
/// batch *lane word* whose lane mask names the non-failing counted
/// lanes of that word (exactly one event per batch at lane_words=1 —
/// the legacy stream). Every hook is gated on the pointer, so an
/// untraced run executes the same per-lane work as before telemetry
/// existed.
template <typename PrepareFn, typename ClassifyFn>
BernoulliEstimate run_mc_span(PackedSimulator& sim, PackedState& state,
                              const Circuit& circuit, std::uint64_t first_batch,
                              std::uint64_t trials, PrepareFn&& prepare,
                              ClassifyFn&& classify,
                              telemetry::ShardTrace* trace = nullptr) {
  BernoulliEstimate est;
  const bool tracing = trace != nullptr && trace->enabled();
  std::uint64_t* m_batches = nullptr;
  std::uint64_t* m_trials = nullptr;
  std::uint64_t* m_failures = nullptr;
  if (tracing) {
    // Register everything before taking handles: the registry may
    // reallocate on registration, never on a plain bump.
    trace->metrics().counter("mc.batches");
    trace->metrics().counter("mc.trials");
    trace->metrics().counter("mc.failures");
    m_batches = &trace->metrics().counter("mc.batches");
    m_trials = &trace->metrics().counter("mc.trials");
    m_failures = &trace->metrics().counter("mc.failures");
  }
  const unsigned lane_words = state.lane_words();
  const std::uint64_t lanes_per_batch = 64ULL * lane_words;
  const std::uint64_t batches =
      (trials + lanes_per_batch - 1) / lanes_per_batch;
  for (std::uint64_t b = 0; b < batches; ++b) {
    const std::uint64_t batch = first_batch + b;
    const int lanes_this_batch =
        (b + 1 == batches && trials % lanes_per_batch != 0)
            ? static_cast<int>(trials % lanes_per_batch)
            : static_cast<int>(lanes_per_batch);
    state.clear();
    prepare(state, sim.rng(), batch);
    sim.apply_noisy(state, circuit);
    LaneMask wrong(lane_words);
    for (int lane = 0; lane < lanes_this_batch; ++lane) {
      ++est.trials;
      if (classify(state, lane, batch)) {
        ++est.failures;
        if (tracing) wrong.set(static_cast<unsigned>(lane));
      }
    }
    if (tracing) {
      const LaneMask live = LaneMask::first_n(
          lane_words, static_cast<std::uint64_t>(lanes_this_batch));
      ++*m_batches;
      *m_trials += static_cast<std::uint64_t>(lanes_this_batch);
      *m_failures += wrong.popcount();
      for (unsigned w = 0; w < lane_words; ++w) {
        const std::uint64_t ok = live.word(w) & ~wrong.word(w);
        telemetry::Event ev;
        ev.kind = telemetry::EventKind::kBatchAccept;
        ev.shard = trace->shard_index();
        ev.batch = batch;
        ev.lanes = ok;
        ev.value = static_cast<std::uint64_t>(std::popcount(ok));
        trace->emit(ev);
      }
    }
  }
  return est;
}

}  // namespace detail

/// prepare / classify callables forwarding to a kernel object (the
/// kernel contract of noise/parallel_mc.h).
template <typename Kernel>
auto kernel_prepare(Kernel& kernel) {
  return [&kernel](PackedState& s, Xoshiro256& rng, std::uint64_t batch) {
    kernel.prepare(s, rng, batch);
  };
}
template <typename Kernel>
auto kernel_classify(Kernel& kernel) {
  return [&kernel](const PackedState& s, int lane, std::uint64_t batch) {
    return kernel.classify(s, lane, batch);
  };
}

/// The plain engine's adapter for the Monte-Carlo driver
/// (noise/parallel_mc.h); its headline is the raw failure rate.
struct PlainEngine {
  using Estimate = BernoulliEstimate;
  static constexpr const char* kName = "plain";

  const Circuit& circuit;

  std::uint32_t width() const noexcept { return circuit.width(); }

  template <typename Kernel>
  Estimate run_batch(PackedSimulator& sim, PackedState& state, Kernel& kernel,
                     std::uint64_t batch, std::uint64_t trials,
                     telemetry::ShardTrace* trace) const {
    return detail::run_mc_span(sim, state, circuit, batch, trials,
                               kernel_prepare(kernel), kernel_classify(kernel),
                               trace);
  }

  static BernoulliEstimate headline(const Estimate& est) noexcept {
    return est;
  }
};

/// Single-threaded harness: one simulator seeded with opts.seed runs
/// every batch in order. See detail::run_mc_span for the prepare /
/// classify contract (classify returning true counts a *failure*).
template <typename PrepareFn, typename ClassifyFn>
BernoulliEstimate run_packed_mc(const Circuit& circuit, const NoiseModel& model,
                                const McOptions& opts, PrepareFn&& prepare,
                                ClassifyFn&& classify) {
  PackedSimulator sim(model, opts.seed);
  PackedState state(circuit.width(), opts.lane_words);
  return detail::run_mc_span(sim, state, circuit, /*first_batch=*/0,
                             opts.trials, std::forward<PrepareFn>(prepare),
                             std::forward<ClassifyFn>(classify));
}

}  // namespace revft
