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
///   prepare(state, rng, batch)                   — set up all lanes;
///   ... circuit applied noisily ...
///   classify(state, batch, judge) -> LaneMask    — the lanes of `judge`
///                                                  whose output is wrong
/// (kernel_classify below builds `classify` from a kernel). `judge` is
/// the batch's live mask: only the first (trials % lanes_per_batch)
/// lanes of the last batch are counted, so the estimate covers exactly
/// `trials` trials.
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
    const LaneMask live = LaneMask::first_n(
        lane_words, static_cast<std::uint64_t>(lanes_this_batch));
    const LaneMask wrong = classify(state, batch, live);
    est.trials += static_cast<std::uint64_t>(lanes_this_batch);
    est.failures += wrong.popcount();
    if (tracing) {
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

/// The lanes of `judge` a per-lane classifier (state, lane, batch) ->
/// bool calls wrong, asking it about each lane of `judge` once, in
/// ascending order.
template <typename LaneClassifyFn>
LaneMask classify_lanes(LaneClassifyFn& classify, const PackedState& state,
                        std::uint64_t batch, const LaneMask& judge) {
  LaneMask wrong(judge.words());
  for_each_lane(judge, [&](unsigned lane) {
    if (classify(state, static_cast<int>(lane), batch)) wrong.set(lane);
  });
  return wrong;
}

/// A kernel with the optional batch classifier of the kernel contract
/// (noise/parallel_mc.h).
template <typename Kernel>
concept BatchClassifier = requires(Kernel& kernel, const PackedState& state,
                                   std::uint64_t batch, LaneMask& wrong) {
  kernel.classify_batch(state, batch, wrong);
};

/// prepare / classify callables forwarding to a kernel object (the
/// kernel contract of noise/parallel_mc.h). The classify callable is
/// the engines' batch form (state, batch, judge) -> the wrong lanes of
/// `judge`: one classify_batch call masked by `judge` when the kernel
/// has a batch classifier, else classify_lanes over its per-lane
/// classify.
template <typename Kernel>
auto kernel_prepare(Kernel& kernel) {
  return [&kernel](PackedState& s, Xoshiro256& rng, std::uint64_t batch) {
    kernel.prepare(s, rng, batch);
  };
}
template <typename Kernel>
auto kernel_classify(Kernel& kernel) {
  return [&kernel](const PackedState& s, std::uint64_t batch,
                   const LaneMask& judge) {
    if constexpr (BatchClassifier<Kernel>) {
      LaneMask wrong(judge.words());
      kernel.classify_batch(s, batch, wrong);
      wrong &= judge;
      return wrong;
    } else {
      auto lane_fn = [&kernel](const PackedState& st, int lane,
                               std::uint64_t b) {
        return kernel.classify(st, lane, b);
      };
      return classify_lanes(lane_fn, s, batch, judge);
    }
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
/// every batch in order. `classify(state, lane, batch) -> bool` judges
/// one lane (true counts a *failure*) and is called once per counted
/// lane, in order; see detail::run_mc_span for the rest.
template <typename PrepareFn, typename LaneClassifyFn>
BernoulliEstimate run_packed_mc(const Circuit& circuit, const NoiseModel& model,
                                const McOptions& opts, PrepareFn&& prepare,
                                LaneClassifyFn&& classify) {
  PackedSimulator sim(model, opts.seed);
  PackedState state(circuit.width(), opts.lane_words);
  return detail::run_mc_span(
      sim, state, circuit, /*first_batch=*/0, opts.trials,
      std::forward<PrepareFn>(prepare),
      [&classify](const PackedState& s, std::uint64_t batch,
                  const LaneMask& judge) {
        return classify_lanes(classify, s, batch, judge);
      });
}

}  // namespace revft
