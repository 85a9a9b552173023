// revft/detect/checked_mc.h
//
// Online error detection inside the 64-lane packed Monte-Carlo engine.
// A checked circuit is applied noisily gate by gate; at every recorded
// checkpoint every rail invariant I_r = rail_r ^ XOR(group_r) is
// evaluated for all 64 lanes at once — one XOR per group member plus
// one OR into the running `detected` bitmask, so a full partition's
// checkpoint costs the same word work as the classic single rail
// (the groups tile the data bits), and the per-rail fired masks come
// out as a byproduct.
//
// The detected masks are threaded through the thread-sharded engine
// (noise/parallel_mc.h): every trial is classified into one of four
// outcomes and the per-shard DetectionEstimates merge by exact integer
// sums, so — exactly like the plain engine — the detected / silent /
// accepted counts AND the per-rail detected counts are bit-identical
// for a fixed seed regardless of REVFT_THREADS.
//
// The headline statistics model an abort-and-retry (post-selection)
// protocol: trials whose checker fired are discarded, and the quality
// of the survivors is post_selected_error_rate() = silent_failures /
// accepted(). The retry-cost model prices the aborts: with acceptance
// rate a, a detect-and-retry consumer runs a geometric number of
// trials (mean 1/a) per accepted result, so detection's true cost is
// expected_ops_to_accept(ops_per_trial) = ops_per_trial / a — the
// number detection-vs-correction comparisons should use.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "detect/rail.h"
#include "noise/parallel_mc.h"

namespace revft::detect {

/// Exact outcome counts of a detection Monte-Carlo run.
struct DetectionEstimate {
  std::uint64_t trials = 0;
  std::uint64_t detected = 0;           ///< checker fired (trial aborted)
  std::uint64_t detected_failures = 0;  ///< ... and the output was wrong
  std::uint64_t silent_failures = 0;    ///< accepted, but the output was wrong
  /// Trials in which rail r's invariant fired at some checkpoint, one
  /// entry per CheckedCircuit rail. A trial can fire several rails (a
  /// routing fault on a group boundary flips two), so the entries can
  /// sum past `detected`; under the checked machines' per-block
  /// partition entry r localizes damage to block r.
  ///
  /// Naming note: this counts TRIALS (each trial contributes at most 1
  /// to entry r), while RecoveryEstimate::rail_events counts EVENTS (a
  /// trial retrying at several boundaries contributes several). The
  /// adaptivity-facing signal both feed is rail_detected_rate(r) here
  /// and RecoveryEstimate::rail_event_rate(r) there — and the merged
  /// per-block view is telemetry::RunReport's rail table.
  std::vector<std::uint64_t> rail_detected;
  /// Trials in which some registered ZeroCheck fired.
  std::uint64_t zero_check_detected = 0;

  std::uint64_t accepted() const noexcept { return trials - detected; }
  /// Sum of rail_detected[] — total per-rail attributions. Can exceed
  /// `detected` (multi-rail trials) and undershoot it (zero-check-only
  /// or embedded-check-bit detections carry no rail attribution).
  std::uint64_t total_detected() const noexcept {
    std::uint64_t sum = 0;
    for (std::uint64_t r : rail_detected) sum += r;
    return sum;
  }
  std::uint64_t false_alarms() const noexcept {
    return detected - detected_failures;
  }
  /// Fraction of trials in which rail r fired — the per-rail share of
  /// the localization story (under the checked machines' per-block
  /// partition, how often block r was named the suspect). Zero for a
  /// rail index this estimate never recorded (and with no trials).
  double rail_detected_rate(std::size_t r) const noexcept {
    return trials != 0 && r < rail_detected.size()
               ? static_cast<double>(rail_detected[r]) /
                     static_cast<double>(trials)
               : 0.0;
  }
  double detected_rate() const noexcept {
    return trials ? static_cast<double>(detected) / static_cast<double>(trials)
                  : 0.0;
  }
  /// Silent failures per trial (no post-selection in the denominator).
  double silent_rate() const noexcept {
    return trials ? static_cast<double>(silent_failures) /
                        static_cast<double>(trials)
                  : 0.0;
  }
  /// Failure rate with no post-selection: silent and detected failures
  /// both count (what an abort-unaware consumer would see).
  double raw_failure_rate() const noexcept {
    return trials ? static_cast<double>(silent_failures + detected_failures) /
                        static_cast<double>(trials)
                  : 0.0;
  }
  /// Failure rate among accepted trials — the post-selection payoff.
  double post_selected_error_rate() const noexcept {
    const std::uint64_t a = accepted();
    return a ? static_cast<double>(silent_failures) / static_cast<double>(a)
             : 0.0;
  }
  /// Fraction of trials the post-selection keeps.
  double acceptance_rate() const noexcept {
    return trials ? static_cast<double>(accepted()) /
                        static_cast<double>(trials)
                  : 0.0;
  }
  /// Retry-cost model: a detect-and-retry consumer reruns until a
  /// trial is accepted, a geometric number of attempts with mean
  /// 1 / acceptance_rate(). Infinite when every trial aborted.
  double expected_trials_to_accept() const noexcept {
    const double a = acceptance_rate();
    return a > 0.0 ? 1.0 / a : std::numeric_limits<double>::infinity();
  }
  /// Expected checked ops spent per ACCEPTED result when each trial
  /// costs `ops_per_trial` ops — the currency that makes detection
  /// (cheap pass, pricey aborts) comparable to correction (pricey
  /// pass, no aborts).
  double expected_ops_to_accept(std::uint64_t ops_per_trial) const noexcept {
    return static_cast<double>(ops_per_trial) * expected_trials_to_accept();
  }

  /// Exact integer merge (shard combination). Per-rail counts merge
  /// element-wise; an empty vector (a default-constructed
  /// accumulator) adopts the other side's shape.
  DetectionEstimate& operator+=(const DetectionEstimate& other) {
    trials += other.trials;
    detected += other.detected;
    detected_failures += other.detected_failures;
    silent_failures += other.silent_failures;
    zero_check_detected += other.zero_check_detected;
    if (rail_detected.size() < other.rail_detected.size())
      rail_detected.resize(other.rail_detected.size(), 0);
    for (std::size_t r = 0; r < other.rail_detected.size(); ++r)
      rail_detected[r] += other.rail_detected[r];
    return *this;
  }

  bool operator==(const DetectionEstimate&) const = default;
};

/// Apply checked.circuit noisily and return the per-lane detected
/// bitmask: bit t set means some checkpoint saw a rail invariant
/// violated in lane t, or some ZeroCheck saw a nonzero bit there.
/// Embedded check bits, when present, are folded into the mask at the
/// end. When `fired_masks` is non-null it must point at
/// checked.rails.size() + 1 words, which are overwritten with the
/// per-lane fired mask of each rail ([0, rails.size())) and of the
/// zero checks (last slot); embedded check-bit detections appear only
/// in the combined mask. Consumes RNG identically for a fixed
/// simulator state, so the sharded determinism contract carries over.
std::uint64_t apply_noisy_checked(PackedSimulator& sim, PackedState& state,
                                  const CheckedCircuit& checked,
                                  std::uint64_t* fired_masks = nullptr);

/// Multi-word generalization for states with lane_words() >= 1:
/// `detected` points at lane_words words (overwritten with the
/// per-lane detected mask), and `fired_masks` (nullable) at
/// (rails.size() + 1) * lane_words words laid out rail-major —
/// fired_masks[r * lane_words + w] is rail r's fired mask for lane
/// word w, with the zero-check masks in the last slot group. At
/// lane_words == 1 this is exactly the legacy overload above (same
/// RNG stream, same masks, same layout). Checkpoints are evaluated
/// off CheckedCircuit::checkpoint_spans (the flattened CSR view
/// to_parity_rail builds); a circuit without them throws
/// revft::Error.
void apply_noisy_checked_words(PackedSimulator& sim, PackedState& state,
                               const CheckedCircuit& checked,
                               std::uint64_t* detected,
                               std::uint64_t* fired_masks = nullptr);

namespace detail {

/// Checked counterpart of noise/monte_carlo.h's run_mc_span: identical
/// batching, lane accounting and classify form, but every trial lands
/// in one of the four DetectionEstimate buckets (word operations on the
/// detected and wrong lane masks).
///
/// `trace` (nullable) receives per-batch telemetry: detect.* counters
/// (trials, detected per rail, zero checks) plus kRailFired /
/// kZeroCheckFired events carrying the per-rail fired lane masks and
/// one kBatchAccept event per batch. Events fire at most once per
/// (batch, rail), so the stream is bounded by the batch count, and
/// every hook is gated on the pointer — an untraced run executes the
/// identical instruction stream.
template <typename PrepareFn, typename ClassifyFn>
DetectionEstimate run_checked_mc_span(PackedSimulator& sim, PackedState& state,
                                      const CheckedCircuit& checked,
                                      std::uint64_t first_batch,
                                      std::uint64_t trials, PrepareFn&& prepare,
                                      ClassifyFn&& classify,
                                      telemetry::ShardTrace* trace = nullptr) {
  DetectionEstimate est;
  est.rail_detected.assign(checked.rails.size(), 0);
  const unsigned lane_words = state.lane_words();
  const std::uint64_t lanes_per_batch = 64ULL * lane_words;
  std::vector<std::uint64_t> detected_words(lane_words, 0);
  std::vector<std::uint64_t> fired((checked.rails.size() + 1) * lane_words, 0);
  const bool tracing = trace != nullptr && trace->enabled();
  std::uint64_t* m_batches = nullptr;
  std::uint64_t* m_trials = nullptr;
  std::uint64_t* m_detected = nullptr;
  std::uint64_t* m_zero = nullptr;
  std::vector<std::uint64_t>* m_rail = nullptr;
  if (tracing) {
    // Register everything before taking handles (registration may
    // reallocate the registry; plain bumps never do).
    trace->metrics().counter("detect.batches");
    trace->metrics().counter("detect.trials");
    trace->metrics().counter("detect.detected");
    trace->metrics().counter("detect.zero_check_fired");
    trace->metrics().counter_vec("detect.rail_fired", checked.rails.size());
    m_batches = &trace->metrics().counter("detect.batches");
    m_trials = &trace->metrics().counter("detect.trials");
    m_detected = &trace->metrics().counter("detect.detected");
    m_zero = &trace->metrics().counter("detect.zero_check_fired");
    m_rail = &trace->metrics().counter_vec("detect.rail_fired",
                                           checked.rails.size());
  }
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
    apply_noisy_checked_words(sim, state, checked, detected_words.data(),
                              fired.data());
    const LaneMask live = LaneMask::first_n(
        lane_words, static_cast<std::uint64_t>(lanes_this_batch));
    const LaneMask wrong = classify(state, batch, live);
    est.trials += static_cast<std::uint64_t>(lanes_this_batch);
    std::uint64_t batch_detected = 0;
    for (unsigned w = 0; w < lane_words; ++w) {
      const std::uint64_t det = detected_words[w] & live.word(w);
      batch_detected += static_cast<std::uint64_t>(std::popcount(det));
      est.detected_failures +=
          static_cast<std::uint64_t>(std::popcount(det & wrong.word(w)));
      est.silent_failures +=
          static_cast<std::uint64_t>(std::popcount(wrong.word(w) & ~det));
    }
    est.detected += batch_detected;
    std::uint64_t any_detected = 0;
    for (unsigned w = 0; w < lane_words; ++w) any_detected |= detected_words[w];
    if (any_detected != 0) {
      for (std::size_t r = 0; r < checked.rails.size(); ++r)
        for (unsigned w = 0; w < lane_words; ++w)
          est.rail_detected[r] += static_cast<std::uint64_t>(
              std::popcount(fired[r * lane_words + w] & live.word(w)));
      for (unsigned w = 0; w < lane_words; ++w)
        est.zero_check_detected += static_cast<std::uint64_t>(std::popcount(
            fired[checked.rails.size() * lane_words + w] & live.word(w)));
      if (tracing) {
        for (std::size_t r = 0; r < checked.rails.size(); ++r) {
          for (unsigned w = 0; w < lane_words; ++w) {
            const std::uint64_t lanes = fired[r * lane_words + w] & live.word(w);
            if (lanes == 0) continue;
            (*m_rail)[r] += static_cast<std::uint64_t>(std::popcount(lanes));
            telemetry::Event ev;
            ev.kind = telemetry::EventKind::kRailFired;
            ev.shard = trace->shard_index();
            ev.rail = static_cast<std::uint16_t>(r);
            ev.batch = batch;
            ev.lanes = lanes;
            trace->emit(ev);
          }
        }
        for (unsigned w = 0; w < lane_words; ++w) {
          const std::uint64_t zero_lanes =
              fired[checked.rails.size() * lane_words + w] & live.word(w);
          if (zero_lanes == 0) continue;
          *m_zero += static_cast<std::uint64_t>(std::popcount(zero_lanes));
          telemetry::Event ev;
          ev.kind = telemetry::EventKind::kZeroCheckFired;
          ev.shard = trace->shard_index();
          ev.batch = batch;
          ev.lanes = zero_lanes;
          trace->emit(ev);
        }
      }
    }
    if (tracing) {
      ++*m_batches;
      *m_trials += static_cast<std::uint64_t>(lanes_this_batch);
      *m_detected += batch_detected;
      for (unsigned w = 0; w < lane_words; ++w) {
        const std::uint64_t ok = live.word(w) & ~detected_words[w];
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

/// The checked engine's adapter for the Monte-Carlo driver
/// (noise/parallel_mc.h); its headline is the post-selected silent rate.
struct CheckedEngine {
  using Estimate = DetectionEstimate;
  static constexpr const char* kName = "checked";

  const CheckedCircuit& checked;

  std::uint32_t width() const noexcept { return checked.circuit.width(); }

  template <typename Kernel>
  Estimate run_batch(PackedSimulator& sim, PackedState& state, Kernel& kernel,
                     std::uint64_t batch, std::uint64_t trials,
                     telemetry::ShardTrace* trace) const {
    return detail::run_checked_mc_span(sim, state, checked, batch, trials,
                                       kernel_prepare(kernel),
                                       kernel_classify(kernel), trace);
  }

  static BernoulliEstimate headline(const Estimate& est) noexcept {
    return {est.silent_failures, est.accepted()};
  }
};

/// Thread-sharded checked Monte-Carlo run over the whole budget. Same
/// kernel-factory contract as run_parallel_mc, except that prepare
/// must leave rail and check bits zero and classify judges the lane's
/// *output*; same determinism guarantee, now for all four outcome
/// counts and the `trace` (nullable) telemetry.
template <typename KernelFactory>
DetectionEstimate run_parallel_checked_mc(const CheckedCircuit& checked,
                                          const NoiseModel& model,
                                          const ParallelMcOptions& opts,
                                          KernelFactory&& factory,
                                          telemetry::Trace* trace = nullptr) {
  telemetry::StreamOptions run;
  run.mc = opts;
  return run_mc(CheckedEngine{checked}, model, run, factory, trace).estimate;
}

}  // namespace revft::detect
