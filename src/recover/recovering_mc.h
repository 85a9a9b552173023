// revft/recover/recovering_mc.h
//
// The measurement harness of the retry protocol: a lane-parallel
// packed Monte-Carlo engine (64 * lane_words trials per batch, see
// noise/lanes.h) in which detection FEEDS BACK into execution. Where
// detect/checked_mc.h only classifies trials (detected vs silent),
// this engine reacts per lane at every boundary:
//
//   * every trial lane runs the segment walk of recover/plan.h; at
//     each boundary the rail invariants and zero checks are evaluated
//     for all lanes at once (same word work as the checked engine);
//   * lanes whose checks fired are handled by the RetryPolicy: under
//     kBlockLocal the fired components are replayed in a scratch state
//     restored from the boundary checkpoint — grouped by identical
//     fired-component sets so one replay serves every lane that needs
//     exactly those components — and repaired lanes are blended back
//     cell by cell; lanes that exhaust local attempts (or any fired
//     lane under kWholeProgram) restart from the entry checkpoint in
//     end-of-batch passes;
//   * retries run LANE-COMPACTED at lane_words > 1: when a replay
//     group's consumers, or a restart pass's pending lanes, fit a
//     narrower width (64·nw lanes, nw in {1,2,4} below W), they are
//     gathered into a preallocated narrow state — only the fired
//     components' footprint cells from the boundary checkpoint for a
//     replay (every cell a replay writes or its checks read lies
//     there), every cell from the entry checkpoint for a restart —
//     replayed or restarted there, checked at the narrow width, and
//     the accepted lanes scattered back (recover/checkpoint.h). The
//     first pass, and every retry at W = 1, runs on the full-width
//     state exactly as before, so the W = 1 stream and the no-retry
//     stream at every W are unchanged; at W > 1 compaction changes
//     only how many masks a retry draws — lane_words is part of the
//     determinism key — and the widths agree statistically
//     (test_simd_lanes);
//   * every attempt draws FRESH fault randomness from the shard's own
//     simulator stream (the per-kind Bernoulli streams just keep
//     going), so retries are real re-executions under the same noise
//     model, not re-rolls of the same faults.
//
// Cost accounting is per trial, the way an independent physical run
// would pay: a lane is charged the segment ops it executed, the replay
// ops of the replays IT consumed, and the restart ops up to ITS first
// fired boundary — even though the packed vehicle executes all lanes
// together. E[ops/accept] read off a RecoveryEstimate is therefore the
// measured counterpart of detect::RetryCostModel.
//
// Determinism: all retry processing happens inside a shard using the
// shard's own simulator, replay groups are processed in sorted
// fired-set order, and RecoveryEstimate merges by exact integer sums —
// so the result is bit-identical for a fixed seed regardless of
// REVFT_THREADS, retries included (ctest-enforced).
#pragma once

#include <cstdint>
#include <functional>

#include "detect/rail.h"
#include "noise/parallel_mc.h"
#include "recover/plan.h"
#include "recover/retry.h"

namespace revft::recover {

/// Batch-level callbacks, same contract as the other engines: prepare
/// fills every lane of a cleared state (rails left zero); classify
/// returns the lanes of its mask argument whose final output is wrong
/// (kernel_classify in noise/monte_carlo.h). The engine classifies
/// once per batch, over the accepted lanes.
using PrepareFn =
    std::function<void(PackedState&, Xoshiro256&, std::uint64_t)>;
using ClassifyFn =
    std::function<LaneMask(const PackedState&, std::uint64_t, const LaneMask&)>;

/// The recovering counterpart of detail::run_checked_mc_span: one
/// simulator, a contiguous batch range, retries included. Out-of-line
/// (not a template) — the segment walk is involved enough that one
/// canonical definition beats inlining per kernel type. Checkpoints
/// are evaluated off CheckedCircuit::checkpoint_spans; a circuit
/// without them (one not built by to_parity_rail) throws revft::Error.
///
/// `trace` (nullable) receives the full per-boundary story: recover.*
/// counters (per-rail events, per-segment replays and replayed ops,
/// restarts, a replays-per-batch histogram) plus kRailFired /
/// kZeroCheckFired / kCheckpointRestore / kSegmentReplay /
/// kEscalationRestart / kBatchAccept events stamped with segment and
/// rail ids. Hooks fire at boundary/replay granularity (never per
/// gate) and are all gated on the pointer, so an untraced run pays
/// one predictable branch per boundary.
RecoveryEstimate run_recovering_mc_span(
    PackedSimulator& sim, PackedState& state,
    const detect::CheckedCircuit& checked, const SegmentPlan& plan,
    const RetryPolicy& policy, std::uint64_t first_batch, std::uint64_t trials,
    const PrepareFn& prepare, const ClassifyFn& classify,
    telemetry::ShardTrace* trace = nullptr);

/// The recovering engine's adapter for the Monte-Carlo driver
/// (noise/parallel_mc.h); its headline is the delivered-output quality.
struct RecoveringEngine {
  using Estimate = RecoveryEstimate;
  static constexpr const char* kName = "recovering";

  const detect::CheckedCircuit& checked;
  const SegmentPlan& plan;
  const RetryPolicy& policy;

  std::uint32_t width() const noexcept { return checked.circuit.width(); }

  template <typename Kernel>
  Estimate run_batch(PackedSimulator& sim, PackedState& state, Kernel& kernel,
                     std::uint64_t batch, std::uint64_t trials,
                     telemetry::ShardTrace* trace) const {
    return run_recovering_mc_span(sim, state, checked, plan, policy, batch,
                                  trials, kernel_prepare(kernel),
                                  kernel_classify(kernel), trace);
  }

  static BernoulliEstimate headline(const Estimate& est) noexcept {
    return {est.silent_failures, est.accepted};
  }
};

/// Thread-sharded recovering Monte-Carlo run over the whole budget.
/// Same kernel-factory contract as run_parallel_mc /
/// run_parallel_checked_mc; each shard's child seed drives both the
/// first pass and every retry it spawns, so the determinism guarantee
/// covers the whole protocol — and, via the shard-index-order absorb,
/// the telemetry stream of `trace` (nullable) as well.
template <typename KernelFactory>
RecoveryEstimate run_parallel_recovering_mc(
    const detect::CheckedCircuit& checked, const SegmentPlan& plan,
    const RetryPolicy& policy, const NoiseModel& model,
    const ParallelMcOptions& opts, KernelFactory&& factory,
    telemetry::Trace* trace = nullptr) {
  telemetry::StreamOptions run;
  run.mc = opts;
  return run_mc(RecoveringEngine{checked, plan, policy}, model, run, factory,
                trace)
      .estimate;
}

}  // namespace revft::recover
