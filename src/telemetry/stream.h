// revft/telemetry/stream.h
//
// Streaming runs: watch a Monte-Carlo estimate converge and stop it as
// soon as it is tight enough. The one driver, run_mc in
// noise/parallel_mc.h, does this for every engine — it folds rounds,
// records a ConvergenceSnapshot (rate + Wilson half-width of the
// engine's headline estimate) per round, calls on_snapshot and applies
// the EarlyStopPolicy — and defines StreamOptions and StreamResult,
// which this header re-exports. run_streaming_mc is the plain engine's
// entry point; the checked and recovering machines stream through
// CheckedMachineExperiment / RecoveryExperiment::run_streaming.
//
// A stopped run is bit-identical across REVFT_THREADS (the driver
// moves one round at a time, so no batch past the stop round runs); a
// run nothing can stop reproduces the full-budget estimate bit for
// bit, with the same snapshots, though on_snapshot may fire in a burst
// near the end. Wall-clock is confined to WallProfile, which
// deterministic_equal ignores.
//
// The headline estimate each engine converges on:
//   plain       failures / trials            (logical error rate)
//   checked     silent_failures / accepted() (post-selected quality)
//   recovering  silent_failures / accepted   (delivered-output quality)
#pragma once

#include "noise/parallel_mc.h"

namespace revft::telemetry {

/// Streaming run of the plain engine: run_parallel_mc's kernel-factory
/// contract and determinism key, plus the convergence trajectory (a
/// never-firing policy gives run_parallel_mc's estimate bit for bit).
template <typename KernelFactory>
StreamResult<BernoulliEstimate> run_streaming_mc(
    const Circuit& circuit, const NoiseModel& model, const StreamOptions& opts,
    KernelFactory&& factory, Trace* trace = nullptr) {
  return run_mc(PlainEngine{circuit}, model, opts, factory, trace);
}

}  // namespace revft::telemetry
