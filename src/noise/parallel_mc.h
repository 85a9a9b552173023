// revft/noise/parallel_mc.h
//
// The Monte-Carlo driver. run_mc runs any engine (plain, checked,
// recovering) over a sharded trial budget on `threads` workers, folds
// the per-batch estimates into rounds, records a convergence snapshot
// per round and decides when to stop.
//
// What a batch is, is decided here alone. detail::run_engine_batch is
// the one place that clears the state, prepares it through the kernel,
// builds the live mask (the first `lanes` lanes; only the last batch of
// a shard can be partial) and counts the batch: the estimate's trials,
// the <prefix>.batches / <prefix>.trials counters and one kBatchAccept
// event per lane word. run_mc calls it batch by batch; detail::run_shard
// is the serial loop over it (run_packed_mc, benches, test references).
// An engine (PlainEngine in noise/monte_carlo.h, detect::CheckedEngine,
// recover::RecoveringEngine) only runs and judges one prepared batch
// and returns its accepted lanes:
//   using Estimate = ...;            // merges exactly under +=, has .trials
//   static constexpr const char* kName, kMetricPrefix;
//   std::uint32_t width() const;
//   Estimate run_batch(PackedSimulator&, PackedState&, Kernel&,
//                      std::uint64_t batch, const LaneMask& live,
//                      LaneMask& accepted, telemetry::ShardTrace*) const;
//   static BernoulliEstimate headline(const Estimate&);  // stop policy
// run_batch applies the circuit to the prepared state, judges the live
// lanes, bumps its own counters and events, and sets `accepted` to the
// live lanes it accepts (plain: judged right; checked: not detected;
// recovering: accepted after retries).
//
// The budget splits into shards of batches_per_shard batches of
// 64 * lane_words trials (plan_shards). A shard's {kernel, simulator
// seeded with the shard's child seed, state} bundle is created at its
// first batch and freed after its last; round r is batch r of every
// shard that has one. One scheduling rule: a worker runs the
// lowest-index shard whose next batch b satisfies
// b < folded_rounds + horizon, for as long as that holds. horizon is
// 1 round when the stop policy is enabled and unbounded otherwise, so
//   * a run nothing can stop runs whole shards, with at most `threads`
//     bundles alive; its rounds complete, and on_snapshot fires, as the
//     last shards finish — often in a burst near the end;
//   * a stoppable run moves one round at a time, and no batch past the
//     stop round ever runs.
//
// Determinism: for a fixed (trials, seed, batches_per_shard,
// lane_words) the estimate, snapshots, stop decision and trace are
// bit-identical at any thread count. The plan and the shard seeds
// depend only on that key, each shard runs its batches in order on its
// own simulator, and estimates merge by exact integer sums, so a
// round's total does not depend on the order its deltas arrive in.
//
// Kernels: factory(shard_index) returns a fresh kernel per shard, so
// per-batch state (e.g. the lane inputs a classifier compares against)
// is never shared between concurrently running shards:
//   void prepare(PackedState&, Xoshiro256&, std::uint64_t batch);
//   bool classify(const PackedState&, int lane, std::uint64_t batch);
// and optionally
//   void classify_batch(const PackedState&, std::uint64_t batch,
//                       LaneMask& wrong);
// prepare fills every lane of a cleared state (rail and check bits left
// zero for the checked engines). classify returning true counts a
// failure; classify_batch sets every lane of `wrong` to what classify
// would return for it. Every engine judges a batch once, through
// kernel_classify (noise/monte_carlo.h): one classify_batch call when
// the kernel has one, else classify on each judged lane in ascending
// order. The factory is called from worker threads and must be safe to
// invoke concurrently.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "noise/monte_carlo.h"
#include "support/stats.h"
#include "telemetry/convergence.h"
#include "telemetry/trace.h"

namespace revft {

struct ParallelMcOptions {
  std::uint64_t trials = 100000;
  std::uint64_t seed = 0x5eedf00dULL;
  /// Worker threads. 0 = REVFT_THREADS env var if set, else
  /// std::thread::hardware_concurrency(). The value never affects the
  /// estimate, only wall-clock time.
  int threads = 0;
  /// Shard granularity in batches of 64 * lane_words trials (16384
  /// trials per full shard at lane_words=1 by default). Part of the
  /// determinism key: changing it changes the RNG stream, changing the
  /// thread count does not.
  std::uint64_t batches_per_shard = 256;
  /// Lane words per circuit bit (noise/lanes.h): each batch simulates
  /// 64 * lane_words trials. Joins batches_per_shard in the
  /// determinism key — changing it changes the stream; 1 reproduces
  /// the legacy 64-lane engine bit for bit.
  unsigned lane_words = 1;
};

/// One unit of work: a contiguous batch range with its own child seed.
struct McShard {
  std::uint64_t index = 0;        ///< position in the plan (merge order)
  std::uint64_t first_batch = 0;  ///< global index of the first batch
  std::uint64_t trials = 0;       ///< trials covered by this shard
  std::uint64_t seed = 0;         ///< child seed for the shard's simulator
};

/// Deterministic shard decomposition of `trials`: every shard spans
/// `batches_per_shard` batches of 64 * lane_words trials (the last may
/// be short, including a partial final batch), and shard seeds are
/// drawn in order from a master Xoshiro256 seeded with `master_seed`.
/// The plan is a pure function of (trials, master_seed,
/// batches_per_shard, lane_words) — never of the thread count.
std::vector<McShard> plan_shards(std::uint64_t trials, std::uint64_t master_seed,
                                 std::uint64_t batches_per_shard,
                                 unsigned lane_words = 1);

/// `requested` if > 0; else the REVFT_THREADS env var if set; else
/// std::thread::hardware_concurrency() (at least 1). REVFT_THREADS must
/// be a positive decimal integer — anything else throws revft::Error.
int resolve_thread_count(int requested);

namespace telemetry {

/// Configuration of one driver run. `mc.trials` is the trial BUDGET
/// (the ceiling an early stop saves against); the other mc fields are
/// the usual determinism key. A default EarlyStopPolicy never stops —
/// the run records snapshots but consumes the whole budget.
struct StreamOptions {
  ParallelMcOptions mc;
  EarlyStopPolicy stop;
  /// Artifact name for CONV_<name>.json (the caller decides whether to
  /// write it; the driver only fills the trajectory).
  std::string name = "stream";
  /// Live progress hook, invoked on the calling thread after every
  /// folded round with the freshly recorded snapshot (==
  /// trajectory.snapshots.back()). Must not mutate the trajectory.
  std::function<void(const ConvergenceSnapshot&,
                     const ConvergenceTrajectory&)>
      on_snapshot;
};

/// A driver run's outcome: the engine's full estimate (stopped or
/// exhausted) plus the convergence trajectory that led there.
template <typename Estimate>
struct StreamResult {
  Estimate estimate{};
  ConvergenceTrajectory trajectory;

  StopReason stop_reason() const noexcept { return trajectory.stop_reason; }
  bool stopped_early() const noexcept { return trajectory.stopped_early(); }
};

}  // namespace telemetry

namespace detail {

/// Lanes of batch `b` (0-based) of a shard of `trials` trials: full
/// batches of `lanes_per_batch`, the last one partial when needed.
constexpr std::uint64_t batch_lanes(std::uint64_t trials, std::uint64_t b,
                                    std::uint64_t lanes_per_batch) {
  return std::min(lanes_per_batch, trials - b * lanes_per_batch);
}

/// The counter `<prefix><leaf>` of `trace`'s registry.
inline std::uint64_t& prefixed_counter(telemetry::ShardTrace& trace,
                                       const char* prefix, const char* leaf) {
  std::string name(prefix);
  name += leaf;
  return trace.metrics().counter(name);
}

/// The batch step (see the file comment): clear and prepare `state`,
/// hand the first `lanes` lanes to the engine as the live mask, and
/// count the batch. Under a tracing `trace` the step registers
/// <prefix>.batches and <prefix>.trials before the engine registers its
/// own metrics (so they lead the registration order), bumps them after
/// it, and emits one kBatchAccept event per lane word carrying that
/// word's accepted lanes.
template <typename Engine, typename Kernel>
typename Engine::Estimate run_engine_batch(const Engine& engine,
                                           PackedSimulator& sim,
                                           PackedState& state, Kernel& kernel,
                                           std::uint64_t batch,
                                           std::uint64_t lanes,
                                           telemetry::ShardTrace* trace) {
  const bool tracing = trace != nullptr && trace->enabled();
  if (tracing) {
    prefixed_counter(*trace, Engine::kMetricPrefix, ".batches");
    prefixed_counter(*trace, Engine::kMetricPrefix, ".trials");
  }
  state.clear();
  kernel.prepare(state, sim.rng(), batch);
  const LaneMask live = LaneMask::first_n(state.lane_words(), lanes);
  LaneMask accepted(state.lane_words());
  typename Engine::Estimate est =
      engine.run_batch(sim, state, kernel, batch, live, accepted, trace);
  est.trials += lanes;
  if (tracing) {
    ++prefixed_counter(*trace, Engine::kMetricPrefix, ".batches");
    prefixed_counter(*trace, Engine::kMetricPrefix, ".trials") += lanes;
    for (unsigned w = 0; w < accepted.words(); ++w) {
      telemetry::Event ev;
      ev.kind = telemetry::EventKind::kBatchAccept;
      ev.shard = trace->shard_index();
      ev.batch = batch;
      ev.lanes = accepted.word(w);
      ev.value = static_cast<std::uint64_t>(std::popcount(ev.lanes));
      trace->emit(ev);
    }
  }
  return est;
}

/// One shard run serially on the caller's simulator and state: `trials`
/// trials in batches of 64 * state.lane_words() from global batch
/// `first_batch` on, each through run_engine_batch, their estimates
/// summed in order.
template <typename Engine, typename Kernel>
typename Engine::Estimate run_shard(const Engine& engine, PackedSimulator& sim,
                                    PackedState& state, Kernel& kernel,
                                    std::uint64_t first_batch,
                                    std::uint64_t trials,
                                    telemetry::ShardTrace* trace = nullptr) {
  const std::uint64_t lanes_per_batch = 64ULL * state.lane_words();
  typename Engine::Estimate est{};
  for (std::uint64_t b = 0; b * lanes_per_batch < trials; ++b)
    est += run_engine_batch(engine, sim, state, kernel, first_batch + b,
                            batch_lanes(trials, b, lanes_per_batch), trace);
  return est;
}

/// The typed halves of run_mc that drive_shards calls back into.
struct ShardHooks {
  /// Any worker, no lock held: run batch `batch` (0-based) of `shard`.
  /// A shard's batches run one at a time and in order.
  std::function<void(std::size_t shard, std::uint64_t batch)> run_batch;
  /// Lock held: hand the batches run since the shard was claimed (from
  /// batch `first` on) to their rounds.
  std::function<void(std::size_t shard, std::uint64_t first)> publish;
  /// Calling thread, no lock held: fold the fully published `round`.
  /// Returning true stops the run.
  std::function<bool(std::uint64_t round)> fold_round;
};

/// The scheduler behind run_mc (see the file comment for the rule; the
/// horizon is 1 round when `stoppable`, else unbounded) on
/// min(threads, shards) workers, the calling thread among them. A shard
/// whose batch throws stops there; every other shard still runs, and
/// once the workers have joined the lowest-index shard's exception is
/// rethrown (then any from fold_round).
void drive_shards(const std::vector<std::uint64_t>& shard_batches, int threads,
                  bool stoppable, const ShardHooks& hooks);

}  // namespace detail

/// The Monte-Carlo driver (see the file comment). `trace` (nullable)
/// collects per-shard telemetry, absorbed in shard-index order, so the
/// metrics and the event stream inherit the bit-identical-across-
/// REVFT_THREADS guarantee.
template <typename Engine, typename KernelFactory>
telemetry::StreamResult<typename Engine::Estimate> run_mc(
    const Engine& engine, const NoiseModel& model,
    const telemetry::StreamOptions& opts, KernelFactory&& factory,
    telemetry::Trace* trace = nullptr) {
  using Estimate = typename Engine::Estimate;
  using Kernel = decltype(factory(std::uint64_t{0}));
  // Members initialized in place, kernel first: no kernel is ever
  // copied or moved.
  struct Bundle {
    Kernel kernel;
    PackedSimulator sim;
    PackedState state;
    Bundle(KernelFactory& f, const McShard& shard, const NoiseModel& m,
           std::uint32_t width, unsigned lane_words)
        : kernel(f(shard.index)), sim(m, shard.seed), state(width, lane_words) {}
  };

  const ParallelMcOptions& mc = opts.mc;
  const std::vector<McShard> shards =
      plan_shards(mc.trials, mc.seed, mc.batches_per_shard, mc.lane_words);
  const std::uint64_t lanes_per_batch = 64ULL * mc.lane_words;
  std::vector<std::uint64_t> batches(shards.size());
  for (const McShard& s : shards)
    batches[s.index] = (s.trials + lanes_per_batch - 1) / lanes_per_batch;

  telemetry::StreamResult<Estimate> result;
  telemetry::ConvergenceTrajectory& traj = result.trajectory;
  traj.name = opts.name;
  traj.engine = Engine::kName;
  traj.key = {mc.trials, mc.seed, mc.batches_per_shard, mc.lane_words};
  traj.policy = opts.stop;

  // One ShardTrace per shard, written only by the worker running the
  // shard and absorbed in shard-index order after the workers join.
  std::vector<telemetry::ShardTrace> shard_traces;
  if (trace != nullptr) shard_traces = trace->make_shards(shards.size());
  // What a shard's worker writes per batch: its bundle and the deltas
  // not yet published (freed on publish). Cache-line aligned so workers
  // on neighbouring shards never share a line.
  struct alignas(64) ShardSlot {
    std::optional<Bundle> bundle;
    std::vector<Estimate> pending;
  };
  std::vector<ShardSlot> slots(shards.size());
  // round_sums[r]: the published deltas of round r, written under the
  // driver lock, read by the fold.
  std::vector<Estimate> round_sums(batches.empty() ? 0 : batches.front());
  auto round_start = std::chrono::steady_clock::now();

  detail::ShardHooks hooks;
  hooks.run_batch = [&](std::size_t i, std::uint64_t b) {
    const McShard& shard = shards[i];
    ShardSlot& slot = slots[i];
    if (b == 0)
      slot.bundle.emplace(factory, shard, model, engine.width(), mc.lane_words);
    Bundle& bundle = *slot.bundle;
    slot.pending.push_back(detail::run_engine_batch(
        engine, bundle.sim, bundle.state, bundle.kernel,
        shard.first_batch + b,
        detail::batch_lanes(shard.trials, b, lanes_per_batch),
        trace != nullptr ? &shard_traces[i] : nullptr));
    if (b + 1 == batches[i]) slot.bundle.reset();
  };
  hooks.publish = [&](std::size_t i, std::uint64_t first) {
    std::vector<Estimate>& pending = slots[i].pending;
    for (std::size_t k = 0; k < pending.size(); ++k)
      round_sums[first + k] += pending[k];
    pending = std::vector<Estimate>();
  };
  hooks.fold_round = [&](std::uint64_t round) {
    result.estimate += round_sums[round];
    const auto now = std::chrono::steady_clock::now();
    traj.wall.round_seconds.push_back(
        std::chrono::duration<double>(now - round_start).count());
    round_start = now;
    const BernoulliEstimate headline = Engine::headline(result.estimate);
    traj.record(round, result.estimate.trials, headline);
    if (opts.on_snapshot) opts.on_snapshot(traj.snapshots.back(), traj);
    traj.stop_reason =
        telemetry::decide_stop(opts.stop, result.estimate.trials, headline);
    return traj.stop_reason != telemetry::StopReason::kNone;
  };
  detail::drive_shards(batches, resolve_thread_count(mc.threads),
                       opts.stop.enabled(), hooks);

  if (traj.stop_reason == telemetry::StopReason::kNone)
    traj.stop_reason = telemetry::StopReason::kExhausted;
  if (trace != nullptr) trace->absorb(shard_traces);
  return result;
}

/// Thread-sharded run of the plain engine over the whole budget: the
/// driver with a policy that never stops.
template <typename KernelFactory>
BernoulliEstimate run_parallel_mc(const Circuit& circuit,
                                  const NoiseModel& model,
                                  const ParallelMcOptions& opts,
                                  KernelFactory&& factory,
                                  telemetry::Trace* trace = nullptr) {
  telemetry::StreamOptions run;
  run.mc = opts;
  return run_mc(PlainEngine{circuit}, model, run, factory, trace).estimate;
}

/// Single-threaded harness: one simulator seeded with opts.seed runs
/// every batch in order (detail::run_shard over the plain engine).
/// `prepare(state, rng, batch)` fills a cleared batch;
/// `classify(state, lane, batch) -> bool` judges one lane (true counts
/// a *failure*) and is called once per counted lane, in order.
template <typename PrepareFn, typename LaneClassifyFn>
BernoulliEstimate run_packed_mc(const Circuit& circuit, const NoiseModel& model,
                                const McOptions& opts, PrepareFn&& prepare,
                                LaneClassifyFn&& classify) {
  struct Kernel {
    PrepareFn& prepare_fn;
    LaneClassifyFn& classify_fn;
    void prepare(PackedState& s, Xoshiro256& rng, std::uint64_t batch) {
      prepare_fn(s, rng, batch);
    }
    bool classify(const PackedState& s, int lane, std::uint64_t batch) {
      return classify_fn(s, lane, batch);
    }
  } kernel{prepare, classify};
  PackedSimulator sim(model, opts.seed);
  PackedState state(circuit.width(), opts.lane_words);
  return detail::run_shard(PlainEngine{circuit}, sim, state, kernel,
                           /*first_batch=*/0, opts.trials);
}

}  // namespace revft
