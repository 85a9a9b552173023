// perfbench/jobs.h
//
// The benchmark's reference jobs. A workload is a set of jobs that a
// user runs one after another, each to its answer (closed loop, one
// client). Building a workload is its set-up: the cold compile of
// every program the jobs run, timed stage by stage. A job is one call
// into an engine's public entry point at a fixed (g, lane_words,
// trials, batches_per_shard); its seed and thread count are chosen per
// call, so the same job runs at N threads and at 1 thread on one seed
// and the two answers are compared bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "detect/checked_mc.h"
#include "recover/retry.h"
#include "rev/circuit.h"
#include "spans.h"
#include "support/stats.h"
#include "telemetry/convergence.h"

namespace perfbench {

enum class Engine { kPlain, kStream, kChecked, kRecover };
const char* engine_name(Engine engine) noexcept;

/// One job run: the engine's whole estimate plus its timing.
struct Outcome {
  Engine engine = Engine::kPlain;
  revft::BernoulliEstimate plain;              ///< kPlain, kStream
  revft::detect::DetectionEstimate checked;    ///< kChecked
  revft::recover::RecoveryEstimate recovered;  ///< kRecover
  std::vector<revft::telemetry::ConvergenceSnapshot> snapshots;  ///< kStream
  std::string stop_reason;                     ///< kStream
  std::uint64_t shards = 0;
  /// Merged rounds (kStream), else batches per shard.
  std::uint64_t rounds = 0;

  std::int64_t start_ns = 0;  ///< engine call
  std::int64_t end_ns = 0;    ///< estimate returned
  std::vector<std::int64_t> snapshot_ns;  ///< on_snapshot arrivals (kStream)
  std::vector<ShardSlot> slots;           ///< traced runs only
  std::uint64_t trace_events = 0;         ///< traced runs only

  double wall_s() const noexcept { return (end_ns - start_ns) / 1e9; }
  std::uint64_t trials() const noexcept;    ///< trials consumed
  std::uint64_t accepted() const noexcept;  ///< outputs delivered
  std::uint64_t wrong() const noexcept;     ///< wrong delivered outputs
  std::uint64_t detected() const noexcept;  ///< trials a check flagged
  /// Bit-identical answers (every estimate field; for streams also the
  /// snapshot series and stop reason).
  bool same_answer(const Outcome& other) const;
  std::string summary() const;
};

struct Job {
  std::string name;
  Engine engine = Engine::kPlain;
  std::string policy;  ///< retry policy label (kRecover), else empty
  double g = 0.0;
  unsigned lane_words = 1;
  std::uint64_t trials = 0;  ///< trial count (trial budget for streams)
  std::uint64_t batches_per_shard = 0;
  std::uint64_t shards = 0;
  /// The circuit the engine executes (railed circuit for checked
  /// engines); owned by the workload.
  const revft::Circuit* circuit = nullptr;
  const revft::detect::CheckedCircuit* checked = nullptr;
  /// run(threads, seed, g, traced). Traced runs wrap every shard kernel
  /// in a TimedKernel and hand the engine a telemetry::Trace.
  std::function<Outcome(int, std::uint64_t, double, bool)> run;
};

/// One timed set-up call. `metric` names the per-layer metric it
/// counts toward (ft.concat_s, local.route_s, local.schedule_s,
/// detect.rail_s, recover.plan_s).
struct Stage {
  std::string metric;
  std::string label;  ///< e.g. "route 1d"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct Workload {
  std::string name;
  std::vector<Job> jobs;
  /// Set-up stage calls of this build, in call order.
  std::vector<Stage> stages;
  /// Compiled artefacts the jobs point into.
  std::shared_ptr<const void> owned;
  /// Checks the benchmark's own compile pipeline and kernels against
  /// the library's drivers (ft/ experiments, CheckedMachine1d/2d) on a
  /// small instance; returns one message per check with ok/failed.
  std::function<std::vector<std::pair<bool, std::string>>(std::uint64_t seed,
                                                          int threads)>
      cross_check;
};

const std::vector<std::string>& workload_names();

/// Builds (compiles) the named workload; throws std::invalid_argument
/// for an unknown name. Every call compiles from scratch.
Workload build_workload(const std::string& name);

}  // namespace perfbench
