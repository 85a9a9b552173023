#include "ft/recover_experiment.h"

#include "ft/machine_kernel.h"
#include "support/error.h"

namespace revft {

CheckedMachineOptions recovering_machine_options() {
  CheckedMachineOptions opts;  // per-block rails + zero checks (defaults)
  opts.rail_check_every_boundary = true;  // localize violations per segment
  return opts;
}

RecoveryExperiment::RecoveryExperiment(CheckedMachineProgram program,
                                       const Circuit& logical,
                                       const Config& config)
    : program_(std::move(program)), config_(config) {
  REVFT_CHECK_MSG(logical.width() == program_.logical_bits,
                  "RecoveryExperiment: program/logical width mismatch");
  plan_ = recover::build_segment_plan(program_.checked);
  truth_ = machine_truth_table(logical);
}

recover::RecoveryEstimate RecoveryExperiment::run(
    double g, const recover::RetryPolicy& policy, int threads,
    telemetry::Trace* trace) const {
  telemetry::StreamOptions opts;  // never stops
  opts.mc.threads = threads < 0 ? config_.threads : threads;
  return run_streaming(g, policy, opts, trace).estimate;
}

telemetry::StreamResult<recover::RecoveryEstimate>
RecoveryExperiment::run_streaming(double g, const recover::RetryPolicy& policy,
                                  const telemetry::StreamOptions& stream,
                                  telemetry::Trace* trace) const {
  NoiseModel model = NoiseModel::uniform(g);
  if (!config_.noisy_init) model.with_perfect_init();

  telemetry::StreamOptions opts = stream;
  opts.mc.trials = config_.trials;
  opts.mc.seed = config_.seed;
  if (opts.mc.threads <= 0) opts.mc.threads = config_.threads;
  opts.mc.lane_words = config_.lane_words;

  return run_mc(
      recover::RecoveringEngine{program_.checked, plan_, policy}, model, opts,
      [&](std::uint64_t) { return make_machine_kernel(program_, truth_); },
      trace);
}

}  // namespace revft
