// bench_telemetry — the observability subsystem, measured.
//
// The telemetry layer (src/telemetry/) promises three things and this
// bench prices all of them:
//
//   1. OVERHEAD: an untraced engine run must not pay for the hooks.
//      Interleaved median-of-ratios ns/op on the checked and
//      recovering machine kernels, three ways — no trace pointer at
//      all (baseline), a null-sink ShardTrace (hooks reached, one
//      branch each), and a full ring sink with metrics. Bars: null
//      sink <= 1.03x the baseline, enabled tracing <= 1.25x (both
//      recorded in the JSON; CI enforces them via telemetry_check
//      --enforce-bars).
//   2. DETERMINISM: the merged metrics registry and event stream are
//      bit-identical across REVFT_THREADS {1, 3, 8} for both the
//      detection and the recovery pipeline (Trace::deterministic_equal
//      — wall-clock ticks excluded by construction).
//   3. PROFILES: the per-block hot-spot table of a traced Monte-Carlo
//      run, cross-checked against the EXHAUSTIVE single-fault census
//      ordering on the 1D and 2D machines — wherever the census counts
//      differ materially the sampled ranking must agree. The segment
//      replay profile of a traced recovery run rides along.
//
// Artifacts: BENCH_telemetry.json, REPORT_telemetry_{1d,2d}.json,
// REPORT_telemetry_recover_1d.json, and Chrome-trace files
// TRACE_telemetry_{1d,recover_1d}.json (open in Perfetto or
// chrome://tracing).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "detect/checked_mc.h"
#include "ft/detect_experiment.h"
#include "ft/experiments.h"
#include "ft/machine_kernel.h"
#include "ft/recover_experiment.h"
#include "local/checked_machine.h"
#include "local/program_cache.h"
#include "recover/plan.h"
#include "recover/recovering_mc.h"
#include "support/artifact.h"
#include "support/table.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/report.h"
#include "telemetry/trace.h"

using namespace revft;

namespace {

/// Same scattered 10-bit workload as bench_local_checked /
/// bench_recover: heavy routing, the regime the machines are built for.
Circuit scattered_workload() {
  Circuit logical(10);
  logical.maj(9, 4, 0)
      .toffoli(0, 7, 9)
      .majinv(4, 1, 8)
      .fredkin(2, 6, 9)
      .swap3(0, 5, 9);
  return logical;
}

/// The census workload: small enough (3 encoded bits) that the
/// exhaustive single-fault census is instant, routed enough that the
/// per-block rails see distinct traffic.
Circuit census_workload() {
  Circuit logical(3);
  logical.toffoli(2, 1, 0).maj(0, 1, 2);
  return logical;
}

// --- 1. hook overhead -------------------------------------------------

/// Overhead rows time three variants of one engine span (the
/// interleaved estimator of bench_common.h): [0] no trace pointer at
/// all, [1] a null-sink ShardTrace (capacity 0), [2] a ring sink with
/// metrics.
using OverheadRow = benchutil::InterleavedTiming;

/// The checked (detection) engine: one span call = `trials` trials.
OverheadRow measure_checked_overhead(const CheckedMachineProgram& program,
                                     const std::vector<unsigned>& truth) {
  const double g = 1e-3;
  const int iters = 60;
  const std::uint64_t trials = 64 * 8;
  const std::uint64_t ops = program.stats.total_ops * (trials / 64);

  // One persistent simulator/state/kernel per variant so every timed
  // block does identical work on identically-shaped state.
  struct Ctx {
    PackedSimulator sim;
    PackedState ps;
    MachineWorkloadKernel kernel;
  };
  auto make_ctx = [&] {
    return Ctx{PackedSimulator(NoiseModel::uniform(g), benchutil::seed_from_env()),
               PackedState(program.checked.circuit.width()),
               make_machine_kernel(program, truth)};
  };
  Ctx base_ctx = make_ctx(), null_ctx = make_ctx(), full_ctx = make_ctx();

  telemetry::TraceConfig null_cfg;
  null_cfg.ring_capacity = 0;  // the null sink
  telemetry::Trace null_trace(null_cfg);
  auto null_shards = null_trace.make_shards(1);
  telemetry::Trace full_trace;  // default 1<<16 ring
  auto full_shards = full_trace.make_shards(1);

  auto span = [&](Ctx& ctx, telemetry::ShardTrace* shard) {
    const auto est = detect::detail::run_checked_mc_span(
        ctx.sim, ctx.ps, program.checked, 0, trials,
        kernel_prepare(ctx.kernel), kernel_classify(ctx.kernel),
        shard);
    benchmark::DoNotOptimize(est.detected);
  };

  return benchutil::interleaved_ns_per_op(
      ops, iters,
      {[&] { span(base_ctx, nullptr); },
       [&] { span(null_ctx, &null_shards[0]); },
       [&] { span(full_ctx, &full_shards[0]); }});
}

/// The recovering engine, block-local policy.
OverheadRow measure_recover_overhead(const CheckedMachineProgram& program,
                                     const std::vector<unsigned>& truth) {
  const double g = 1e-3;
  const int iters = 40;
  const recover::SegmentPlan plan = recover::build_segment_plan(program.checked);
  const recover::RetryPolicy policy = recover::RetryPolicy::block_local();
  const std::uint64_t ops = program.stats.total_ops * 8;

  struct Ctx {
    PackedSimulator sim;
    PackedState ps;
    MachineWorkloadKernel kernel;
  };
  auto make_ctx = [&] {
    return Ctx{PackedSimulator(NoiseModel::uniform(g), benchutil::seed_from_env()),
               PackedState(program.checked.circuit.width()),
               make_machine_kernel(program, truth)};
  };
  Ctx base_ctx = make_ctx(), null_ctx = make_ctx(), full_ctx = make_ctx();

  telemetry::TraceConfig null_cfg;
  null_cfg.ring_capacity = 0;
  telemetry::Trace null_trace(null_cfg);
  auto null_shards = null_trace.make_shards(1);
  telemetry::Trace full_trace;
  auto full_shards = full_trace.make_shards(1);

  auto span = [&](Ctx& ctx, telemetry::ShardTrace* shard) {
    const auto est = recover::run_recovering_mc_span(
        ctx.sim, ctx.ps, program.checked, plan, policy, 0, 64 * 8,
        kernel_prepare(ctx.kernel), kernel_classify(ctx.kernel),
        shard);
    benchmark::DoNotOptimize(est.accepted);
  };

  return benchutil::interleaved_ns_per_op(
      ops, iters,
      {[&] { span(base_ctx, nullptr); },
       [&] { span(null_ctx, &null_shards[0]); },
       [&] { span(full_ctx, &full_shards[0]); }});
}

bool print_overhead(benchutil::JsonResultWriter& json) {
  benchutil::print_header(
      "Telemetry hook overhead per original machine op (64 lanes)",
      "acceptance bars: null sink <= 1.03x baseline, tracing <= 1.25x");

  const Circuit logical = scattered_workload();
  const auto& program =
      ProgramCache::instance()
          .get(MachineKind::k1d, logical, true, recovering_machine_options())
          ->program;
  const auto truth = machine_truth_table(logical);

  // A failing bar verdict is re-measured (benchutil::measure_with_retry).
  const auto badness = [](const OverheadRow& r) {
    return std::max(r.ratio[1] / 1.03, r.ratio[2] / 1.25);
  };

  struct Named {
    const char* label;
    OverheadRow row;
  };
  const Named rows[] = {
      {"checked_1d",
       benchutil::measure_with_retry(
           [&] { return measure_checked_overhead(program, truth); }, badness)},
      {"recovering_1d",
       benchutil::measure_with_retry(
           [&] { return measure_recover_overhead(program, truth); }, badness)},
  };

  bool all_pass = true;
  AsciiTable table({"engine", "baseline ns/op", "null-sink ns/op", "disabled x",
                    "traced ns/op", "enabled x", "bars"});
  for (const Named& n : rows) {
    const bool disabled_ok = n.row.ratio[1] <= 1.03;
    const bool enabled_ok = n.row.ratio[2] <= 1.25;
    all_pass &= disabled_ok && enabled_ok;
    table.add_row({n.label, AsciiTable::fixed(n.row.min_ns_per_op[0], 3),
                   AsciiTable::fixed(n.row.min_ns_per_op[1], 3),
                   AsciiTable::fixed(n.row.ratio[1], 3),
                   AsciiTable::fixed(n.row.min_ns_per_op[2], 3),
                   AsciiTable::fixed(n.row.ratio[2], 3),
                   disabled_ok && enabled_ok ? "PASS" : "FAIL"});
    json.add(n.label, "baseline_ns_per_op", n.row.min_ns_per_op[0]);
    json.add(n.label, "disabled_ns_per_op", n.row.min_ns_per_op[1]);
    json.add(n.label, "enabled_ns_per_op", n.row.min_ns_per_op[2]);
    json.add(n.label, "disabled_overhead", n.row.ratio[1]);
    json.add(n.label, "enabled_overhead", n.row.ratio[2]);
    json.add(n.label, "disabled_within_1_03x", disabled_ok ? 1.0 : 0.0);
    json.add(n.label, "enabled_within_1_25x", enabled_ok ? 1.0 : 0.0);
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "every engine hook is gated on the trace pointer at batch/boundary\n"
      "granularity (never per gate), and the null sink reduces emit() to\n"
      "one predictable branch — so an untraced run executes the same\n"
      "instruction stream the engines had before telemetry existed.\n");
  return all_pass;
}

// --- 2. determinism across worker counts ------------------------------

bool print_determinism(benchutil::JsonResultWriter& json) {
  benchutil::print_header(
      "Telemetry determinism: merged metrics + events vs REVFT_THREADS",
      "engine contract (no paper analogue) — ticks excluded by design");

  const Circuit logical = scattered_workload();
  const auto& program =
      ProgramCache::instance()
          .get(MachineKind::k1d, logical, true, recovering_machine_options())
          ->program;

  CheckedMachineExperiment::Config det_config;
  det_config.trials = benchutil::trials_from_env(100000);
  det_config.seed = benchutil::seed_from_env();
  const CheckedMachineExperiment det(program, logical, det_config);

  RecoveryExperiment::Config rec_config;
  rec_config.trials = det_config.trials;
  rec_config.seed = det_config.seed;
  const RecoveryExperiment rec(program, logical, rec_config);

  const int thread_counts[3] = {1, 3, 8};
  telemetry::Trace det_traces[3];
  telemetry::Trace rec_traces[3];
  for (int i = 0; i < 3; ++i) {
    (void)det.run(1e-3, thread_counts[i], &det_traces[i]);
    (void)rec.run(3e-3, recover::RetryPolicy::block_local(), thread_counts[i],
                  &rec_traces[i]);
  }
  const bool det_ok = det_traces[0].deterministic_equal(det_traces[1]) &&
                      det_traces[0].deterministic_equal(det_traces[2]);
  const bool rec_ok = rec_traces[0].deterministic_equal(rec_traces[1]) &&
                      rec_traces[0].deterministic_equal(rec_traces[2]);

  AsciiTable table({"pipeline", "events", "emitted", "dropped", "metrics",
                    "bit-identical {1,3,8}"});
  table.add_row({"detect", AsciiTable::cell(static_cast<std::uint64_t>(det_traces[0].events().size())),
                 AsciiTable::cell(det_traces[0].emitted()),
                 AsciiTable::cell(det_traces[0].dropped()),
                 AsciiTable::cell(static_cast<std::uint64_t>(det_traces[0].metrics().entries().size())),
                 det_ok ? "yes" : "NO"});
  table.add_row({"recover", AsciiTable::cell(static_cast<std::uint64_t>(rec_traces[0].events().size())),
                 AsciiTable::cell(rec_traces[0].emitted()),
                 AsciiTable::cell(rec_traces[0].dropped()),
                 AsciiTable::cell(static_cast<std::uint64_t>(rec_traces[0].metrics().entries().size())),
                 rec_ok ? "yes" : "NO"});
  std::printf("%s", table.str().c_str());
  std::printf("merged in shard-index order, logical coordinates only —\n"
              "wall-clock lives in a parallel array the comparison ignores.\n");
  json.add("determinism", "detect_bit_identical", det_ok ? 1.0 : 0.0);
  json.add("determinism", "recover_bit_identical", rec_ok ? 1.0 : 0.0);
  json.add("determinism", "detect_events", det_traces[0].emitted());
  json.add("determinism", "recover_events", rec_traces[0].emitted());
  return det_ok && rec_ok;
}

// --- 3. hot-spot profiles vs the exhaustive census --------------------

/// Pairwise ranking agreement: wherever the census separates two rails
/// materially (>= 25% more scenarios), the sampled counts must order
/// them the same way.
bool ranking_matches(const std::vector<std::uint64_t>& census,
                     const std::vector<std::uint64_t>& sampled) {
  for (std::size_t a = 0; a < census.size(); ++a)
    for (std::size_t b = 0; b < census.size(); ++b) {
      if (census[a] < census[b] + (census[b] + 3) / 4) continue;
      if (sampled[a] < sampled[b]) return false;
    }
  return true;
}

/// REPORT_<report.name>.json, plus TRACE_<report.name>.json (a Chrome
/// trace of `trace` Perfetto opens) when `export_chrome` is set.
void write_profile(const telemetry::RunReport& report,
                   const telemetry::Trace& trace, bool export_chrome,
                   const std::string& process_name) {
  const std::string report_path =
      artifact::write(artifact::Kind::kReport, report.name, report.to_json());
  if (report_path.empty()) return;
  std::printf("[json] report written to %s\n", report_path.c_str());
  if (!export_chrome) return;
  const std::string trace_path =
      artifact::write(artifact::Kind::kTrace, report.name,
                      telemetry::chrome_trace_json(trace, process_name));
  std::printf("[json] chrome trace written to %s (open in Perfetto)\n",
              trace_path.c_str());
}

bool profile_machine(const char* label, const CheckedMachineProgram& program,
                     const Circuit& logical, benchutil::JsonResultWriter& json,
                     bool export_chrome) {
  const auto census = machine_detection_census(program, logical);

  CheckedMachineExperiment::Config config;
  config.trials = benchutil::trials_from_env(200000);
  config.seed = benchutil::seed_from_env();
  const CheckedMachineExperiment exp(program, logical, config);

  telemetry::TraceConfig trace_cfg;
  trace_cfg.wall_clock = true;  // Chrome export gets real timestamps
  telemetry::Trace trace(trace_cfg);
  const auto est = exp.run(1e-2, -1, &trace);

  // The segment table rides along even in a detection-only profile:
  // the static plan columns (worst-component share, straddling ops)
  // come from the same program, so CI's enforce-bars pass can tell
  // "bars met" from "report never profiled anything".
  const recover::SegmentPlan seg_plan =
      recover::build_segment_plan(program.checked);
  telemetry::RunReport report = telemetry::build_run_report(
      std::string("telemetry_") + label, program.checked, &est, nullptr,
      &seg_plan, &trace);
  report.seed = config.seed;

  std::vector<std::uint64_t> sampled;
  for (const auto& row : report.rails) sampled.push_back(row.fired);
  const bool match = ranking_matches(census.rail_detected, sampled);

  AsciiTable table({"rail", "cells", "census fired", "census share",
                    "sampled fired", "sampled rate"});
  const double census_total =
      static_cast<double>(census.total_rail_detected());
  for (const auto& row : report.rails) {
    const std::uint64_t cf = census.rail_detected[row.rail];
    table.add_row({AsciiTable::cell(static_cast<std::uint64_t>(row.rail)),
                   AsciiTable::cell(static_cast<std::uint64_t>(row.cells.size())), AsciiTable::cell(cf),
                   census_total > 0.0
                       ? AsciiTable::fixed(static_cast<double>(cf) / census_total, 3)
                       : std::string("-"),
                   AsciiTable::cell(row.fired), AsciiTable::fixed(row.rate, 4)});
  }
  std::printf("%s machine (%zu rails, %llu census scenarios):\n%s", label,
              report.rails.size(),
              static_cast<unsigned long long>(census.scenarios),
              table.str().c_str());
  std::printf("hot ranking:");
  for (const std::uint32_t r : report.hot_rails) std::printf(" %u", r);
  std::printf("  |  census-consistent: %s\n\n", match ? "PASS" : "FAIL");

  json.add(std::string(label) + "_profile", "rails",
           static_cast<std::uint64_t>(report.rails.size()));
  json.add(std::string(label) + "_profile", "census_scenarios",
           census.scenarios);
  json.add(std::string(label) + "_profile", "sampled_rail_sum",
           est.total_detected());
  json.add(std::string(label) + "_profile", "ranking_matches_census",
           match ? 1.0 : 0.0);
  json::Value hot = json::Value::array();
  for (const std::uint32_t r : report.hot_rails)
    hot.push_back(static_cast<std::uint64_t>(r));
  json.add(std::string(label) + "_profile", "hot_rails", hot);

  write_profile(report, trace, export_chrome,
                std::string("bench_telemetry ") + label);
  return match;
}

bool print_profiles(benchutil::JsonResultWriter& json) {
  benchutil::print_header(
      "Per-block hot-spot profiles vs the exhaustive single-fault census",
      "telemetry::RunReport — the artifact the adaptivity items consume");

  const Circuit logical = census_workload();
  bool all = true;
  all &= profile_machine("1d", CheckedMachine1d(3).compile(logical), logical,
                         json, /*export_chrome=*/true);
  all &= profile_machine("2d", CheckedMachine2d(3).compile(logical), logical,
                         json, /*export_chrome=*/false);
  std::printf(
      "the census enumerates EVERY single-fault scenario, so its per-rail\n"
      "counts are the ground-truth hot-spot ranking; the traced Monte-Carlo\n"
      "table must agree wherever the census separates two rails materially\n"
      "(the same pairwise bar tests/test_telemetry.cpp enforces).\n");
  return all;
}

void print_recovery_profile(benchutil::JsonResultWriter& json) {
  benchutil::print_header(
      "Segment replay profile of a traced recovery run",
      "ROADMAP scheduling item — straddling ops are WHY segments replay big");

  const Circuit logical = scattered_workload();
  RecoveryExperiment::Config config;
  config.trials = benchutil::trials_from_env(100000);
  config.seed = benchutil::seed_from_env();
  const RecoveryExperiment exp(
      CheckedMachine1d(10, true, recovering_machine_options()).compile(logical),
      logical, config);

  telemetry::TraceConfig trace_cfg;
  trace_cfg.wall_clock = true;
  telemetry::Trace trace(trace_cfg);
  const auto est =
      exp.run(3e-3, recover::RetryPolicy::block_local(), -1, &trace);

  telemetry::RunReport report = telemetry::build_run_report(
      "telemetry_recover_1d", exp.program().checked, nullptr, &est,
      &exp.plan(), &trace);
  report.seed = config.seed;

  AsciiTable table({"segment", "ops", "replays", "replay ops", "max comp share",
                    "straddling ops"});
  for (const auto& seg : report.segments)
    table.add_row({AsciiTable::cell(static_cast<std::uint64_t>(seg.segment)),
                   AsciiTable::cell(static_cast<std::uint64_t>(seg.end - seg.begin)),
                   AsciiTable::cell(seg.replays),
                   AsciiTable::cell(seg.replay_ops),
                   AsciiTable::fixed(seg.max_component_share, 3),
                   AsciiTable::cell(static_cast<std::uint64_t>(seg.straddling_ops.size()))});
  std::printf("%s", table.str().c_str());
  std::printf("local retries %llu, restarts %llu, rail events %llu\n",
              static_cast<unsigned long long>(est.local_retries),
              static_cast<unsigned long long>(est.program_restarts),
              static_cast<unsigned long long>(est.total_rail_events()));

  std::uint64_t replay_ops_total = 0;
  for (const auto& seg : report.segments) replay_ops_total += seg.replay_ops;
  json.add("recover_profile", "segments",
           static_cast<std::uint64_t>(report.segments.size()));
  json.add("recover_profile", "local_retries", est.local_retries);
  json.add("recover_profile", "replay_ops_total", replay_ops_total);
  json.add("recover_profile", "events_emitted", trace.emitted());

  write_profile(report, trace, /*export_chrome=*/true,
                "bench_telemetry recover_1d");
}

// --- google-benchmark kernels -----------------------------------------

void BM_EmitEvent(benchmark::State& state) {
  telemetry::Trace trace;
  auto shards = trace.make_shards(1);
  telemetry::Event e;
  e.kind = telemetry::EventKind::kRailFired;
  std::uint64_t batch = 0;
  for (auto _ : state) {
    e.batch = batch++;
    shards[0].emit(e);
  }
  benchmark::DoNotOptimize(shards[0].emitted());
}
BENCHMARK(BM_EmitEvent);

void BM_EmitEventNullSink(benchmark::State& state) {
  telemetry::TraceConfig cfg;
  cfg.ring_capacity = 0;
  telemetry::Trace trace(cfg);
  auto shards = trace.make_shards(1);
  telemetry::Event e;
  for (auto _ : state) shards[0].emit(e);
  benchmark::DoNotOptimize(shards[0].emitted());
}
BENCHMARK(BM_EmitEventNullSink);

void BM_TracedCheckedMachine1d(benchmark::State& state) {
  const Circuit logical = scattered_workload();
  const auto& program =
      ProgramCache::instance()
          .get(MachineKind::k1d, logical, true, recovering_machine_options())
          ->program;
  const auto truth = machine_truth_table(logical);
  PackedSimulator sim(NoiseModel::uniform(1e-3), benchutil::seed_from_env());
  PackedState ps(program.checked.circuit.width());
  MachineWorkloadKernel kernel = make_machine_kernel(program, truth);
  telemetry::Trace trace;
  auto shards = trace.make_shards(1);
  std::uint64_t batch = 0;
  for (auto _ : state) {
    const auto est = detect::detail::run_checked_mc_span(
        sim, ps, program.checked, batch++, 64,
        kernel_prepare(kernel), kernel_classify(kernel),
        &shards[0]);
    benchmark::DoNotOptimize(est.detected);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(program.stats.total_ops) *
                          64);
}
BENCHMARK(BM_TracedCheckedMachine1d);

}  // namespace

int main(int argc, char** argv) {
  benchutil::JsonResultWriter json("telemetry");
  benchutil::stamp_run_meta(json, benchutil::trials_from_env(100000),
                            benchutil::seed_from_env());

  const bool overhead_ok = print_overhead(json);
  const bool determinism_ok = print_determinism(json);
  const bool profiles_ok = print_profiles(json);
  print_recovery_profile(json);
  json.add("summary", "overhead_all_pass", overhead_ok ? 1.0 : 0.0);
  json.add("summary", "determinism_all_pass", determinism_ok ? 1.0 : 0.0);
  json.add("summary", "profiles_all_pass", profiles_ok ? 1.0 : 0.0);
  json.write();

  std::printf("\n-- kernel timings --\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
