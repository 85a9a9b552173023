// bench_fig7_local1d — reproduces Fig 7 and §3.2 (the 1D local
// scheme), and quantifies a construction-level finding the paper's
// accounting misses (DESIGN.md).
//
// Construction checks:
//   * Fig 7 recovery = 6 MAJ/MAJ⁻¹ + 9 SWAPs (4 SWAP3 + 1 SWAP) +
//     2 init3 = 13 ops (11 without init), nearest-neighbour, and
//     layout-preserving (data returns to cells 0,3,6);
//   * full cycle accounting 12 + 3 + 12 + 13 = G = 40 → ρ₁ = 1/2340
//     (38 → 1/2109 with perfect init); ~an order of magnitude below 2D.
//
// Finding: exhaustive fault injection shows 48/5472 single-fault
// scenarios produce a logical error (all in the pre-gate interleave,
// where data bits of different codewords must swap past each other and
// the transversal gate then propagates control damage onto a single
// target codeword). The measured logical error therefore carries a
// linear term p ≈ 0.75 g at small g — barely below the bare gate's
// 0.875 g — so the single-level 1D cycle provides almost no
// protection in this strict model. The paper's own §3.3 remedy (2D
// levels below 1D) removes the linear term: with any inner encoding, a
// single physical fault can no longer corrupt a whole code bit of two
// codewords at once.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "analysis/threshold.h"
#include "bench_common.h"
#include "code/repetition.h"
#include "ft/experiments.h"
#include "local/lattice.h"
#include "local/scheme1d.h"
#include "local/scheme2d.h"
#include "noise/injection.h"
#include "rev/render.h"
#include "rev/simulator.h"
#include "support/table.h"

using namespace revft;

namespace {

void print_construction() {
  benchutil::print_header("Fig 7 / §3.2: the 1D nearest-neighbour scheme",
                          "Figure 7, Section 3.2");

  const Ec1d ec = make_ec_1d(true);
  std::printf("Fig 7 recovery stage (line order q0,q3,q6,q1,q4,q7,q2,q5,q8):\n%s",
              render_ascii(ec.circuit).c_str());
  const auto h = ec.circuit.histogram();
  AsciiTable counts({"component", "[paper]", "[measured]"});
  counts.add_row({"MAJ + MAJ^-1 gates", "6",
                  AsciiTable::cell(h.of(GateKind::kMaj) +
                                   h.of(GateKind::kMajInv))});
  counts.add_row({"raw adjacent SWAPs", "9", AsciiTable::cell(ec.raw_swaps)});
  counts.add_row({"packed as SWAP3 / SWAP", "4 / 1",
                  AsciiTable::cell(ec.swap3_ops) + " / " +
                      AsciiTable::cell(ec.swap_ops)});
  counts.add_row({"3-bit initializations", "2",
                  AsciiTable::cell(h.of(GateKind::kInit3))});
  counts.add_row({"total ops (with init)", "13",
                  AsciiTable::cell(static_cast<std::uint64_t>(ec.circuit.size()))});
  counts.add_row(
      {"total ops (without init)", "11",
       AsciiTable::cell(
           static_cast<std::uint64_t>(make_ec_1d(false).circuit.size()))});
  std::printf("%s", counts.str().c_str());
  std::printf("nearest-neighbour (init exempt, as the paper counts it): %s\n",
              check_locality_1d(ec.circuit).ok ? "yes" : "NO");
  std::printf("layout self-reproducing (data back at cells 0,3,6): %s\n\n",
              ec.data_before == ec.data_after ? "yes" : "NO");

  AsciiTable acc({"accounting", "G", "threshold"});
  acc.add_row({"12 SWAP3 + 3 gates + 12 SWAP3 + 13 EC, with init", "40",
               AsciiTable::reciprocal(threshold_for_ops(40))});
  acc.add_row({"same, perfect init", "38",
               AsciiTable::reciprocal(threshold_for_ops(38))});
  std::printf("full-cycle per-codeword accounting:\n%s", acc.str().c_str());
  std::printf("1D/2D threshold ratio: %.2fx worse  [paper: ~an order of "
              "magnitude]\n",
              threshold_for_ops(14) / threshold_for_ops(40));
}

void print_fault_census() {
  const Cycle1d cycle = make_cycle_1d(GateKind::kToffoli, true);
  std::size_t first_gate_op = 0;
  while (cycle.circuit.op(first_gate_op).kind == GateKind::kSwap3 ||
         cycle.circuit.op(first_gate_op).kind == GateKind::kSwap)
    ++first_gate_op;

  std::size_t fatal = 0, scenarios = 0, fatal_in_interleave = 0;
  double linear_coeff = 0.0;
  for (unsigned input = 0; input < 8; ++input) {
    const unsigned expected = gate_apply_local(GateKind::kToffoli, input);
    StateVector prepared(27);
    for (std::uint32_t b = 0; b < 3; ++b)
      for (auto bit : cycle.data[b])
        prepared.set_bit(bit, static_cast<std::uint8_t>((input >> b) & 1u));
    for (const auto& fault : enumerate_single_faults(cycle.circuit)) {
      ++scenarios;
      const StateVector out = apply_with_faults(cycle.circuit, prepared, {fault});
      for (std::uint32_t b = 0; b < 3; ++b) {
        const int decoded = majority3(out.bit(cycle.data[b][0]),
                                      out.bit(cycle.data[b][1]),
                                      out.bit(cycle.data[b][2]));
        if (decoded != static_cast<int>((expected >> b) & 1u)) {
          ++fatal;
          if (fault.op_index < first_gate_op) ++fatal_in_interleave;
          linear_coeff +=
              1.0 / (8.0 * static_cast<double>(
                               1u << cycle.circuit.op(fault.op_index).arity()));
          break;
        }
      }
    }
  }
  std::printf(
      "\nFINDING — exhaustive single-fault census of the full 1D cycle:\n"
      "  fatal scenarios: %zu of %zu (%.2f%%), all in the pre-gate "
      "interleave: %s\n"
      "  exact linear coefficient: p_L ~ %.3f g + O(g^2) as g -> 0\n"
      "  [bare Toffoli: p ~ 0.875 g]  ->  single-level 1D encoding nets only\n"
      "  a ~15%% improvement at small g; the paper's G = 40 quadratic\n"
      "  accounting misses this cross-codeword swap-then-propagate path.\n"
      "  Remedy per §3.3: concatenate 2D levels below 1D (see "
      "bench_table2_mixing).\n",
      fatal, scenarios, 100.0 * static_cast<double>(fatal) /
                            static_cast<double>(scenarios),
      fatal == fatal_in_interleave ? "yes" : "NO",
      linear_coeff);
}

void print_monte_carlo() {
  const std::uint64_t trials = benchutil::trials_from_env(1000000);
  std::printf("\nMonte-Carlo: per-cycle logical error, all three schemes, "
              "%llu trials/point\n",
              static_cast<unsigned long long>(trials));

  benchutil::JsonResultWriter json("fig7_local1d");
  benchutil::stamp_run_meta(json, trials, benchutil::seed_from_env());

  LogicalGateExperimentConfig nl_config;
  nl_config.level = 1;
  nl_config.trials = trials;
  nl_config.seed = benchutil::seed_from_env();
  const LogicalGateExperiment nonlocal(nl_config);

  const Cycle2d c2d = make_cycle_2d(GateKind::kToffoli, true);
  CodewordCycleExperiment::Config config2d;
  config2d.trials = trials;
  config2d.seed = benchutil::seed_from_env() + 1;
  const CodewordCycleExperiment local2d(c2d.circuit, c2d.data_before,
                                        c2d.data_after, config2d,
                                        c2d.recovery_boundaries);

  const Cycle1d c1d = make_cycle_1d(GateKind::kToffoli, true);
  CodewordCycleExperiment::Config config1d;
  config1d.trials = trials;
  config1d.seed = benchutil::seed_from_env() + 2;
  const CodewordCycleExperiment local1d(c1d.circuit, c1d.data, c1d.data,
                                        config1d, c1d.recovery_boundaries);

  AsciiTable table({"g", "non-local [meas]", "2D [meas]", "1D [meas]",
                    "1D p/g", "1D detect", "1D silent",
                    "ordering non-local<=2D<=1D?"});
  for (double g : {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2}) {
    const double p_nl = nonlocal.run(g).rate();
    const double p_2d = local2d.run(g).rate();
    const double p_1d = local1d.run(g).rate();
    // The 1D cycle through the checked engine: the linear-term faults
    // found above are all flagged (detected), so the silent column
    // falls back to quadratic.
    const auto checked = local1d.run_checked(g);
    const double silent = checked.silent_rate();
    const std::string g_label = AsciiTable::sci(g, 1);
    json.add("nonlocal", g_label, p_nl);
    json.add("local2d", g_label, p_2d);
    json.add("local1d", g_label, p_1d);
    json.add("local1d_detected", g_label, checked.detected_rate());
    json.add("local1d_silent", g_label, silent);
    table.add_row({g_label, AsciiTable::sci(p_nl, 2),
                   AsciiTable::sci(p_2d, 2), AsciiTable::sci(p_1d, 2),
                   AsciiTable::fixed(p_1d / g, 3),
                   AsciiTable::fixed(checked.detected_rate(), 3),
                   AsciiTable::sci(silent, 2),
                   (p_nl <= p_2d * 1.2 && p_2d <= p_1d * 1.2) ? "yes" : "~"});
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "[paper shape] 1D pays heavily for routing (threshold 1/2340 vs 1/273\n"
      "vs 1/108 in paper accounting). Measured: the 1D column approaches\n"
      "0.75 g at small g (the linear term found above), while non-local and\n"
      "2D keep falling quadratically. The detect/silent columns run the\n"
      "same cycle under the checked engine (parity rail + recovery-boundary\n"
      "zero checks): every linear-term fault is flagged, so post-selection\n"
      "restores a quadratic silent-error floor — see bench_local_checked.\n");
  json.write();
}

void BM_Cycle1dMc(benchmark::State& state) {
  const Cycle1d cycle = make_cycle_1d(GateKind::kToffoli, true);
  CodewordCycleExperiment::Config config;
  config.trials = 64 * 100;
  const CodewordCycleExperiment exp(cycle.circuit, cycle.data, cycle.data,
                                    config);
  for (auto _ : state) benchmark::DoNotOptimize(exp.run(1e-2));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(config.trials));
}
BENCHMARK(BM_Cycle1dMc);

void BM_MakeCycle1d(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(make_cycle_1d(GateKind::kToffoli, true));
}
BENCHMARK(BM_MakeCycle1d);

}  // namespace

int main(int argc, char** argv) {
  print_construction();
  print_fault_census();
  print_monte_carlo();
  std::printf("\n-- kernel timings --\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
