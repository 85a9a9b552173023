// Multi-word packed engine tests: the lane_words ∈ {1,2,4,8} widening
// of the 64-lane Monte-Carlo core.
//
// The two pinned contracts of the widening:
//   1. lane_words = 1 IS the legacy engine — same RNG stream, same
//      masks, same estimates bit for bit. The pinned constants below
//      were recorded on the pre-widening tree (the legacy code is
//      gone, so these numbers are the only ground truth).
//   2. Any fixed lane_words is bit-identical across REVFT_THREADS:
//      the width is part of the determinism key (like
//      batches_per_shard), the thread count never is.
//
// Plus: batched mask draws consume the identical RNG stream as
// sequential draws (the geometric gap spans word boundaries), ideal
// gate kernels agree with the scalar reference simulator at every
// width, different widths agree statistically (they run DIFFERENT
// trials — same distribution, different stream; for the recovering
// engine, whose retries run lane-compacted at W > 1, this is the
// contract that replaces stream identity), checkpoint spans mirror the
// checkpoint groups and the engines refuse circuits without them,
// multi-word checkpoint blends and lane
// gathers/scatters move exactly the selected lanes, and the
// compiled-program cache serves hits without recompiling.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "detect/checked_mc.h"
#include "detect/rail.h"
#include "ft/experiments.h"
#include "ft/machine_kernel.h"
#include "ft/recover_experiment.h"
#include "local/checked_machine.h"
#include "local/machine1d.h"
#include "local/program_cache.h"
#include "noise/lanes.h"
#include "noise/packed_sim.h"
#include "noise/parallel_mc.h"
#include "recover/checkpoint.h"
#include "recover/plan.h"
#include "recover/recovering_mc.h"
#include "rev/simulator.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/stats.h"
#include "telemetry/metrics.h"
#include "test_util.h"

namespace revft {
namespace {

/// The scattered 10-bit workload of bench_local_checked/bench_recover
/// — also the workload the legacy baselines below were recorded on.
Circuit scattered10() {
  Circuit logical(10);
  logical.maj(9, 4, 0)
      .toffoli(0, 7, 9)
      .majinv(4, 1, 8)
      .fredkin(2, 6, 9)
      .swap3(0, 5, 9);
  return logical;
}

// --- LaneMask ---------------------------------------------------------

TEST(LaneMask, FirstNBuildsPartialLiveMasks) {
  for (unsigned W : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(LaneMask::first_n(W, 0).popcount(), 0u);
    EXPECT_TRUE(LaneMask::first_n(W, 0).none());
    EXPECT_EQ(LaneMask::first_n(W, 64 * W).popcount(), 64 * W);
    const LaneMask partial = LaneMask::first_n(W, 64 * W - 3);
    EXPECT_EQ(partial.popcount(), 64 * W - 3);
    EXPECT_TRUE(partial.test(0));
    EXPECT_FALSE(partial.test(static_cast<int>(64 * W - 1)));
  }
  // A partial word in the middle of the run.
  const LaneMask m = LaneMask::first_n(4, 70);
  EXPECT_EQ(m.word(0), ~0ULL);
  EXPECT_EQ(m.word(1), 0x3FULL);
  EXPECT_EQ(m.word(2), 0ULL);
}

TEST(LaneMask, SetResetRemoveAndOperators) {
  LaneMask a(4);
  a.set(1);
  a.set(64);
  a.set(255);
  EXPECT_EQ(a.popcount(), 3u);
  EXPECT_TRUE(a.test(64));
  a.reset(64);
  EXPECT_FALSE(a.test(64));

  LaneMask b(4);
  b.set(1);
  b.set(200);
  const LaneMask both = a | b;
  EXPECT_EQ(both.popcount(), 3u);  // {1, 200, 255}
  LaneMask c = both;
  c.remove(b);  // strip {1, 200}
  EXPECT_EQ(c.popcount(), 1u);
  EXPECT_TRUE(c.test(255));
  EXPECT_EQ((a & b).popcount(), 1u);
  EXPECT_TRUE((a & b).test(1));
}

// --- mask-stream pinning (legacy values, recorded pre-widening) -------

TEST(MaskStream, ThresholdPathPinnedToLegacyStream) {
  Xoshiro256 rng(42);
  BernoulliMaskStream s(0.2, &rng);
  const std::uint64_t expected[4] = {0x50202000300001ULL, 0x6824359801006027ULL,
                                     0x2914984444204210ULL,
                                     0x805108082420802ULL};
  for (const std::uint64_t e : expected) EXPECT_EQ(s.next_mask(), e);
}

TEST(MaskStream, GeometricPathPinnedToLegacyStream) {
  Xoshiro256 rng(42);
  BernoulliMaskStream s(0.01, &rng);
  const std::uint64_t expected[16] = {
      0x0ULL,          0x0ULL,  0x0ULL,     0x40000000000000ULL,
      0x0ULL,          0x4000000000800000ULL,
      0x4000000c0ULL,  0x1000000100008ULL,
      0x4000000000ULL, 0x2000ULL,
      0x0ULL,          0x80000100ULL,
      0x0ULL,          0x8004000000010000ULL,
      0x1000000000000ULL, 0x1000000002ULL};
  for (const std::uint64_t e : expected) EXPECT_EQ(s.next_mask(), e);
}

TEST(MaskStream, BatchedDrawMatchesSequentialDraws) {
  for (const unsigned W : {2u, 4u, 8u}) {
    for (const double p : {0.0005, 0.01, 0.2}) {
      Xoshiro256 ra(123), rb(123);
      BernoulliMaskStream batched(p, &ra), sequential(p, &rb);
      std::uint64_t batch[kMaxLaneWords];
      for (int round = 0; round < 200; ++round) {
        batched.next_masks(batch, W);
        for (unsigned w = 0; w < W; ++w)
          ASSERT_EQ(batch[w], sequential.next_mask())
              << "W=" << W << " p=" << p << " round=" << round << " w=" << w;
      }
      // The streams must also be in the same STATE afterwards — the
      // draw-free fast path (gap spans the whole batch) has to leave
      // the pending gap counter where sequential consumption would.
      for (int i = 0; i < 16; ++i)
        ASSERT_EQ(batched.next_mask(), sequential.next_mask());
    }
  }
}

TEST(MaskStream, GeometricGapStatisticsSpanWordBoundaries) {
  // Batched draws at W=8 with a gap that regularly spans several
  // words: the realized failure rate must match p (exact sampler, no
  // per-word truncation). 5-sigma tolerance on ~2M lanes.
  const double p = 0.003;
  Xoshiro256 rng(99);
  BernoulliMaskStream s(p, &rng);
  std::uint64_t batch[kMaxLaneWords];
  std::uint64_t set_bits = 0;
  const int rounds = 4000;
  for (int i = 0; i < rounds; ++i) {
    s.next_masks(batch, 8);
    for (int w = 0; w < 8; ++w) set_bits += std::popcount(batch[w]);
  }
  const double lanes = static_cast<double>(rounds) * 512.0;
  const double sigma = std::sqrt(p * (1.0 - p) * lanes);
  EXPECT_NEAR(static_cast<double>(set_bits), p * lanes, 5.0 * sigma);
}

// --- the noisy stream at every width, pinned to its documented form ---

/// Reference of the noisy-gate semantics, written out the slow way:
/// one Bernoulli stream per gate kind (constructed in kind order) on
/// one shared RNG; per gate the ideal update, then W next_mask() calls
/// on the kind's stream, then one rng.next() per (operand bit, failing
/// word), bit-major with words ascending, replacing the failed lanes.
struct ReferenceNoisy {
  Xoshiro256 rng;
  std::vector<BernoulliMaskStream> streams;
  std::uint64_t faults = 0;

  ReferenceNoisy(const NoiseModel& model, std::uint64_t seed) : rng(seed) {
    streams.reserve(kNumGateKinds);
    for (const GateKind kind : test_util::kAllKinds)
      streams.emplace_back(model.error_for(kind), &rng);
  }
  ReferenceNoisy(const ReferenceNoisy&) = delete;
  ReferenceNoisy& operator=(const ReferenceNoisy&) = delete;

  void apply(PackedState& state, const Gate& g) {
    PackedSimulator::apply_ideal(state, g);
    const unsigned W = state.lane_words();
    std::uint64_t fail[kMaxLaneWords] = {};
    for (unsigned w = 0; w < W; ++w) {
      fail[w] = streams[static_cast<std::size_t>(g.kind)].next_mask();
      faults += static_cast<std::uint64_t>(std::popcount(fail[w]));
    }
    for (int i = 0; i < gate_arity(g.kind); ++i) {
      std::uint64_t* words = state.words(g.bits[static_cast<std::size_t>(i)]);
      for (unsigned w = 0; w < W; ++w)
        if (fail[w] != 0)
          words[w] = (words[w] & ~fail[w]) | (rng.next() & fail[w]);
    }
  }
};

void expect_same_run(const PackedState& want, const PackedState& got,
                     ReferenceNoisy& ref, PackedSimulator& sim,
                     const std::string& what) {
  for (std::uint32_t bit = 0; bit < want.width(); ++bit)
    for (unsigned w = 0; w < want.lane_words(); ++w)
      ASSERT_EQ(got.words(bit)[w], want.words(bit)[w])
          << what << " bit=" << bit << " word=" << w;
  EXPECT_EQ(sim.faults_drawn(), ref.faults) << what;
  // Same RNG position afterwards: the next word agrees. Draw it from
  // copies so the reference stays usable for the next entry point.
  Xoshiro256 ref_rng = ref.rng, sim_rng = sim.rng();
  EXPECT_EQ(sim_rng.next(), ref_rng.next()) << what;
}

TEST(NoisyStream, EveryEntryPointMatchesTheReferenceAtEveryWidth) {
  // Small g runs the geometric path (gaps spanning gates and words),
  // 0.05 the per-lane threshold path, 0 and 1 the degenerate streams;
  // the mixed model puts all of them into one circuit.
  std::vector<std::pair<std::string, NoiseModel>> models;
  for (const double g : {0.0, 1e-4, 1e-3, 0.05, 1.0})
    models.emplace_back("g=" + std::to_string(g), NoiseModel::uniform(g));
  NoiseModel mixed = NoiseModel::uniform(1e-3);
  mixed.set_kind(GateKind::kCnot, 0.05)
      .set_kind(GateKind::kSwap, 1.0)
      .set_kind(GateKind::kMaj, 2e-2)
      .with_perfect_init();
  models.emplace_back("mixed", mixed);

  Xoshiro256 gen(0x9e15e0ULL);
  for (const auto& [name, model] : models) {
    for (const unsigned W : {1u, 2u, 4u, 8u}) {
      for (int rep = 0; rep < 3; ++rep) {
        const std::uint32_t width =
            3 + static_cast<std::uint32_t>(gen.next_below(10));
        const Circuit c = test_util::random_circuit(gen, width, 1500);
        const std::uint64_t seed = gen.next();
        PackedState init(width, W);
        for (std::uint32_t bit = 0; bit < width; ++bit)
          for (unsigned w = 0; w < W; ++w) init.words(bit)[w] = gen.next();
        const std::string tag =
            name + " W=" + std::to_string(W) + " rep=" + std::to_string(rep);

        ReferenceNoisy ref(model, seed);
        PackedState want = init;
        for (const Gate& g : c.ops()) ref.apply(want, g);
        if (model.base_error() > 0.0) {
          ASSERT_GT(ref.faults, 0u) << tag;
        }

        {
          PackedSimulator sim(model, seed);
          PackedState s = init;
          for (const Gate& g : c.ops()) sim.apply_noisy(s, g);
          expect_same_run(want, s, ref, sim, tag + " per-gate");
        }
        {
          PackedSimulator sim(model, seed);
          PackedState s = init;
          sim.apply_noisy(s, c);
          expect_same_run(want, s, ref, sim, tag + " circuit");
        }
        {
          // Spans split at random points, empty spans included.
          std::vector<std::size_t> cuts = {0, c.size()};
          for (int k = 0; k < 6; ++k) cuts.push_back(gen.next_below(c.size()));
          std::sort(cuts.begin(), cuts.end());
          PackedSimulator sim(model, seed);
          PackedState s = init;
          for (std::size_t k = 0; k + 1 < cuts.size(); ++k)
            sim.apply_noisy_span(s, c, cuts[k], cuts[k + 1]);
          expect_same_run(want, s, ref, sim, tag + " spans");
        }
        {
          // Op lists: every position, in chunks of random length.
          std::vector<std::size_t> positions(c.size());
          for (std::size_t i = 0; i < c.size(); ++i) positions[i] = i;
          PackedSimulator sim(model, seed);
          PackedState s = init;
          for (std::size_t at = 0; at < positions.size();) {
            const std::size_t n = std::min<std::size_t>(
                positions.size() - at, 1 + gen.next_below(400));
            sim.apply_noisy_ops(s, c, std::span(positions).subspan(at, n));
            at += n;
          }
          expect_same_run(want, s, ref, sim, tag + " op lists");
        }
        {
          // An op list that skips ops (a component replay) runs exactly
          // the listed gates, in list order.
          std::vector<std::size_t> positions;
          for (std::size_t i = 0; i < c.size(); ++i)
            if (gen.next_below(3) != 0) positions.push_back(i);
          ReferenceNoisy sub_ref(model, seed);
          PackedState sub_want = init;
          for (const std::size_t pos : positions)
            sub_ref.apply(sub_want, c.op(pos));
          PackedSimulator sim(model, seed);
          PackedState s = init;
          sim.apply_noisy_ops(s, c, positions);
          expect_same_run(sub_want, s, sub_ref, sim, tag + " sub-list");
        }
      }
    }
  }
}

// --- ideal kernels vs the scalar reference, every width ---------------

TEST(PackedWide, IdealKernelsMatchScalarSimulatorAtEveryWidth) {
  // A circuit touching every gate kind the kernels dispatch.
  Circuit c(6);
  c.not_(0)
      .cnot(0, 1)
      .swap(1, 2)
      .toffoli(0, 1, 3)
      .fredkin(3, 2, 4)
      .swap3(0, 4, 5)
      .maj(1, 3, 5)
      .majinv(1, 3, 5)
      .f2g(2, 0, 4)
      .nft(5, 1, 2)
      .init3(0, 2, 4);

  Xoshiro256 rng(0xABCDEFULL);
  for (const unsigned W : {1u, 2u, 4u, 8u}) {
    PackedState state(c.width(), W);
    // Random per-lane inputs, recorded so each lane can be replayed
    // through the scalar simulator.
    std::vector<std::uint64_t> inputs(c.width() * W);
    for (std::uint32_t bit = 0; bit < c.width(); ++bit)
      for (unsigned w = 0; w < W; ++w) {
        inputs[bit * W + w] = rng.next();
        state.words(bit)[w] = inputs[bit * W + w];
      }
    PackedSimulator::apply_ideal(state, c);

    for (const int lane : {0, 1, 63, 64, static_cast<int>(64 * W - 1)}) {
      if (lane >= static_cast<int>(64 * W)) continue;
      StateVector sv(c.width());
      for (std::uint32_t bit = 0; bit < c.width(); ++bit)
        sv.set_bit(bit, static_cast<std::uint8_t>(
                            (inputs[bit * W + (lane >> 6)] >> (lane & 63)) & 1u));
      for (const Gate& g : c.ops()) sv.apply(g);
      for (std::uint32_t bit = 0; bit < c.width(); ++bit)
        ASSERT_EQ(state.bit_lane(bit, lane), sv.bit(bit))
            << "W=" << W << " lane=" << lane << " bit=" << bit;
    }
  }
}

TEST(PackedWide, ParityWordsMatchesPerLaneParity) {
  const unsigned W = 4;
  PackedState state(5, W);
  Xoshiro256 rng(7);
  for (std::uint32_t bit = 0; bit < 5; ++bit)
    for (unsigned w = 0; w < W; ++w) state.words(bit)[w] = rng.next();

  std::uint64_t total[kMaxLaneWords];
  state.parity_words(5, total);
  std::uint64_t group[kMaxLaneWords];
  state.parity_words_over({0, 1, 2, 3, 4}, group);
  for (unsigned w = 0; w < W; ++w) EXPECT_EQ(total[w], group[w]);

  for (const int lane : {0, 17, 100, 255}) {
    unsigned parity = 0;
    for (std::uint32_t bit = 0; bit < 5; ++bit) parity ^= state.bit_lane(bit, lane);
    EXPECT_EQ((total[lane >> 6] >> (lane & 63)) & 1u, parity) << lane;
  }
}

// --- W=1 end-to-end pinning (legacy estimates, recorded pre-widening) -

TEST(WideEngine, LaneWords1ReproducesLegacyPlainEstimate) {
  const Circuit logical = scattered10();
  const CheckedMachineProgram prog = CheckedMachine1d(10).compile(logical);
  const auto truth = machine_truth_table(logical);
  ParallelMcOptions opts;
  opts.trials = 20000;
  opts.seed = 0xD5A2005ULL;
  opts.threads = 1;
  const auto est = run_parallel_mc(
      prog.checked.circuit, NoiseModel::uniform(1e-3), opts,
      [&](std::uint64_t) { return make_machine_kernel(prog, truth); });
  EXPECT_EQ(est.trials, 20000u);
  EXPECT_EQ(est.failures, 931u);  // recorded on the pre-widening tree
}

TEST(WideEngine, LaneWords1ReproducesLegacyCheckedEstimate) {
  const Circuit logical = scattered10();
  CheckedMachineExperiment::Config config;
  config.trials = 20000;
  config.seed = 0xD5A2005ULL;
  const CheckedMachineExperiment exp(CheckedMachine1d(10).compile(logical),
                                     logical, config);
  const auto e = exp.run(1e-3, 1);
  EXPECT_EQ(e.detected, 17368u);
  EXPECT_EQ(e.detected_failures, 931u);
  EXPECT_EQ(e.silent_failures, 0u);
  EXPECT_EQ(e.zero_check_detected, 17176u);
  const std::vector<std::uint64_t> rails = {3248, 2030, 2015, 1312, 3089,
                                            1665, 2210, 2789, 2762, 4063};
  EXPECT_EQ(e.rail_detected, rails);
}

TEST(WideEngine, LaneWords1ReproducesLegacyRecoveringEstimate) {
  const Circuit logical = scattered10();
  RecoveryExperiment::Config config;
  config.trials = 20000;
  config.seed = 0xD5A2005ULL;
  const RecoveryExperiment exp(
      CheckedMachine1d(10, true, recovering_machine_options()).compile(logical),
      logical, config);
  const auto e = exp.run(1e-3, recover::RetryPolicy::block_local(), 1);
  EXPECT_EQ(e.accepted, 19934u);
  EXPECT_EQ(e.silent_failures, 0u);
  EXPECT_EQ(e.detected_trials, 17393u);
  EXPECT_EQ(e.local_retries, 41600u);
  EXPECT_EQ(e.program_restarts, 1044u);
  EXPECT_EQ(e.fallbacks, 204u);
  EXPECT_EQ(e.rejected, 66u);
  EXPECT_EQ(e.ops_main, 47960778u);
  EXPECT_EQ(e.ops_local, 2425117u);
  EXPECT_EQ(e.ops_restart, 1130171u);
  EXPECT_EQ(e.zero_check_events, 38997u);
  const std::vector<std::uint64_t> rails = {7332, 3638, 3695, 1368, 4215,
                                            3762, 4067, 4035, 4138, 8227};
  EXPECT_EQ(e.rail_events, rails);
}

// --- cross-width agreement and determinism ----------------------------

TEST(WideEngine, WidthsAgreeStatistically) {
  // Different widths consume the mask stream in different batch
  // shapes, so they run DIFFERENT trials — the contract is equal
  // distribution, not equal streams. Compare detected rates pairwise
  // against W=1 at 5 combined sigmas.
  const Circuit logical = scattered10();
  const double g = 1e-3;
  const std::uint64_t trials = 20000;

  BernoulliEstimate detected[4] = {};
  const unsigned widths[] = {1, 2, 4, 8};
  for (int i = 0; i < 4; ++i) {
    CheckedMachineExperiment::Config config;
    config.trials = trials;
    config.seed = 0xD5A2005ULL;
    config.lane_words = widths[i];
    const CheckedMachineExperiment exp(CheckedMachine1d(10).compile(logical),
                                       logical, config);
    const auto e = exp.run(g, 1);
    EXPECT_EQ(e.trials, trials);
    // Silent failures need several faults to cancel every rail; at
    // g=1e-3 that's vanishingly rare but not impossible (the stream
    // differs per width), so bound it instead of demanding zero.
    EXPECT_LE(e.silent_failures, 5u) << "W=" << widths[i];
    detected[i] = BernoulliEstimate{e.detected, e.trials};
  }
  // Two independent estimates agree when their rates sit within the
  // combined 5-sigma Wilson half-widths (added in quadrature).
  for (int i = 1; i < 4; ++i) {
    const double tol =
        std::hypot(detected[0].half_width(5.0), detected[i].half_width(5.0));
    EXPECT_NEAR(detected[i].rate(), detected[0].rate(), tol)
        << "W=" << widths[i];
  }
}

// The recovering engine's cross-width contract. At W > 1 retries run
// lane-compacted and draw masks over the narrow width, so only W = 1
// is stream-pinned; every width must still estimate the same protocol.
// Accept and silent rates compare by combined 5-sigma Wilson
// half-widths. Retries per trial can exceed 1, so they use the score
// interval of a rate instead — the Wilson interval's counterpart —
// with the per-trial variance bounded by `cluster` times the mean: one
// retry event costs a trial at most max_local_attempts replays or
// max_program_attempts restarts, and the measured dispersion (0.7–1.0
// for replays, up to 7.5 for restarts, 1D machine at g = 1e-3/3e-3)
// stays under those caps.
double rate_half_width(std::uint64_t count, std::uint64_t trials, double z,
                       int cluster) {
  return z / static_cast<double>(trials) *
         std::sqrt(cluster * static_cast<double>(count) + z * z / 4.0);
}

TEST(WideEngine, RecoveringWidthsAgreeStatistically) {
  const Circuit logical = scattered10();
  const auto program =
      CheckedMachine1d(10, true, recovering_machine_options()).compile(logical);
  const std::uint64_t trials = 20000;
  const double z = 5.0;
  const auto per_trial = [&](std::uint64_t count) {
    return static_cast<double>(count) / static_cast<double>(trials);
  };
  for (const double g : {1e-3, 3e-3}) {
    for (const auto& policy : {recover::RetryPolicy::no_retry(),
                               recover::RetryPolicy::whole_program(),
                               recover::RetryPolicy::block_local()}) {
      recover::RecoveryEstimate by_width[4];
      const unsigned widths[] = {1, 2, 4, 8};
      for (int i = 0; i < 4; ++i) {
        RecoveryExperiment::Config config;
        config.trials = trials;
        config.seed = 0xD5A2005ULL;
        config.lane_words = widths[i];
        by_width[i] =
            RecoveryExperiment(program, logical, config).run(g, policy, 2);
        ASSERT_EQ(by_width[i].trials, trials);
      }
      const recover::RecoveryEstimate& base = by_width[0];
      for (int i = 1; i < 4; ++i) {
        const recover::RecoveryEstimate& e = by_width[i];
        const std::string where =
            "W=" + std::to_string(widths[i]) + " g=" + std::to_string(g) +
            " policy=" + std::to_string(static_cast<int>(policy.kind));
        const BernoulliEstimate acc0{base.accepted, base.trials};
        const BernoulliEstimate acc{e.accepted, e.trials};
        EXPECT_NEAR(acc.rate(), acc0.rate(),
                    std::hypot(acc0.half_width(z), acc.half_width(z)))
            << "accept rate " << where;
        const BernoulliEstimate sil0{base.silent_failures, base.accepted};
        const BernoulliEstimate sil{e.silent_failures, e.accepted};
        EXPECT_NEAR(sil.rate(), sil0.rate(),
                    std::hypot(sil0.half_width(z), sil.half_width(z)))
            << "silent rate " << where;
        EXPECT_NEAR(per_trial(e.local_retries), per_trial(base.local_retries),
                    std::hypot(rate_half_width(base.local_retries, trials, z,
                                               policy.max_local_attempts),
                               rate_half_width(e.local_retries, trials, z,
                                               policy.max_local_attempts)))
            << "local_retries/trial " << where;
        EXPECT_NEAR(
            per_trial(e.program_restarts), per_trial(base.program_restarts),
            std::hypot(rate_half_width(base.program_restarts, trials, z,
                                       policy.max_program_attempts),
                       rate_half_width(e.program_restarts, trials, z,
                                       policy.max_program_attempts)))
            << "program_restarts/trial " << where;
      }
    }
  }
}

TEST(WideEngine, CheckedThreadCountInvariantAtEveryWidth) {
  const Circuit logical = scattered10();
  const CheckedMachineProgram program = CheckedMachine1d(10).compile(logical);
  for (const unsigned W : {1u, 2u, 4u, 8u}) {
    CheckedMachineExperiment::Config config;
    config.trials = 20000;
    config.seed = 0xD5A2005ULL;
    config.lane_words = W;
    const CheckedMachineExperiment exp(program, logical, config);
    const auto e1 = exp.run(1e-3, 1);
    const auto e3 = exp.run(1e-3, 3);
    const auto e8 = exp.run(1e-3, 8);
    EXPECT_EQ(e1, e3) << "W=" << W;
    EXPECT_EQ(e1, e8) << "W=" << W;
  }
}

TEST(WideEngine, RecoveringThreadCountInvariantWide) {
  // W > 1 is where retries run lane-compacted (narrow replays and
  // restart passes), so every policy is pinned across worker counts.
  const Circuit logical = scattered10();
  const auto program =
      CheckedMachine1d(10, true, recovering_machine_options()).compile(logical);
  for (const unsigned W : {2u, 4u, 8u}) {
    RecoveryExperiment::Config config;
    config.trials = 10000;
    config.seed = 0xD5A2005ULL;
    config.lane_words = W;
    const RecoveryExperiment exp(program, logical, config);
    for (const auto& policy : {recover::RetryPolicy::no_retry(),
                               recover::RetryPolicy::whole_program(),
                               recover::RetryPolicy::block_local()}) {
      const auto e1 = exp.run(1e-3, policy, 1);
      const auto e3 = exp.run(1e-3, policy, 3);
      const auto e8 = exp.run(1e-3, policy, 8);
      const int kind = static_cast<int>(policy.kind);
      EXPECT_EQ(e1, e3) << "W=" << W << " policy=" << kind;
      EXPECT_EQ(e1, e8) << "W=" << W << " policy=" << kind;
      EXPECT_EQ(e1.trials, 10000u);
      // The protocol actually engaged at this width (not a vacuous run).
      EXPECT_GT(e1.detected_trials, 0u);
      if (policy.kind == recover::RetryPolicyKind::kBlockLocal) {
        EXPECT_GT(e1.local_retries, 0u) << "W=" << W;
      }
      if (policy.kind == recover::RetryPolicyKind::kWholeProgram) {
        EXPECT_GT(e1.program_restarts, 0u) << "W=" << W;
      }
    }
  }
}

// --- checkpoint spans --------------------------------------------------

TEST(CheckpointSpans, BuiltForEveryCheckpointAndConsistent) {
  Circuit logical(4);
  logical.toffoli(0, 1, 2).maj(1, 2, 3);
  const auto checked = CheckedMachine1d(4).compile(logical).checked;
  ASSERT_EQ(checked.checkpoint_spans.size(), checked.checkpoints.size());
  for (std::size_t c = 0; c < checked.checkpoints.size(); ++c) {
    const detect::CheckpointSpan& span = checked.checkpoint_spans[c];
    const auto& groups = checked.checkpoint_groups[c];
    ASSERT_EQ(span.rail_first.size(), groups.size() + 1);
    for (std::size_t r = 0; r < groups.size(); ++r) {
      const std::size_t first = span.rail_first[r];
      const std::size_t last = span.rail_first[r + 1];
      ASSERT_EQ(last - first, groups[r].size());
      for (std::size_t i = first; i < last; ++i)
        EXPECT_EQ(span.bits[i], groups[r][i - first]);
    }
  }
}

/// Runs `fn`, which must throw revft::Error, and returns the message.
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "no revft::Error thrown";
  return {};
}

TEST(CheckpointSpans, EnginesRejectCircuitWithoutSpans) {
  Circuit logical(4);
  logical.toffoli(0, 1, 2).maj(1, 2, 3);
  const auto with_spans = CheckedMachine1d(4).compile(logical).checked;
  const recover::SegmentPlan plan = recover::build_segment_plan(with_spans);
  detect::CheckedCircuit without_spans = with_spans;
  without_spans.checkpoint_spans.clear();

  PackedSimulator sim(NoiseModel::uniform(3e-3), 2024);
  PackedState state(without_spans.circuit.width(), 1);
  std::uint64_t detected[kMaxLaneWords];
  const std::string checked_msg = thrown_message([&] {
    detect::apply_noisy_checked_words(sim, state, without_spans, detected);
  });
  EXPECT_NE(checked_msg.find("checkpoint_spans"), std::string::npos)
      << checked_msg;

  const std::string recovering_msg = thrown_message([&] {
    LaneMask accepted(1);
    recover::run_recovering_batch(
        sim, state, without_spans, plan, recover::RetryPolicy::block_local(),
        0, LaneMask::ones(1),
        [](const PackedState& s, std::uint64_t, const LaneMask&) {
          return LaneMask(s.lane_words());
        },
        accepted);
  });
  EXPECT_NE(recovering_msg.find("checkpoint_spans"), std::string::npos)
      << recovering_msg;
}

// --- batch classifier ---------------------------------------------------

/// MachineWorkloadKernel with its batch classifier hidden: the engines
/// fall back to the per-lane classify, one call per judged lane.
struct PerLaneMachineKernel {
  MachineWorkloadKernel inner;
  void prepare(PackedState& s, Xoshiro256& rng, std::uint64_t batch) {
    inner.prepare(s, rng, batch);
  }
  bool classify(const PackedState& s, int lane, std::uint64_t batch) const {
    return inner.classify(s, lane, batch);
  }
};
static_assert(BatchClassifier<MachineWorkloadKernel>);
static_assert(!BatchClassifier<PerLaneMachineKernel>);

TEST(BatchClassify, MatchesPerLaneClassifyOnEveryLane) {
  const Circuit logical = scattered10();
  const auto truth = machine_truth_table(logical);
  const CheckedMachineProgram programs[] = {
      CheckedMachine1d(10).compile(logical),
      CheckedMachine2d(10).compile(logical)};
  for (const CheckedMachineProgram& program : programs) {
    for (const unsigned W : {1u, 2u, 4u, 8u}) {
      PackedSimulator sim(NoiseModel::uniform(1e-2), 0xC1A55ULL + W);
      PackedState state(program.checked.circuit.width(), W);
      MachineWorkloadKernel kernel = make_machine_kernel(program, truth);
      auto classify = kernel_classify(kernel);
      std::uint64_t wrong_lanes = 0;
      for (std::uint64_t batch = 0; batch < 6; ++batch) {
        state.clear();
        kernel.prepare(state, sim.rng(), batch);
        sim.apply_noisy(state, program.checked.circuit);
        LaneMask wrong(W);
        kernel.classify_batch(state, batch, wrong);
        for (unsigned lane = 0; lane < state.lanes(); ++lane)
          ASSERT_EQ(wrong.test(lane),
                    kernel.classify(state, static_cast<int>(lane), batch))
              << "W=" << W << " batch=" << batch << " lane=" << lane;
        wrong_lanes += wrong.popcount();
        // A partial final batch: the adapter judges only the live lanes.
        const LaneMask live = LaneMask::first_n(W, 64 * W - 37);
        EXPECT_EQ(classify(state, batch, live), wrong & live);
      }
      // The noise produced both verdicts, so the comparison was not
      // vacuous.
      EXPECT_GT(wrong_lanes, 0u) << "W=" << W;
      EXPECT_LT(wrong_lanes, 6u * 64 * W) << "W=" << W;
    }
  }
}

TEST(BatchClassify, EnginesMatchThePerLaneFallbackBitForBit) {
  const Circuit logical = scattered10();
  const auto truth = machine_truth_table(logical);
  CheckedMachineOptions rails_only = recovering_machine_options();
  rails_only.zero_checks = false;  // lets silent failures through
  const CheckedMachineProgram program =
      CheckedMachine1d(10, true, rails_only).compile(logical);
  const recover::SegmentPlan plan =
      recover::build_segment_plan(program.checked);
  const NoiseModel model = NoiseModel::uniform(3e-3);
  const auto batched = [&](std::uint64_t) {
    return make_machine_kernel(program, truth);
  };
  const auto per_lane = [&](std::uint64_t) {
    return PerLaneMachineKernel{make_machine_kernel(program, truth)};
  };
  for (const unsigned W : {1u, 8u}) {
    ParallelMcOptions opts;
    opts.trials = 6000;  // ends in a partial batch at both widths
    opts.seed = 0xD5A2005ULL;
    opts.threads = 2;
    opts.batches_per_shard = 4;
    opts.lane_words = W;
    const auto plain =
        run_parallel_mc(program.checked.circuit, model, opts, batched);
    const auto plain_lanes =
        run_parallel_mc(program.checked.circuit, model, opts, per_lane);
    EXPECT_EQ(plain.trials, plain_lanes.trials) << "W=" << W;
    EXPECT_EQ(plain.failures, plain_lanes.failures) << "W=" << W;
    EXPECT_GT(plain.failures, 0u);

    const auto checked =
        detect::run_parallel_checked_mc(program.checked, model, opts, batched);
    EXPECT_EQ(checked, detect::run_parallel_checked_mc(program.checked, model,
                                                       opts, per_lane))
        << "W=" << W;
    EXPECT_GT(checked.detected_failures, 0u);
    EXPECT_GT(checked.silent_failures, 0u);

    for (const auto& policy : {recover::RetryPolicy::no_retry(),
                               recover::RetryPolicy::whole_program(),
                               recover::RetryPolicy::block_local()}) {
      const auto recovered = recover::run_parallel_recovering_mc(
          program.checked, plan, policy, model, opts, batched);
      EXPECT_EQ(recovered,
                recover::run_parallel_recovering_mc(program.checked, plan,
                                                    policy, model, opts,
                                                    per_lane))
          << "W=" << W << " policy=" << static_cast<int>(policy.kind);
      EXPECT_GT(recovered.silent_failures, 0u);
    }
  }
}

TEST(BatchClassify, MakeMachineKernelRejectsProgramsOutsideItsLimits) {
  const Circuit logical = scattered10();
  const auto truth = machine_truth_table(logical);
  const CheckedMachineProgram program = CheckedMachine1d(10).compile(logical);
  EXPECT_NO_THROW(make_machine_kernel(program, truth));

  CheckedMachineProgram wide = program;
  wide.logical_bits = 17;
  const std::string wide_msg =
      thrown_message([&] { make_machine_kernel(wide, truth); });
  EXPECT_NE(wide_msg.find("16-bit limit"), std::string::npos) << wide_msg;

  CheckedMachineProgram repeated = program;
  repeated.output_cells[3][2] = repeated.output_cells[3][0];
  const std::string repeated_msg =
      thrown_message([&] { make_machine_kernel(repeated, truth); });
  EXPECT_NE(repeated_msg.find("logical bit 3 is not 3 distinct cells"),
            std::string::npos)
      << repeated_msg;

  CheckedMachineProgram outside = program;
  outside.input_cells[0][1] = program.checked.circuit.width();
  EXPECT_THROW(make_machine_kernel(outside, truth), Error);

  CheckedMachineProgram missing = program;
  missing.output_cells.pop_back();
  EXPECT_THROW(make_machine_kernel(missing, truth), Error);

  const std::vector<unsigned> short_truth(truth.begin(), truth.end() - 1);
  EXPECT_THROW(make_machine_kernel(program, short_truth), Error);
}

// --- multi-word checkpoint and blends ---------------------------------

TEST(WideCheckpoint, CaptureRestoreRoundTrip) {
  const unsigned W = 4;
  PackedState state(6, W);
  Xoshiro256 rng(11);
  for (std::uint32_t bit = 0; bit < 6; ++bit)
    for (unsigned w = 0; w < W; ++w) state.words(bit)[w] = rng.next();

  recover::PackedCheckpoint ckpt;
  ckpt.capture(state);
  EXPECT_EQ(ckpt.width(), 6u);
  EXPECT_EQ(ckpt.lane_words(), W);

  PackedState scratch(6, W);
  ckpt.restore_all(scratch);
  for (std::uint32_t bit = 0; bit < 6; ++bit)
    for (unsigned w = 0; w < W; ++w)
      EXPECT_EQ(scratch.words(bit)[w], state.words(bit)[w]);
}

TEST(WideCheckpoint, LaneMaskBlendMovesExactlyTheMaskedLanes) {
  const unsigned W = 4;
  PackedState dst(3, W), src(3, W);
  for (std::uint32_t bit = 0; bit < 3; ++bit) src.fill_bit(bit, true);

  LaneMask mask(W);
  mask.set(0);
  mask.set(63);
  mask.set(64);   // crosses the word boundary
  mask.set(200);

  recover::blend_lanes(dst, src, mask);
  for (std::uint32_t bit = 0; bit < 3; ++bit)
    for (int lane = 0; lane < static_cast<int>(64 * W); ++lane)
      EXPECT_EQ(dst.bit_lane(bit, lane), mask.test(lane) ? 1 : 0)
          << "bit=" << bit << " lane=" << lane;

  // Cell-restricted blend: only the listed cells move.
  PackedState dst2(3, W);
  recover::blend_cells_lanes(dst2, src, {1}, mask);
  for (int lane = 0; lane < static_cast<int>(64 * W); ++lane) {
    EXPECT_EQ(dst2.bit_lane(0, lane), 0);
    EXPECT_EQ(dst2.bit_lane(1, lane), mask.test(lane) ? 1 : 0);
    EXPECT_EQ(dst2.bit_lane(2, lane), 0);
  }
}

// Lane compaction (recover/checkpoint.h): gathering lanes of a wide
// checkpoint into a narrow state and scattering accepted narrow lanes
// back moves exactly the listed cells of exactly the selected lanes.
// Random lane masks at every narrower width, including the empty mask,
// a mask filling the narrow state, and partial batches' live prefixes.
TEST(WideCheckpoint, GatherScatterRoundTripAtEveryNarrowWidth) {
  const std::uint32_t width = 9;
  Xoshiro256 rng(0x6A7E5CA7ULL);
  const auto randomize = [&](PackedState& s) {
    for (std::uint32_t bit = 0; bit < s.width(); ++bit)
      for (unsigned w = 0; w < s.lane_words(); ++w)
        s.words(bit)[w] = rng.next();
  };
  const auto same_lane = [](const PackedState& a, std::uint32_t bit, int la,
                            const PackedState& b, int lb) {
    return a.bit_lane(bit, la) == b.bit_lane(bit, lb);
  };
  const std::vector<std::uint32_t> cells = {0, 3, 4, 8};
  const auto in_cells = [&](std::uint32_t bit) {
    return std::find(cells.begin(), cells.end(), bit) != cells.end();
  };
  for (const unsigned W : {2u, 4u, 8u}) {
    for (unsigned nw = 1; nw < W; nw *= 2) {
      const unsigned cap = 64 * nw;
      std::vector<LaneMask> masks;
      masks.emplace_back(W);                       // empty
      masks.push_back(LaneMask::first_n(W, cap));  // fills the narrow state
      masks.push_back(LaneMask::first_n(W, 37));   // partial batch
      for (int k = 0; k < 6; ++k) {
        // Random masks, the first of them filling the narrow state.
        const std::uint64_t want = k == 0 ? cap : 1 + rng.next() % cap;
        LaneMask m(W);
        while (m.popcount() < want)
          m.set(static_cast<unsigned>(rng.next() % (64 * W)));
        masks.push_back(m);
      }
      for (const LaneMask& mask : masks) {
        const std::string where = "W=" + std::to_string(W) +
                                  " nw=" + std::to_string(nw) +
                                  " lanes=" + std::to_string(mask.popcount());
        std::vector<std::uint16_t> lanes;
        recover::lane_indices(mask, lanes);
        ASSERT_EQ(lanes.size(), mask.popcount());
        ASSERT_TRUE(std::is_sorted(lanes.begin(), lanes.end()));
        for (const std::uint16_t lane : lanes) ASSERT_TRUE(mask.test(lane));

        PackedState wide(width, W);
        randomize(wide);
        recover::PackedCheckpoint cp;
        cp.capture(wide);

        // Gather: listed cells take the selected lanes (the rest of the
        // cell cleared); unlisted cells are untouched.
        PackedState narrow(width, nw);
        randomize(narrow);
        const PackedState before = narrow;
        recover::gather_cells_lanes(narrow, cp, cells, lanes);
        for (std::uint32_t bit = 0; bit < width; ++bit)
          for (int j = 0; j < static_cast<int>(cap); ++j) {
            if (!in_cells(bit))
              ASSERT_TRUE(same_lane(narrow, bit, j, before, j)) << where;
            else if (j < static_cast<int>(lanes.size()))
              ASSERT_TRUE(same_lane(narrow, bit, j, wide, lanes[j])) << where;
            else
              ASSERT_EQ(narrow.bit_lane(bit, j), 0) << where;
          }

        // Scatter a random subset of the occupied narrow lanes into a
        // random wide state: only those lanes of the listed cells move.
        randomize(narrow);
        LaneMask accept(nw);
        for (std::size_t j = 0; j < lanes.size(); ++j)
          if ((rng.next() & 1) != 0) accept.set(static_cast<unsigned>(j));
        PackedState dst(width, W);
        randomize(dst);
        const PackedState dst_before = dst;
        recover::scatter_cells_lanes(dst, narrow, cells, lanes, accept);
        std::vector<int> narrow_of(64 * W, -1);
        for (std::size_t j = 0; j < lanes.size(); ++j)
          narrow_of[lanes[j]] = static_cast<int>(j);
        for (std::uint32_t bit = 0; bit < width; ++bit)
          for (int lane = 0; lane < static_cast<int>(64 * W); ++lane) {
            const int j = narrow_of[static_cast<std::size_t>(lane)];
            if (in_cells(bit) && j >= 0 &&
                accept.test(static_cast<unsigned>(j)))
              ASSERT_TRUE(same_lane(dst, bit, lane, narrow, j)) << where;
            else
              ASSERT_TRUE(same_lane(dst, bit, lane, dst_before, lane))
                  << where;
          }

        // Every-cell forms: a gather then a scatter of every occupied
        // lane reproduces the checkpoint on the masked lanes and leaves
        // every other lane of the target as it was.
        recover::gather_lanes(narrow, cp, lanes);
        PackedState back(width, W);
        randomize(back);
        const PackedState back_before = back;
        recover::scatter_lanes(back, narrow, lanes,
                               LaneMask::first_n(nw, lanes.size()));
        for (std::uint32_t bit = 0; bit < width; ++bit)
          for (int lane = 0; lane < static_cast<int>(64 * W); ++lane)
            ASSERT_TRUE(mask.test(static_cast<unsigned>(lane))
                            ? same_lane(back, bit, lane, wide, lane)
                            : same_lane(back, bit, lane, back_before, lane))
                << where;
      }
    }
  }
}

// --- the compiled-program cache ---------------------------------------

TEST(ProgramCacheTest, HitsServeTheSameBundleWithoutRecompiling) {
  auto& cache = ProgramCache::instance();
  const std::uint64_t h0 = cache.hits();
  const std::uint64_t m0 = cache.misses();

  Circuit logical(3);
  logical.toffoli(0, 1, 2);
  const auto a = cache.get(MachineKind::k1d, logical);
  const auto b = cache.get(MachineKind::k1d, logical);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.misses(), m0 + 1);
  EXPECT_EQ(cache.hits(), h0 + 1);

  // The bundle matches a direct compile and carries the segment plan.
  const auto direct = CheckedMachine1d(3).compile(logical);
  EXPECT_EQ(a->program.checked.circuit, direct.checked.circuit);
  EXPECT_FALSE(a->plan.segments.empty());
}

TEST(ProgramCacheTest, KeyDiscriminatesOptionsMachineAndWorkload) {
  auto& cache = ProgramCache::instance();
  cache.clear();  // earlier tests may have compiled these keys already
  Circuit logical(3);
  logical.toffoli(0, 1, 2);
  const auto base = cache.get(MachineKind::k1d, logical);

  // Each key input, changed alone, must miss; asking again with equal
  // (separately constructed) inputs must hit the entry just compiled.
  const auto expect_miss_then_hit = [&](const char* what, MachineKind kind,
                                        const Circuit& circuit, bool with_init,
                                        const CheckedMachineOptions& opts) {
    const std::uint64_t m0 = cache.misses();
    const std::uint64_t h0 = cache.hits();
    const auto first = cache.get(kind, circuit, with_init, opts);
    EXPECT_EQ(cache.misses(), m0 + 1) << what;
    EXPECT_NE(base.get(), first.get()) << what;
    const CheckedMachineOptions equal = opts;
    EXPECT_EQ(first.get(), cache.get(kind, circuit, with_init, equal).get())
        << what;
    EXPECT_EQ(cache.hits(), h0 + 1) << what;
  };

  CheckedMachineOptions global;
  global.rails = RailGranularity::kGlobal;
  expect_miss_then_hit("rails", MachineKind::k1d, logical, true, global);
  CheckedMachineOptions no_zero_checks;
  no_zero_checks.zero_checks = false;
  expect_miss_then_hit("zero_checks", MachineKind::k1d, logical, true,
                       no_zero_checks);
  CheckedMachineOptions every_boundary;
  every_boundary.rail_check_every_boundary = true;
  expect_miss_then_hit("rail_check_every_boundary", MachineKind::k1d, logical,
                       true, every_boundary);
  CheckedMachineOptions periodic;
  periodic.check_every = 4;
  expect_miss_then_hit("check_every", MachineKind::k1d, logical, true,
                       periodic);
  CheckedMachineOptions unscheduled;
  unscheduled.schedule.enabled = false;
  expect_miss_then_hit("schedule.enabled", MachineKind::k1d, logical, true,
                       unscheduled);
  expect_miss_then_hit("with_init", MachineKind::k1d, logical, false, {});
  expect_miss_then_hit("machine kind", MachineKind::k2d, logical, true, {});

  Circuit other(3);
  other.toffoli(2, 1, 0);  // same width and kind, different operands
  expect_miss_then_hit("workload", MachineKind::k1d, other, true, {});

  // Default options built afresh still hit the base entry.
  EXPECT_EQ(base.get(),
            cache.get(MachineKind::k1d, logical, true, CheckedMachineOptions{})
                .get());
}

TEST(ProgramCacheTest, ExportsTelemetryCounters) {
  auto& cache = ProgramCache::instance();
  Circuit logical(3);
  logical.maj(0, 1, 2);
  (void)cache.get(MachineKind::k1d, logical);

  telemetry::MetricsRegistry metrics;
  cache.export_metrics(metrics);
  const telemetry::Metric* hits = metrics.find("program_cache.hits");
  const telemetry::Metric* misses = metrics.find("program_cache.misses");
  const telemetry::Metric* entries = metrics.find("program_cache.entries");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  ASSERT_NE(entries, nullptr);
  EXPECT_EQ(hits->value, cache.hits());
  EXPECT_EQ(misses->value, cache.misses());
  EXPECT_GE(entries->value, 1u);
}

}  // namespace
}  // namespace revft
