// Thread-sharded Monte-Carlo engine tests: exact trial accounting for
// partial batches, the determinism contract (bit-identical results at
// any thread count for a fixed seed), statistical agreement with the
// single-threaded harness, the driver's memory and exception
// guarantees, the batch bookkeeping every engine shares (batch and
// trial counters, one accept event per lane word), and strict
// REVFT_THREADS parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "detect/checked_mc.h"
#include "ft/experiments.h"
#include "ft/machine_kernel.h"
#include "ft/recover_experiment.h"
#include "local/checked_machine.h"
#include "noise/monte_carlo.h"
#include "noise/parallel_mc.h"
#include "recover/plan.h"
#include "recover/recovering_mc.h"
#include "rev/circuit.h"
#include "support/error.h"
#include "telemetry/trace.h"

namespace revft {
namespace {

Circuit single_not() {
  Circuit c(1);
  c.not_(0);
  return c;
}

/// Adapts bare prepare/classify callables (the run_packed_mc calling
/// convention) into a kernel factory: each shard receives its own
/// copies.
template <typename PrepareFn, typename ClassifyFn>
auto per_shard_kernel(PrepareFn prepare, ClassifyFn classify) {
  struct Kernel {
    PrepareFn prepare_fn;
    ClassifyFn classify_fn;
    void prepare(PackedState& s, Xoshiro256& rng, std::uint64_t batch) {
      prepare_fn(s, rng, batch);
    }
    bool classify(const PackedState& s, int lane, std::uint64_t batch) {
      return classify_fn(s, lane, batch);
    }
  };
  return [prepare, classify](std::uint64_t) {
    return Kernel{prepare, classify};
  };
}

// --- partial-batch accounting (run_packed_mc regression) --------------

TEST(PackedMc, PartialBatchCountsExactTrials) {
  // trials % 64 != 0 must count exactly `trials` trials: only the
  // first (trials % 64) lanes of the last batch may be classified.
  const Circuit c = single_not();
  for (std::uint64_t trials : {1ULL, 63ULL, 64ULL, 65ULL, 100ULL, 1000ULL, 4097ULL}) {
    McOptions opts;
    opts.trials = trials;
    std::uint64_t classified = 0;
    const auto est = run_packed_mc(
        c, NoiseModel::uniform(0.0), opts,
        [](PackedState&, Xoshiro256&, std::uint64_t) {},
        [&](const PackedState& s, int lane, std::uint64_t) {
          ++classified;
          return s.bit_lane(0, lane) == 0;  // NOT of 0 is 1: never error
        });
    EXPECT_EQ(est.trials, trials) << "trials=" << trials;
    EXPECT_EQ(classified, trials) << "trials=" << trials;
    EXPECT_EQ(est.failures, 0u) << "trials=" << trials;
  }
}

// --- shard planning ---------------------------------------------------

TEST(ParallelMc, ShardPlanCoversTrialsExactly) {
  for (std::uint64_t trials : {1ULL, 64ULL, 100ULL, 16384ULL, 16385ULL,
                               100000ULL, 1000003ULL}) {
    const auto shards = plan_shards(trials, 0xABCDULL, 16);
    std::uint64_t covered = 0;
    std::uint64_t expected_first_batch = 0;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      EXPECT_EQ(shards[i].index, i);
      EXPECT_EQ(shards[i].first_batch, expected_first_batch);
      covered += shards[i].trials;
      expected_first_batch += 16;
    }
    EXPECT_EQ(covered, trials) << "trials=" << trials;
  }
}

TEST(ParallelMc, ShardPlanIsDeterministicAndSeedsDiffer) {
  const auto a = plan_shards(200000, 7, 16);
  const auto b = plan_shards(200000, 7, 16);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 2u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    if (i > 0) {
      EXPECT_NE(a[i].seed, a[i - 1].seed);
    }
  }
}

TEST(ParallelMc, EmptyPlanForZeroTrials) {
  EXPECT_TRUE(plan_shards(0, 1, 16).empty());
}

// --- the determinism contract -----------------------------------------

ParallelMcOptions small_shard_opts(std::uint64_t trials, int threads) {
  ParallelMcOptions opts;
  opts.trials = trials;
  opts.seed = 0xD5A2005ULL;
  opts.threads = threads;
  opts.batches_per_shard = 8;  // many shards even at modest trial counts
  return opts;
}

TEST(ParallelMc, BitIdenticalAcrossThreadCounts) {
  const Circuit c = single_not();
  const NoiseModel model = NoiseModel::uniform(0.05);
  auto factory = per_shard_kernel(
      [](PackedState&, Xoshiro256&, std::uint64_t) {},
      [](const PackedState& s, int lane, std::uint64_t) {
        return s.bit_lane(0, lane) != 1;
      });
  // 100003 trials: many full shards, a short last shard, and a partial
  // final batch — the full accounting surface.
  const auto one = run_parallel_mc(c, model, small_shard_opts(100003, 1), factory);
  const auto two = run_parallel_mc(c, model, small_shard_opts(100003, 2), factory);
  const auto eight = run_parallel_mc(c, model, small_shard_opts(100003, 8), factory);
  EXPECT_EQ(one.trials, 100003u);
  EXPECT_GT(one.failures, 0u);
  EXPECT_EQ(one.failures, two.failures);
  EXPECT_EQ(one.trials, two.trials);
  EXPECT_EQ(one.failures, eight.failures);
  EXPECT_EQ(one.trials, eight.trials);
}

TEST(ParallelMc, ExperimentBitIdenticalAcrossThreadCounts) {
  // The migrated experiment drivers inherit the contract: same seed,
  // different thread counts, identical estimates.
  LogicalGateExperimentConfig config;
  config.level = 1;
  config.trials = 50000;
  config.seed = 0x5eedULL;
  const double g = 5e-3;

  config.threads = 1;
  const auto one = LogicalGateExperiment(config).run(g);
  config.threads = 3;
  const auto three = LogicalGateExperiment(config).run(g);
  config.threads = 8;
  const auto eight = LogicalGateExperiment(config).run(g);
  EXPECT_EQ(one.trials, 50000u);
  EXPECT_EQ(one.failures, three.failures);
  EXPECT_EQ(one.failures, eight.failures);
}

// --- statistical agreement with the single-threaded harness -----------

TEST(ParallelMc, MatchesKnownErrorRate) {
  // One noisy NOT on a zero input: P[wrong output] = g/2 (the failed
  // lane is re-randomized uniformly). Same physics as the
  // single-threaded MonteCarlo.MeasuresKnownErrorRate test.
  const Circuit c = single_not();
  const double g = 0.1;
  ParallelMcOptions opts;
  opts.trials = 400000;
  opts.seed = 42;
  opts.threads = 4;
  const auto est = run_parallel_mc(
      c, NoiseModel::uniform(g), opts,
      per_shard_kernel([](PackedState&, Xoshiro256&, std::uint64_t) {},
                       [](const PackedState& s, int lane, std::uint64_t) {
                         return s.bit_lane(0, lane) != 1;
                       }));
  EXPECT_EQ(est.trials, 400000u);
  EXPECT_NEAR(est.rate(), g / 2.0, 0.002);
}

TEST(ParallelMc, PartialBatchAccountingAcrossShards) {
  const Circuit c = single_not();
  for (std::uint64_t trials : {100ULL, 513ULL, 16385ULL, 100003ULL}) {
    auto opts = small_shard_opts(trials, 4);
    const auto est = run_parallel_mc(
        c, NoiseModel::uniform(0.0), opts,
        per_shard_kernel([](PackedState&, Xoshiro256&, std::uint64_t) {},
                         [](const PackedState& s, int lane, std::uint64_t) {
                           return s.bit_lane(0, lane) != 1;
                         }));
    EXPECT_EQ(est.trials, trials);
    EXPECT_EQ(est.failures, 0u);
  }
}

// --- driver guarantees ------------------------------------------------

/// Counts live kernels across all shards. Neither copyable nor movable,
/// so every kernel the driver holds is one the factory built in place.
struct LiveCountKernel {
  static inline std::atomic<int> live{0};
  static inline std::atomic<int> peak{0};

  LiveCountKernel() {
    const int now = live.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
  }
  ~LiveCountKernel() { live.fetch_sub(1); }
  LiveCountKernel(const LiveCountKernel&) = delete;
  LiveCountKernel& operator=(const LiveCountKernel&) = delete;

  void prepare(PackedState&, Xoshiro256&, std::uint64_t) {}
  bool classify(const PackedState& s, int lane, std::uint64_t) const {
    return s.bit_lane(0, lane) != 1;
  }
};

TEST(McDriver, NoStopRunKeepsAtMostThreadsKernelsAlive) {
  // The peak-memory guarantee: a run nothing can stop holds at most one
  // {kernel, simulator, state} bundle per worker.
  const Circuit c = single_not();
  for (const int threads : {1, 3, 8}) {
    LiveCountKernel::live = 0;
    LiveCountKernel::peak = 0;
    const auto est = run_parallel_mc(
        c, NoiseModel::uniform(0.05), small_shard_opts(40000, threads),
        [](std::uint64_t) { return LiveCountKernel{}; });
    EXPECT_EQ(est.trials, 40000u);
    EXPECT_EQ(LiveCountKernel::live.load(), 0) << threads;
    EXPECT_GE(LiveCountKernel::peak.load(), 1) << threads;
    EXPECT_LE(LiveCountKernel::peak.load(), threads) << threads;
  }
}

/// Throws from its first prepare when it belongs to shard 2 or 5.
struct ThrowingKernel {
  std::uint64_t shard;
  void prepare(PackedState&, Xoshiro256&, std::uint64_t) {
    if (shard == 2 || shard == 5)
      throw std::runtime_error("shard " + std::to_string(shard));
  }
  bool classify(const PackedState&, int, std::uint64_t) const { return false; }
};

TEST(McDriver, RethrowsTheLowestIndexShardException) {
  const Circuit c = single_not();
  for (const bool stoppable : {false, true}) {
    for (const int threads : {1, 4}) {
      telemetry::StreamOptions opts;
      opts.mc = small_shard_opts(20000, threads);  // 40 shards
      // A policy that is enabled but cannot fire before the budget ends.
      if (stoppable) opts.stop.target_half_width = 1e-9;
      std::optional<std::string> caught;
      try {
        run_mc(PlainEngine{c}, NoiseModel::uniform(0.05), opts,
               [](std::uint64_t shard) { return ThrowingKernel{shard}; });
      } catch (const std::runtime_error& e) {
        caught = e.what();
      }
      ASSERT_TRUE(caught.has_value()) << stoppable << " " << threads;
      EXPECT_EQ(*caught, "shard 2") << stoppable << " " << threads;
    }
  }
}

// --- batch bookkeeping, per engine -----------------------------------

/// Checks the batch-level telemetry of a traced run: `<prefix>.batches`
/// counts the batches, `<prefix>.trials` and the estimate both count
/// exactly `trials`, there is one kBatchAccept event per batch lane
/// word whose values sum to `accepted`, and the metrics were registered
/// in the order `names`.
void expect_batch_bookkeeping(const telemetry::Trace& trace,
                              const std::string& prefix,
                              const std::vector<std::string>& names,
                              std::uint64_t batches, unsigned lane_words,
                              std::uint64_t trials, std::uint64_t est_trials,
                              std::uint64_t accepted) {
  const telemetry::Metric* m_batches = trace.metrics().find(prefix + ".batches");
  const telemetry::Metric* m_trials = trace.metrics().find(prefix + ".trials");
  ASSERT_NE(m_batches, nullptr);
  ASSERT_NE(m_trials, nullptr);
  EXPECT_EQ(m_batches->value, batches);
  EXPECT_EQ(m_trials->value, trials);
  EXPECT_EQ(est_trials, trials);

  std::uint64_t accept_events = 0;
  std::uint64_t accept_lanes = 0;
  for (const telemetry::Event& e : trace.events()) {
    if (e.kind != telemetry::EventKind::kBatchAccept) continue;
    ++accept_events;
    accept_lanes += e.value;
  }
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_EQ(accept_events, batches * lane_words);
  EXPECT_EQ(accept_lanes, accepted);

  std::vector<std::string> registered;
  for (const telemetry::Metric& m : trace.metrics().entries())
    registered.push_back(m.name);
  EXPECT_EQ(registered, names);
}

TEST(McDriver, BatchCountersAndAcceptEventsCoverExactlyTheTrials) {
  const Circuit c = single_not();
  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  const auto program =
      CheckedMachine1d(3, true, recovering_machine_options()).compile(logical);
  const std::vector<unsigned> truth = machine_truth_table(logical);
  const recover::SegmentPlan plan =
      recover::build_segment_plan(program.checked);
  const recover::RetryPolicy policy = recover::RetryPolicy::block_local();
  const NoiseModel model = NoiseModel::uniform(1e-2);
  const auto plain_kernel = per_shard_kernel(
      [](PackedState&, Xoshiro256&, std::uint64_t) {},
      [](const PackedState& s, int lane, std::uint64_t) {
        return s.bit_lane(0, lane) != 1;
      });
  const auto machine_kernel = [&](std::uint64_t) {
    return make_machine_kernel(program, truth);
  };

  for (const unsigned W : {1u, 8u}) {
    // Five full batches and a partial sixth.
    const std::uint64_t trials = 64ULL * W * 5 + 37;
    const std::uint64_t batches = 6;
    for (const int threads : {1, 3}) {
      SCOPED_TRACE("W=" + std::to_string(W) +
                   " threads=" + std::to_string(threads));
      ParallelMcOptions opts;
      opts.trials = trials;
      opts.seed = 0xBA7C4ULL;
      opts.threads = threads;
      opts.batches_per_shard = 2;  // three shards
      opts.lane_words = W;
      {
        telemetry::Trace trace;
        const BernoulliEstimate est = run_parallel_mc(
            c, NoiseModel::uniform(0.1), opts, plain_kernel, &trace);
        EXPECT_GT(est.failures, 0u);
        expect_batch_bookkeeping(trace, "mc",
                                 {"mc.batches", "mc.trials", "mc.failures"},
                                 batches, W, trials, est.trials,
                                 est.trials - est.failures);
      }
      {
        telemetry::Trace trace;
        const detect::DetectionEstimate est = detect::run_parallel_checked_mc(
            program.checked, model, opts, machine_kernel, &trace);
        EXPECT_GT(est.detected, 0u);
        expect_batch_bookkeeping(
            trace, "detect",
            {"detect.batches", "detect.trials", "detect.detected",
             "detect.zero_check_fired", "detect.rail_fired"},
            batches, W, trials, est.trials, est.trials - est.detected);
      }
      {
        telemetry::Trace trace;
        const recover::RecoveryEstimate est =
            recover::run_parallel_recovering_mc(program.checked, plan, policy,
                                                model, opts, machine_kernel,
                                                &trace);
        EXPECT_GT(est.local_retries, 0u);
        expect_batch_bookkeeping(
            trace, "recover",
            {"recover.batches", "recover.trials", "recover.local_retries",
             "recover.program_restarts", "recover.fallbacks",
             "recover.rail_events", "recover.segment.replays",
             "recover.segment.replay_ops", "recover.replays_per_batch"},
            batches, W, trials, est.trials, est.accepted);
      }
    }
  }
}

// --- REVFT_THREADS ----------------------------------------------------

/// Sets REVFT_THREADS for one scope, restoring the previous value.
class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* value) {
    if (const char* old = std::getenv("REVFT_THREADS")) saved_ = old;
    setenv("REVFT_THREADS", value, 1);
  }
  ~ThreadsEnv() {
    if (saved_)
      setenv("REVFT_THREADS", saved_->c_str(), 1);
    else
      unsetenv("REVFT_THREADS");
  }

 private:
  std::optional<std::string> saved_;
};

TEST(ResolveThreadCount, ReadsDecimalDigits) {
  {
    const ThreadsEnv env("12");
    EXPECT_EQ(resolve_thread_count(0), 12);
    EXPECT_EQ(resolve_thread_count(3), 3);  // an explicit count wins
  }
  {
    const ThreadsEnv env("010");  // decimal, not octal
    EXPECT_EQ(resolve_thread_count(0), 10);
  }
}

TEST(ResolveThreadCount, RejectsAnythingButAPositiveDecimal) {
  for (const char* bad : {"0x10", "12abc", "abc", "-2", "", "0", " 4",
                          "99999999999999999999"}) {
    const ThreadsEnv env(bad);
    try {
      resolve_thread_count(0);
      ADD_FAILURE() << "accepted REVFT_THREADS=\"" << bad << "\"";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("REVFT_THREADS"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace revft
