#include "jobs.h"

#include <array>
#include <cstdio>
#include <stdexcept>

#include "code/block_tree.h"
#include "ft/concat.h"
#include "ft/experiments.h"
#include "ft/machine_kernel.h"
#include "ft/recover_experiment.h"
#include "local/checked_machine.h"
#include "local/schedule.h"
#include "noise/parallel_mc.h"
#include "recover/plan.h"
#include "recover/recovering_mc.h"
#include "rev/gate.h"
#include "rev/simulator.h"
#include "rev/synthesis.h"
#include "telemetry/stream.h"
#include "telemetry/trace.h"

namespace perfbench {

using namespace revft;

const char* engine_name(Engine engine) noexcept {
  switch (engine) {
    case Engine::kPlain: return "plain";
    case Engine::kStream: return "stream";
    case Engine::kChecked: return "checked";
    case Engine::kRecover: return "recovering";
  }
  return "?";
}

std::uint64_t Outcome::trials() const noexcept {
  switch (engine) {
    case Engine::kChecked: return checked.trials;
    case Engine::kRecover: return recovered.trials;
    default: return plain.trials;
  }
}

std::uint64_t Outcome::accepted() const noexcept {
  switch (engine) {
    case Engine::kChecked: return checked.accepted();
    case Engine::kRecover: return recovered.accepted;
    default: return plain.trials;
  }
}

std::uint64_t Outcome::wrong() const noexcept {
  switch (engine) {
    case Engine::kChecked: return checked.silent_failures;
    case Engine::kRecover: return recovered.silent_failures;
    default: return plain.failures;
  }
}

std::uint64_t Outcome::detected() const noexcept {
  switch (engine) {
    case Engine::kChecked: return checked.detected;
    case Engine::kRecover: return recovered.detected_trials;
    default: return 0;
  }
}

bool Outcome::same_answer(const Outcome& other) const {
  return engine == other.engine && plain.failures == other.plain.failures &&
         plain.trials == other.plain.trials && checked == other.checked &&
         recovered == other.recovered && snapshots == other.snapshots &&
         stop_reason == other.stop_reason;
}

std::string Outcome::summary() const {
  char buf[256];
  switch (engine) {
    case Engine::kChecked:
      std::snprintf(buf, sizeof buf,
                    "trials=%llu detected=%llu silent=%llu accepted=%llu",
                    static_cast<unsigned long long>(checked.trials),
                    static_cast<unsigned long long>(checked.detected),
                    static_cast<unsigned long long>(checked.silent_failures),
                    static_cast<unsigned long long>(checked.accepted()));
      break;
    case Engine::kRecover:
      std::snprintf(
          buf, sizeof buf,
          "trials=%llu accepted=%llu silent=%llu local_retries=%llu "
          "restarts=%llu ops/accept=%.1f",
          static_cast<unsigned long long>(recovered.trials),
          static_cast<unsigned long long>(recovered.accepted),
          static_cast<unsigned long long>(recovered.silent_failures),
          static_cast<unsigned long long>(recovered.local_retries),
          static_cast<unsigned long long>(recovered.program_restarts),
          recovered.expected_ops_per_accept());
      break;
    default:
      std::snprintf(buf, sizeof buf, "trials=%llu failures=%llu rate=%.4g%s%s",
                    static_cast<unsigned long long>(plain.trials),
                    static_cast<unsigned long long>(plain.failures),
                    plain.rate(), stop_reason.empty() ? "" : " stop=",
                    stop_reason.c_str());
  }
  return buf;
}

namespace {

constexpr std::uint32_t kAdderBits = 4;
constexpr unsigned kMachineLaneWords = 8;

std::uint64_t shard_count(std::uint64_t trials, std::uint64_t bps,
                          unsigned lane_words) {
  const std::uint64_t per_shard = 64ULL * lane_words * bps;
  return (trials + per_shard - 1) / per_shard;
}

/// Runs `call(factory)` with the plain per-shard kernels, or — traced —
/// with TimedKernel wrappers writing into out.slots.
template <typename MakeKernel, typename Call>
auto with_kernels(Outcome& out, bool traced, unsigned lane_words,
                  bool streaming, MakeKernel&& make, Call&& call) {
  if (!traced) return call([&](std::uint64_t) { return make(); });
  out.slots.assign(out.shards, ShardSlot{});
  const int last_lane = static_cast<int>(64 * lane_words) - 1;
  return call([&](std::uint64_t shard) {
    return TimedKernel<decltype(make())>(make(), &out.slots[shard], last_lane,
                                         !streaming);
  });
}

/// The library's own counter of trials must agree with the estimate.
void check_trace_trials(const telemetry::Trace& trace, const char* counter,
                        std::uint64_t trials) {
  const telemetry::Metric* m = trace.metrics().find(counter);
  if (m == nullptr || m->value != trials)
    throw std::runtime_error(std::string("trace counter ") + counter +
                             " disagrees with the estimate");
}

telemetry::TraceConfig trace_config() {
  telemetry::TraceConfig config;
  config.ring_capacity = 256;  // metrics see every event; keep rings small
  return config;
}

/// Input leaves of each logical bit under the canonical layout (what
/// LogicalGateExperiment and examples/noisy_adder prepare against).
std::vector<std::vector<std::uint32_t>> input_leaves(const CompiledModule& m,
                                                     int level) {
  std::vector<std::vector<std::uint32_t>> leaves;
  for (std::uint32_t i = 0; i < m.logical_width(); ++i) {
    const BlockTree block = BlockTree::canonical(
        level, i * static_cast<std::uint32_t>(m.blocks[i].span()));
    leaves.push_back(collect_data_leaves(block));
  }
  return leaves;
}

// --- toffoli_stream ---------------------------------------------------

/// Recursive-majority decode of `block` for every lane at once: the
/// word-parallel form of decode_block (code/block_tree.h), which the
/// cross-checks compare it against lane by lane.
void decode_words(const BlockTree& block, const PackedState& state,
                  std::uint64_t* out) {
  const unsigned W = state.lane_words();
  if (block.level == 0) {
    const std::uint64_t* src = state.words(block.base);
    for (unsigned w = 0; w < W; ++w) out[w] = src[w];
    return;
  }
  std::uint64_t a[8], b[8], c[8];
  decode_words(block.data_child(0), state, a);
  decode_words(block.data_child(1), state, b);
  decode_words(block.data_child(2), state, c);
  for (unsigned w = 0; w < W; ++w)
    out[w] = (a[w] & b[w]) | (a[w] & c[w]) | (b[w] & c[w]);
}

/// Decodes the listed output blocks once per batch (on the first
/// classify after a prepare); bit `lane` of words [k*W, k*W+W) is
/// lane's decoded value of block k.
struct BatchDecoder {
  std::vector<std::uint64_t> words;
  bool stale = true;

  int bit(const std::vector<const BlockTree*>& blocks,
          const PackedState& state, std::size_t k, int lane) {
    const unsigned W = state.lane_words();
    if (stale) {
      words.resize(blocks.size() * W);
      for (std::size_t i = 0; i < blocks.size(); ++i)
        decode_words(*blocks[i], state, &words[i * W]);
      stale = false;
    }
    const unsigned l = static_cast<unsigned>(lane);
    return static_cast<int>((words[k * W + (l >> 6)] >> (l & 63u)) & 1u);
  }
};

/// The Fig. 2 logical-gate kernel at any lane width: random logical
/// inputs broadcast to each bit's data leaves, recursive-majority
/// decode of every output block against the gate's truth table —
/// LogicalGateExperiment's kernel, with the decode done word-parallel.
struct GateKernel {
  const std::vector<std::vector<std::uint32_t>>* leaves;
  const std::vector<const BlockTree*>* outputs;
  GateKind gate;
  std::vector<std::uint64_t> inputs;
  BatchDecoder decoded;

  void prepare(PackedState& state, Xoshiro256& rng, std::uint64_t) {
    const unsigned W = state.lane_words();
    const std::size_t arity = leaves->size();
    inputs.resize(arity * W);
    for (std::size_t k = 0; k < arity; ++k) {
      for (unsigned w = 0; w < W; ++w) inputs[k * W + w] = rng.next();
      for (const std::uint32_t bit : (*leaves)[k]) {
        std::uint64_t* dst = state.words(bit);
        for (unsigned w = 0; w < W; ++w) dst[w] = inputs[k * W + w];
      }
    }
    decoded.stale = true;
  }

  bool classify(const PackedState& state, int lane, std::uint64_t) {
    const unsigned W = state.lane_words();
    const unsigned wi = static_cast<unsigned>(lane) >> 6;
    const unsigned sh = static_cast<unsigned>(lane) & 63u;
    const std::size_t arity = leaves->size();
    unsigned input = 0;
    for (std::size_t k = 0; k < arity; ++k)
      input |= static_cast<unsigned>((inputs[k * W + wi] >> sh) & 1u) << k;
    const unsigned expected = gate_apply_local(gate, input);
    for (std::size_t k = 0; k < arity; ++k)
      if (decoded.bit(*outputs, state, k, lane) !=
          static_cast<int>((expected >> k) & 1u))
        return true;
    return false;
  }
};

/// True when decode_words agrees with decode_block on every lane of
/// every block of `module`, on a state scrambled by noise.
bool decoder_matches_library(const CompiledModule& module, unsigned W,
                             std::uint64_t seed) {
  PackedState state(module.physical.width(), W);
  Xoshiro256 rng(seed);
  for (std::uint32_t b = 0; b < state.width(); ++b)
    for (unsigned w = 0; w < W; ++w) state.words(b)[w] = rng.next();
  PackedSimulator sim(NoiseModel::uniform(0.05), seed);
  sim.apply_noisy(state, module.physical);
  std::vector<std::uint64_t> words(W);
  for (const BlockTree& block : module.blocks) {
    decode_words(block, state, words.data());
    for (unsigned lane = 0; lane < state.lanes(); ++lane) {
      const int lib = decode_block(block, [&](std::uint32_t bit) {
        return static_cast<int>(state.bit_lane(bit, static_cast<int>(lane)));
      });
      if (lib != static_cast<int>((words[lane >> 6] >> (lane & 63u)) & 1u))
        return false;
    }
  }
  return true;
}

std::vector<const BlockTree*> block_ptrs(
    const CompiledModule& module, const std::vector<std::uint32_t>& bits) {
  std::vector<const BlockTree*> out;
  for (const std::uint32_t b : bits) out.push_back(&module.blocks[b]);
  return out;
}

struct ToffoliArtefacts {
  CompiledModule module;
  std::vector<std::vector<std::uint32_t>> leaves;
  std::vector<const BlockTree*> outputs;  ///< blocks of logical bits 0, 1, 2
};

// A round is one W=8 batch from each of 32 shards: about 0.6 ms of
// one-thread work, so the round driver (barrier, fold, stop decision)
// is still a large share at N threads. Finer W=1 rounds (~0.1 ms) made
// the N-thread time to answer swing up to 7x with the host's load, too
// unsteady to gate on.
constexpr unsigned kStreamLaneWords = 8;
constexpr std::uint64_t kStreamShards = 32;
constexpr std::uint64_t kStreamRounds = 128;  // batches per shard
constexpr double kStreamRelHalfWidth = 0.05;

telemetry::StreamOptions stream_options(std::uint64_t trials,
                                        std::uint64_t seed, int threads,
                                        std::uint64_t bps) {
  telemetry::StreamOptions opts;
  opts.mc.trials = trials;
  opts.mc.seed = seed;
  opts.mc.threads = threads;
  opts.mc.batches_per_shard = bps;
  opts.mc.lane_words = kStreamLaneWords;
  opts.stop.target_rel_half_width = kStreamRelHalfWidth;
  opts.stop.min_failures = 100;
  opts.name = "perfbench";
  return opts;
}

Outcome run_toffoli(const ToffoliArtefacts& a, const Job& job, int threads,
                    std::uint64_t seed, double g, bool traced) {
  Outcome out;
  out.engine = Engine::kStream;
  out.shards = job.shards;
  out.snapshot_ns.reserve(job.batches_per_shard + 1);
  telemetry::StreamOptions opts =
      stream_options(job.trials, seed, threads, job.batches_per_shard);
  opts.on_snapshot = [&out](const telemetry::ConvergenceSnapshot&,
                            const telemetry::ConvergenceTrajectory&) {
    out.snapshot_ns.push_back(now_ns());
  };
  const NoiseModel model = NoiseModel::uniform(g);
  telemetry::Trace trace(trace_config());
  out.start_ns = now_ns();
  telemetry::StreamResult<BernoulliEstimate> result = with_kernels(
      out, traced, job.lane_words, /*streaming=*/true,
      [&] {
        return GateKernel{&a.leaves, &a.outputs, GateKind::kToffoli, {}, {}};
      },
      [&](auto&& factory) {
        return telemetry::run_streaming_mc(a.module.physical, model, opts,
                                           factory, traced ? &trace : nullptr);
      });
  out.end_ns = now_ns();
  out.plain = result.estimate;
  out.snapshots = result.trajectory.snapshots;
  out.stop_reason = telemetry::stop_reason_name(result.stop_reason());
  out.rounds = result.trajectory.rounds();
  if (traced) {
    check_trace_trials(trace, "mc.trials", out.plain.trials);
    out.trace_events = trace.emitted();
  }
  return out;
}

Workload build_toffoli_stream() {
  Workload w;
  w.name = "toffoli_stream";
  auto a = std::make_shared<ToffoliArtefacts>();
  Circuit logical(3);
  logical.toffoli(0, 1, 2);
  const std::int64_t t0 = now_ns();
  a->module = concat_compile(logical, 1, ConcatOptions{true});
  w.stages.push_back({"ft.concat_s", "concat toffoli l1", t0, now_ns()});
  a->leaves = input_leaves(a->module, 1);
  a->outputs = block_ptrs(a->module, {0, 1, 2});

  for (const double g : {1e-2, 1.5e-2}) {
    Job job;
    char name[64];
    std::snprintf(name, sizeof name, "toffoli_l1/g=%g", g);
    job.name = name;
    job.engine = Engine::kStream;
    job.g = g;
    job.lane_words = kStreamLaneWords;
    job.batches_per_shard = kStreamRounds;
    job.trials = kStreamShards * kStreamRounds * 64 * kStreamLaneWords;
    job.shards = kStreamShards;
    job.circuit = &a->module.physical;
    const ToffoliArtefacts* art = a.get();
    job.run = [art, job](int threads, std::uint64_t seed, double gg,
                         bool traced) {
      return run_toffoli(*art, job, threads, seed, gg, traced);
    };
    w.jobs.push_back(std::move(job));
  }

  const ToffoliArtefacts* art = a.get();
  w.cross_check = [art](std::uint64_t seed, int threads) {
    // The benchmark's kernel against LogicalGateExperiment's own, on a
    // short stream (16 rounds): same estimate, snapshots and stop.
    LogicalGateExperimentConfig config;
    config.level = 1;
    config.gate = GateKind::kToffoli;
    config.noisy_init = true;
    config.trials = kStreamShards * 16 * 64 * kStreamLaneWords;
    config.seed = seed;
    config.threads = threads;
    const LogicalGateExperiment exp(config);
    telemetry::StreamOptions opts =
        stream_options(config.trials, seed, threads, 16);
    opts.stop.min_failures = 10;
    opts.stop.target_rel_half_width = 0.5;
    const auto lib = exp.run_streaming(3e-2, opts);
    const auto ours = telemetry::run_streaming_mc(
        art->module.physical, NoiseModel::uniform(3e-2), opts,
        [&](std::uint64_t) {
          return GateKernel{&art->leaves, &art->outputs, GateKind::kToffoli,
                            {}, {}};
        });
    const bool same = lib.estimate.failures == ours.estimate.failures &&
                      lib.estimate.trials == ours.estimate.trials &&
                      lib.trajectory.deterministic_equal(ours.trajectory) &&
                      exp.module().physical == art->module.physical;
    return std::vector<std::pair<bool, std::string>>{
        {decoder_matches_library(art->module, kStreamLaneWords, seed),
         "word-parallel decode matches decode_block on every lane"},
        {same,
         "toffoli kernel reproduces LogicalGateExperiment::run_streaming"}};
  };
  w.owned = a;
  return w;
}

// --- adder_l2 ---------------------------------------------------------

struct AdderArtefacts {
  RippleAdder adder;
  CompiledModule module;
  std::vector<std::vector<std::uint32_t>> leaves;
  std::vector<const BlockTree*> outputs;  ///< b_bits (the sum), then carry_out
};

/// Random a and b on every lane; a trial fails unless the decoded
/// (sum, carry) equals the exact a + b.
struct AdderKernel {
  const AdderArtefacts* art;
  std::vector<std::uint64_t> a, b;
  BatchDecoder decoded;

  void prepare(PackedState& state, Xoshiro256& rng, std::uint64_t) {
    const unsigned W = state.lane_words();
    a.resize(kAdderBits * W);
    b.resize(kAdderBits * W);
    for (std::uint32_t i = 0; i < kAdderBits; ++i) {
      for (unsigned w = 0; w < W; ++w) a[i * W + w] = rng.next();
      for (unsigned w = 0; w < W; ++w) b[i * W + w] = rng.next();
      for (const std::uint32_t bit : art->leaves[art->adder.a_bits[i]])
        for (unsigned w = 0; w < W; ++w) state.words(bit)[w] = a[i * W + w];
      for (const std::uint32_t bit : art->leaves[art->adder.b_bits[i]])
        for (unsigned w = 0; w < W; ++w) state.words(bit)[w] = b[i * W + w];
    }
    decoded.stale = true;
  }

  bool classify(const PackedState& state, int lane, std::uint64_t) {
    const unsigned W = state.lane_words();
    const unsigned wi = static_cast<unsigned>(lane) >> 6;
    const unsigned sh = static_cast<unsigned>(lane) & 63u;
    std::uint64_t x = 0, y = 0, sum = 0;
    for (std::uint32_t i = 0; i < kAdderBits; ++i) {
      x |= ((a[i * W + wi] >> sh) & 1u) << i;
      y |= ((b[i * W + wi] >> sh) & 1u) << i;
    }
    // outputs: sum bits 0..3 (the b register), then the carry.
    for (std::uint32_t k = 0; k <= kAdderBits; ++k)
      sum |= static_cast<std::uint64_t>(
                 decoded.bit(art->outputs, state, k, lane))
             << k;
    return sum != x + y;
  }
};

constexpr unsigned kAdderLaneWords = 8;
constexpr std::uint64_t kAdderTrials = 524288;
constexpr std::uint64_t kAdderBatchesPerShard = 16;  // 64 shards

Outcome run_adder(const AdderArtefacts& a, const Job& job, int threads,
                  std::uint64_t seed, double g, bool traced) {
  Outcome out;
  out.engine = Engine::kPlain;
  out.shards = job.shards;
  out.rounds = job.batches_per_shard;
  ParallelMcOptions opts;
  opts.trials = job.trials;
  opts.seed = seed;
  opts.threads = threads;
  opts.batches_per_shard = job.batches_per_shard;
  opts.lane_words = job.lane_words;
  const NoiseModel model = NoiseModel::uniform(g);
  telemetry::Trace trace(trace_config());
  out.start_ns = now_ns();
  out.plain = with_kernels(
      out, traced, job.lane_words, /*streaming=*/false,
      [&] { return AdderKernel{&a, {}, {}, {}}; },
      [&](auto&& factory) {
        return run_parallel_mc(a.module.physical, model, opts, factory,
                               traced ? &trace : nullptr);
      });
  out.end_ns = now_ns();
  if (traced) {
    check_trace_trials(trace, "mc.trials", out.plain.trials);
    out.trace_events = trace.emitted();
  }
  return out;
}

Workload build_adder_l2() {
  Workload w;
  w.name = "adder_l2";
  auto a = std::make_shared<AdderArtefacts>();
  a->adder = cuccaro_adder(kAdderBits);
  const std::int64_t t0 = now_ns();
  a->module = concat_compile(a->adder.circuit, 2);
  w.stages.push_back({"ft.concat_s", "concat cuccaro4 l2", t0, now_ns()});
  a->leaves = input_leaves(a->module, 2);
  std::vector<std::uint32_t> outs = a->adder.b_bits;
  outs.push_back(a->adder.carry_out);
  a->outputs = block_ptrs(a->module, outs);

  for (const double g : {1e-4, 1e-3}) {
    Job job;
    char name[64];
    std::snprintf(name, sizeof name, "cuccaro4_l2/g=%g", g);
    job.name = name;
    job.engine = Engine::kPlain;
    job.g = g;
    job.lane_words = kAdderLaneWords;
    job.trials = kAdderTrials;
    job.batches_per_shard = kAdderBatchesPerShard;
    job.shards = shard_count(job.trials, job.batches_per_shard, job.lane_words);
    job.circuit = &a->module.physical;
    const AdderArtefacts* art = a.get();
    job.run = [art, job](int threads, std::uint64_t seed, double gg,
                         bool traced) {
      return run_adder(*art, job, threads, seed, gg, traced);
    };
    w.jobs.push_back(std::move(job));
  }

  const AdderArtefacts* art = a.get();
  w.cross_check = [art](std::uint64_t seed, int threads) {
    // The logical adder computes a + b on every input (the classify
    // judges against exact addition, so the circuit must agree).
    bool ok = true;
    for (std::uint64_t x = 0; x < (1u << kAdderBits); ++x) {
      for (std::uint64_t y = 0; y < (1u << kAdderBits); ++y) {
        std::uint64_t in = 0;
        for (std::uint32_t i = 0; i < kAdderBits; ++i) {
          in |= ((x >> i) & 1u) << art->adder.a_bits[i];
          in |= ((y >> i) & 1u) << art->adder.b_bits[i];
        }
        const std::uint64_t out = simulate(art->adder.circuit, in);
        std::uint64_t sum = 0;
        for (std::uint32_t i = 0; i < kAdderBits; ++i)
          sum |= ((out >> art->adder.b_bits[i]) & 1u) << i;
        sum |= ((out >> art->adder.carry_out) & 1u) << kAdderBits;
        ok = ok && sum == x + y;
      }
    }
    // The classifier is live: well above threshold it sees failures.
    Job job;
    job.lane_words = kAdderLaneWords;
    job.trials = 8192;
    job.batches_per_shard = 1;
    job.shards = shard_count(job.trials, 1, kAdderLaneWords);
    const Outcome hot = run_adder(*art, job, threads, seed, 3e-2, false);
    return std::vector<std::pair<bool, std::string>>{
        {ok, "cuccaro_adder(4) computes a + b on all 256 inputs"},
        {decoder_matches_library(art->module, kAdderLaneWords, seed),
         "word-parallel decode matches decode_block on every lane"},
        {hot.plain.failures > 0 && hot.plain.failures < hot.plain.trials,
         "adder classifier counts failures at g=3e-2 (" + hot.summary() + ")"},
        {art->module.physical.size() == 8721 &&
             art->module.physical.width() == 810,
         "level-2 adder has 8721 gates on 810 bits"}};
  };
  w.owned = a;
  return w;
}

// --- machine_checked / machine_recover --------------------------------

/// The scattered 10-bit workload of bench_local_checked / bench_recover.
Circuit scattered_workload() {
  Circuit logical(10);
  logical.maj(9, 4, 0)
      .toffoli(0, 7, 9)
      .majinv(4, 1, 8)
      .fredkin(2, 6, 9)
      .swap3(0, 5, 9);
  return logical;
}

std::vector<std::array<std::uint32_t, 3>> entry_cells(
    std::uint32_t logical_bits, const std::array<std::uint32_t, 3>& offsets) {
  std::vector<std::array<std::uint32_t, 3>> cells;
  for (std::uint32_t i = 0; i < logical_bits; ++i)
    cells.push_back(
        {9 * i + offsets[0], 9 * i + offsets[1], 9 * i + offsets[2]});
  return cells;
}

struct MachineArtefacts {
  std::string label;  ///< "1d" | "2d"
  CheckedMachineProgram program;
  recover::SegmentPlan plan;  ///< machine_recover only
  std::vector<unsigned> truth;
};

/// CheckedMachine1d/2d::compile, one public stage at a time: route
/// (Machine::compile), schedule (schedule_program), rail transform
/// (check_machine_program). The cross-check pins the result to the
/// library's own compile.
template <typename Machine>
CheckedMachineProgram staged_compile(const Circuit& logical,
                                     const CheckedMachineOptions& opts,
                                     const std::array<std::uint32_t, 3>& entry,
                                     const std::string& label,
                                     std::vector<Stage>& stages) {
  const Machine machine(logical.width(), true, opts.schedule.enabled);
  std::int64_t t = now_ns();
  auto program = machine.compile(logical);
  stages.push_back({"local.route_s", "route " + label, t, now_ns()});
  t = now_ns();
  schedule_program(program, opts.schedule);
  stages.push_back({"local.schedule_s", "schedule " + label, t, now_ns()});
  t = now_ns();
  CheckedMachineProgram out = check_machine_program(
      program.physical, program.slot_of_logical,
      entry_cells(machine.logical_bits(), entry), program.data_cells,
      program.recovery_boundaries, program.routing_spans, opts);
  stages.push_back({"detect.rail_s", "rail " + label, t, now_ns()});
  out.block_transpositions = program.block_transpositions;
  out.routing_cell_swaps = program.routing_cell_swaps;
  out.gate_cycles = program.gate_cycles;
  out.recovery_stages = program.recovery_stages;
  return out;
}

struct MachinePair {
  Circuit logical;
  CheckedMachineOptions options;
  std::array<MachineArtefacts, 2> machines;
};

std::shared_ptr<MachinePair> compile_machines(const CheckedMachineOptions& opts,
                                              bool with_plan,
                                              std::vector<Stage>& stages) {
  auto pair = std::make_shared<MachinePair>();
  pair->logical = scattered_workload();
  pair->options = opts;
  pair->machines[0].label = "1d";
  pair->machines[0].program = staged_compile<Machine1d>(
      pair->logical, opts, {0, 3, 6}, "1d", stages);
  pair->machines[1].label = "2d";
  pair->machines[1].program = staged_compile<Machine2d>(
      pair->logical, opts, {0, 1, 2}, "2d", stages);
  for (MachineArtefacts& m : pair->machines) {
    if (with_plan) {
      const std::int64_t t = now_ns();
      m.plan = recover::build_segment_plan(m.program.checked);
      stages.push_back({"recover.plan_s", "plan " + m.label, t, now_ns()});
    }
    m.truth = machine_truth_table(pair->logical);
  }
  return pair;
}

ParallelMcOptions machine_mc(const Job& job, std::uint64_t seed, int threads) {
  ParallelMcOptions opts;
  opts.trials = job.trials;
  opts.seed = seed;
  opts.threads = threads;
  opts.batches_per_shard = job.batches_per_shard;
  opts.lane_words = job.lane_words;
  return opts;
}

Outcome run_checked(const MachineArtefacts& m, const Job& job, int threads,
                    std::uint64_t seed, double g, bool traced) {
  Outcome out;
  out.engine = Engine::kChecked;
  out.shards = job.shards;
  out.rounds = job.batches_per_shard;
  const ParallelMcOptions opts = machine_mc(job, seed, threads);
  const NoiseModel model = NoiseModel::uniform(g);
  telemetry::Trace trace(trace_config());
  out.start_ns = now_ns();
  out.checked = with_kernels(
      out, traced, job.lane_words, /*streaming=*/false,
      [&] { return make_machine_kernel(m.program, m.truth); },
      [&](auto&& factory) {
        return detect::run_parallel_checked_mc(m.program.checked, model, opts,
                                               factory,
                                               traced ? &trace : nullptr);
      });
  out.end_ns = now_ns();
  if (traced) {
    check_trace_trials(trace, "detect.trials", out.checked.trials);
    out.trace_events = trace.emitted();
  }
  return out;
}

struct NamedPolicy {
  const char* label;
  recover::RetryPolicy policy;
};

const std::array<NamedPolicy, 3>& policies() {
  static const std::array<NamedPolicy, 3> kPolicies = {{
      {"no-retry", recover::RetryPolicy::no_retry()},
      {"whole-program", recover::RetryPolicy::whole_program()},
      {"block-local", recover::RetryPolicy::block_local()},
  }};
  return kPolicies;
}

Outcome run_recovering(const MachineArtefacts& m,
                       const recover::RetryPolicy& policy, const Job& job,
                       int threads, std::uint64_t seed, double g,
                       bool traced) {
  Outcome out;
  out.engine = Engine::kRecover;
  out.shards = job.shards;
  out.rounds = job.batches_per_shard;
  const ParallelMcOptions opts = machine_mc(job, seed, threads);
  const NoiseModel model = NoiseModel::uniform(g);
  telemetry::Trace trace(trace_config());
  out.start_ns = now_ns();
  out.recovered = with_kernels(
      out, traced, job.lane_words, /*streaming=*/false,
      [&] { return make_machine_kernel(m.program, m.truth); },
      [&](auto&& factory) {
        return recover::run_parallel_recovering_mc(
            m.program.checked, m.plan, policy, model, opts, factory,
            traced ? &trace : nullptr);
      });
  out.end_ns = now_ns();
  if (traced) {
    check_trace_trials(trace, "recover.trials", out.recovered.trials);
    out.trace_events = trace.emitted();
  }
  return out;
}

constexpr std::uint64_t kCheckedTrials = 262144;
constexpr std::uint64_t kCheckedBatchesPerShard = 8;  // 64 shards at W=8
constexpr std::uint64_t kRecoverTrials = 16384;
constexpr std::uint64_t kRecoverBatchesPerShard = 1;  // 32 shards at W=8

/// Library drivers vs the benchmark's staged compile and direct engine
/// calls, on one shard (batches_per_shard is the experiments' default,
/// so both sides draw the identical stream).
std::vector<std::pair<bool, std::string>> machine_cross_check(
    const MachinePair& pair, bool recovering, std::uint64_t seed,
    int threads) {
  std::vector<std::pair<bool, std::string>> checks;
  const CheckedMachineProgram lib[2] = {
      CheckedMachine1d(pair.logical.width(), true, pair.options)
          .compile(pair.logical),
      CheckedMachine2d(pair.logical.width(), true, pair.options)
          .compile(pair.logical)};
  for (int i = 0; i < 2; ++i) {
    const MachineArtefacts& m = pair.machines[static_cast<std::size_t>(i)];
    const bool same_compile =
        lib[i].checked.circuit == m.program.checked.circuit &&
        lib[i].input_cells == m.program.input_cells &&
        lib[i].output_cells == m.program.output_cells &&
        lib[i].checked.checkpoints == m.program.checked.checkpoints;
    checks.emplace_back(same_compile,
                        "staged compile reproduces CheckedMachine" + m.label +
                            "::compile");
    Job job;
    job.lane_words = kMachineLaneWords;
    job.trials = 4096;
    job.batches_per_shard = ParallelMcOptions{}.batches_per_shard;
    job.shards = 1;
    const double g = 3e-3;
    if (recovering) {
      RecoveryExperiment::Config config;
      config.trials = job.trials;
      config.seed = seed;
      config.threads = threads;
      config.lane_words = kMachineLaneWords;
      const RecoveryExperiment exp(lib[i], pair.logical, config);
      bool same = exp.plan().total_ops == m.plan.total_ops &&
                  exp.plan().segments.size() == m.plan.segments.size();
      for (const NamedPolicy& p : policies())
        same = same && exp.run(g, p.policy) ==
                           run_recovering(m, p.policy, job, threads, seed, g,
                                          false)
                               .recovered;
      checks.emplace_back(same, "direct recovering engine reproduces "
                                "RecoveryExperiment::run on " + m.label);
    } else {
      CheckedMachineExperiment::Config config;
      config.trials = job.trials;
      config.seed = seed;
      config.threads = threads;
      config.lane_words = kMachineLaneWords;
      const CheckedMachineExperiment exp(lib[i], pair.logical, config);
      const bool same =
          exp.run(g) == run_checked(m, job, threads, seed, g, false).checked;
      checks.emplace_back(same, "direct checked engine reproduces "
                                "CheckedMachineExperiment::run on " + m.label);
    }
  }
  return checks;
}

std::string g_label(double g) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", g);
  return buf;
}

Workload build_machine_checked() {
  Workload w;
  w.name = "machine_checked";
  auto pair = compile_machines(CheckedMachineOptions{}, false, w.stages);
  for (const MachineArtefacts& m : pair->machines) {
    for (const double g : {1e-5, 1e-3}) {
      Job job;
      job.name = "checked_" + m.label + "/g=" + g_label(g);
      job.engine = Engine::kChecked;
      job.g = g;
      job.lane_words = kMachineLaneWords;
      job.trials = kCheckedTrials;
      job.batches_per_shard = kCheckedBatchesPerShard;
      job.shards =
          shard_count(job.trials, job.batches_per_shard, job.lane_words);
      job.circuit = &m.program.checked.circuit;
      job.checked = &m.program.checked;
      const MachineArtefacts* art = &m;
      job.run = [art, job](int threads, std::uint64_t seed, double gg,
                           bool traced) {
        return run_checked(*art, job, threads, seed, gg, traced);
      };
      w.jobs.push_back(std::move(job));
    }
  }
  const MachinePair* p = pair.get();
  w.cross_check = [p](std::uint64_t seed, int threads) {
    return machine_cross_check(*p, false, seed, threads);
  };
  w.owned = pair;
  return w;
}

Workload build_machine_recover() {
  Workload w;
  w.name = "machine_recover";
  auto pair = compile_machines(recovering_machine_options(), true, w.stages);
  for (const MachineArtefacts& m : pair->machines) {
    for (const double g : {1e-3, 3e-3}) {
      for (const NamedPolicy& p : policies()) {
        Job job;
        job.name = "recover_" + m.label + "/g=" + g_label(g) + "/" + p.label;
        job.engine = Engine::kRecover;
        job.policy = p.label;
        job.g = g;
        job.lane_words = kMachineLaneWords;
        job.trials = kRecoverTrials;
        job.batches_per_shard = kRecoverBatchesPerShard;
        job.shards =
            shard_count(job.trials, job.batches_per_shard, job.lane_words);
        job.circuit = &m.program.checked.circuit;
        job.checked = &m.program.checked;
        const MachineArtefacts* art = &m;
        const recover::RetryPolicy policy = p.policy;
        job.run = [art, policy, job](int threads, std::uint64_t seed,
                                     double gg, bool traced) {
          return run_recovering(*art, policy, job, threads, seed, gg, traced);
        };
        w.jobs.push_back(std::move(job));
      }
    }
  }
  const MachinePair* p = pair.get();
  w.cross_check = [p](std::uint64_t seed, int threads) {
    return machine_cross_check(*p, true, seed, threads);
  };
  w.owned = pair;
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "toffoli_stream", "adder_l2", "machine_checked", "machine_recover"};
  return kNames;
}

Workload build_workload(const std::string& name) {
  if (name == "toffoli_stream") return build_toffoli_stream();
  if (name == "adder_l2") return build_adder_l2();
  if (name == "machine_checked") return build_machine_checked();
  if (name == "machine_recover") return build_machine_recover();
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
