// revft_perfbench — time-to-answer of revft's Monte-Carlo engines.
//
//   revft_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--spans-out <file>]
//
// Builds the workload (its set-up: timed cold, then again after every
// pass), checks the benchmark's pipeline against the library's own
// drivers, runs every job once at g = 0, warms up, then repeats passes
// over the jobs until --seconds have elapsed. A pass runs each job to its answer at N threads and at
// 1 thread on one pass seed and requires the two answers to be
// bit-identical. Every metric is a median over passes (or a percentile
// over pooled samples). The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"} — the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Trace
// mode alternates untraced and traced passes, so it also reports the
// tracing overhead. See README.md in this directory.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "jobs.h"
#include "noise/model.h"
#include "noise/packed_sim.h"
#include "support/rng.h"
#include "telemetry/convergence.h"

using namespace perfbench;

namespace {

/// Seeds recorded with the benchmark: claims are made on the default
/// seed and must also hold on the held-out one.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 20261017;

/// Set-up is timed once cold, then again after every pass: at least one
/// build and kSetupSliceNs per pass (capped at kSetupSliceMaxBuilds), so
/// the median samples the whole run rather than one moment of it.
constexpr std::int64_t kSetupSliceNs = 5'000'000;
constexpr int kSetupSliceMaxBuilds = 200;
constexpr int kMinPasses = 3;
constexpr double kWarmupS = 4.0;
/// calib_s() on the reference host (README.md, Baseline): times are
/// reported at this host speed.
constexpr double kCalibRefS = 2.8e-3;
constexpr int kMaxThreads = 4;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
  /// In the JSON line (BENCHMARK.json lists it); else printed only.
  bool in_json = true;
};

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const char* val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, &end, 0);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
        return false;
      args.trace = val[0] == '1';
    } else if (key == "--spans-out") {
      args.spans_out = val;
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

/// Everything one pass measured. End-to-end fields come from the
/// N-thread runs; `traced` passes ran those with spans and a Trace.
struct Pass {
  bool traced = false;
  double tta_s = 0, tta_1t_s = 0;
  std::uint64_t trials = 0, accepted = 0;
  double gate_lanes = 0, bytes_computed = 0;
  // traced passes only
  double noise_busy_s = 0, recover_busy_s = 0, worker_idle_s = 0;
  double uncovered_s = 0;
  std::uint64_t rounds = 0, trace_events = 0;
  std::uint64_t det_trials = 0, det_detected = 0, det_accepted = 0;
  revft::recover::RecoveryEstimate recovered;
  // untraced passes: wall at N threads per retry policy
  std::map<std::string, double> policy_wall_s;
};

// --- kernel timings for the noise and detect layers ------------------

struct NoiseTimes {
  double ideal_ns_per_lane = 0, noisy_ns_per_lane = 0;
  double mask_ns_per_op = 0, faults_per_trial = 0;
};

volatile std::uint64_t g_sink = 0;

void fill_random(revft::PackedState& st, revft::Xoshiro256& rng) {
  for (std::uint32_t b = 0; b < st.width(); ++b)
    for (unsigned w = 0; w < st.lane_words(); ++w) st.words(b)[w] = rng.next();
}

/// apply_ideal / apply_noisy over the job's own circuit and next_masks
/// at its g, all at its lane width, each after one warm-up round.
NoiseTimes time_noise_kernels(const revft::Circuit& c, double g, unsigned W,
                              std::uint64_t seed) {
  NoiseTimes t;
  const double lanes = 64.0 * W;
  const double lane_ops = static_cast<double>(c.size()) * lanes;
  const int reps = std::max(3, static_cast<int>(3.0e7 / lane_ops));
  revft::Xoshiro256 rng(seed);
  revft::PackedState st(c.width(), W);
  fill_random(st, rng);

  revft::PackedSimulator::apply_ideal(st, c);
  std::int64_t t0 = now_ns();
  for (int r = 0; r < reps; ++r) revft::PackedSimulator::apply_ideal(st, c);
  t.ideal_ns_per_lane = (now_ns() - t0) / (reps * lane_ops);
  g_sink = g_sink + st.words(0)[0];

  revft::PackedSimulator sim(revft::NoiseModel::uniform(g), seed);
  sim.apply_noisy(st, c);
  const std::uint64_t faults0 = sim.faults_drawn();
  t0 = now_ns();
  for (int r = 0; r < reps; ++r) sim.apply_noisy(st, c);
  t.noisy_ns_per_lane = (now_ns() - t0) / (reps * lane_ops);
  t.faults_per_trial =
      static_cast<double>(sim.faults_drawn() - faults0) / (reps * lanes);
  g_sink = g_sink + st.words(0)[0];

  revft::BernoulliMaskStream masks(g, &rng);
  std::uint64_t out[8] = {};
  constexpr int kDraws = 1 << 20;
  for (int i = 0; i < 1024; ++i) masks.next_masks(out, W);
  std::uint64_t acc = 0;
  t0 = now_ns();
  for (int i = 0; i < kDraws; ++i) {
    masks.next_masks(out, W);
    acc ^= out[0] ^ out[W - 1];
  }
  t.mask_ns_per_op = static_cast<double>(now_ns() - t0) / kDraws;
  g_sink = g_sink + acc;
  return t;
}

/// One batch's worth of check evaluations: parity_words_over on every
/// rail group at every checkpoint plus every zero-check cell set.
double time_checks_ns_per_batch(const revft::detect::CheckedCircuit& cc,
                                unsigned W, std::uint64_t seed) {
  revft::Xoshiro256 rng(seed);
  revft::PackedState st(cc.circuit.width(), W);
  fill_random(st, rng);
  std::vector<std::uint64_t> out(W);
  std::uint64_t acc = 0;
  auto batch = [&] {
    for (const auto& groups : cc.checkpoint_groups)
      for (const auto& group : groups) {
        st.parity_words_over(group, out.data());
        acc ^= out[0];
      }
    for (const auto& zc : cc.zero_checks) {
      st.parity_words_over(zc.bits, out.data());
      acc ^= out[0];
    }
  };
  batch();
  constexpr int kReps = 2000;
  const std::int64_t t0 = now_ns();
  for (int r = 0; r < kReps; ++r) batch();
  const double ns = static_cast<double>(now_ns() - t0) / kReps;
  g_sink = g_sink + acc;
  return ns;
}

/// Times a fixed loop of xorshift draws and word AND/XOR over a 64 KiB
/// buffer, at 1 thread. It calls no library code, so its time moves
/// only with the host's speed: the other tenants of a shared host,
/// and its clock.
double calib_s() {
  static std::vector<std::uint64_t> buf(8192, 0x9e3779b97f4a7c15ULL);
  const std::size_t mask = buf.size() - 1;
  std::uint64_t x = 88172645463325252ULL;
  const std::int64_t t0 = now_ns();
  for (int r = 0; r < 120; ++r)
    for (std::size_t i = 0; i < buf.size(); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      buf[i] ^= (buf[(i * 7 + 1) & mask] & buf[(i * 13 + 5) & mask]) ^
                (x & (x >> 11));
    }
  const double s = (now_ns() - t0) / 1e9;
  g_sink = g_sink + buf[x & mask];
  return s;
}

void print_metric(const Metric& m) {
  std::printf("  %-28s %16.6g %-6s n=%zu%s%s%s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.samples, m.note.empty() ? "" : "  ",
              m.note.c_str(), m.in_json ? "" : " [report only]");
}

/// Peak resident set of this process image (VmHWM). getrusage's
/// ru_maxrss would also count the parent that exec'd us.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

/// True when `o` is an answer for `job`: sane counts, the fixed trial
/// count, and for streams a stop by the precision target.
bool answer_reached(const Job& job, const Outcome& o) {
  const bool sane = o.trials() >= 1 && o.wrong() <= o.accepted() &&
                    o.accepted() <= o.trials();
  using revft::telemetry::StopReason;
  if (job.engine == Engine::kStream)
    return sane && o.stop_reason == revft::telemetry::stop_reason_name(
                                        StopReason::kRelHalfWidth);
  return sane && o.trials() == job.trials;
}

/// Per-round busy and wait times of traced streams, pooled.
struct RoundSamples {
  std::vector<double> busy_us, wait_us;
};

/// Adds a traced N-thread run to `pass`: busy and idle time from its
/// shard (or batch) spans, the round split for streams, the counts of
/// its estimate. Records the job's spans into `log` when non-null and
/// returns the job's wall time that no child span covers.
double account_traced(const Job& job, const Outcome& on, int N, Pass& pass,
                      RoundSamples& rounds, SpanLog* log) {
  const double wall = on.wall_s();
  const int job_id = log != nullptr ? log->next_job_id() : -1;
  const int job_span =
      log != nullptr ? log->add("job " + job.name, on.start_ns, on.end_ns, -1,
                                job_id)
                     : -1;
  std::vector<std::pair<std::int64_t, std::int64_t>> children;
  double busy_ns = 0;
  if (job.engine == Engine::kStream) {
    const double width = static_cast<double>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(N), on.shards));
    for (std::size_t r = 0; r < on.snapshot_ns.size(); ++r) {
      const std::int64_t from = r == 0 ? on.start_ns : on.snapshot_ns[r - 1];
      children.emplace_back(from, on.snapshot_ns[r]);
      if (log != nullptr)
        log->add("round", from, on.snapshot_ns[r], job_span, job_id);
      double round_busy = 0;
      for (const ShardSlot& s : on.slots)
        if (r < s.batch_ns.size())
          round_busy += static_cast<double>(s.batch_ns[r]);
      busy_ns += round_busy;
      if (r == 0) continue;  // round 0 also builds the shard states
      const double busy_us = round_busy / width / 1e3;
      rounds.busy_us.push_back(busy_us);
      rounds.wait_us.push_back((on.snapshot_ns[r] - from) / 1e3 - busy_us);
    }
    pass.rounds += on.rounds;
    pass.noise_busy_s += busy_ns / 1e9;
  } else {
    for (const ShardSlot& s : on.slots) {
      children.emplace_back(s.open_ns, s.close_ns);
      busy_ns += static_cast<double>(s.close_ns - s.open_ns);
      if (log != nullptr)
        log->add("shard", s.open_ns, s.close_ns, job_span, job_id);
    }
    double& busy_s = job.engine == Engine::kRecover ? pass.recover_busy_s
                                                     : pass.noise_busy_s;
    busy_s += busy_ns / 1e9;
  }
  pass.worker_idle_s += N * wall - busy_ns / 1e9;
  const double uncovered = wall - covered_ns(children) / 1e9;
  pass.uncovered_s += uncovered;
  pass.trace_events += on.trace_events;
  if (job.engine == Engine::kChecked) {
    pass.det_trials += on.checked.trials;
    pass.det_detected += on.checked.detected;
    pass.det_accepted += on.checked.accepted();
  } else if (job.engine == Engine::kRecover) {
    pass.det_trials += on.recovered.trials;
    pass.det_detected += on.recovered.detected_trials;
    pass.det_accepted += on.recovered.trials - on.recovered.detected_trials;
    pass.recovered += on.recovered;
  }
  return uncovered;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: revft_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans-out <file>]\n");
    return 2;
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int N = std::clamp(hw, 1, kMaxThreads);
  std::printf("revft perfbench: workload=%s seed=%llu (default %llu, held-out "
              "%llu) N=%d seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(kDefaultSeed),
              static_cast<unsigned long long>(kHeldOutSeed), N, args.seconds,
              args.trace ? 1 : 0);

  SpanLog log;
  std::uint64_t attempted = 0, failed = 0;
  auto check = [&](bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  };

  // --- set-up: the cold build is kept for the jobs --------------------
  std::vector<double> setup_samples;
  std::map<std::string, std::vector<double>> stage_samples;
  auto timed_build = [&] {
    const std::int64_t t0 = now_ns();
    Workload built = build_workload(args.workload);
    setup_samples.push_back((now_ns() - t0) / 1e9);
    std::map<std::string, double> per_metric;
    for (const Stage& st : built.stages)
      per_metric[st.metric] += (st.end_ns - st.start_ns) / 1e9;
    for (const auto& [metric, sec] : per_metric)
      stage_samples[metric].push_back(sec);
    return built;
  };
  auto time_setup_slice = [&] {
    const std::int64_t t0 = now_ns();
    for (int b = 0; b < kSetupSliceMaxBuilds; ++b) {
      if (b > 0 && now_ns() - t0 >= kSetupSliceNs) break;
      timed_build();
    }
  };
  const std::int64_t setup_start = now_ns();
  const Workload w = timed_build();
  {
    const int root =
        log.add("setup", setup_start, now_ns(), -1, log.next_job_id());
    for (const Stage& st : w.stages)
      log.add(st.label, st.start_ns, st.end_ns, root, log.spans()[root].job);
  }

  // --- answer checks that do not depend on timing ---------------------
  try {
    for (const auto& [ok, what] : w.cross_check(args.seed, N)) check(ok, what);
  } catch (const std::exception& e) {
    check(false, std::string("cross-check threw: ") + e.what());
  }
  for (const Job& job : w.jobs) {
    try {
      const Outcome o = job.run(N, mix(args.seed), 0.0, false);
      bool ok = o.wrong() == 0 && o.detected() == 0;
      if (job.engine == Engine::kRecover)
        ok = ok && o.recovered.accepted == o.trials() &&
             o.recovered.total_retries() == 0;
      check(ok, job.name + " at g=0: zero failures and zero detections");
    } catch (const std::exception& e) {
      check(false, job.name + " at g=0 threw: " + e.what());
    }
  }

  std::printf("jobs (N=%d threads; shards and rounds per job):\n", N);
  for (const Job& job : w.jobs)
    std::printf("  %-32s engine=%-10s W=%u trials=%llu bps=%llu shards=%llu\n",
                job.name.c_str(), engine_name(job.engine), job.lane_words,
                static_cast<unsigned long long>(job.trials),
                static_cast<unsigned long long>(job.batches_per_shard),
                static_cast<unsigned long long>(job.shards));

  // --- timed passes ----------------------------------------------------
  std::vector<Pass> passes;
  std::vector<double> calib;  // calib_s() next to every 1-thread run
  std::vector<double> progress_ms;  // snapshot / result intervals, untraced
  RoundSamples rounds;
  std::map<std::string, std::vector<double>> job_wall_s, job_wall_1t_s,
      job_wall_traced_s;
  bool spans_recorded = false;
  // Warm-up: N-thread runs of every job, untimed. On a shared virtual
  // host the first seconds of N-thread load run at about 1-thread speed.
  const std::int64_t warm_start = now_ns();
  for (std::uint64_t p = 0; (now_ns() - warm_start) / 1e9 < kWarmupS; ++p)
    for (std::size_t j = 0; j < w.jobs.size(); ++j) {
      try {
        w.jobs[j].run(N, mix(args.seed + ~p - j), w.jobs[j].g, false);
      } catch (const std::exception& e) {
        check(false, w.jobs[j].name + " threw in warm-up: " + e.what());
      }
    }
  const std::int64_t loop_start = now_ns();
  const int min_passes = args.trace ? 2 * kMinPasses : kMinPasses;
  for (int p = 0;; ++p) {
    const double elapsed = (now_ns() - loop_start) / 1e9;
    if (p >= min_passes && elapsed >= args.seconds) break;
    Pass pass;
    pass.traced = args.trace && p % 2 == 1;
    const std::uint64_t pass_seed = mix(args.seed ^ mix(p + 1));
    for (std::size_t j = 0; j < w.jobs.size(); ++j) {
      const Job& job = w.jobs[j];
      const std::uint64_t seed = mix(pass_seed + j);
      try {
        const Outcome on = job.run(N, seed, job.g, pass.traced);
        if (!pass.traced) calib.push_back(calib_s());
        const Outcome o1 = job.run(1, seed, job.g, false);
        check(on.same_answer(o1),
              job.name + ": N-thread answer equals 1-thread answer");
        check(answer_reached(job, on),
              job.name + ": answer reached (" + on.summary() + ")");
        if (p == 0)
          std::printf("  %-32s %s shards=%llu rounds=%llu\n", job.name.c_str(),
                      on.summary().c_str(),
                      static_cast<unsigned long long>(on.shards),
                      static_cast<unsigned long long>(on.rounds));

        const double wall = on.wall_s();
        pass.tta_s += wall;
        pass.tta_1t_s += o1.wall_s();
        pass.trials += on.trials();
        pass.accepted += on.accepted();
        const double ops = static_cast<double>(job.circuit->size());
        const double batches = std::ceil(static_cast<double>(on.trials()) /
                                         (64.0 * job.lane_words));
        pass.gate_lanes += ops * static_cast<double>(on.trials());
        pass.bytes_computed += ops * batches * job.lane_words * 8.0;
        if (!pass.traced) {
          job_wall_s[job.name].push_back(wall);
          job_wall_1t_s[job.name].push_back(o1.wall_s());
          if (!job.policy.empty()) pass.policy_wall_s[job.policy] += wall;
          if (job.engine == Engine::kStream) {
            for (std::size_t r = 1; r < on.snapshot_ns.size(); ++r)
              progress_ms.push_back(
                  (on.snapshot_ns[r] - on.snapshot_ns[r - 1]) / 1e6);
          } else {
            progress_ms.push_back(wall * 1e3);
          }
          continue;
        }

        job_wall_traced_s[job.name].push_back(wall);
        const double uncovered = account_traced(
            job, on, N, pass, rounds, spans_recorded ? nullptr : &log);
        if (!spans_recorded)
          std::printf("  traced %-25s wall=%.6f s, not covered by a span: "
                      "%.6f s\n",
                      job.name.c_str(), wall, uncovered);
      } catch (const std::exception& e) {
        check(false, job.name + " threw: " + e.what());
      }
    }
    if (pass.traced) spans_recorded = true;
    passes.push_back(std::move(pass));
    time_setup_slice();
  }

  std::vector<Pass> plain, traced;
  for (const Pass& p : passes) (p.traced ? traced : plain).push_back(p);
  auto med = [](const std::vector<Pass>& ps, auto field) {
    std::vector<double> v;
    for (const Pass& p : ps) v.push_back(field(p));
    return median(v);
  };
  for (const bool one_thread : {false, true}) {
    std::vector<double> v;
    for (const Pass& p : plain) v.push_back(one_thread ? p.tta_1t_s : p.tta_s);
    std::printf("%s over passes: p25 %.6f p50 %.6f p75 %.6f\n",
                one_thread ? "tta_1t_s" : "tta_s", quantile(v, 0.25),
                quantile(v, 0.5), quantile(v, 0.75));
  }

  // A job's time to answer is the median of its wall times over the
  // passes; a workload's is the sum over its jobs.
  auto sum_over_jobs = [&](std::map<std::string, std::vector<double>>& walls) {
    double sum = 0;
    for (const Job& job : w.jobs) sum += median(walls[job.name]);
    return sum;
  };
  std::printf("job wall time, median over %zu passes (N threads, 1 thread):\n",
              plain.size());
  for (const Job& job : w.jobs)
    std::printf("  %-32s %.6f s  %.6f s\n", job.name.c_str(),
                median(job_wall_s[job.name]), median(job_wall_1t_s[job.name]));

  // --- end-to-end metrics ---------------------------------------------
  // Times are reported at the reference host's speed: wall time divided
  // by `host`, how much slower than on the reference host calib_s() ran
  // in this run. On a shared host the speed drifts with the other
  // tenants' load by 20 % and more over minutes; the fixed loop drifts
  // with it, the program's own changes do not move it (README.md).
  const double host = median(calib) / kCalibRefS;
  const std::size_t np = plain.size();
  const double tta = sum_over_jobs(job_wall_s);
  const double tta_1t = sum_over_jobs(job_wall_1t_s);
  const double pass_trials =
      med(plain, [](const Pass& p) { return static_cast<double>(p.trials); });
  const double pass_accepted =
      med(plain, [](const Pass& p) { return static_cast<double>(p.accepted); });
  std::printf("host speed: calib_s median %.6g s over %zu calls, reference "
              "%.6g s, factor %.4f\n",
              median(calib), calib.size(), kCalibRefS, host);
  std::printf("wall time as measured: setup_s %.6g s, tta_s %.6g s, "
              "tta_1t_s %.6g s\n",
              median(setup_samples), tta, tta_1t);
  std::vector<Metric> e2e = {
      {"setup_s", median(setup_samples) / host, "s", setup_samples.size(),
       "median of builds"},
      {"tta_s", tta / host, "s", np, "sum over jobs at N threads"},
      {"tta_1t_s", tta_1t / host, "s", np, "sum over jobs at 1 thread"},
      {"trials_per_s", pass_trials * host / tta, "1/s", np,
       "trials per pass / tta_s"},
      {"ns_per_accept", tta / host * 1e9 / pass_accepted, "ns", np,
       "tta_s per delivered output"},
      {"trials_to_answer",
       med(plain, [](const Pass& p) { return static_cast<double>(p.trials); }),
       "trials", np, "sum over jobs"},
      {"peak_rss_mb", peak_rss_mb(), "MiB", 1, ""},
  };
  // Progress intervals: on a stream the on_snapshot intervals, for a
  // fixed-size job the job itself (its answer is its only report).
  // Report only: their tails follow the host's scheduling of the N
  // workers more than the program (see README.md).
  const bool streams =
      std::any_of(w.jobs.begin(), w.jobs.end(),
                  [](const Job& j) { return j.engine == Engine::kStream; });
  const std::size_t beyond =
      progress_ms.size() -
      static_cast<std::size_t>(std::ceil(0.99 * progress_ms.size()));
  e2e.push_back({"snapshot_p50_ms", quantile(progress_ms, 0.50), "ms",
                 progress_ms.size(),
                 streams ? "snapshot intervals" : "job results", false});
  e2e.push_back({"snapshot_p99_ms", quantile(progress_ms, 0.99), "ms",
                 progress_ms.size(),
                 std::to_string(beyond) + " samples beyond p99", false});
  std::printf("end-to-end metrics (%zu untraced passes):\n", np);
  for (const Metric& m : e2e) print_metric(m);
  std::printf("  %-28s %16.6g %-6s (failed %llu of %llu checked jobs)\n",
              "failed_frac",
              attempted ? static_cast<double>(failed) / attempted : 0.0,
              "ratio", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::vector<Metric> layer;
  if (args.trace) {
    const std::size_t nt = traced.size();
    for (const char* stage : {"ft.concat_s", "local.route_s",
                              "local.schedule_s", "detect.rail_s",
                              "recover.plan_s"}) {
      const auto it = stage_samples.find(stage);
      const bool used = it != stage_samples.end();
      layer.push_back({stage, used ? median(it->second) : 0.0, "s",
                       used ? it->second.size() : 0,
                       used ? "median of builds" : "not used"});
    }

    // Kernel timings on each job's own circuit, g and lane width.
    std::map<std::tuple<const revft::Circuit*, double, unsigned>, NoiseTimes>
        noise;
    std::map<const revft::detect::CheckedCircuit*, double> checks;
    std::printf("layer kernels on each job's circuit, g and W:\n");
    for (const Job& job : w.jobs) {
      const auto key = std::make_tuple(job.circuit, job.g, job.lane_words);
      if (!noise.count(key)) {
        const NoiseTimes t =
            time_noise_kernels(*job.circuit, job.g, job.lane_words, args.seed);
        noise[key] = t;
        std::printf("  %-32s apply_ideal %.5f ns/lane-op, apply_noisy %.5f "
                    "ns/lane-op, next_masks %.2f ns/call, %.4g faults/trial\n",
                    job.name.c_str(), t.ideal_ns_per_lane, t.noisy_ns_per_lane,
                    t.mask_ns_per_op, t.faults_per_trial);
      }
      if (job.checked != nullptr && !checks.count(job.checked)) {
        checks[job.checked] =
            time_checks_ns_per_batch(*job.checked, job.lane_words, args.seed);
        std::printf("  %-32s checks %.1f ns/batch\n", job.name.c_str(),
                    checks[job.checked]);
      }
    }
    auto mean_noise = [&](auto field) {
      double sum = 0;
      for (const auto& [key, t] : noise) sum += field(t);
      return sum / static_cast<double>(noise.size());
    };
    double check_ns = 0;
    for (const auto& [cc, ns] : checks) check_ns += ns;
    if (!checks.empty()) check_ns /= static_cast<double>(checks.size());

    auto sum_rec = [&](auto field) {
      return med(traced, [&](const Pass& p) {
        return static_cast<double>(field(p.recovered));
      });
    };
    const bool has_det = !traced.empty() && traced[0].det_trials > 0;
    const bool has_rec = !traced.empty() && traced[0].recovered.trials > 0;
    const double retry_ratio = med(plain, [](const Pass& p) {
      const auto bl = p.policy_wall_s.find("block-local");
      const auto nr = p.policy_wall_s.find("no-retry");
      return bl == p.policy_wall_s.end() || nr == p.policy_wall_s.end()
                 ? 0.0
                 : bl->second / nr->second;
    });
    const double traced_tta = sum_over_jobs(job_wall_traced_s);

    const std::string rec_note = has_rec ? "" : "not used";
    const std::string det_note = has_det ? "" : "not used";
    const std::vector<Metric> more = {
        {"detect.check_ns_per_batch", check_ns, "ns", checks.size(),
         checks.empty() ? "not used" : "mean over checked circuits"},
        {"detect.detected_frac",
         med(traced, [](const Pass& p) {
           return p.det_trials ? static_cast<double>(p.det_detected) /
                                     static_cast<double>(p.det_trials)
                               : 0.0;
         }),
         "ratio", nt, det_note},
        {"detect.accept_frac",
         med(traced, [](const Pass& p) {
           return p.det_trials ? static_cast<double>(p.det_accepted) /
                                     static_cast<double>(p.det_trials)
                               : 0.0;
         }),
         "ratio", nt, det_note},
        {"recover.shard_busy_s",
         med(traced, [](const Pass& p) { return p.recover_busy_s; }), "s", nt,
         rec_note},
        {"recover.retry_cost_ratio", retry_ratio, "ratio", np,
         has_rec ? "block-local / no-retry wall at equal g, W" : "not used"},
        {"recover.local_retries",
         sum_rec([](const auto& r) { return r.local_retries; }), "count", nt,
         rec_note},
        {"recover.program_restarts",
         sum_rec([](const auto& r) { return r.program_restarts; }), "count",
         nt, rec_note},
        {"recover.fallbacks",
         sum_rec([](const auto& r) { return r.fallbacks; }), "count", nt,
         rec_note},
        {"recover.replay_waste",
         med(traced, [](const Pass& p) {
           return p.recovered.ops_main
                      ? static_cast<double>(p.recovered.ops_local) /
                            p.recovered.ops_main
                      : 0.0;
         }),
         "ratio", nt, has_rec ? "ops_local / ops_main" : "not used"},
        {"recover.accept_frac",
         med(traced, [](const Pass& p) {
           return p.recovered.trials ? p.recovered.acceptance_rate() : 0.0;
         }),
         "ratio", nt, rec_note},
        {"recover.ops_per_accept",
         med(traced, [](const Pass& p) {
           return p.recovered.accepted ? p.recovered.expected_ops_per_accept()
                                       : 0.0;
         }),
         "ops", nt, rec_note},
        {"noise.gate_ns_per_lane",
         mean_noise([](const NoiseTimes& t) { return t.ideal_ns_per_lane; }),
         "ns", noise.size(), "apply_ideal, mean over (circuit, g, W)"},
        {"noise.noisy_ns_per_lane",
         mean_noise([](const NoiseTimes& t) { return t.noisy_ns_per_lane; }),
         "ns", noise.size(), "apply_noisy"},
        {"noise.mask_ns_per_op",
         mean_noise([](const NoiseTimes& t) { return t.mask_ns_per_op; }), "ns",
         noise.size(), "next_masks call"},
        {"noise.faults_per_trial",
         mean_noise([](const NoiseTimes& t) { return t.faults_per_trial; }),
         "count", noise.size(), "faults_drawn per lane per circuit"},
        {"noise.gate_lanes",
         med(plain, [](const Pass& p) { return p.gate_lanes; }), "count", np,
         "computed: ops x trials per pass"},
        {"noise.bytes_computed",
         med(plain, [](const Pass& p) { return p.bytes_computed; }), "B", np,
         "computed: ops x batches x W x 8 B per pass"},
        {"noise.shard_busy_s",
         med(traced, [](const Pass& p) { return p.noise_busy_s; }), "s", nt,
         ""},
        {"noise.worker_idle_s",
         med(traced, [](const Pass& p) { return p.worker_idle_s; }), "s", nt,
         "N x wall - busy"},
        {"telemetry.round_busy_us", median(rounds.busy_us), "us",
         rounds.busy_us.size(),
         rounds.busy_us.empty() ? "not used" : "median round", false},
        {"telemetry.round_wait_us", median(rounds.wait_us), "us",
         rounds.wait_us.size(),
         rounds.wait_us.empty() ? "not used" : "median round", false},
        {"telemetry.rounds",
         med(traced,
             [](const Pass& p) { return static_cast<double>(p.rounds); }),
         "count", nt, rounds.busy_us.empty() ? "not used" : "per pass", false},
        {"telemetry.trace_events",
         med(traced,
             [](const Pass& p) { return static_cast<double>(p.trace_events); }),
         "count", nt, "events the engines emitted per pass"},
        {"bench.uncovered_s",
         med(traced, [](const Pass& p) { return p.uncovered_s; }), "s", nt,
         "job wall time no span covers, per pass"},
        {"bench.trace_overhead", tta > 0 ? traced_tta / tta : 0.0, "ratio", nt,
         "traced tta_s / untraced tta_s"},
    };
    layer.insert(layer.end(), more.begin(), more.end());
    std::printf("per-layer metrics (%zu traced passes):\n", nt);
    for (const Metric& m : layer) print_metric(m);
    if (!args.spans_out.empty() && !log.write_json(args.spans_out))
      std::printf("could not write spans to %s\n", args.spans_out.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const Metric& m : args.trace ? layer : e2e) {
    if (!m.in_json) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
