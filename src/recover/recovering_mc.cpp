#include "recover/recovering_mc.h"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "recover/checkpoint.h"
#include "support/error.h"

namespace revft::recover {

namespace {

int popcount(std::uint64_t mask) { return std::popcount(mask); }

/// Pre-registered metric handles plus the event sink, resolved once
/// per batch so the hot path bumps raw integers (registration can
/// reallocate the registry; plain bumps never do). Null trace = no
/// hooks anywhere.
struct TraceHooks {
  telemetry::ShardTrace* trace = nullptr;
  std::uint64_t* local_retries = nullptr;
  std::uint64_t* restarts = nullptr;
  std::uint64_t* fallbacks = nullptr;
  std::vector<std::uint64_t>* rail_events = nullptr;
  std::vector<std::uint64_t>* seg_replays = nullptr;
  std::vector<std::uint64_t>* seg_replay_ops = nullptr;
  telemetry::Histogram* replays_per_batch = nullptr;

  static TraceHooks resolve(telemetry::ShardTrace* trace,
                            std::size_t rails, std::size_t segments) {
    TraceHooks h;
    if (trace == nullptr || !trace->enabled()) return h;
    telemetry::MetricsRegistry& m = trace->metrics();
    m.counter("recover.local_retries");
    m.counter("recover.program_restarts");
    m.counter("recover.fallbacks");
    m.counter_vec("recover.rail_events", rails);
    m.counter_vec("recover.segment.replays", segments);
    m.counter_vec("recover.segment.replay_ops", segments);
    m.histogram("recover.replays_per_batch", {0, 1, 2, 4, 8, 16, 32});
    h.trace = trace;
    h.local_retries = &m.counter("recover.local_retries");
    h.restarts = &m.counter("recover.program_restarts");
    h.fallbacks = &m.counter("recover.fallbacks");
    h.rail_events = &m.counter_vec("recover.rail_events", rails);
    h.seg_replays = &m.counter_vec("recover.segment.replays", segments);
    h.seg_replay_ops = &m.counter_vec("recover.segment.replay_ops", segments);
    h.replays_per_batch =
        &m.histogram("recover.replays_per_batch", {0, 1, 2, 4, 8, 16, 32});
    return h;
  }

  void emit(telemetry::EventKind kind, std::uint64_t batch,
            std::uint32_t segment, std::uint16_t rail, std::uint64_t lanes,
            std::uint64_t value) const {
    telemetry::Event ev;
    ev.kind = kind;
    ev.shard = trace->shard_index();
    ev.rail = rail;
    ev.segment = segment;
    ev.batch = batch;
    ev.lanes = lanes;
    ev.value = value;
    trace->emit(ev);
  }

  /// Emit one event per nonzero lane word of `lanes` — the multi-word
  /// generalization of a single masked emit (identical stream at
  /// lane_words = 1, where the caller only invokes this on a nonzero
  /// mask).
  void emit_mask(telemetry::EventKind kind, std::uint64_t batch,
                 std::uint32_t segment, std::uint16_t rail,
                 const LaneMask& lanes, std::uint64_t value) const {
    for (unsigned w = 0; w < lanes.words(); ++w)
      if (lanes.word(w) != 0)
        emit(kind, batch, segment, rail, lanes.word(w), value);
  }
};

/// Evaluate the checks of `seg` on `s` for every component in `watch`
/// (a component bitmask), ORing per-lane fired masks into comp_fired
/// (pre-zeroed, lane_words words per component, component-major). When
/// `est` is non-null the per-rail / zero-check event counters are
/// bumped for lanes in `count_mask` — and, when `hooks` traces, the
/// matching kRailFired / kZeroCheckFired events fire (counting pass
/// only: replay and restart re-evaluations pass a null est and stay
/// silent, so the event stream matches the estimate's attribution
/// exactly). Checkpoint membership is read off the flattened
/// checkpoint_spans.
void eval_boundary(const detect::CheckedCircuit& checked, const Segment& seg,
                   const PackedState& s, std::uint64_t watch,
                   std::vector<std::uint64_t>& comp_fired,
                   RecoveryEstimate* est, const LaneMask& count_mask,
                   const TraceHooks* hooks = nullptr,
                   std::uint32_t seg_index = 0, std::uint64_t batch = 0) {
  const bool tracing = est != nullptr && hooks != nullptr &&
                       hooks->trace != nullptr;
  const unsigned W = s.lane_words();
  std::uint64_t violated[kMaxLaneWords];
  if (seg.checkpoint >= 0) {
    const std::size_t cp = static_cast<std::size_t>(seg.checkpoint);
    const detect::CheckpointSpan& span = checked.checkpoint_spans[cp];
    for (std::size_t r = 0; r < checked.rails.size(); ++r) {
      const std::uint32_t c = seg.component_of_rail[r];
      if (!((watch >> c) & 1ULL)) continue;
      const std::uint64_t* rail = s.words(checked.rails[r].rail_bit);
      for (unsigned w = 0; w < W; ++w) violated[w] = rail[w];
      const std::uint32_t first = span.rail_first[r];
      const std::uint32_t last = span.rail_first[r + 1];
      for (std::uint32_t i = first; i < last; ++i) {
        const std::uint64_t* src = s.words(span.bits[i]);
        for (unsigned w = 0; w < W; ++w) violated[w] ^= src[w];
      }
      for (unsigned w = 0; w < W; ++w) comp_fired[c * W + w] |= violated[w];
      if (est != nullptr) {
        std::uint64_t counted_total = 0;
        for (unsigned w = 0; w < W; ++w) {
          const std::uint64_t counted = violated[w] & count_mask.word(w);
          counted_total += static_cast<std::uint64_t>(popcount(counted));
          if (tracing && counted != 0) {
            (*hooks->rail_events)[r] +=
                static_cast<std::uint64_t>(popcount(counted));
            hooks->emit(telemetry::EventKind::kRailFired, batch, seg_index,
                        static_cast<std::uint16_t>(r), counted, 0);
          }
        }
        est->rail_events[r] += counted_total;
      }
    }
  }
  for (std::size_t k = 0; k < seg.zero_checks.size(); ++k) {
    const std::uint32_t c = seg.component_of_zero_check[k];
    if (!((watch >> c) & 1ULL)) continue;
    std::uint64_t mask[kMaxLaneWords] = {};
    for (const std::uint32_t bit :
         checked.zero_checks[seg.zero_checks[k]].bits) {
      const std::uint64_t* src = s.words(bit);
      for (unsigned w = 0; w < W; ++w) mask[w] |= src[w];
    }
    for (unsigned w = 0; w < W; ++w) comp_fired[c * W + w] |= mask[w];
    if (est != nullptr) {
      for (unsigned w = 0; w < W; ++w) {
        const std::uint64_t counted = mask[w] & count_mask.word(w);
        est->zero_check_events += static_cast<std::uint64_t>(popcount(counted));
        if (tracing && counted != 0)
          hooks->emit(telemetry::EventKind::kZeroCheckFired, batch, seg_index,
                      static_cast<std::uint16_t>(seg.zero_checks[k]), counted,
                      0);
      }
    }
  }
}

/// Re-run the ops of the components in `set` on `s` in original order
/// (fresh masks) through the simulator's op-list kernel; returns the op
/// count. A single-component set runs the component's own op list, the
/// same ops in the same order the component_of_op scan visits; a wider
/// set collects its ops into `positions` first.
std::uint64_t replay_components(PackedSimulator& sim, PackedState& s,
                                const Circuit& circuit, const Segment& seg,
                                std::uint64_t set,
                                std::vector<std::size_t>& positions) {
  if (std::has_single_bit(set)) {
    const auto& ops =
        seg.components[static_cast<std::size_t>(std::countr_zero(set))].ops;
    sim.apply_noisy_ops(s, circuit, ops);
    return ops.size();
  }
  positions.clear();
  for (std::size_t k = 0; k < seg.component_of_op.size(); ++k)
    if ((set >> seg.component_of_op[k]) & 1ULL)
      positions.push_back(seg.begin + k);
  sim.apply_noisy_ops(s, circuit, positions);
  return positions.size();
}

/// Lane compaction of the retry paths. A replay group's consumers, or a
/// restart pass's pending lanes, that fit a narrower lane width run in
/// a preallocated narrow state — narrow lane j stands for batch lane
/// lanes()[j] — so the replay draws masks and runs kernels over 64·nw
/// lanes instead of 64·W. Only widths below the batch's exist: at W = 1
/// (and whenever the lanes need the full width) fit() declines and the
/// caller runs the full-width path unchanged.
class NarrowRetry {
 public:
  NarrowRetry(std::uint32_t width, unsigned W) : W_(W) {
    for (unsigned nw = 1; nw < W; nw *= 2) states_.emplace_back(width, nw);
    lanes_.reserve(64 * W);
  }

  /// The narrowest state holding `mask`'s lanes, with lanes() set to
  /// them — or null when none is narrower than the batch.
  PackedState* fit(const LaneMask& mask) {
    const std::uint64_t count = mask.popcount();
    for (PackedState& s : states_) {
      if (s.lanes() < count) continue;
      lane_indices(mask, lanes_);
      return &s;
    }
    return nullptr;
  }

  const std::vector<std::uint16_t>& lanes() const noexcept { return lanes_; }

  /// Narrow lanes 0..lanes().size() as a mask at `words` lane words.
  LaneMask occupied(unsigned words) const {
    return LaneMask::first_n(words, lanes_.size());
  }

  /// The batch lanes behind the narrow lanes set in `narrow`.
  LaneMask widen(const LaneMask& narrow) const {
    LaneMask wide(W_);
    for_each_lane(narrow, [&](unsigned j) { wide.set(lanes_[j]); });
    return wide;
  }

 private:
  unsigned W_;
  std::vector<PackedState> states_;
  std::vector<std::uint16_t> lanes_;
};

/// OR of the per-component fired masks of the components in `set`
/// (comp_fired at `words` lane words, component-major).
LaneMask fired_lanes(const std::vector<std::uint64_t>& comp_fired,
                     std::uint64_t set, unsigned words) {
  LaneMask fired(words);
  for (; set != 0; set &= set - 1) {
    const std::size_t c = static_cast<std::size_t>(std::countr_zero(set));
    for (unsigned w = 0; w < words; ++w)
      fired.word(w) |= comp_fired[c * words + w];
  }
  return fired;
}

}  // namespace

RecoveryEstimate run_recovering_batch(
    PackedSimulator& sim, PackedState& state,
    const detect::CheckedCircuit& checked, const SegmentPlan& plan,
    const RetryPolicy& policy, std::uint64_t batch, const LaneMask& live,
    const ClassifyFn& classify, LaneMask& accepted,
    telemetry::ShardTrace* trace) {
  const Circuit& circuit = checked.circuit;
  REVFT_CHECK_MSG(plan.total_ops == circuit.size(),
                  "run_recovering_batch: plan built for a different circuit");
  REVFT_CHECK_MSG(checked.checkpoint_spans.size() == checked.checkpoints.size(),
                  "run_recovering_batch: checkpoint_spans missing (build "
                  "the circuit with to_parity_rail)");
  RecoveryEstimate est;
  est.rail_events.assign(checked.rails.size(), 0);
  const TraceHooks hooks = TraceHooks::resolve(trace, checked.rails.size(),
                                               plan.segments.size());
  const TraceHooks* hp = hooks.trace != nullptr ? &hooks : nullptr;

  const unsigned W = state.lane_words();
  const std::uint64_t lanes_per_batch = 64ULL * W;
  const LaneMask no_lanes(W);
  PackedState scratch(circuit.width(), W);
  NarrowRetry narrow_retry(circuit.width(), W);
  PackedCheckpoint entry_cp, boundary_cp;
  // Per-component fired masks, component-major: comp_fired[c*W + w]
  // (at the narrow width inside a compacted retry).
  std::vector<std::uint64_t> comp_fired;
  std::vector<std::uint64_t> lane_set(lanes_per_batch, 0);
  std::vector<int> local_left(lanes_per_batch, 0);
  std::vector<int> program_left(lanes_per_batch, policy.max_program_attempts);
  // Replay groups of one retry round: (fired-component set, lanes),
  // kept sorted by set.
  std::vector<std::pair<std::uint64_t, LaneMask>> groups;
  // Op positions of a multi-component replay.
  std::vector<std::size_t> replay_positions;

  entry_cp.capture(state);
  // Only block-local rollback ever reads the boundary checkpoint;
  // the other policies restart from entry_cp, so skip the per-
  // boundary copies on their hot path (captures draw no randomness,
  // so this cannot shift any estimate).
  const bool keep_boundaries = policy.kind == RetryPolicyKind::kBlockLocal;
  if (keep_boundaries) boundary_cp.capture(state);

  LaneMask active = live;
  LaneMask restart_pending(W);
  LaneMask rejected(W);
  LaneMask detected_lanes(W);
  std::uint64_t batch_replays = 0;

  // --- first pass: segment walk with per-boundary reaction --------
  for (std::size_t si = 0; si < plan.segments.size(); ++si) {
    const Segment& seg = plan.segments[si];
    const std::uint32_t seg_id = static_cast<std::uint32_t>(si);
    sim.apply_noisy_span(state, circuit, seg.begin, seg.end + 1);
    est.ops_main += seg.op_count() * active.popcount();
    comp_fired.assign(seg.components.size() * W, 0);
    eval_boundary(checked, seg, state, ~0ULL, comp_fired, &est, active, hp,
                  seg_id, batch);
    LaneMask fired_any(W);
    for (std::size_t c = 0; c < seg.components.size(); ++c)
      for (unsigned w = 0; w < W; ++w)
        fired_any.word(w) |= comp_fired[c * W + w];
    fired_any &= active;
    if (fired_any.any()) {
      detected_lanes |= fired_any;
      switch (policy.kind) {
        case RetryPolicyKind::kNoRetry:
          rejected |= fired_any;
          active.remove(fired_any);
          break;
        case RetryPolicyKind::kWholeProgram:
          restart_pending |= fired_any;
          active.remove(fired_any);
          break;
        case RetryPolicyKind::kBlockLocal: {
          LaneMask outstanding = fired_any;
          for_each_lane(fired_any, [&](unsigned lane) {
            lane_set[lane] = 0;
            local_left[lane] = policy.max_local_attempts;
          });
          // Transpose the fired masks into per-lane component sets.
          for (std::size_t c = 0; c < seg.components.size(); ++c) {
            LaneMask fired_c(W);
            for (unsigned w = 0; w < W; ++w)
              fired_c.word(w) = comp_fired[c * W + w] & fired_any.word(w);
            for_each_lane(fired_c, [&](unsigned lane) {
              lane_set[lane] |= 1ULL << c;
            });
          }
          LaneMask failed(W);
          if (policy.max_local_attempts <= 0) {
            failed = outstanding;
            outstanding.clear();
          }
          while (outstanding.any()) {
            // Group lanes by identical fired-component sets; process
            // in ascending set order so the RNG consumption — and
            // with it the whole estimate — is a pure function of the
            // shard.
            groups.clear();
            for_each_lane(outstanding, [&](unsigned lane) {
              const std::uint64_t set = lane_set[lane];
              auto it = std::lower_bound(
                  groups.begin(), groups.end(), set,
                  [](const auto& group, std::uint64_t key) {
                    return group.first < key;
                  });
              if (it == groups.end() || it->first != set)
                it = groups.emplace(it, set, LaneMask(W));
              it->second.set(lane);
            });
            for (const auto& [set, consumers] : groups) {
              // Few consumers replay in a narrow state holding only
              // the fired components' footprint (the cells the replay
              // writes and the checks read); the rest restore the
              // whole scratch state.
              PackedState* narrow = narrow_retry.fit(consumers);
              if (narrow != nullptr) {
                for (std::uint64_t s = set; s != 0; s &= s - 1)
                  gather_cells_lanes(
                      *narrow, boundary_cp,
                      seg.components[static_cast<std::size_t>(
                                         std::countr_zero(s))]
                          .cells,
                      narrow_retry.lanes());
              } else {
                boundary_cp.restore_all(scratch);
              }
              PackedState& replay = narrow != nullptr ? *narrow : scratch;
              const std::uint64_t replay_ops =
                  replay_components(sim, replay, circuit, seg, set,
                                    replay_positions);
              const std::uint64_t consumer_count = consumers.popcount();
              est.ops_local += replay_ops * consumer_count;
              est.local_retries += consumer_count;
              batch_replays += consumer_count;
              if (hp != nullptr) {
                *hooks.local_retries += consumer_count;
                (*hooks.seg_replays)[si] += consumer_count;
                (*hooks.seg_replay_ops)[si] += replay_ops * consumer_count;
                hooks.emit_mask(telemetry::EventKind::kCheckpointRestore,
                                batch, seg_id, 0, consumers, 0);
                hooks.emit_mask(telemetry::EventKind::kSegmentReplay, batch,
                                seg_id, 0, consumers, replay_ops);
              }
              const unsigned RW = replay.lane_words();
              comp_fired.assign(seg.components.size() * RW, 0);
              eval_boundary(checked, seg, replay, set, comp_fired, nullptr,
                            no_lanes);
              const LaneMask refired = fired_lanes(comp_fired, set, RW);
              LaneMask accept_replay =
                  narrow != nullptr ? narrow_retry.occupied(RW) : consumers;
              accept_replay.remove(refired);
              const LaneMask accept_mask =
                  narrow != nullptr ? narrow_retry.widen(accept_replay)
                                    : accept_replay;
              // On a partial success (some components clean, some
              // re-fired) the lane keeps its FULL fired set: each
              // attempt restores from the boundary checkpoint, so a
              // component repaired in a discarded replay was never
              // blended into `state` — shrinking to the re-fired
              // subset would accept the lane with the original
              // corruption still in place.
              LaneMask retry = consumers;
              retry.remove(accept_mask);
              for_each_lane(retry, [&](unsigned lane) {
                if (--local_left[lane] <= 0) {
                  failed.set(lane);
                  outstanding.reset(lane);
                }
              });
              if (accept_mask.any()) {
                for (std::uint64_t s = set; s != 0; s &= s - 1) {
                  const auto& cells =
                      seg.components[static_cast<std::size_t>(
                                         std::countr_zero(s))]
                          .cells;
                  if (narrow != nullptr)
                    scatter_cells_lanes(state, *narrow, cells,
                                        narrow_retry.lanes(), accept_replay);
                  else
                    blend_cells_lanes(state, scratch, cells, accept_mask);
                }
                outstanding.remove(accept_mask);
              }
            }
          }
          if (failed.any()) {
            est.fallbacks += failed.popcount();
            if (hp != nullptr) {
              *hooks.fallbacks += failed.popcount();
              hooks.emit_mask(telemetry::EventKind::kEscalationRestart,
                              batch, seg_id, 0, failed, 0);
            }
            restart_pending |= failed;
            active.remove(failed);
          }
          break;
        }
      }
    }
    if (keep_boundaries) boundary_cp.capture(state);
  }

  est.detected_trials += detected_lanes.popcount();
  accepted = active & live;

  // --- whole-program restarts (kWholeProgram, and kBlockLocal
  // fallbacks): full re-runs from the entry checkpoint, one attempt
  // per pending lane per pass; a pass whose pending lanes fit a
  // narrower width runs compacted ---------------------------------
  LaneMask pending = restart_pending;
  if (pending.any() && policy.max_program_attempts <= 0) {
    rejected |= pending;
    pending.clear();
  }
  while (pending.any()) {
    est.program_restarts += pending.popcount();
    if (hp != nullptr) *hooks.restarts += pending.popcount();
    PackedState* narrow = narrow_retry.fit(pending);
    if (narrow != nullptr)
      gather_lanes(*narrow, entry_cp, narrow_retry.lanes());
    else
      entry_cp.restore_all(scratch);
    PackedState& rerun = narrow != nullptr ? *narrow : scratch;
    const unsigned RW = rerun.lane_words();
    const LaneMask rerun_pending =
        narrow != nullptr ? narrow_retry.occupied(RW) : pending;
    LaneMask still_clean = LaneMask::ones(RW);
    for (const Segment& seg : plan.segments) {
      sim.apply_noisy_span(rerun, circuit, seg.begin, seg.end + 1);
      // A lane pays each segment until its first fired boundary —
      // the point a physical whole-program retry would abort at.
      est.ops_restart +=
          seg.op_count() * (rerun_pending & still_clean).popcount();
      comp_fired.assign(seg.components.size() * RW, 0);
      eval_boundary(checked, seg, rerun, ~0ULL, comp_fired, nullptr,
                    no_lanes);
      LaneMask fired(RW);
      for (std::size_t c = 0; c < seg.components.size(); ++c)
        for (unsigned w = 0; w < RW; ++w)
          fired.word(w) |= comp_fired[c * RW + w];
      still_clean.remove(fired);
      // Every pending lane failed: the pass is over.
      if ((rerun_pending & still_clean).none()) break;
    }
    const LaneMask accepted_rerun = rerun_pending & still_clean;
    const LaneMask accepted_now = narrow != nullptr
                                      ? narrow_retry.widen(accepted_rerun)
                                      : accepted_rerun;
    if (accepted_now.any()) {
      if (narrow != nullptr)
        scatter_lanes(state, *narrow, narrow_retry.lanes(), accepted_rerun);
      else
        blend_lanes(state, scratch, accepted_now);
      accepted |= accepted_now & live;
      pending.remove(accepted_now);
    }
    LaneMask exhausted(W);
    for_each_lane(pending, [&](unsigned lane) {
      if (--program_left[lane] <= 0) exhausted.set(lane);
    });
    rejected |= exhausted;
    pending.remove(exhausted);
  }
  est.rejected += rejected.popcount();
  // Judged once, after the restarts: a lane's cells are never written
  // after it is accepted (restarts blend or scatter only the lanes
  // they accept), so every accepted lane still holds its final output.
  est.accepted += accepted.popcount();
  est.silent_failures += classify(state, batch, accepted).popcount();
  if (hp != nullptr) hooks.replays_per_batch->record(batch_replays);
  return est;
}

}  // namespace revft::recover
