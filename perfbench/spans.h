// perfbench/spans.h
//
// The benchmark's own tracing: wall-clock spans recorded around calls
// into the library's public functions, kept in memory and written out
// when the run ends. Nothing here reaches inside the library — shard
// spans come from wrapping the kernel objects the engines' factories
// hand out, round spans from the streaming engines' on_snapshot hook.
//
//   * SpanLog  — the run's span list (name, start, end, parent, job),
//                appended only from the coordinating thread.
//   * ShardSlot / TimedKernel — per-shard timestamps written by the one
//                worker that owns the shard, read after the engine call
//                returns (the engines join their workers, or meet at a
//                round barrier, before that).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "noise/packed_sim.h"
#include "support/rng.h"

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in the process.
std::int64_t now_ns();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into SpanLog::spans(), -1 = root
  int job = -1;     ///< spans of one job run share this id
};

class SpanLog {
 public:
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, int job);
  const std::vector<Span>& spans() const noexcept { return spans_; }
  int next_job_id() noexcept { return next_job_++; }
  /// Writes {"spans":[{name,start_us,end_us,parent,job},...]}; returns
  /// false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int next_job_ = 0;
};

/// Length of the union of half-open intervals [first, second).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv);

/// Timestamps of one shard of one engine call.
struct ShardSlot {
  std::int64_t open_ns = 0;   ///< kernel-factory call
  std::int64_t close_ns = 0;  ///< last callback (or kernel destruction)
  std::int64_t batch_start_ns = 0;
  std::vector<std::int64_t> batch_ns;  ///< prepare → last classify, per batch
};

/// Wraps a shard's kernel: the factory call opens the shard, every
/// prepare opens a batch and the classify of the batch's last lane
/// closes it. `close_on_destroy` ends the shard span when the engine
/// drops the kernel — exact for the full-span sharded engines, which
/// destroy it as the shard returns; the streaming engines keep kernels
/// alive to the end of the run, so there the last batch closes it.
template <typename Inner>
class TimedKernel {
 public:
  TimedKernel(Inner inner, ShardSlot* slot, int last_lane,
              bool close_on_destroy)
      : inner_(std::move(inner)),
        slot_(slot),
        last_lane_(last_lane),
        close_on_destroy_(close_on_destroy) {
    slot_->open_ns = now_ns();
  }
  TimedKernel(TimedKernel&& other) noexcept
      : inner_(std::move(other.inner_)),
        slot_(std::exchange(other.slot_, nullptr)),
        last_lane_(other.last_lane_),
        close_on_destroy_(other.close_on_destroy_) {}
  TimedKernel(const TimedKernel&) = delete;
  TimedKernel& operator=(const TimedKernel&) = delete;
  TimedKernel& operator=(TimedKernel&&) = delete;
  ~TimedKernel() {
    if (slot_ != nullptr && close_on_destroy_) slot_->close_ns = now_ns();
  }

  void prepare(revft::PackedState& s, revft::Xoshiro256& rng,
               std::uint64_t batch) {
    slot_->batch_start_ns = now_ns();
    inner_.prepare(s, rng, batch);
  }
  bool classify(const revft::PackedState& s, int lane, std::uint64_t batch) {
    const bool wrong = inner_.classify(s, lane, batch);
    if (lane == last_lane_) {
      const std::int64_t t = now_ns();
      slot_->batch_ns.push_back(t - slot_->batch_start_ns);
      if (!close_on_destroy_) slot_->close_ns = t;
    }
    return wrong;
  }

 private:
  Inner inner_;
  ShardSlot* slot_;
  int last_lane_;
  bool close_on_destroy_;
};

}  // namespace perfbench
