#include "noise/parallel_mc.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "support/env.h"
#include "support/error.h"
#include "support/rng.h"

namespace revft {

std::vector<McShard> plan_shards(std::uint64_t trials, std::uint64_t master_seed,
                                 std::uint64_t batches_per_shard,
                                 unsigned lane_words) {
  REVFT_CHECK_MSG(batches_per_shard >= 1,
                  "plan_shards: batches_per_shard=" << batches_per_shard);
  REVFT_CHECK_MSG(valid_lane_words(lane_words),
                  "plan_shards: lane_words=" << lane_words);
  std::vector<McShard> shards;
  if (trials == 0) return shards;
  const std::uint64_t trials_per_shard = batches_per_shard * 64 * lane_words;
  const std::uint64_t count = (trials + trials_per_shard - 1) / trials_per_shard;
  shards.reserve(count);
  Xoshiro256 master(master_seed);
  for (std::uint64_t i = 0; i < count; ++i) {
    McShard shard;
    shard.index = i;
    shard.first_batch = i * batches_per_shard;
    const std::uint64_t first_trial = i * trials_per_shard;
    shard.trials = std::min(trials_per_shard, trials - first_trial);
    shard.seed = master.derive_seed();
    shards.push_back(shard);
  }
  return shards;
}

int resolve_thread_count(int requested) {
  if (requested > 0) return requested;
  if (const auto threads = env::decimal("REVFT_THREADS", 1,
                                        std::numeric_limits<int>::max()))
    return static_cast<int>(*threads);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace detail {

void drive_shards(const std::vector<std::uint64_t>& shard_batches, int threads,
                  bool stoppable, const ShardHooks& hooks) {
  const std::uint64_t horizon =
      stoppable ? 1 : std::numeric_limits<std::uint64_t>::max();
  const std::size_t n = shard_batches.size();
  if (n == 0) return;
  const std::uint64_t rounds =
      *std::max_element(shard_batches.begin(), shard_batches.end());

  std::mutex mu;
  std::condition_variable round_done;  // the caller waits for a round
  std::condition_variable released;    // workers wait for a fold or the end
  std::vector<std::uint64_t> next(n, 0);  // next batch to run, per shard
  std::vector<char> busy(n, 0);
  // waiting[r]: shards whose batch r is not yet published (or given up).
  std::vector<std::uint64_t> waiting(rounds, 0);
  for (const std::uint64_t b : shard_batches)
    for (std::uint64_t r = 0; r < b; ++r) ++waiting[r];
  std::vector<std::exception_ptr> errors(n);
  std::exception_ptr fold_error;
  std::uint64_t folded = 0;
  bool done = false;
  // Shards below `scan` are not claimable until the next fold: a shard
  // the scan passed is busy, finished, or (after its release) past the
  // horizon, and only a fold moves the horizon.
  std::size_t scan = 0;
  const auto claimable = [&](std::size_t i) {
    return !busy[i] && next[i] < shard_batches[i] && next[i] - folded < horizon;
  };

  // Runs shard i from its next batch while the horizon allows; `lk` is
  // held on entry and on exit.
  const auto run_shard = [&](std::size_t i, std::unique_lock<std::mutex>& lk) {
    busy[i] = 1;
    const std::uint64_t first = next[i];
    const std::uint64_t end = std::min(
        shard_batches[i], folded + std::min(horizon, shard_batches[i]));
    lk.unlock();
    std::exception_ptr error;
    try {
      for (std::uint64_t b = first; b < end; ++b) hooks.run_batch(i, b);
    } catch (...) {
      error = std::current_exception();
    }
    lk.lock();
    try {
      hooks.publish(i, first);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
    // A failed shard gives up its remaining batches so the rounds it
    // would have joined can still fold.
    const std::uint64_t stop = error ? shard_batches[i] : end;
    for (std::uint64_t r = first; r < stop; ++r) --waiting[r];
    errors[i] = error;
    next[i] = stop;
    busy[i] = 0;
    if (folded < rounds && waiting[folded] == 0) round_done.notify_one();
  };

  // Every worker runs this loop; only the calling thread folds.
  const auto work = [&](bool caller) {
    std::unique_lock<std::mutex> lk(mu);
    while (!done) {
      if (caller && waiting[folded] == 0) {
        lk.unlock();
        bool stop = true;
        try {
          stop = hooks.fold_round(folded);
        } catch (...) {
          fold_error = std::current_exception();
        }
        lk.lock();
        ++folded;
        scan = 0;
        done = stop || folded == rounds;
        released.notify_all();
        continue;
      }
      while (scan < n && !claimable(scan)) ++scan;
      if (scan < n)
        run_shard(scan++, lk);
      else if (caller)
        round_done.wait(lk);
      else if (!stoppable)
        return;  // no fold can hand out more work
      else
        released.wait(lk);
    }
  };

  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(std::max(threads, 1)), n);
  std::vector<std::thread> pool;
  try {
    for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(work, false);
  } catch (...) {
    // Out of threads: run on those that did start (the caller is one).
  }
  work(true);
  for (std::thread& t : pool) t.join();

  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  if (fold_error) std::rethrow_exception(fold_error);
}

}  // namespace detail

}  // namespace revft
