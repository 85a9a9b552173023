#include "support/rng.h"

namespace revft {

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
  // All-zero state is the one invalid state for xoshiro; SplitMix64
  // cannot produce four consecutive zeros from any seed, but guard
  // anyway so the invariant is locally visible.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ULL;
}

std::uint64_t Xoshiro256::next_below(std::uint64_t bound) noexcept {
  // Rejection sampling on the top of the range to remove modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::uint64_t Xoshiro256::next_bernoulli_mask(double p) noexcept {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return ~0ULL;
  // Compare one fresh 64-bit draw per lane against p scaled to 2^64.
  // 2^64 * p fits in a uint64 after the clamps above; the half-ulp
  // rounding here is far below Monte-Carlo resolution.
  const auto threshold =
      static_cast<std::uint64_t>(p * 18446744073709551616.0 /* 2^64 */);
  std::uint64_t mask = 0;
  for (int lane = 0; lane < 64; ++lane) {
    mask |= static_cast<std::uint64_t>(next() < threshold) << lane;
  }
  return mask;
}

}  // namespace revft
