// revft/noise/packed_sim.h
//
// Bit-parallel Monte-Carlo engine: independent trials ("lanes") are
// simulated at once by storing trial t's value of circuit bit i in bit
// t%64 of lane word t/64 of cell i. Every primitive gate is then a
// handful of bitwise ops across all lanes, and a gate failure is a
// per-lane Bernoulli mask under which the touched words are
// overwritten with fresh random bits — exactly the paper's "randomize
// all the bits it is applied to with probability g" semantics (§2).
//
// A state carries lane_words (W ∈ {1,2,4,8}, see noise/lanes.h) words
// per circuit bit, i.e. 64*W lanes per batch. All gate kernels loop
// contiguously over the W words of each touched cell with W fixed at
// compile time, which the compiler auto-vectorizes to AVX2 (W=4) or
// AVX-512 (W=8) — no intrinsics anywhere.
//
// The fault path. Each gate kind has one Bernoulli(g) lane stream on
// the simulator's single RNG; at small g the stream is a geometric gap
// counter (lanes until the next failure, carried across words, gates
// and batches). The gate, span and op-list entry points each run one
// loop per W with everything below inlined into it:
//   * a gate between two faults costs its word ops plus one
//     compare-and-subtract of 64·W on its kind's counter — no RNG
//     draw, no mask, no call;
//   * a gate whose batch holds a fault walks the gap chain once: one
//     inline gap step per failing lane (std::log, the only library
//     call on the path), yielding the W masks and the failing-lane
//     count; then arity × failing-words inline xoshiro256** draws
//     randomize the failed lanes.
// The walk counts the lanes it sets, so faults_drawn() needs no
// popcount: the baseline x86-64 ISA has no POPCNT, and each
// __builtin_popcountll there is a libgcc call. Only the per-lane
// threshold path (g >= 0.03) and the degenerate g = 0 / g = 1 streams
// leave the loop (BernoulliMaskStream::draw_dense, out of line).
//
// Every entry point draws the same RNG words in the same order: per
// gate, the kind's W masks exactly as W next_mask() calls would, then
// one word per (operand bit, failing word), bit-major over ascending
// failing words. So the plain, checked and recovering engines are
// bit-identical whichever entry they use, and W=1 is the legacy 64-lane
// engine bit for bit (tests/test_simd_lanes.cpp pins both, the first
// against a test-local reference of this order at every W).
//
// Exactness note: lane failure masks are drawn from an *exact*
// Bernoulli(g) stream (geometric gap sampling at small g, per-lane
// threshold comparison otherwise), so small-g tails — the regime the
// threshold theorem lives in — carry no approximation bias. The
// geometric gap counter spans word and batch boundaries, so widening
// the batch never perturbs the failure statistics.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "noise/lanes.h"
#include "noise/model.h"
#include "rev/circuit.h"
#include "support/error.h"
#include "support/rng.h"

namespace revft {

/// 64 * lane_words trial lanes of classical bit state, stored
/// bit-major: the lane words of circuit bit i are the contiguous run
/// words()[i*W .. i*W+W) — the layout every gate kernel streams over.
class PackedState {
 public:
  explicit PackedState(std::uint32_t width, unsigned lane_words = 1)
      : words_(static_cast<std::size_t>(width) * lane_words, 0),
        width_(width),
        lane_words_(lane_words) {
    REVFT_CHECK_MSG(valid_lane_words(lane_words),
                    "PackedState: lane_words=" << lane_words
                                               << " not in {1,2,4,8}");
  }

  std::uint32_t width() const noexcept { return width_; }
  unsigned lane_words() const noexcept { return lane_words_; }
  /// Trials simulated per batch: 64 * lane_words().
  unsigned lanes() const noexcept { return 64 * lane_words_; }

  // Hot path: the accessors below run inside the innermost gate loop,
  // so bounds checking is debug-only (REVFT_DASSERT), not vector::at().

  /// Lane words of circuit bit `bit` (contiguous, lane_words() long).
  const std::uint64_t* words(std::uint32_t bit) const {
    REVFT_DASSERT(bit < width_);
    return words_.data() + static_cast<std::size_t>(bit) * lane_words_;
  }
  std::uint64_t* words(std::uint32_t bit) {
    REVFT_DASSERT(bit < width_);
    return words_.data() + static_cast<std::size_t>(bit) * lane_words_;
  }

  /// words(bit) for the gate kernels, which know lane_words() == W at
  /// compile time: the cell offset is a shift, not a multiply.
  template <unsigned W>
  std::uint64_t* cell_words(std::uint32_t bit) {
    REVFT_DASSERT(lane_words_ == W);
    REVFT_DASSERT(bit < width_);
    return words_.data() + static_cast<std::size_t>(bit) * W;
  }

  /// Legacy single-word accessors of the 64-lane engine. Only valid at
  /// lane_words() == 1 (multi-word callers use words(bit)).
  std::uint64_t word(std::uint32_t bit) const {
    REVFT_DASSERT(lane_words_ == 1);
    REVFT_DASSERT(bit < width_);
    return words_[bit];
  }
  std::uint64_t& word(std::uint32_t bit) {
    REVFT_DASSERT(lane_words_ == 1);
    REVFT_DASSERT(bit < width_);
    return words_[bit];
  }

  /// Set circuit bit `bit` to `v` in every lane.
  void fill_bit(std::uint32_t bit, bool v) {
    std::uint64_t* w = words(bit);
    for (unsigned k = 0; k < lane_words_; ++k) w[k] = v ? ~0ULL : 0;
  }

  /// Value of `bit` in one lane (lane < lanes()).
  std::uint8_t bit_lane(std::uint32_t bit, int lane) const {
    REVFT_DASSERT(lane >= 0 && static_cast<unsigned>(lane) < lanes());
    const unsigned l = static_cast<unsigned>(lane);
    return static_cast<std::uint8_t>((words(bit)[l >> 6] >> (l & 63u)) & 1u);
  }

  /// Set `bit` in one lane.
  void set_bit_lane(std::uint32_t bit, int lane, bool v);

  /// Per-lane XOR of the words of bits [0, count): bit t of the result
  /// is the total parity of trial t's first `count` circuit bits. This
  /// is the word-level primitive behind online error detection
  /// (src/detect/): one XOR per data rail evaluates the parity-rail
  /// invariant for all 64 lanes at once. Legacy single-word form,
  /// lane_words() == 1 only; multi-word engines use parity_words().
  std::uint64_t parity_word(std::uint32_t count) const;

  /// Masked variant for a rail partition: per-lane XOR of the words of
  /// the listed bits (a rail group). Evaluating every group of a
  /// disjoint partition costs the same word work as one parity_word
  /// over their union — the per-rail refinement is free at the
  /// checkpoint. Legacy single-word form, lane_words() == 1 only.
  std::uint64_t parity_word_over(const std::vector<std::uint32_t>& bits) const;

  /// Multi-word parity of bits [0, count): out[w] accumulates lane
  /// word w across the bits (out must hold lane_words() words).
  void parity_words(std::uint32_t count, std::uint64_t* out) const;

  /// Multi-word group parity (the widened parity_word_over); out must
  /// hold lane_words() words and is overwritten.
  void parity_words_over(const std::vector<std::uint32_t>& bits,
                         std::uint64_t* out) const;

  /// All bits of all lanes to zero.
  void clear() { std::fill(words_.begin(), words_.end(), 0); }

 private:
  std::vector<std::uint64_t> words_;
  std::uint32_t width_;
  unsigned lane_words_;
};

/// Exact Bernoulli(p) bit stream producing 64-lane mask words. Uses
/// geometric gap sampling when p is small (one RNG draw and one log
/// per failing lane instead of 64 draws per word) and per-lane
/// threshold comparison otherwise. Both paths are exact. A W-word batch
/// consumes the identical RNG stream as W successive next_mask() calls
/// — the gap counter carries across word, gate and batch boundaries —
/// so lane_words enters the determinism key only through how many
/// words each gate draws, never through the sampling math.
class BernoulliMaskStream {
 public:
  BernoulliMaskStream(double p, Xoshiro256* rng);

  /// Move-only: the stream draws from a generator it does not own, so
  /// a copy would silently share that generator's position with the
  /// original. Moves hand the pointer over (PackedSimulator keeps its
  /// streams in a vector next to the RNG they point at).
  BernoulliMaskStream(const BernoulliMaskStream&) = delete;
  BernoulliMaskStream& operator=(const BernoulliMaskStream&) = delete;
  BernoulliMaskStream(BernoulliMaskStream&&) = default;
  BernoulliMaskStream& operator=(BernoulliMaskStream&&) = default;

  std::uint64_t next_mask() {
    std::uint64_t mask = 0;
    draw_batch<1>(&mask);
    return mask;
  }

  /// Draw `words` ∈ {1,2,4,8} consecutive 64-lane masks into
  /// out[0..words). Bit-identical to calling next_mask() `words` times.
  void next_masks(std::uint64_t* out, unsigned words);

  /// The draw-free step of a W-word batch, the hot path of every noisy
  /// gate at small g: when the pending gap spans the whole batch no
  /// lane fails and no RNG state moves, so the step is one compare and
  /// one subtract on the counter. Returns false, changing nothing, when
  /// the batch holds a failure (always on the threshold path and at
  /// p = 1; never at p = 0).
  template <unsigned W>
  bool skip_batch() noexcept {
    if (countdown_ < 64ULL * W) return false;
    countdown_ -= 64ULL * W;
    return true;
  }

  /// The W failure masks of the next batch into out[0..W); returns the
  /// number of failing lanes. The geometric walk visits the failing
  /// lanes once, in order, across the whole batch, so the count comes
  /// free — no popcount (a libgcc call on the baseline x86-64 ISA).
  template <unsigned W>
  std::uint64_t draw_batch(std::uint64_t* out) {
    if (!use_geometric_) return draw_dense(out, W);
    for (unsigned w = 0; w < W; ++w) out[w] = 0;
    std::uint64_t failing = 0;
    while (countdown_ < 64ULL * W) {
      out[countdown_ >> 6] |= 1ULL << (countdown_ & 63);
      ++failing;
      countdown_ += 1 + draw_gap();
    }
    countdown_ -= 64ULL * W;
    return failing;
  }

  double p() const noexcept { return p_; }

 private:
  double p_;
  Xoshiro256* rng_;  // not owned
  bool use_geometric_;
  double inv_log1m_p_ = 0.0;  // 1 / ln(1-p)
  /// Lanes before the next failing lane. Geometric path: the gap
  /// counter. p = 0: effectively infinite, so skip_batch always
  /// succeeds. Threshold path and p = 1: zero, so it always declines.
  std::uint64_t countdown_ = 0;

  /// Inversion of the geometric distribution: G = floor(ln U / ln(1-p))
  /// with U in (0, 1] has P(G = k) = (1-p)^k p — exactly the number of
  /// non-failures before the next failure in a Bernoulli(p) stream.
  std::uint64_t draw_gap() noexcept {
    double u = rng_->next_double();
    if (u <= 0.0) u = 0x1.0p-53;  // next_double() is in [0,1); map 0 to the
                                  // smallest positive value so ln is finite
    const double gap = std::floor(std::log(u) * inv_log1m_p_);
    // Cap to keep the integer conversion defined; gaps this large
    // behave identically (no failure for a very long time).
    if (gap > 9.0e18) return 9000000000000000000ULL;
    return static_cast<std::uint64_t>(gap);
  }

  /// The threshold path and the degenerate p = 0 / p = 1 streams, kept
  /// out of line (with their popcount) so the noisy gate loops stay
  /// call-free on the geometric path; returns the failing-lane count.
  [[gnu::noinline]] std::uint64_t draw_dense(std::uint64_t* out,
                                             unsigned words);
};

/// Applies circuits to PackedState, ideally or under a NoiseModel.
/// The per-gate word loops are instantiated for each valid lane_words
/// at compile time (the state's width selects the instantiation), so
/// the W=4/W=8 bodies present the compiler straight-line 4- and
/// 8-word array ops it turns into AVX2/AVX-512 vector code.
class PackedSimulator {
 public:
  /// Noisy simulator with explicit seed (reproducible).
  PackedSimulator(const NoiseModel& model, std::uint64_t seed);

  /// Neither copyable nor movable: every mask stream points at this
  /// simulator's own RNG, so a copy would draw its masks from the
  /// source's RNG and dangle once the source is gone. Construct in
  /// place (guaranteed elision covers returning one by value).
  PackedSimulator(const PackedSimulator&) = delete;
  PackedSimulator& operator=(const PackedSimulator&) = delete;

  /// Apply with no noise (useful for checking lane-parallel semantics
  /// against the scalar reference simulator).
  static void apply_ideal(PackedState& state, const Gate& g);
  static void apply_ideal(PackedState& state, const Circuit& c);

  void apply_noisy(PackedState& state, const Gate& g);
  void apply_noisy(PackedState& state, const Circuit& c);

  /// Apply ops [first, last) of `c` noisily. The checked engine
  /// (detect/checked_mc) runs the segments between checkpoints through
  /// this, the whole-circuit overload runs [0, size).
  void apply_noisy_span(PackedState& state, const Circuit& c, std::size_t first,
                        std::size_t last);

  /// Apply the ops of `c` at `positions` (each < c.size()) noisily, in
  /// list order — the recovering engine's component replays. Same
  /// per-gate stream as one apply_noisy(state, c.op(pos)) per entry,
  /// at one width dispatch per list instead of one per gate.
  void apply_noisy_ops(PackedState& state, const Circuit& c,
                       std::span<const std::size_t> positions);

  /// Total number of (gate, lane) failures drawn so far — a cheap
  /// sanity diagnostic (its expectation is g * gates * lanes).
  std::uint64_t faults_drawn() const noexcept { return faults_drawn_; }

  const NoiseModel& model() const noexcept { return model_; }
  Xoshiro256& rng() noexcept { return rng_; }

 private:
  template <unsigned W>
  friend struct PackedKernels;

  NoiseModel model_;
  Xoshiro256 rng_;
  std::uint64_t faults_drawn_ = 0;
  // One exact Bernoulli stream per gate kind (probabilities differ).
  std::vector<BernoulliMaskStream> streams_;
};

}  // namespace revft
