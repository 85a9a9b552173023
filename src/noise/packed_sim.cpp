#include "noise/packed_sim.h"

#include <bit>
#include <cmath>

#include "support/error.h"

namespace revft {

void PackedState::set_bit_lane(std::uint32_t bit, int lane, bool v) {
  REVFT_DASSERT(lane >= 0 && static_cast<unsigned>(lane) < lanes());
  const unsigned l = static_cast<unsigned>(lane);
  const std::uint64_t m = 1ULL << (l & 63u);
  std::uint64_t& w = words(bit)[l >> 6];
  if (v)
    w |= m;
  else
    w &= ~m;
}

std::uint64_t PackedState::parity_word(std::uint32_t count) const {
  REVFT_DASSERT(lane_words_ == 1);
  REVFT_DASSERT(count <= width_);
  std::uint64_t acc = 0;
  for (std::uint32_t b = 0; b < count; ++b) acc ^= words_[b];
  return acc;
}

std::uint64_t PackedState::parity_word_over(
    const std::vector<std::uint32_t>& bits) const {
  REVFT_DASSERT(lane_words_ == 1);
  std::uint64_t acc = 0;
  for (const std::uint32_t b : bits) {
    REVFT_DASSERT(b < width_);
    acc ^= words_[b];
  }
  return acc;
}

void PackedState::parity_words(std::uint32_t count, std::uint64_t* out) const {
  REVFT_DASSERT(count <= width_);
  for (unsigned w = 0; w < lane_words_; ++w) out[w] = 0;
  for (std::uint32_t b = 0; b < count; ++b) {
    const std::uint64_t* src = words(b);
    for (unsigned w = 0; w < lane_words_; ++w) out[w] ^= src[w];
  }
}

void PackedState::parity_words_over(const std::vector<std::uint32_t>& bits,
                                    std::uint64_t* out) const {
  for (unsigned w = 0; w < lane_words_; ++w) out[w] = 0;
  for (const std::uint32_t b : bits) {
    REVFT_DASSERT(b < width_);
    const std::uint64_t* src = words(b);
    for (unsigned w = 0; w < lane_words_; ++w) out[w] ^= src[w];
  }
}

BernoulliMaskStream::BernoulliMaskStream(double p, Xoshiro256* rng)
    : p_(p), rng_(rng) {
  REVFT_CHECK_MSG(p >= 0.0 && p <= 1.0, "BernoulliMaskStream: p=" << p);
  REVFT_CHECK(rng != nullptr);
  // Below ~3% the expected number of set lanes per mask is < 2, so gap
  // sampling (about one log per failure) beats 64 threshold draws.
  use_geometric_ = p > 0.0 && p < 0.03;
  if (use_geometric_) {
    inv_log1m_p_ = 1.0 / std::log1p(-p);
    countdown_ = draw_gap();
  } else if (p <= 0.0) {
    countdown_ = ~0ULL;
  }
}

void BernoulliMaskStream::next_masks(std::uint64_t* out, unsigned words) {
  switch (words) {
    case 1:
      draw_batch<1>(out);
      return;
    case 2:
      draw_batch<2>(out);
      return;
    case 4:
      draw_batch<4>(out);
      return;
    case 8:
      draw_batch<8>(out);
      return;
  }
  REVFT_CHECK_MSG(false, "next_masks: words=" << words << " not in {1,2,4,8}");
}

std::uint64_t BernoulliMaskStream::draw_dense(std::uint64_t* out,
                                              unsigned words) {
  if (p_ <= 0.0) {
    // skip_batch ran the counter down after ~2^64 lanes; rearm it.
    countdown_ = ~0ULL;
    for (unsigned w = 0; w < words; ++w) out[w] = 0;
    return 0;
  }
  if (p_ >= 1.0) {
    for (unsigned w = 0; w < words; ++w) out[w] = ~0ULL;
    return 64ULL * words;
  }
  std::uint64_t failing = 0;
  for (unsigned w = 0; w < words; ++w) {
    out[w] = rng_->next_bernoulli_mask(p_);
    failing += static_cast<std::uint64_t>(std::popcount(out[w]));
  }
  return failing;
}

PackedSimulator::PackedSimulator(const NoiseModel& model, std::uint64_t seed)
    : model_(model), rng_(seed) {
  streams_.reserve(kNumGateKinds);
  for (int k = 0; k < kNumGateKinds; ++k)
    streams_.emplace_back(model_.error_for(static_cast<GateKind>(k)), &rng_);
}

// Gate kernels instantiated per lane width. W is a compile-time
// constant, so every loop below is a fixed-trip-count word-array op
// the compiler unrolls and vectorizes (one AVX2 op at W=4, one
// AVX-512 op at W=8). Each kernel copies the operand words it reads
// into locals before it writes any output, so the loops vectorize
// without alias analysis: __restrict__ on the operand pointers stops
// helping once ideal_gate is inlined into the gate loops below.
template <unsigned W>
struct PackedKernels {
  using Words = std::uint64_t[W];

  [[gnu::always_inline]] static void load(const std::uint64_t* p, Words& v) {
    for (unsigned w = 0; w < W; ++w) v[w] = p[w];
  }

  [[gnu::always_inline]] static void ideal_gate(PackedState& state,
                                                const Gate& g) {
    const auto& b = g.bits;
    switch (g.kind) {
      case GateKind::kNot: {
        std::uint64_t* a = state.cell_words<W>(b[0]);
        for (unsigned w = 0; w < W; ++w) a[w] = ~a[w];
        return;
      }
      case GateKind::kCnot: {
        Words c{};
        load(state.cell_words<W>(b[0]), c);
        std::uint64_t* t = state.cell_words<W>(b[1]);
        for (unsigned w = 0; w < W; ++w) t[w] ^= c[w];
        return;
      }
      case GateKind::kSwap: {
        std::uint64_t* xp = state.cell_words<W>(b[0]);
        std::uint64_t* yp = state.cell_words<W>(b[1]);
        Words x{}, y{};
        load(xp, x);
        load(yp, y);
        for (unsigned w = 0; w < W; ++w) xp[w] = y[w];
        for (unsigned w = 0; w < W; ++w) yp[w] = x[w];
        return;
      }
      case GateKind::kToffoli: {
        Words c1{}, c2{};
        load(state.cell_words<W>(b[0]), c1);
        load(state.cell_words<W>(b[1]), c2);
        std::uint64_t* t = state.cell_words<W>(b[2]);
        for (unsigned w = 0; w < W; ++w) t[w] ^= c1[w] & c2[w];
        return;
      }
      case GateKind::kFredkin: {
        std::uint64_t* xp = state.cell_words<W>(b[1]);
        std::uint64_t* yp = state.cell_words<W>(b[2]);
        Words c{}, d{};
        load(state.cell_words<W>(b[0]), c);
        for (unsigned w = 0; w < W; ++w) d[w] = c[w] & (xp[w] ^ yp[w]);
        for (unsigned w = 0; w < W; ++w) xp[w] ^= d[w];
        for (unsigned w = 0; w < W; ++w) yp[w] ^= d[w];
        return;
      }
      case GateKind::kSwap3: {
        // Left rotation: new(a,b,c) = (old b, old c, old a).
        std::uint64_t* xp = state.cell_words<W>(b[0]);
        std::uint64_t* yp = state.cell_words<W>(b[1]);
        std::uint64_t* zp = state.cell_words<W>(b[2]);
        Words x{}, y{}, z{};
        load(xp, x);
        load(yp, y);
        load(zp, z);
        for (unsigned w = 0; w < W; ++w) xp[w] = y[w];
        for (unsigned w = 0; w < W; ++w) yp[w] = z[w];
        for (unsigned w = 0; w < W; ++w) zp[w] = x[w];
        return;
      }
      case GateKind::kMaj: {
        std::uint64_t* xp = state.cell_words<W>(b[0]);
        std::uint64_t* yp = state.cell_words<W>(b[1]);
        std::uint64_t* zp = state.cell_words<W>(b[2]);
        Words x{}, y{}, z{};
        load(xp, x);
        load(yp, y);
        load(zp, z);
        for (unsigned w = 0; w < W; ++w) {
          y[w] ^= x[w];
          z[w] ^= x[w];
          x[w] ^= y[w] & z[w];
        }
        for (unsigned w = 0; w < W; ++w) xp[w] = x[w];
        for (unsigned w = 0; w < W; ++w) yp[w] = y[w];
        for (unsigned w = 0; w < W; ++w) zp[w] = z[w];
        return;
      }
      case GateKind::kMajInv: {
        std::uint64_t* xp = state.cell_words<W>(b[0]);
        std::uint64_t* yp = state.cell_words<W>(b[1]);
        std::uint64_t* zp = state.cell_words<W>(b[2]);
        Words x{}, y{}, z{};
        load(xp, x);
        load(yp, y);
        load(zp, z);
        for (unsigned w = 0; w < W; ++w) {
          x[w] ^= y[w] & z[w];
          y[w] ^= x[w];
          z[w] ^= x[w];
        }
        for (unsigned w = 0; w < W; ++w) xp[w] = x[w];
        for (unsigned w = 0; w < W; ++w) yp[w] = y[w];
        for (unsigned w = 0; w < W; ++w) zp[w] = z[w];
        return;
      }
      case GateKind::kInit3: {
        for (unsigned i = 0; i < 3; ++i) {
          std::uint64_t* p = state.cell_words<W>(b[i]);
          for (unsigned w = 0; w < W; ++w) p[w] = 0;
        }
        return;
      }
      case GateKind::kF2g: {
        Words x{};
        load(state.cell_words<W>(b[0]), x);
        std::uint64_t* yp = state.cell_words<W>(b[1]);
        std::uint64_t* zp = state.cell_words<W>(b[2]);
        for (unsigned w = 0; w < W; ++w) yp[w] ^= x[w];
        for (unsigned w = 0; w < W; ++w) zp[w] ^= x[w];
        return;
      }
      case GateKind::kNft: {
        // Lanes with the control set map (b,c) -> (~c, ~b); XORing both
        // words with ~(b^c) under the control mask does exactly that.
        std::uint64_t* yp = state.cell_words<W>(b[1]);
        std::uint64_t* zp = state.cell_words<W>(b[2]);
        Words x{}, d{};
        load(state.cell_words<W>(b[0]), x);
        for (unsigned w = 0; w < W; ++w) d[w] = x[w] & ~(yp[w] ^ zp[w]);
        for (unsigned w = 0; w < W; ++w) yp[w] ^= d[w];
        for (unsigned w = 0; w < W; ++w) zp[w] ^= d[w];
        return;
      }
    }
  }

  static void ideal_circuit(PackedState& state, const Circuit& c) {
    for (const Gate& g : c.ops()) ideal_gate(state, g);
  }

  // One noisy gate: the word ops, then the kind's gap counter. Only a
  // batch holding a failure goes further — the gap walk (masks plus
  // failing-lane count), then in the failed lanes every touched bit
  // becomes uniformly random, independent of the correct output, per
  // the paper's model: one fresh word per (bit, failing word), drawn
  // bit-major over ascending failing words — at W=1 exactly the legacy
  // one-draw-per-touched-bit stream.
  [[gnu::always_inline]] static void noisy_gate(PackedSimulator& sim,
                                                PackedState& state,
                                                const Gate& g) {
    ideal_gate(state, g);
    BernoulliMaskStream& stream =
        sim.streams_[static_cast<std::size_t>(g.kind)];
    if (stream.skip_batch<W>()) return;
    std::uint64_t fail[W] = {};
    const std::uint64_t failing_lanes = stream.draw_batch<W>(fail);
    if (failing_lanes == 0) return;
    sim.faults_drawn_ += failing_lanes;
    // Failing words are sparse (usually exactly one); list them once,
    // branch-free, so the injection walks O(failing words) per bit.
    unsigned failing = 0;
    unsigned failing_w[W] = {};
    for (unsigned w = 0; w < W; ++w) {
      failing_w[failing] = w;
      failing += fail[w] != 0 ? 1u : 0u;
    }
    const int n = gate_arity(g.kind);
    for (int i = 0; i < n; ++i) {
      std::uint64_t* wp =
          state.cell_words<W>(g.bits[static_cast<std::size_t>(i)]);
      for (unsigned f = 0; f < failing; ++f) {
        const unsigned w = failing_w[f];
        wp[w] = (wp[w] & ~fail[w]) | (sim.rng_.next() & fail[w]);
      }
    }
  }

  static void noisy_span(PackedSimulator& sim, PackedState& state,
                         const Circuit& c, std::size_t first,
                         std::size_t last) {
    const Gate* ops = c.ops().data();
    for (std::size_t i = first; i < last; ++i) noisy_gate(sim, state, ops[i]);
  }

  static void noisy_ops(PackedSimulator& sim, PackedState& state,
                        const Circuit& c,
                        std::span<const std::size_t> positions) {
    const Gate* ops = c.ops().data();
    for (const std::size_t pos : positions) {
      REVFT_DASSERT(pos < c.size());
      noisy_gate(sim, state, ops[pos]);
    }
  }
};

void PackedSimulator::apply_ideal(PackedState& state, const Gate& g) {
  switch (state.lane_words()) {
    case 1:
      PackedKernels<1>::ideal_gate(state, g);
      return;
    case 2:
      PackedKernels<2>::ideal_gate(state, g);
      return;
    case 4:
      PackedKernels<4>::ideal_gate(state, g);
      return;
    case 8:
      PackedKernels<8>::ideal_gate(state, g);
      return;
  }
  REVFT_CHECK_MSG(false, "apply_ideal: bad lane_words");
}

void PackedSimulator::apply_ideal(PackedState& state, const Circuit& c) {
  REVFT_CHECK_MSG(c.width() == state.width(), "apply_ideal: width mismatch");
  switch (state.lane_words()) {
    case 1:
      PackedKernels<1>::ideal_circuit(state, c);
      return;
    case 2:
      PackedKernels<2>::ideal_circuit(state, c);
      return;
    case 4:
      PackedKernels<4>::ideal_circuit(state, c);
      return;
    case 8:
      PackedKernels<8>::ideal_circuit(state, c);
      return;
  }
  REVFT_CHECK_MSG(false, "apply_ideal: bad lane_words");
}

void PackedSimulator::apply_noisy(PackedState& state, const Gate& g) {
  switch (state.lane_words()) {
    case 1:
      PackedKernels<1>::noisy_gate(*this, state, g);
      return;
    case 2:
      PackedKernels<2>::noisy_gate(*this, state, g);
      return;
    case 4:
      PackedKernels<4>::noisy_gate(*this, state, g);
      return;
    case 8:
      PackedKernels<8>::noisy_gate(*this, state, g);
      return;
  }
  REVFT_CHECK_MSG(false, "apply_noisy: bad lane_words");
}

void PackedSimulator::apply_noisy(PackedState& state, const Circuit& c) {
  REVFT_CHECK_MSG(c.width() == state.width(), "apply_noisy: width mismatch");
  apply_noisy_span(state, c, 0, c.size());
}

void PackedSimulator::apply_noisy_span(PackedState& state, const Circuit& c,
                                       std::size_t first, std::size_t last) {
  REVFT_CHECK_MSG(c.width() == state.width(),
                  "apply_noisy_span: width mismatch");
  REVFT_CHECK_MSG(first <= last && last <= c.size(),
                  "apply_noisy_span: bad range [" << first << ", " << last
                                                  << ")");
  switch (state.lane_words()) {
    case 1:
      PackedKernels<1>::noisy_span(*this, state, c, first, last);
      return;
    case 2:
      PackedKernels<2>::noisy_span(*this, state, c, first, last);
      return;
    case 4:
      PackedKernels<4>::noisy_span(*this, state, c, first, last);
      return;
    case 8:
      PackedKernels<8>::noisy_span(*this, state, c, first, last);
      return;
  }
  REVFT_CHECK_MSG(false, "apply_noisy_span: bad lane_words");
}

void PackedSimulator::apply_noisy_ops(PackedState& state, const Circuit& c,
                                      std::span<const std::size_t> positions) {
  REVFT_CHECK_MSG(c.width() == state.width(),
                  "apply_noisy_ops: width mismatch");
  switch (state.lane_words()) {
    case 1:
      PackedKernels<1>::noisy_ops(*this, state, c, positions);
      return;
    case 2:
      PackedKernels<2>::noisy_ops(*this, state, c, positions);
      return;
    case 4:
      PackedKernels<4>::noisy_ops(*this, state, c, positions);
      return;
    case 8:
      PackedKernels<8>::noisy_ops(*this, state, c, positions);
      return;
  }
  REVFT_CHECK_MSG(false, "apply_noisy_ops: bad lane_words");
}

}  // namespace revft
