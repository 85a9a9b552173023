// revft/ft/machine_kernel.h
//
// THE machine-workload Monte-Carlo kernel: uniformly random logical
// inputs broadcast onto a compiled program's entry cells, majority
// decode at the final slots against an exhaustive truth table. The
// engines judge a whole batch at once through classify_batch: the
// 3-cell majority vote runs word-parallel, and the expected outputs
// come from one truth-table lookup per lane, with the inputs and
// outputs moved between bit-sliced lane words and per-lane values
// eight lanes (one byte of each word) at a time.
//
// One definition on purpose: the checked engine
// (CheckedMachineExperiment), the recovering engine
// (RecoveryExperiment) and bench_recover's timing kernels all
// instantiate this type, and the cross-engine bit-for-bit contract
// (tests/test_recover.cpp, RecoveringMc.NoRetryMatchesCheckedEngine-
// BitForBit) holds only while every consumer consumes randomness
// identically — separate copies would drift silently.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "local/checked_machine.h"
#include "noise/packed_sim.h"
#include "rev/simulator.h"
#include "support/error.h"
#include "support/rng.h"

namespace revft {

/// Exhaustive truth table judging a machine workload's outputs
/// (width-capped: the table has 2^width entries).
inline std::vector<unsigned> machine_truth_table(const Circuit& logical) {
  REVFT_CHECK_MSG(logical.width() <= 16,
                  "machine_truth_table: capped at 16 bits");
  std::vector<unsigned> truth;
  truth.reserve(1u << logical.width());
  for (unsigned v = 0; v < (1u << logical.width()); ++v)
    truth.push_back(static_cast<unsigned>(simulate(logical, v)));
  return truth;
}

/// The byte-sliced lane transposes of MachineWorkloadKernel.
namespace machine_kernel_detail {

/// kSpread[b]: byte i is bit i of b — eight lanes' bits of one lane
/// word byte, one lane per byte.
inline constexpr std::array<std::uint64_t, 256> kSpread = [] {
  std::array<std::uint64_t, 256> table{};
  for (unsigned b = 0; b < 256; ++b)
    for (unsigned i = 0; i < 8; ++i)
      table[b] |= static_cast<std::uint64_t>((b >> i) & 1u) << (8 * i);
  return table;
}();

/// The inverse: bit i of the result is bit 0 of byte i of `bytes`.
constexpr std::uint64_t gather_byte_lsbs(std::uint64_t bytes) {
  return ((bytes & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56;
}

}  // namespace machine_kernel_detail

/// Per-shard kernel (the parallel engines' factory contract): one
/// rng.next() per logical bit per lane word per batch, broadcast to
/// that bit's entry cells; classify majority-decodes one lane's final
/// slots, classify_batch every lane's. Works at any lane width
/// (lane_inputs is laid out bit-major, lane_inputs[k * lane_words +
/// w]); at lane_words = 1 the draw order is the legacy
/// one-next()-per-logical-bit stream. Build it with make_machine_kernel,
/// which checks the program against the limits below.
struct MachineWorkloadKernel {
  /// The byte-sliced evaluator carries a lane's input and expected
  /// output in two bytes.
  static constexpr std::uint32_t kMaxLogicalBits = 16;

  const CheckedMachineProgram* program;
  const std::vector<unsigned>* truth;
  std::vector<std::uint64_t> lane_inputs;

  void prepare(PackedState& state, Xoshiro256& rng, std::uint64_t) {
    const unsigned W = state.lane_words();
    lane_inputs.resize(static_cast<std::size_t>(program->logical_bits) * W);
    for (std::uint32_t k = 0; k < program->logical_bits; ++k) {
      for (unsigned w = 0; w < W; ++w) lane_inputs[k * W + w] = rng.next();
      for (const auto bit : program->input_cells[k]) {
        std::uint64_t* dst = state.words(bit);
        for (unsigned w = 0; w < W; ++w) dst[w] = lane_inputs[k * W + w];
      }
    }
  }

  bool classify(const PackedState& state, int lane, std::uint64_t) const {
    const unsigned W = state.lane_words();
    const unsigned wi = static_cast<unsigned>(lane) >> 6;
    const unsigned sh = static_cast<unsigned>(lane) & 63u;
    unsigned input = 0;
    for (std::uint32_t k = 0; k < program->logical_bits; ++k)
      input |= static_cast<unsigned>((lane_inputs[k * W + wi] >> sh) & 1u)
               << k;
    const unsigned expected = (*truth)[input];
    for (std::uint32_t k = 0; k < program->logical_bits; ++k) {
      const auto& cw = program->output_cells[k];
      const int votes = static_cast<int>(state.bit_lane(cw[0], lane)) +
                        static_cast<int>(state.bit_lane(cw[1], lane)) +
                        static_cast<int>(state.bit_lane(cw[2], lane));
      if ((votes >= 2 ? 1u : 0u) != ((expected >> k) & 1u)) return true;
    }
    return false;
  }

  /// Sets bit t of `wrong` iff lane t's majority-decoded output differs
  /// from the truth table — classify for every lane of the batch at
  /// once (lanes past a partial batch's live count get a value too; the
  /// engines mask them off).
  void classify_batch(const PackedState& state, std::uint64_t,
                      LaneMask& wrong) const {
    using machine_kernel_detail::gather_byte_lsbs;
    using machine_kernel_detail::kSpread;
    const unsigned W = state.lane_words();
    const std::uint32_t n = program->logical_bits;
    const unsigned* table = truth->data();
    for (unsigned w = 0; w < W; ++w) {
      std::uint64_t expected[kMaxLogicalBits] = {};
      for (unsigned j = 0; j < 64; j += 8) {  // lanes 64w + j .. + 7
        // Byte i of in_lo / in_hi: input bits 0-7 / 8-15 of lane j + i.
        std::uint64_t in_lo = 0, in_hi = 0;
        for (std::uint32_t k = 0; k < n; ++k) {
          const std::uint64_t spread =
              kSpread[(lane_inputs[k * W + w] >> j) & 0xFF];
          if (k < 8)
            in_lo |= spread << k;
          else
            in_hi |= spread << (k - 8);
        }
        std::uint64_t out_lo = 0, out_hi = 0;
        for (unsigned i = 0; i < 64; i += 8) {
          const unsigned out =
              table[((in_lo >> i) & 0xFF) | (((in_hi >> i) & 0xFF) << 8)];
          out_lo |= static_cast<std::uint64_t>(out & 0xFF) << i;
          out_hi |= static_cast<std::uint64_t>((out >> 8) & 0xFF) << i;
        }
        for (std::uint32_t k = 0; k < n; ++k)
          expected[k] |=
              gather_byte_lsbs(k < 8 ? out_lo >> k : out_hi >> (k - 8)) << j;
      }
      std::uint64_t bad = 0;
      for (std::uint32_t k = 0; k < n; ++k) {
        const auto& cw = program->output_cells[k];
        const std::uint64_t x = state.words(cw[0])[w];
        const std::uint64_t y = state.words(cw[1])[w];
        const std::uint64_t z = state.words(cw[2])[w];
        bad |= ((x & y) | (x & z) | (y & z)) ^ expected[k];
      }
      wrong.word(w) = bad;
    }
  }
};

/// Factory-call convenience: a fresh kernel for one shard. Throws
/// revft::Error unless the program has at most kMaxLogicalBits logical
/// bits, one entry and one exit codeword of 3 distinct in-range cells
/// per bit, and `truth` has one entry per input.
inline MachineWorkloadKernel make_machine_kernel(
    const CheckedMachineProgram& program, const std::vector<unsigned>& truth) {
  const std::uint32_t n = program.logical_bits;
  constexpr std::uint32_t kMaxBits = MachineWorkloadKernel::kMaxLogicalBits;
  REVFT_CHECK_MSG(n <= kMaxBits, "make_machine_kernel: "
                                     << n << " logical bits exceed the "
                                     << kMaxBits << "-bit limit");
  REVFT_CHECK_MSG(
      program.input_cells.size() == n && program.output_cells.size() == n,
      "make_machine_kernel: " << program.input_cells.size() << " entry and "
                              << program.output_cells.size()
                              << " exit codewords for " << n
                              << " logical bits");
  REVFT_CHECK_MSG(truth.size() == (std::size_t{1} << n),
                  "make_machine_kernel: truth table has " << truth.size()
                      << " entries, want " << (std::size_t{1} << n));
  const std::uint32_t width = program.checked.circuit.width();
  for (const auto* codewords : {&program.input_cells, &program.output_cells})
    for (std::uint32_t k = 0; k < n; ++k) {
      const auto& cw = (*codewords)[k];
      REVFT_CHECK_MSG(cw[0] != cw[1] && cw[0] != cw[2] && cw[1] != cw[2] &&
                          cw[0] < width && cw[1] < width && cw[2] < width,
                      "make_machine_kernel: codeword of logical bit "
                          << k << " is not 3 distinct cells below width "
                          << width);
    }
  return MachineWorkloadKernel{&program, &truth,
                               std::vector<std::uint64_t>(n, 0)};
}

}  // namespace revft
