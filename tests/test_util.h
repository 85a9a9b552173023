// Shared fixtures of the test suites: the table of every primitive
// gate kind and one random-circuit generator over all of them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>

#include "rev/circuit.h"
#include "rev/gate.h"
#include "support/rng.h"

namespace revft::test_util {

/// Every primitive kind, in enum order.
inline constexpr GateKind kAllKinds[] = {
    GateKind::kNot,     GateKind::kCnot,    GateKind::kSwap,
    GateKind::kToffoli, GateKind::kFredkin, GateKind::kSwap3,
    GateKind::kMaj,     GateKind::kMajInv,  GateKind::kInit3,
    GateKind::kF2g,     GateKind::kNft};

static_assert(static_cast<int>(std::size(kAllKinds)) == kNumGateKinds,
              "test table must cover every kind");

/// `ops` gates of uniformly random kind (init3 included) on uniformly
/// random distinct operands of a `width`-bit circuit (width >= 3).
/// Operands past a gate's arity stay zero, the canonical Gate form.
inline Circuit random_circuit(Xoshiro256& rng, std::uint32_t width,
                              std::size_t ops) {
  Circuit circuit(width);
  for (std::size_t i = 0; i < ops; ++i) {
    const GateKind kind =
        kAllKinds[rng.next_below(static_cast<std::uint64_t>(kNumGateKinds))];
    std::array<std::uint32_t, 3> bits{};
    for (int k = 0; k < gate_arity(kind); ++k) {
      std::uint32_t b = 0;
      bool fresh = false;
      while (!fresh) {
        b = static_cast<std::uint32_t>(rng.next_below(width));
        fresh = true;
        for (int j = 0; j < k; ++j)
          if (bits[static_cast<std::size_t>(j)] == b) fresh = false;
      }
      bits[static_cast<std::size_t>(k)] = b;
    }
    circuit.push(Gate{kind, bits});
  }
  return circuit;
}

}  // namespace revft::test_util
