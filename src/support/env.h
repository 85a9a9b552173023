// revft/support/env.h
//
// Strict parsing of the numeric environment knobs: REVFT_THREADS
// (noise/parallel_mc's resolve_thread_count), REVFT_TRIALS and
// REVFT_SEED (bench/bench_common). One parser so the three cannot
// drift: a value is decimal digits and nothing else.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

namespace revft::env {

/// The decimal value of environment variable `name`, or nullopt when
/// it is unset. Only decimal digits are accepted — no sign, base
/// prefix, space or trailing text, and "" is not a number. Anything
/// else, or a value outside [min, max], throws revft::Error naming
/// the variable.
std::optional<std::uint64_t> decimal(
    const char* name, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

}  // namespace revft::env
