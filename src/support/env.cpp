#include "support/env.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>

#include "support/error.h"

namespace revft::env {

std::optional<std::uint64_t> decimal(const char* name, std::uint64_t min,
                                     std::uint64_t max) {
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  // from_chars takes no '+', '-', base prefix or space, and trailing
  // text stops it early.
  const char* end = value + std::strlen(value);
  std::uint64_t parsed = 0;
  const auto [stop, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc() || stop != end || parsed < min || parsed > max)
    throw Error(std::string(name) + "=\"" + value +
                "\": expected a decimal integer in [" + std::to_string(min) +
                ", " + std::to_string(max) + "]");
  return parsed;
}

}  // namespace revft::env
