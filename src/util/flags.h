// Command-line flag values, shared by the tools.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>

#include "util/strings.h"

namespace lazyeye {

/// Reads a flag value that must be a base-10 integer in [lo, hi]
/// (parse_u64: no sign, blanks or trailing junk — no atoi-style silent
/// zeroes). Anything else prints "bad <flag>: <value>" to stderr and returns
/// false, leaving `out` unchanged.
template <typename T>
bool parse_flag(const char* flag, const char* value, std::uint64_t lo,
                std::uint64_t hi, T& out) {
  const std::optional<std::uint64_t> v = parse_u64(value);
  if (!v || *v < lo || *v > hi) {
    std::fprintf(stderr, "bad %s: %s\n", flag, value);
    return false;
  }
  out = static_cast<T>(*v);
  return true;
}

}  // namespace lazyeye
