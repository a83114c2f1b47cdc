#pragma once

// Strict parsing of numeric command-line flag values, shared by the
// bench drivers (bench/bench_util.hpp), bench_scale_sweep and the tools
// (nbctune-analyze, nbctune-top).

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <system_error>
#include <type_traits>

namespace nbctune::obs {

/// `arg`, the value given to `flag`, as a T no smaller than `min`
/// (floating-point values must also be finite).  Anything else, such as
/// trailing text, a sign on an unsigned type or a value T cannot hold,
/// is a usage error: the process prints a message naming the flag and
/// exits with status 2.
template <class T>
T parse_flag(const char* flag, const char* arg, T min) {
  T v{};
  const char* end = arg + std::strlen(arg);
  const auto [ptr, ec] = std::from_chars(arg, end, v);
  bool ok = ec == std::errc() && ptr == end && v >= min;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (!ok) {
    std::cerr << flag << ": expected "
              << (std::is_integral_v<T> ? "an integer" : "a number")
              << " >= " << min << ", got '" << arg << "'\n";
    std::exit(2);
  }
  return v;
}

}  // namespace nbctune::obs
