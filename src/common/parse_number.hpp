// Strict number parsing for command-line flags and environment variables.
//
// std::stoull wraps "-1" to 2^64-1 and strtod reads "ten" as 0, so a typo
// in a flag silently becomes a different experiment. parse_number accepts
// only a complete, unsigned, finite number and otherwise throws
// std::invalid_argument naming where the text came from.
#pragma once

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace nvmenc {

/// Parses `text` as a T, rejecting signs (from_chars takes no '+'),
/// garbage, trailing characters and non-finite values. `what` names the
/// source in the error message: a flag such as "--jobs" or a variable such
/// as "NVMENC_GATE_INJECT".
template <typename T>
[[nodiscard]] T parse_number(const std::string& what,
                             const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc{} && ptr == end && text[0] != '-';
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    throw std::invalid_argument{"invalid value for '" + what + "': '" +
                                text + "'"};
  }
  return value;
}

}  // namespace nvmenc
